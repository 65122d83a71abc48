//! Read-only weight arenas: one 64-byte-aligned `f32` block shared by
//! every tenant of a model blob.
//!
//! A [`WeightArena`] owns a single cache-line-aligned allocation sized at
//! construction; shared [`Tensor`](crate::Tensor)s
//! ([`Tensor::shared`](crate::Tensor::shared)) read disjoint sub-ranges
//! of it through an `Arc`. Cloning such a tensor clones the `Arc`, not the
//! weights — the mechanism behind multi-tenant member sharing and cheap
//! per-worker serve replicas. The arena is mutable only while being
//! filled (before it is wrapped in an `Arc`); afterwards every access is
//! read-only, so its tensors are freely shared across threads.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::fmt;
use std::ptr::NonNull;

/// Cache-line alignment of every arena allocation, in bytes. 64 bytes is
/// one x86 cache line and covers every SIMD alignment the GEMM kernels
/// could want (AVX-512 loads included).
pub const ARENA_ALIGN: usize = 64;

/// `f32` elements per [`ARENA_ALIGN`] boundary — tensor offsets inside an
/// arena are rounded up to multiples of this so every tensor starts on a
/// cache line.
pub const ARENA_ALIGN_ELEMS: usize = ARENA_ALIGN / std::mem::size_of::<f32>();

/// Rounds an element offset up to the next [`ARENA_ALIGN`]-byte boundary.
pub fn align_offset(elems: usize) -> usize {
    elems.div_ceil(ARENA_ALIGN_ELEMS) * ARENA_ALIGN_ELEMS
}

/// One 64-byte-aligned block of `f32` weights, filled once at load time
/// and read-only thereafter.
pub struct WeightArena {
    ptr: NonNull<f32>,
    len: usize,
}

// SAFETY: the arena is an owned allocation; after the fill phase every
// access goes through `&self` (shared, read-only), and the fill phase
// requires `&mut self` which the borrow checker serializes.
unsafe impl Send for WeightArena {}
unsafe impl Sync for WeightArena {}

impl WeightArena {
    /// Allocates a zeroed arena of `len` `f32` elements, aligned to
    /// [`ARENA_ALIGN`] bytes.
    pub fn new_zeroed(len: usize) -> Self {
        if len == 0 {
            return WeightArena { ptr: NonNull::dangling(), len: 0 };
        }
        let layout = Layout::from_size_align(len * std::mem::size_of::<f32>(), ARENA_ALIGN)
            .expect("arena layout");
        // SAFETY: layout has non-zero size (len > 0 checked above).
        let raw = unsafe { alloc_zeroed(layout) };
        let ptr = NonNull::new(raw.cast::<f32>())
            .unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        WeightArena { ptr, len }
    }

    /// Number of `f32` elements in the arena.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the arena holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole arena as a read-only slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        // SAFETY: ptr/len describe this arena's own allocation (or a
        // dangling pointer with len 0, for which from_raw_parts is fine).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Mutable access for the fill phase. Exclusive by construction: the
    /// loader fills the arena before wrapping it in an `Arc`, so no shared
    /// tensor can alias this borrow.
    pub fn data_mut(&mut self) -> &mut [f32] {
        // SAFETY: &mut self guarantees exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Resident size of the arena allocation in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.len * std::mem::size_of::<f32>()
    }
}

impl Drop for WeightArena {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        let layout = Layout::from_size_align(self.len * std::mem::size_of::<f32>(), ARENA_ALIGN)
            .expect("arena layout");
        // SAFETY: allocated in `new_zeroed` with this exact layout.
        unsafe { dealloc(self.ptr.as_ptr().cast::<u8>(), layout) };
    }
}

impl fmt::Debug for WeightArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WeightArena {{ len: {} }}", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;
    use std::sync::Arc;

    #[test]
    fn arena_is_aligned_and_zeroed() {
        let arena = WeightArena::new_zeroed(100);
        assert_eq!(arena.len(), 100);
        assert_eq!(arena.data().as_ptr() as usize % ARENA_ALIGN, 0);
        assert!(arena.data().iter().all(|&v| v.to_bits() == 0));
        assert_eq!(arena.resident_bytes(), 400);
    }

    #[test]
    fn zero_length_arena_is_fine() {
        let arena = WeightArena::new_zeroed(0);
        assert!(arena.is_empty());
        assert!(arena.data().is_empty());
    }

    #[test]
    fn tensors_share_without_copying() {
        let mut arena = WeightArena::new_zeroed(align_offset(6) + 4);
        for (i, v) in arena.data_mut().iter_mut().enumerate() {
            *v = i as f32;
        }
        let arena = Arc::new(arena);
        let a = Tensor::shared(Arc::clone(&arena), 0, [2, 3]);
        let b = Tensor::shared(Arc::clone(&arena), align_offset(6), [4]);
        assert_eq!(a.data(), &[0., 1., 2., 3., 4., 5.]);
        assert_eq!(b.data().len(), 4);
        assert_eq!(b.data().as_ptr() as usize % ARENA_ALIGN, 0, "offsets land on cache lines");
        assert_eq!(Arc::strong_count(&arena), 3);
    }

    #[test]
    fn aligned_offsets_land_on_cache_lines() {
        assert_eq!(align_offset(0), 0);
        assert_eq!(align_offset(1), ARENA_ALIGN_ELEMS);
        assert_eq!(align_offset(16), 16);
        assert_eq!(align_offset(17), 32);
    }
}
