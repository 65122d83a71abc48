//! Heap-allocation accounting for the zero-alloc inference guarantee.
//!
//! Bench targets register [`CountingAlloc`] as their `#[global_allocator]`
//! and read [`alloc_events`] around a measured loop. Steady-state inference
//! through `pgmr_nn::Network::run` runs out of the thread-local workspace
//! arena, so after warmup the counter must not move at all — the
//! throughput bench asserts exactly that and reports
//! `infer.allocs_per_image` in its JSON artifact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation events (alloc + grow-realloc) observed process-wide. Frees
/// are deliberately not counted: the invariant under test is about
/// *acquiring* heap memory on the hot path.
static EVENTS: AtomicU64 = AtomicU64::new(0);

/// A pass-through to the system allocator that counts allocation events.
///
/// Register it in a bench target with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: pgmr_bench::alloc_counter::CountingAlloc =
///     pgmr_bench::alloc_counter::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: pure delegation to `System`; the counter bump has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

/// Total allocation events since process start (all threads).
pub fn alloc_events() -> u64 {
    EVENTS.load(Ordering::Relaxed)
}
