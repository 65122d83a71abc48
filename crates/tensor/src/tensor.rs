//! Dense, row-major `f32` tensors over owned or arena-shared storage.

use crate::arena::WeightArena;
use crate::shape::Shape;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A dense, row-major tensor of `f32` values: one [`Shape`] over one
/// storage.
///
/// `Tensor` is the common currency between the dataset generators, the
/// preprocessors, and the neural-network layers. Batches of images use the
/// NCHW convention: `[batch, channels, height, width]`.
///
/// The storage is either an owned `Vec<f32>` (images, activations,
/// gradients, trainable weights) or a slice of a shared [`WeightArena`]
/// (the weights every tenant of one model blob reads; see
/// [`Tensor::shared`]). Reads are the same for both. Cloning shared
/// storage bumps the arena's `Arc` and copies no weights; the first
/// [`Tensor::data_mut`] or [`Tensor::map_in_place`] detaches it
/// copy-on-write into an owned copy, so a tenant's mutation (fault
/// injection, precision quantization, an optimizer step) never writes
/// through to its co-tenants.
///
/// # Example
///
/// ```
/// use pgmr_tensor::Tensor;
///
/// let t = Tensor::filled([2, 2], 3.0);
/// assert_eq!(t.sum(), 12.0);
/// assert_eq!(t.scale(0.5).data(), &[1.5, 1.5, 1.5, 1.5]);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    storage: Storage,
}

#[derive(Clone)]
enum Storage {
    Owned(Vec<f32>),
    /// `shape.len()` elements starting this many elements into the arena.
    Shared(Arc<WeightArena>, usize),
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        Tensor::filled(shape, 0.0)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::filled(shape, 1.0)
    }

    /// Creates a tensor where every element is `value`.
    pub fn filled(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor { shape, storage: Storage::Owned(vec![value; shape.len()]) }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            data.len(),
            "shape {shape:?} expects {} elements, got {}",
            shape.len(),
            data.len()
        );
        Tensor { shape, storage: Storage::Owned(data) }
    }

    /// A read-only tensor of `shape` over the arena elements starting at
    /// `offset`. Nothing is copied until the first mutable access.
    ///
    /// # Panics
    ///
    /// Panics if the tensor would run past the end of the arena.
    pub fn shared(arena: Arc<WeightArena>, offset: usize, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert!(
            offset + shape.len() <= arena.len(),
            "arena slice [{offset}, {}) out of bounds for arena of {} elems",
            offset + shape.len(),
            arena.len()
        );
        Tensor { shape, storage: Storage::Shared(arena, offset) }
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn uniform<R: Rng>(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut R) -> Self {
        let shape = shape.into();
        let data = (0..shape.len()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor::from_vec(shape, data)
    }

    /// Creates a tensor with elements drawn from a normal distribution with
    /// the given mean and standard deviation (Box–Muller transform, so only
    /// `Rng` is required).
    pub fn normal<R: Rng>(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut R) -> Self {
        let shape = shape.into();
        let n = shape.len();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < n {
                data.push(mean + std * r * theta.sin());
            }
        }
        Tensor::from_vec(shape, data)
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Immutable view of the row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        match &self.storage {
            Storage::Owned(data) => data,
            Storage::Shared(arena, offset) => &arena.data()[*offset..*offset + self.shape.len()],
        }
    }

    /// Mutable view of the row-major data; shared storage detaches into
    /// an owned copy first.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.detach()
    }

    /// Consumes the tensor and returns its owned data (a copy when the
    /// storage is shared). The activation workspace reclaims storage for
    /// reuse through it.
    pub fn into_data(mut self) -> Vec<f32> {
        std::mem::take(self.detach())
    }

    /// True while the tensor reads from a shared [`WeightArena`].
    pub fn is_shared(&self) -> bool {
        matches!(self.storage, Storage::Shared(..))
    }

    /// The owned storage, copying shared storage out of its arena first.
    #[inline]
    // pgmr-lint: boundary(hot-path-alloc): copy-on-write detach fires on the first *mutation* of arena-shared storage (training, fault/precision injection) — the shared-weight inference forward only reads weights, and owned activations pass straight through
    fn detach(&mut self) -> &mut Vec<f32> {
        if let Storage::Shared(..) = self.storage {
            self.storage = Storage::Owned(self.data().to_vec());
        }
        match &mut self.storage {
            Storage::Owned(data) => data,
            Storage::Shared(..) => unreachable!("detach leaves owned storage"),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// True when the tensor has no elements (never constructible, but
    /// provided for API completeness alongside [`Tensor::len`]).
    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }

    /// The same data under a new shape; nothing is copied.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            self.len(),
            shape.len(),
            "cannot reshape {:?} ({} elems) into {shape:?} ({} elems)",
            self.shape,
            self.len(),
            shape.len()
        );
        self.shape = shape;
        self
    }

    /// Elementwise sum of two tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference of two tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Returns a new tensor with every element multiplied by `factor`.
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|x| x * factor)
    }

    /// Applies `f` to every element, returning a new (owned) tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(self.shape, self.data().iter().map(|&x| f(x)).collect())
    }

    /// Applies `f` to every element in place (detaching shared storage).
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data_mut() {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        let data = self.data().iter().zip(other.data()).map(|(&a, &b)| f(a, b)).collect();
        Tensor::from_vec(self.shape, data)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Largest element. Returns `f32::NEG_INFINITY` only for the impossible
    /// empty case.
    pub fn max(&self) -> f32 {
        self.data().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element.
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared L2 norm of the tensor, useful for gradient diagnostics.
    pub fn norm_sq(&self) -> f32 {
        self.data().iter().map(|x| x * x).sum()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data().iter().any(|x| !x.is_finite())
    }

    /// Extracts image `i` of an NCHW batch as a `[1, c, h, w]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or `i` is out of range.
    pub fn image(&self, i: usize) -> Tensor {
        let (n, c, h, w) = self.shape.as_nchw();
        assert!(i < n, "image index {i} out of bounds for batch of {n}");
        let stride = c * h * w;
        Tensor::from_vec([1, c, h, w], self.data()[i * stride..(i + 1) * stride].to_vec())
    }

    /// Stacks `[1, c, h, w]` images into an `[n, c, h, w]` batch.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty or the image shapes are inconsistent.
    pub fn stack_images(images: &[Tensor]) -> Tensor {
        assert!(!images.is_empty(), "cannot stack an empty image list");
        let (n0, c, h, w) = images[0].shape.as_nchw();
        assert_eq!(n0, 1, "stack_images expects single-image tensors");
        let mut data = Vec::with_capacity(images.len() * c * h * w);
        for img in images {
            assert_eq!(img.shape.as_nchw(), (1, c, h, w), "inconsistent image shapes in stack");
            data.extend_from_slice(img.data());
        }
        Tensor::from_vec([images.len(), c, h, w], data)
    }
}

impl PartialEq for Tensor {
    /// Equal shapes and equal elements, whatever the storage.
    fn eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor({}, ", self.shape)?;
        let data = self.data();
        if data.len() <= PREVIEW {
            write!(f, "{data:?})")
        } else {
            write!(f, "{:?}…)", &data[..PREVIEW])
        }
    }
}

impl Default for Tensor {
    /// A scalar zero tensor: the simplest valid tensor.
    fn default() -> Self {
        Tensor::zeros([1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec([2, 3], vec![0., 1., 2., 3., 4., 5.]);
        assert_eq!(t.shape().dims(), &[2, 3]);
        assert_eq!(t.data()[5], 5.0);
        assert!(!t.is_shared());
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![3], vec![1., 2., 3.]);
        let b = Tensor::from_vec(vec![3], vec![4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.zip_with(&b, |x, y| x * y).data(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![4], vec![-1., 0., 2., 3.]);
        assert_eq!(t.sum(), 4.0);
        assert_eq!(t.mean(), 1.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -1.0);
        assert_eq!(t.norm_sq(), 14.0);
    }

    #[test]
    fn normal_has_requested_moments_approximately() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::normal(vec![20_000], 1.0, 2.0, &mut rng);
        let mean = t.mean();
        let var = t.map(|x| (x - mean) * (x - mean)).mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::uniform(vec![1000], -0.5, 0.5, &mut rng);
        assert!(t.min() >= -0.5 && t.max() < 0.5);
    }

    #[test]
    fn image_extraction_and_stack_round_trip() {
        let mut rng = StdRng::seed_from_u64(11);
        let batch = Tensor::uniform(vec![3, 2, 4, 4], 0.0, 1.0, &mut rng);
        let images: Vec<Tensor> = (0..3).map(|i| batch.image(i)).collect();
        let restacked = Tensor::stack_images(&images);
        assert_eq!(restacked, batch);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(vec![3]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_shape_mismatch() {
        let a = Tensor::zeros(vec![2]);
        let b = Tensor::zeros(vec![3]);
        let _ = a.add(&b);
    }

    #[test]
    fn reshape_keeps_data() {
        let t = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        let r = t.clone().reshape([4]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape().dims(), &[4]);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_rejects_mismatched_len() {
        let _ = Tensor::zeros([6, 4]).reshape([5, 5]);
    }

    /// An arena holding `0, 1, 2, …`.
    fn counting_arena(len: usize) -> Arc<WeightArena> {
        let mut arena = WeightArena::new_zeroed(len);
        for (i, v) in arena.data_mut().iter_mut().enumerate() {
            *v = i as f32;
        }
        Arc::new(arena)
    }

    #[test]
    fn shared_storage_reads_its_arena_slice() {
        let arena = counting_arena(24);
        let t = Tensor::shared(Arc::clone(&arena), 16, [2, 3]);
        assert!(t.is_shared());
        assert_eq!(t.len(), 6);
        assert_eq!(t.data(), &[16., 17., 18., 19., 20., 21.]);
        assert_eq!(t.data().as_ptr(), arena.data()[16..].as_ptr(), "a read copies nothing");
        assert_eq!(t, Tensor::from_vec([2, 3], vec![16., 17., 18., 19., 20., 21.]));
        assert_eq!(t.map(|v| v - 16.0).data(), &[0., 1., 2., 3., 4., 5.]);
    }

    #[test]
    fn shared_storage_clone_bumps_the_arc() {
        let arena = counting_arena(8);
        let t = Tensor::shared(Arc::clone(&arena), 0, [8]);
        let c = t.clone();
        assert_eq!(Arc::strong_count(&arena), 3);
        assert!(c.is_shared());
        assert_eq!(c.data().as_ptr(), t.data().as_ptr(), "clones read one allocation");
        drop((t, c));
        assert_eq!(Arc::strong_count(&arena), 1);
    }

    #[test]
    fn shared_storage_detaches_on_first_write() {
        let arena = counting_arena(4);
        let mut a = Tensor::shared(Arc::clone(&arena), 0, [4]);
        let b = a.clone();
        a.data_mut()[0] = 9.0;
        assert!(!a.is_shared(), "a write detaches the tensor");
        assert_eq!(a.data(), &[9., 1., 2., 3.]);
        assert!(b.is_shared(), "a co-tenant keeps reading the arena");
        assert_eq!(b.data(), &[0., 1., 2., 3.]);
        assert_eq!(arena.data(), &[0., 1., 2., 3.], "the arena stays untouched");

        let mut m = b.clone();
        m.map_in_place(|v| v * 2.0);
        assert_eq!((m.is_shared(), m.data()), (false, &[0., 2., 4., 6.][..]));
        assert_eq!(b.into_data(), vec![0., 1., 2., 3.], "into_data copies shared storage out");
        assert_eq!(Arc::strong_count(&arena), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shared_storage_rejects_an_oversized_slice() {
        Tensor::shared(counting_arena(8), 4, [8]);
    }
}
