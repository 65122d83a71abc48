//! Dense, owned, row-major `f32` tensors.

use crate::shape::Shape;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An owned, dense, row-major tensor of `f32` values.
///
/// `Tensor` is the common currency between the dataset generators, the
/// preprocessors, and the neural-network layers. Batches of images use the
/// NCHW convention: `[batch, channels, height, width]`.
///
/// # Example
///
/// ```
/// use pgmr_tensor::Tensor;
///
/// let t = Tensor::filled(vec![2, 2], 3.0);
/// assert_eq!(t.sum(), 12.0);
/// assert_eq!(t.scale(0.5).data(), &[1.5, 1.5, 1.5, 1.5]);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor { shape, data: vec![0.0; len] }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::filled(shape, 1.0)
    }

    /// Creates a tensor where every element is `value`.
    pub fn filled(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor { shape, data: vec![value; len] }
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
        Tensor { shape, data }
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn uniform<R: Rng>(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut R) -> Self {
        let shape = shape.into();
        let data = (0..shape.len()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
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
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its raw data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements (never constructible, but
    /// provided for API completeness alongside [`Tensor::len`]).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.flat_index(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let flat = self.shape.flat_index(index);
        self.data[flat] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: Vec<usize>) -> Tensor {
        Tensor { shape: self.shape.reshaped(dims), data: self.data.clone() }
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

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Returns a new tensor with every element multiplied by `factor`.
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|x| x * factor)
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
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
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Accumulates `other * factor` into `self` (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, factor: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += factor * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Largest element. Returns `f32::NEG_INFINITY` only for the impossible
    /// empty case.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared L2 norm of the tensor, useful for gradient diagnostics.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
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
        Tensor::from_vec(vec![1, c, h, w], self.data[i * stride..(i + 1) * stride].to_vec())
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
            data.extend_from_slice(&img.data);
        }
        Tensor::from_vec(vec![images.len(), c, h, w], data)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor({}, ", self.shape)?;
        if self.data.len() <= PREVIEW {
            write!(f, "{:?})", self.data)
        } else {
            write!(f, "{:?}…)", &self.data[..PREVIEW])
        }
    }
}

impl Default for Tensor {
    /// A scalar zero tensor: the simplest valid tensor.
    fn default() -> Self {
        Tensor::zeros(vec![1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![2, 3], vec![0., 1., 2., 3., 4., 5.]);
        assert_eq!(t.at(&[1, 2]), 5.0);
        assert_eq!(t.at(&[0, 1]), 1.0);
    }

    #[test]
    fn set_updates_value() {
        let mut t = Tensor::zeros(vec![2, 2]);
        t.set(&[1, 0], 7.0);
        assert_eq!(t.at(&[1, 0]), 7.0);
        assert_eq!(t.sum(), 7.0);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![3], vec![1., 2., 3.]);
        let b = Tensor::from_vec(vec![3], vec![4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).data(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(vec![3]);
        let b = Tensor::from_vec(vec![3], vec![1., 2., 3.]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
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
        t.set(&[1], f32::NAN);
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
        let r = t.reshape(vec![4]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape().dims(), &[4]);
    }
}
