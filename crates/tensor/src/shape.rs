//! Shape algebra for dense row-major tensors.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The largest rank a [`Shape`] holds: every tensor in the tree is at most
/// an NCHW image batch.
pub const MAX_RANK: usize = 4;

/// The shape of a dense, row-major tensor: up to [`MAX_RANK`] extents held
/// inline, so a shape is `Copy` and never touches the heap.
///
/// The last dimension is the fastest-varying one (C order). Rank 0 denotes
/// a scalar with one element.
///
/// # Example
///
/// ```
/// use pgmr_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.dims(), &[2, 3, 4]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    /// Extents; the slots past `rank` stay zero so derived equality holds.
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Creates a shape from its dimension extents.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_RANK`] dimensions or any
    /// dimension is zero; zero-sized tensors are never meaningful in this
    /// codebase and almost always indicate a bug.
    pub fn new(dims: &[usize]) -> Self {
        assert!(dims.len() <= MAX_RANK, "shape rank {} exceeds {MAX_RANK}: {dims:?}", dims.len());
        assert!(dims.iter().all(|&d| d > 0), "shape dimensions must be positive, got {dims:?}");
        let mut shape = Shape { dims: [0; MAX_RANK], rank: dims.len() as u8 };
        shape.dims[..dims.len()].copy_from_slice(dims);
        shape
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// True when the shape holds no elements (never constructible: every
    /// dimension is positive, and rank 0 holds one element).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extent of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// Interprets this shape as an NCHW image batch `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the rank is not 4.
    pub fn as_nchw(&self) -> (usize, usize, usize, usize) {
        assert_eq!(self.rank(), 4, "expected rank-4 NCHW shape, got {self:?}");
        (self.dims[0], self.dims[1], self.dims[2], self.dims[3])
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            write!(f, "{}{d}", if i == 0 { "" } else { "x" })?;
        }
        write!(f, "]")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        Shape::new(&[3, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds 4")]
    fn rank_above_four_rejected() {
        Shape::new(&[1, 1, 1, 1, 1]);
    }

    #[test]
    fn inline_dims_compare_by_extent() {
        assert_eq!(Shape::new(&[2, 3]), Shape::from([2, 3]));
        assert_ne!(Shape::new(&[2, 3]), Shape::new(&[2, 3, 1]));
        assert_eq!(Shape::new(&[]).len(), 1, "a scalar holds one element");
        assert_eq!(Shape::new(&[6, 4]).dims(), &[6, 4]);
    }

    #[test]
    fn nchw_accessor() {
        let s = Shape::new(&[8, 3, 32, 32]);
        assert_eq!(s.as_nchw(), (8, 3, 32, 32));
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2x3]");
        assert_eq!(format!("{:?}", Shape::new(&[2, 3])), "Shape[2, 3]");
    }
}
