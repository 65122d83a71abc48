//! im2col / col2im convolution lowering.
//!
//! Convolution forward passes are computed as a GEMM between the filter
//! matrix (`[out_channels, in_channels * kh * kw]`) and the im2col patch
//! matrix (`[in_channels * kh * kw, out_h * out_w]`). The backward pass uses
//! [`col2im`] to scatter patch-space gradients back into image space.

use crate::tensor::Tensor;

/// Static geometry of a 2-D convolution: spatial sizes, kernel, stride and
/// symmetric zero padding.
///
/// # Example
///
/// ```
/// use pgmr_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(3, 8, 8, 3, 1, 1);
/// assert_eq!((g.out_h, g.out_w), (8, 8)); // "same" convolution
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride (same in both axes).
    pub stride: usize,
    /// Symmetric zero padding (same on all four sides).
    pub pad: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dGeometry {
    /// Computes output geometry from the input geometry.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is larger than the padded input, or if stride is
    /// zero.
    pub fn new(
        in_c: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(
            in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel,
            "kernel {kernel} larger than padded input {}x{}",
            in_h + 2 * pad,
            in_w + 2 * pad
        );
        let out_h = (in_h + 2 * pad - kernel) / stride + 1;
        let out_w = (in_w + 2 * pad - kernel) / stride + 1;
        Conv2dGeometry { in_c, in_h, in_w, kernel, stride, pad, out_h, out_w }
    }

    /// Rows of the im2col matrix: `in_c * kernel * kernel`.
    pub fn patch_len(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }

    /// Columns of the im2col matrix: `out_h * out_w`.
    pub fn out_spatial(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// Unfolds a single `[1, c, h, w]` image into the im2col patch matrix with
/// shape `[patch_len, out_h * out_w]` (row-major, patches as columns).
///
/// # Panics
///
/// Panics if the image shape disagrees with `geom`.
pub fn im2col(image: &Tensor, geom: &Conv2dGeometry) -> Vec<f32> {
    let (n, c, h, w) = image.shape().as_nchw();
    assert_eq!(n, 1, "im2col operates on single images");
    assert_eq!((c, h, w), (geom.in_c, geom.in_h, geom.in_w), "image shape disagrees with geometry");
    let mut out = vec![0.0f32; geom.patch_len() * geom.out_spatial()];
    im2col_into(image.data(), geom, &mut out);
    out
}

/// [`im2col`] writing into a caller-provided buffer: unfolds the raw
/// `c·h·w` data of one image into `out`,
/// which must hold exactly `patch_len · out_spatial` elements. The buffer
/// is zeroed first — padded taps rely on it — so it can be reused across
/// images without reallocating.
///
/// # Panics
///
/// Panics if `image` or `out` disagree with `geom`'s element counts.
pub fn im2col_into(image: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    let (c, h, w) = (geom.in_c, geom.in_h, geom.in_w);
    assert_eq!(image.len(), c * h * w, "image data disagrees with geometry");
    let cols = geom.out_spatial();
    assert_eq!(out.len(), geom.patch_len() * cols, "output buffer length mismatch");
    out.fill(0.0);
    let k = geom.kernel;
    for ch in 0..c {
        let ch_base = ch * h * w;
        for ky in 0..k {
            for kx in 0..k {
                let row = (ch * k + ky) * k + kx;
                let out_row = &mut out[row * cols..(row + 1) * cols];
                let mut col = 0;
                for oy in 0..geom.out_h {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    for ox in 0..geom.out_w {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            out_row[col] = image[ch_base + iy as usize * w + ix as usize];
                        }
                        col += 1;
                    }
                }
            }
        }
    }
}

/// Folds a patch-space gradient (shape `[patch_len, out_h * out_w]`) back
/// into a `[1, c, h, w]` image-space gradient, accumulating overlapping
/// contributions.
///
/// This is the exact adjoint of [`im2col`]: `col2im(im2col(x)) == k_overlap * x`
/// in the interior where every pixel appears in `k_overlap` patches.
///
/// # Panics
///
/// Panics if `cols.len()` disagrees with `geom`.
pub fn col2im(cols: &[f32], geom: &Conv2dGeometry) -> Tensor {
    let n_cols = geom.out_spatial();
    assert_eq!(cols.len(), geom.patch_len() * n_cols, "column matrix length mismatch");
    let (c, h, w) = (geom.in_c, geom.in_h, geom.in_w);
    let mut out = vec![0.0f32; c * h * w];
    let k = geom.kernel;
    for ch in 0..c {
        let ch_base = ch * h * w;
        for ky in 0..k {
            for kx in 0..k {
                let row = (ch * k + ky) * k + kx;
                let in_row = &cols[row * n_cols..(row + 1) * n_cols];
                let mut col = 0;
                for oy in 0..geom.out_h {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    for ox in 0..geom.out_w {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            out[ch_base + iy as usize * w + ix as usize] += in_row[col];
                        }
                        col += 1;
                    }
                }
            }
        }
    }
    Tensor::from_vec(vec![1, c, h, w], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn geometry_same_padding() {
        let g = Conv2dGeometry::new(3, 16, 16, 3, 1, 1);
        assert_eq!((g.out_h, g.out_w), (16, 16));
        assert_eq!(g.patch_len(), 27);
    }

    #[test]
    fn geometry_stride_two() {
        let g = Conv2dGeometry::new(1, 8, 8, 2, 2, 0);
        assert_eq!((g.out_h, g.out_w), (4, 4));
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn geometry_rejects_oversized_kernel() {
        Conv2dGeometry::new(1, 2, 2, 5, 1, 0);
    }

    #[test]
    fn im2col_identity_kernel() {
        // A 1x1 kernel with stride 1 and no padding is the identity unfold.
        let mut rng = StdRng::seed_from_u64(5);
        let img = Tensor::uniform(vec![1, 2, 3, 3], -1.0, 1.0, &mut rng);
        let g = Conv2dGeometry::new(2, 3, 3, 1, 1, 0);
        let cols = im2col(&img, &g);
        assert_eq!(cols, img.data());
    }

    #[test]
    fn im2col_extracts_expected_patch() {
        // 3x3 image, 2x2 kernel, no pad: first patch is the top-left 2x2.
        let img = Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|x| x as f32).collect());
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0);
        let cols = im2col(&img, &g);
        // Rows are kernel positions, columns are output pixels (4 of them).
        // Patch at output (0,0): values 1,2,4,5.
        let n = g.out_spatial();
        let patch0: Vec<f32> = (0..g.patch_len()).map(|r| cols[r * n]).collect();
        assert_eq!(patch0, vec![1., 2., 4., 5.]);
        // Patch at output (1,1): values 5,6,8,9.
        let patch3: Vec<f32> = (0..g.patch_len()).map(|r| cols[r * n + 3]).collect();
        assert_eq!(patch3, vec![5., 6., 8., 9.]);
    }

    #[test]
    fn padding_produces_zeros_at_border() {
        let img = Tensor::ones(vec![1, 1, 2, 2]);
        let g = Conv2dGeometry::new(1, 2, 2, 3, 1, 1);
        let cols = im2col(&img, &g);
        // Top-left output patch's top-left kernel tap reads padded zero.
        assert_eq!(cols[0], 0.0);
    }

    #[test]
    fn im2col_into_matches_allocating_and_clears_stale_data() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = Conv2dGeometry::new(2, 5, 5, 3, 2, 1);
        let img = Tensor::uniform(vec![1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let reference = im2col(&img, &g);
        // Poison the reuse buffer: padded taps must still come out zero.
        let mut buf = vec![f32::NAN; g.patch_len() * g.out_spatial()];
        im2col_into(img.data(), &g, &mut buf);
        assert_eq!(buf, reference);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property the conv backward pass relies on.
        let mut rng = StdRng::seed_from_u64(9);
        let g = Conv2dGeometry::new(2, 5, 5, 3, 2, 1);
        let x = Tensor::uniform(vec![1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let y: Vec<f32> = (0..g.patch_len() * g.out_spatial())
            .map(|i| ((i * 2654435761) % 97) as f32 / 97.0 - 0.5)
            .collect();
        let ix = im2col(&x, &g);
        let lhs: f32 = ix.iter().zip(&y).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &g);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch {lhs} vs {rhs}");
    }
}
