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

/// Unfolds the raw `c·h·w` data of one image into its im2col patch
/// matrix, shape `[patch_len, out_h * out_w]` (row-major, patches as
/// columns). `out` must hold exactly `patch_len · out_spatial` elements.
///
/// Every element of `out` is written: in-bounds taps as copies of
/// contiguous runs of the image, padding taps as zero fills. So the
/// buffer needs no clearing and can be reused across images. In a
/// stride-1 "same" geometry (output as wide as the input) each patch row
/// is the channel plane shifted by the tap's offset, so its in-bounds
/// rows are one contiguous copy; every other geometry copies one run per
/// output row (a strided gather when the stride exceeds 1).
///
/// # Panics
///
/// Panics if `image` or `out` disagree with `geom`'s element counts.
pub fn im2col_into(image: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    let (c, h, w) = (geom.in_c, geom.in_h, geom.in_w);
    assert_eq!(image.len(), c * h * w, "image data disagrees with geometry");
    let cols = geom.out_spatial();
    assert_eq!(out.len(), geom.patch_len() * cols, "output buffer length mismatch");
    let (k, stride, pad) = (geom.kernel, geom.stride, geom.pad);
    let (out_h, out_w) = (geom.out_h, geom.out_w);
    let plane = h * w;
    // Stride 1 with `out_w == w` forces `2·pad + 1 == kernel`, so `out_h == h` too.
    let same = stride == 1 && out_w == w;
    for ky in 0..k {
        let ys = taps_in_bounds(out_h, h, stride, pad, ky);
        for kx in 0..k {
            let xs = taps_in_bounds(out_w, w, stride, pad, kx);
            // Output position `q` of a "same" patch row reads plane element
            // `q + shift`.
            let shift = (ky as isize - pad as isize) * w as isize + kx as isize - pad as isize;
            for ch in 0..c {
                let src = &image[ch * plane..(ch + 1) * plane];
                let row = (ch * k + ky) * k + kx;
                let out_row = &mut out[row * cols..(row + 1) * cols];
                // Output rows whose tap row lies in the padding.
                out_row[..ys.start * out_w].fill(0.0);
                out_row[ys.end * out_w..].fill(0.0);
                let live = &mut out_row[ys.start * out_w..ys.end * out_w];
                if same {
                    // One copy of the shifted plane, clipped to the plane;
                    // whatever it skips or wraps into a neighbouring row
                    // lies outside `xs` and is zeroed after it.
                    let base = (ys.start * w) as isize;
                    let lo = (-shift - base).clamp(0, live.len() as isize) as usize;
                    let hi = (plane as isize - shift - base).clamp(lo as isize, live.len() as isize)
                        as usize;
                    if lo < hi {
                        let from = (base + shift + lo as isize) as usize;
                        live[lo..hi].copy_from_slice(&src[from..from + (hi - lo)]);
                    }
                    if xs.len() < w {
                        for run in live.chunks_exact_mut(w) {
                            run[..xs.start].fill(0.0);
                            run[xs.end..].fill(0.0);
                        }
                    }
                } else {
                    // Zero the padding columns of every live row at once,
                    // then copy each row's in-bounds run.
                    if xs.len() < out_w {
                        live.fill(0.0);
                    }
                    if live.is_empty() || xs.is_empty() {
                        continue;
                    }
                    let first = (ys.start * stride + ky - pad) * w + xs.start * stride + kx - pad;
                    for (y, run) in live.chunks_exact_mut(out_w).enumerate() {
                        let mut at = first + y * stride * w;
                        for d in &mut run[xs.clone()] {
                            *d = src[at];
                            at += stride;
                        }
                    }
                }
            }
        }
    }
}

/// The output positions along one axis whose tap lands inside the image:
/// every `o < out` with `0 <= o·stride + tap − pad < size`.
fn taps_in_bounds(
    out: usize,
    size: usize,
    stride: usize,
    pad: usize,
    tap: usize,
) -> std::ops::Range<usize> {
    let lo = pad.saturating_sub(tap).div_ceil(stride).min(out);
    let hi = (size + pad).saturating_sub(tap).div_ceil(stride).clamp(lo, out);
    lo..hi
}

/// Folds a patch-space gradient (shape `[patch_len, out_h * out_w]`) back
/// into a `[1, c, h, w]` image-space gradient, accumulating overlapping
/// contributions.
///
/// This is the exact adjoint of [`im2col_into`]: `col2im(im2col(x)) ==
/// k_overlap * x` in the interior where every pixel appears in
/// `k_overlap` patches.
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
    Tensor::from_vec([1, c, h, w], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Unfolds `image` into a fresh buffer poisoned with NaN, so a padding
    /// tap the kernel forgets to zero shows up.
    fn unfold(image: &[f32], geom: &Conv2dGeometry) -> Vec<f32> {
        let mut out = vec![f32::NAN; geom.patch_len() * geom.out_spatial()];
        im2col_into(image, geom, &mut out);
        out
    }

    /// The per-tap loop `im2col_into` replaced, kept as its oracle: every
    /// tap bounds-tested, padding left at the pre-filled zero.
    fn im2col_per_tap(image: &[f32], geom: &Conv2dGeometry) -> Vec<f32> {
        let (h, w) = (geom.in_h, geom.in_w);
        let cols = geom.out_spatial();
        let mut out = vec![0.0f32; geom.patch_len() * cols];
        let k = geom.kernel;
        for ch in 0..geom.in_c {
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
        out
    }

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
        assert_eq!(unfold(img.data(), &g), img.data());
    }

    #[test]
    fn im2col_extracts_expected_patch() {
        // 3x3 image, 2x2 kernel, no pad: first patch is the top-left 2x2.
        let img: Vec<f32> = (1..=9).map(|x| x as f32).collect();
        let g = Conv2dGeometry::new(1, 3, 3, 2, 1, 0);
        let cols = unfold(&img, &g);
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
        let g = Conv2dGeometry::new(1, 2, 2, 3, 1, 1);
        let cols = unfold(&[1.0; 4], &g);
        // Top-left output patch's top-left kernel tap reads padded zero.
        assert_eq!(cols[0].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn im2col_into_is_bit_identical_to_the_per_tap_loop() {
        // Every valid geometry over c 1–3, h and w 1–9 (non-square
        // included), kernel 1–5, stride 1–3 and pad 0–3 (pad 3 puts whole
        // rows of some taps in the padding), into a NaN-poisoned buffer. The image carries -0.0, ±Inf and NaN so a
        // copy that rounds through arithmetic or misplaces a tap differs
        // in its bits.
        let (channels, sizes) = if cfg!(miri) { (1..=2, 1..=4) } else { (1..=3, 1..=9) };
        let mut cases = 0;
        for c in channels {
            for h in sizes.clone() {
                for w in sizes.clone() {
                    let image: Vec<f32> = (0..c * h * w)
                        .map(|i| match i % 11 {
                            3 => -0.0,
                            5 => f32::INFINITY,
                            7 => f32::NEG_INFINITY,
                            9 => f32::NAN,
                            _ => i as f32 * 0.5 - 3.0,
                        })
                        .collect();
                    for kernel in 1..=5 {
                        for stride in 1..=3 {
                            for pad in 0..=3 {
                                if h + 2 * pad < kernel || w + 2 * pad < kernel {
                                    continue;
                                }
                                let g = Conv2dGeometry::new(c, h, w, kernel, stride, pad);
                                let got = unfold(&image, &g);
                                let want = im2col_per_tap(&image, &g);
                                let differs = got
                                    .iter()
                                    .zip(&want)
                                    .position(|(a, b)| a.to_bits() != b.to_bits());
                                assert!(differs.is_none(), "{g:?} differs at {differs:?}");
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(cases > 100, "grid covered only {cases} geometries");
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
        let ix = unfold(x.data(), &g);
        let lhs: f32 = ix.iter().zip(&y).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &g);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch {lhs} vs {rhs}");
    }
}
