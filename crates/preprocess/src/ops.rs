//! Preprocessor implementations.

use pgmr_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An image preprocessor from the paper's Layer-1 pool.
///
/// See the crate docs for the catalog. `Identity` denotes the original,
/// untransformed input (the paper's `ORG` network slot).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Preprocessor {
    /// No transformation (`ORG`).
    Identity,
    /// Local (tiled) histogram equalization — CLAHE analog.
    AdHist,
    /// Local contrast normalization over a 3×3 neighborhood.
    ConNorm,
    /// Mirror across the vertical axis (left–right flip).
    FlipX,
    /// Mirror across the horizontal axis (top–bottom flip).
    FlipY,
    /// Gamma correction `out = inᵞ`.
    Gamma(f32),
    /// Global histogram equalization.
    Hist,
    /// Percentile intensity stretch to `[0, 1]` per channel.
    ImAdj,
    /// Down-scale to `p`% and back up (noise softening); `Scale(80)` is the
    /// paper's "Scale 80%".
    Scale(u32),
}

impl fmt::Display for Preprocessor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Preprocessor::Identity => write!(f, "ORG"),
            Preprocessor::AdHist => write!(f, "AdHist"),
            Preprocessor::ConNorm => write!(f, "ConNorm"),
            Preprocessor::FlipX => write!(f, "FlipX"),
            Preprocessor::FlipY => write!(f, "FlipY"),
            Preprocessor::Gamma(g) => write!(f, "Gamma({g})"),
            Preprocessor::Hist => write!(f, "Hist"),
            Preprocessor::ImAdj => write!(f, "ImAdj"),
            Preprocessor::Scale(p) => write!(f, "Scale({p}%)"),
        }
    }
}

impl Preprocessor {
    /// Stable display name, e.g. `"Gamma(2)"`.
    pub fn name(&self) -> String {
        self.to_string()
    }

    /// Applies the preprocessor to a `[1, c, h, w]` image, returning a new
    /// image of the same shape with values clamped to `[0, 1]`: one
    /// allocation, then [`Preprocessor::apply_into`].
    ///
    /// # Panics
    ///
    /// Panics if the input is not a single NCHW image, or for
    /// `Scale(p)` with `p == 0` or `p > 100`.
    // pgmr-lint: boundary(hot-path-alloc): returns a fresh tensor by contract; callers that reuse a buffer call `apply_into`
    pub fn apply(&self, image: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(*image.shape());
        self.apply_into(image, out.data_mut());
        out
    }

    /// [`Preprocessor::apply`] into `out`, a buffer of the image's length
    /// that the caller owns and may reuse: every value of `out` is
    /// written, none is read first, and the result is bit for bit what
    /// `apply` returns. `Identity`, `FlipX`, `FlipY`, `Gamma`, `Hist` and
    /// `ConNorm` touch no other memory; `AdHist`, `ImAdj` and `Scale`
    /// allocate scratch on every call.
    ///
    /// # Panics
    ///
    /// As [`Preprocessor::apply`], and if `out.len()` differs from the
    /// image's element count.
    pub fn apply_into(&self, image: &Tensor, out: &mut [f32]) {
        let (n, c, h, w) = image.shape().as_nchw();
        assert_eq!(n, 1, "preprocessors operate on single images");
        let src = image.data();
        assert_eq!(out.len(), src.len(), "the output buffer must match the image's length");
        match *self {
            Preprocessor::Identity => out.copy_from_slice(src),
            Preprocessor::AdHist => adhist(src, c, h, w, out),
            Preprocessor::ConNorm => connorm(src, c, h, w, out),
            Preprocessor::FlipX => flip_x(src, c, h, w, out),
            Preprocessor::FlipY => flip_y(src, c, h, w, out),
            Preprocessor::Gamma(g) => gamma(src, g, out),
            Preprocessor::Hist => hist_equalize(src, c, h * w, out),
            Preprocessor::ImAdj => imadj(src, c, h * w, out),
            Preprocessor::Scale(p) => scale(src, c, h, w, p, out),
        }
        for v in out.iter_mut() {
            *v = v.clamp(0.0, 1.0);
        }
    }
}

fn flip_x(src: &[f32], c: usize, h: usize, w: usize, out: &mut [f32]) {
    let plane = h * w;
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                out[ch * plane + y * w + x] = src[ch * plane + y * w + (w - 1 - x)];
            }
        }
    }
}

fn flip_y(src: &[f32], c: usize, h: usize, w: usize, out: &mut [f32]) {
    let plane = h * w;
    for ch in 0..c {
        for y in 0..h {
            let sy = h - 1 - y;
            out[ch * plane + y * w..ch * plane + y * w + w]
                .copy_from_slice(&src[ch * plane + sy * w..ch * plane + sy * w + w]);
        }
    }
}

fn gamma(src: &[f32], g: f32, out: &mut [f32]) {
    assert!(g > 0.0, "gamma must be positive");
    for (d, &v) in out.iter_mut().zip(src) {
        *d = v.clamp(0.0, 1.0).powf(g);
    }
}

/// Histogram-equalizes one channel slice in place using `BINS` bins.
fn equalize_slice(data: &mut [f32]) {
    const BINS: usize = 64;
    let n = data.len();
    if n == 0 {
        return;
    }
    let mut hist = [0usize; BINS];
    for &v in data.iter() {
        let b = ((v.clamp(0.0, 1.0)) * (BINS as f32 - 1.0)).round() as usize;
        hist[b] += 1;
    }
    let mut cdf = [0f32; BINS];
    let mut acc = 0usize;
    for (b, &h) in hist.iter().enumerate() {
        acc += h;
        cdf[b] = acc as f32 / n as f32;
    }
    // Normalize so the lowest occupied bin maps to 0.
    let cdf_min = cdf.iter().copied().find(|&v| v > 0.0).unwrap_or(0.0);
    let denom = (1.0 - cdf_min).max(1e-6);
    for v in data.iter_mut() {
        let b = ((v.clamp(0.0, 1.0)) * (BINS as f32 - 1.0)).round() as usize;
        *v = ((cdf[b] - cdf_min) / denom).clamp(0.0, 1.0);
    }
}

fn hist_equalize(src: &[f32], c: usize, plane: usize, out: &mut [f32]) {
    out.copy_from_slice(src);
    for ch in 0..c {
        equalize_slice(&mut out[ch * plane..(ch + 1) * plane]);
    }
}

/// Tiled (2×2 grid) histogram equalization — a lightweight CLAHE analog.
// pgmr-lint: boundary(hot-path-alloc): each tile is gathered into a fresh scratch vector per call; callers that must not allocate use one of the six preprocessors that write in place
fn adhist(src: &[f32], c: usize, h: usize, w: usize, out: &mut [f32]) {
    out.copy_from_slice(src);
    let plane = h * w;
    let th = h.div_ceil(2);
    let tw = w.div_ceil(2);
    for ch in 0..c {
        for ty in 0..2 {
            for tx in 0..2 {
                let y0 = ty * th;
                let x0 = tx * tw;
                let y1 = ((ty + 1) * th).min(h);
                let x1 = ((tx + 1) * tw).min(w);
                if y0 >= y1 || x0 >= x1 {
                    continue;
                }
                // Gather tile, equalize, scatter back.
                let mut tile = Vec::with_capacity((y1 - y0) * (x1 - x0));
                for y in y0..y1 {
                    for x in x0..x1 {
                        tile.push(out[ch * plane + y * w + x]);
                    }
                }
                equalize_slice(&mut tile);
                let mut i = 0;
                for y in y0..y1 {
                    for x in x0..x1 {
                        out[ch * plane + y * w + x] = tile[i];
                        i += 1;
                    }
                }
            }
        }
    }
}

/// Local contrast normalization: subtract the 3×3 local mean and divide by
/// the 3×3 local std, then re-center to mid-gray.
fn connorm(src: &[f32], c: usize, h: usize, w: usize, out: &mut [f32]) {
    let plane = h * w;
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                let mut sum = 0.0;
                let mut sum2 = 0.0;
                let mut count = 0.0;
                for dy in -1i32..=1 {
                    for dx in -1i32..=1 {
                        let ny = y as i32 + dy;
                        let nx = x as i32 + dx;
                        if ny >= 0 && ny < h as i32 && nx >= 0 && nx < w as i32 {
                            let v = src[ch * plane + ny as usize * w + nx as usize];
                            sum += v;
                            sum2 += v * v;
                            count += 1.0;
                        }
                    }
                }
                let mean = sum / count;
                let var = (sum2 / count - mean * mean).max(0.0);
                let std = var.sqrt();
                let v = src[ch * plane + y * w + x];
                out[ch * plane + y * w + x] = 0.5 + 0.25 * (v - mean) / (std + 0.05);
            }
        }
    }
}

/// Per-channel percentile stretch: the 2nd percentile maps to 0 and the
/// 98th to 1.
// pgmr-lint: boundary(hot-path-alloc): each channel is sorted in a fresh scratch copy per call; callers that must not allocate use one of the six preprocessors that write in place
fn imadj(src: &[f32], c: usize, plane: usize, out: &mut [f32]) {
    out.copy_from_slice(src);
    for ch in 0..c {
        let slice = &mut out[ch * plane..(ch + 1) * plane];
        let mut sorted: Vec<f32> = slice.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite pixels"));
        let lo = sorted[(sorted.len() as f32 * 0.02) as usize];
        let hi = sorted[((sorted.len() as f32 * 0.98) as usize).min(sorted.len() - 1)];
        let range = (hi - lo).max(1e-6);
        for v in slice.iter_mut() {
            *v = (*v - lo) / range;
        }
    }
}

/// Average-pool down to `p`% of each spatial dimension, then bilinearly
/// upsample back — softens high-frequency content.
// pgmr-lint: boundary(hot-path-alloc): the down-scaled image is a fresh scratch vector per call; callers that must not allocate use one of the six preprocessors that write in place
fn scale(src: &[f32], c: usize, h: usize, w: usize, p: u32, out: &mut [f32]) {
    assert!(p > 0 && p <= 100, "scale percentage must be in 1..=100");
    let sh = ((h as f32 * p as f32 / 100.0).round() as usize).max(1);
    let sw = ((w as f32 * p as f32 / 100.0).round() as usize).max(1);
    if sh == h && sw == w {
        out.copy_from_slice(src);
        return;
    }
    let plane = h * w;
    // Downsample by bilinear sampling at the small grid.
    let mut small = vec![0.0f32; c * sh * sw];
    for ch in 0..c {
        for y in 0..sh {
            for x in 0..sw {
                let fy = (y as f32 + 0.5) * h as f32 / sh as f32 - 0.5;
                let fx = (x as f32 + 0.5) * w as f32 / sw as f32 - 0.5;
                small[ch * sh * sw + y * sw + x] = bilinear(src, ch, h, w, plane, fy, fx);
            }
        }
    }
    // Upsample back.
    let splane = sh * sw;
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                let fy = (y as f32 + 0.5) * sh as f32 / h as f32 - 0.5;
                let fx = (x as f32 + 0.5) * sw as f32 / w as f32 - 0.5;
                out[ch * plane + y * w + x] = bilinear(&small, ch, sh, sw, splane, fy, fx);
            }
        }
    }
}

fn bilinear(data: &[f32], ch: usize, h: usize, w: usize, plane: usize, fy: f32, fx: f32) -> f32 {
    let y0 = fy.floor().clamp(0.0, (h - 1) as f32) as usize;
    let x0 = fx.floor().clamp(0.0, (w - 1) as f32) as usize;
    let y1 = (y0 + 1).min(h - 1);
    let x1 = (x0 + 1).min(w - 1);
    let ty = (fy - y0 as f32).clamp(0.0, 1.0);
    let tx = (fx - x0 as f32).clamp(0.0, 1.0);
    let v00 = data[ch * plane + y0 * w + x0];
    let v01 = data[ch * plane + y0 * w + x1];
    let v10 = data[ch * plane + y1 * w + x0];
    let v11 = data[ch * plane + y1 * w + x1];
    v00 * (1.0 - ty) * (1.0 - tx) + v01 * (1.0 - ty) * tx + v10 * ty * (1.0 - tx) + v11 * ty * tx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_image(seed: u64, c: usize, h: usize, w: usize) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::uniform(vec![1, c, h, w], 0.0, 1.0, &mut rng)
    }

    #[test]
    fn identity_is_identity() {
        let img = random_image(0, 3, 8, 8);
        assert_eq!(Preprocessor::Identity.apply(&img), img);
    }

    #[test]
    fn flips_are_involutions() {
        let img = random_image(1, 3, 7, 9);
        for p in [Preprocessor::FlipX, Preprocessor::FlipY] {
            let twice = p.apply(&p.apply(&img));
            assert_eq!(twice, img, "{p} twice must be identity");
        }
    }

    #[test]
    fn flip_x_mirrors_columns() {
        let img = Tensor::from_vec(vec![1, 1, 1, 3], vec![0.1, 0.2, 0.3]);
        assert_eq!(Preprocessor::FlipX.apply(&img).data(), &[0.3, 0.2, 0.1]);
    }

    #[test]
    fn flip_y_mirrors_rows() {
        let img = Tensor::from_vec(vec![1, 1, 3, 1], vec![0.1, 0.2, 0.3]);
        assert_eq!(Preprocessor::FlipY.apply(&img).data(), &[0.3, 0.2, 0.1]);
    }

    #[test]
    fn gamma_darkens_midtones() {
        let img = Tensor::filled(vec![1, 1, 2, 2], 0.5);
        let out = Preprocessor::Gamma(2.0).apply(&img);
        assert!((out.data()[0] - 0.25).abs() < 1e-6);
        // Gamma preserves black and white exactly.
        let bw = Tensor::from_vec(vec![1, 1, 1, 2], vec![0.0, 1.0]);
        assert_eq!(Preprocessor::Gamma(2.0).apply(&bw).data(), &[0.0, 1.0]);
    }

    #[test]
    fn hist_equalization_spreads_intensities() {
        // A low-contrast image concentrated in [0.4, 0.6].
        let mut rng = StdRng::seed_from_u64(2);
        let img = Tensor::uniform(vec![1, 1, 16, 16], 0.4, 0.6, &mut rng);
        let out = Preprocessor::Hist.apply(&img);
        assert!(out.max() > 0.9, "max {}", out.max());
        assert!(out.min() < 0.1, "min {}", out.min());
    }

    #[test]
    fn adhist_differs_from_global_hist_on_tiled_content() {
        // Left half dark, right half bright: local equalization treats the
        // halves independently, global does not.
        let mut data = vec![0.0f32; 16 * 16];
        for y in 0..16 {
            for x in 0..16 {
                data[y * 16 + x] =
                    if x < 8 { 0.1 + 0.01 * y as f32 } else { 0.8 + 0.01 * y as f32 };
            }
        }
        let img = Tensor::from_vec(vec![1, 1, 16, 16], data);
        let local = Preprocessor::AdHist.apply(&img);
        let global = Preprocessor::Hist.apply(&img);
        assert_ne!(local, global);
    }

    #[test]
    fn connorm_centers_flat_regions_to_midgray() {
        let img = Tensor::filled(vec![1, 1, 6, 6], 0.9);
        let out = Preprocessor::ConNorm.apply(&img);
        for &v in out.data() {
            assert!((v - 0.5).abs() < 1e-4, "flat region should map to 0.5, got {v}");
        }
    }

    #[test]
    fn imadj_stretches_to_full_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let img = Tensor::uniform(vec![1, 1, 12, 12], 0.3, 0.5, &mut rng);
        let out = Preprocessor::ImAdj.apply(&img);
        assert!(out.max() > 0.95);
        assert!(out.min() < 0.05);
    }

    #[test]
    fn scale_softens_noise() {
        let mut rng = StdRng::seed_from_u64(4);
        let img = Tensor::uniform(vec![1, 1, 16, 16], 0.0, 1.0, &mut rng);
        let out = Preprocessor::Scale(80).apply(&img);
        assert_eq!(out.shape(), img.shape());
        // High-frequency energy (adjacent-pixel differences) must shrink.
        let hf = |t: &Tensor| -> f32 {
            let d = t.data();
            (0..d.len() - 1).map(|i| (d[i + 1] - d[i]).abs()).sum()
        };
        assert!(hf(&out) < hf(&img));
    }

    #[test]
    fn scale_100_is_identity() {
        let img = random_image(5, 3, 10, 10);
        assert_eq!(Preprocessor::Scale(100).apply(&img), img);
    }

    #[test]
    fn outputs_stay_in_unit_range() {
        let img = random_image(6, 3, 11, 13);
        for p in crate::standard_pool() {
            let out = p.apply(&img);
            assert!(out.min() >= 0.0 && out.max() <= 1.0, "{p} out of range");
            assert_eq!(out.shape(), img.shape(), "{p} changed shape");
            assert!(!out.has_non_finite(), "{p} produced non-finite values");
        }
    }

    #[test]
    fn apply_into_a_reused_buffer_equals_apply_bit_for_bit() {
        // One buffer serves every preprocessor and image in turn, starting
        // from NaN: a preprocessor that reads or keeps any value of its
        // output buffer would differ from a fresh `apply`. Inputs reach
        // outside [0, 1], as raw sensor values may.
        let mut pool = crate::standard_pool();
        pool.push(Preprocessor::Identity);
        assert_eq!(pool.len(), 10, "all nine preprocessors, Gamma at two levels");
        let mut buffer = vec![f32::NAN; 3 * 9 * 11];
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let img = Tensor::uniform(vec![1, 3, 9, 11], -0.2, 1.3, &mut rng);
            for p in &pool {
                let fresh = p.apply(&img);
                p.apply_into(&img, &mut buffer);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&buffer), bits(fresh.data()), "{p} on image {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "match the image")]
    fn apply_into_rejects_a_mismatched_buffer() {
        let img = Tensor::zeros(vec![1, 1, 4, 4]);
        Preprocessor::FlipX.apply_into(&img, &mut [0.0; 15]);
    }

    #[test]
    #[should_panic(expected = "single images")]
    fn rejects_batches() {
        let batch = Tensor::zeros(vec![2, 1, 4, 4]);
        Preprocessor::FlipX.apply(&batch);
    }
}
