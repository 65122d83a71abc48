//! 2-D convolution via im2col + GEMM.

use crate::init::he_normal;
use crate::layer::{Layer, LayerCost, OutputChecksum, ParamSlot};
use crate::workspace::{ActBuf, Workspace};
use pgmr_tensor::checksum::GemmChecksums;
use pgmr_tensor::gemm::{gemm_a_bt, gemm_at_b, gemm_into, GemmScratch};
use pgmr_tensor::{col2im, im2col_into, Conv2dGeometry, Tensor};
use rand::Rng;

/// A 2-D convolution layer with square kernels, uniform stride and symmetric
/// zero padding.
///
/// Weights are stored as a `[out_c, in_c * k * k]` matrix so the forward
/// pass is a single GEMM against the im2col patch matrix per image.
#[derive(Clone)]
pub struct Conv2d {
    geom: Conv2dGeometry,
    out_c: usize,
    weight: ParamSlot,
    bias: ParamSlot,
    /// Cached im2col matrices for each image in the last forward batch.
    cols_cache: Vec<Vec<f32>>,
}

impl Conv2d {
    /// Creates a convolution layer with He-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    #[allow(clippy::too_many_arguments)] // mirrors the conv geometry tuple
    pub fn new<R: Rng>(
        in_c: usize,
        out_c: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        let geom = Conv2dGeometry::new(in_c, in_h, in_w, kernel, stride, pad);
        let fan_in = in_c * kernel * kernel;
        Conv2d {
            geom,
            out_c,
            weight: ParamSlot::new(he_normal(vec![out_c, fan_in], fan_in, rng)),
            bias: ParamSlot::new(Tensor::zeros(vec![out_c])),
            cols_cache: Vec::new(),
        }
    }

    /// The convolution geometry (exposed for output-shape computation).
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Bias-initialized convolution GEMM for one image: every spatial
    /// position of channel `ch` starts at `bias[ch]`, then the filter
    /// matrix multiplies the patch matrix on top.
    #[allow(clippy::too_many_arguments)] // GEMM dims + operands + scratch
    fn bias_gemm_into(
        out_c: usize,
        patch: usize,
        spatial: usize,
        weight: &[f32],
        bias: &[f32],
        cols: &[f32],
        out_img: &mut [f32],
        scratch: &mut GemmScratch,
    ) {
        for (ch, row) in out_img.chunks_mut(spatial).enumerate() {
            row.fill(bias[ch]);
        }
        gemm_into(out_c, patch, spatial, weight, cols, out_img, scratch);
    }

    /// Keeps one image's patch matrix for `backward`.
    // pgmr-lint: boundary(hot-path-alloc): training-only backward cache; inference forwards never record it
    fn cache_cols(&mut self, cols: &[f32]) {
        self.cols_cache.push(cols.to_vec());
    }

    /// ABFT expectations for one image's bias-initialized GEMM.
    fn image_checksums(&self, cols: &[f32]) -> GemmChecksums {
        let mut sums = GemmChecksums::for_ab(
            self.out_c,
            self.geom.patch_len(),
            self.geom.out_spatial(),
            self.weight.value.data(),
            cols,
        );
        sums.add_broadcast_col(self.bias.value.data());
        sums
    }
}

impl Layer for Conv2d {
    /// The im2col patch matrix lives in the arena's shared scratch,
    /// zero-filled and reused across images; the output comes from the
    /// arena. Checksum expectations are derived per image while its patch
    /// matrix is still in the scratch.
    fn forward_into(
        &mut self,
        input: ActBuf,
        ws: &mut Workspace,
        train: bool,
        checked: bool,
    ) -> (ActBuf, Option<OutputChecksum>) {
        let (n, c, h, w) = input.as_nchw();
        assert_eq!(
            (c, h, w),
            (self.geom.in_c, self.geom.in_h, self.geom.in_w),
            "conv2d input shape mismatch"
        );
        let spatial = self.geom.out_spatial();
        let patch = self.geom.patch_len();
        self.cols_cache.clear();
        let mut out = ws.acquire(&[n, self.out_c, self.geom.out_h, self.geom.out_w]);
        // pgmr-lint: allow(hot-path-alloc): the unchecked arm builds a capacity-0 Vec — no heap allocation; the checked arm is the ABFT tier
        let mut segments = if checked { Vec::with_capacity(n) } else { Vec::new() };
        {
            let (cols, gemm_scratch) = ws.scratch_with_gemm(patch * spatial);
            let in_stride = c * h * w;
            let out_stride = self.out_c * spatial;
            for i in 0..n {
                im2col_into(&input.data()[i * in_stride..(i + 1) * in_stride], &self.geom, cols);
                Self::bias_gemm_into(
                    self.out_c,
                    patch,
                    spatial,
                    self.weight.value.data(),
                    self.bias.value.data(),
                    cols,
                    &mut out.data_mut()[i * out_stride..(i + 1) * out_stride],
                    gemm_scratch,
                );
                if checked {
                    segments.push((i * out_stride, self.image_checksums(cols)));
                }
                if train {
                    self.cache_cols(cols);
                }
            }
        }
        ws.release(input);
        let sums = if checked { Some(OutputChecksum::new(segments)) } else { None };
        (out, sums)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (n, oc, oh, ow) = grad_output.shape().as_nchw();
        assert_eq!(oc, self.out_c, "conv2d grad channel mismatch");
        assert_eq!((oh, ow), (self.geom.out_h, self.geom.out_w));
        assert_eq!(self.cols_cache.len(), n, "backward before forward");
        let spatial = self.geom.out_spatial();
        let patch = self.geom.patch_len();

        let go = grad_output.data();
        let w = self.weight.value.data().to_vec();
        let mut grad_in = Vec::with_capacity(n);
        for i in 0..n {
            let g_img = &go[i * oc * spatial..(i + 1) * oc * spatial];

            // dW += g_img (oc x spatial) * cols^T (spatial x patch)
            gemm_a_bt(
                self.out_c,
                spatial,
                patch,
                g_img,
                &self.cols_cache[i],
                self.weight.grad.data_mut(),
            );

            // dBias += row sums of g_img.
            let bias_grad = self.bias.grad.data_mut();
            for (ch, bias_val) in bias_grad.iter_mut().enumerate() {
                let row = &g_img[ch * spatial..(ch + 1) * spatial];
                *bias_val += row.iter().sum::<f32>();
            }

            // dCols = W^T (patch x oc) * g_img (oc x spatial)
            let mut dcols = vec![0.0f32; patch * spatial];
            gemm_at_b(patch, self.out_c, spatial, &w, g_img, &mut dcols);
            grad_in.push(col2im(&dcols, &self.geom));
        }
        Tensor::stack_images(&grad_in)
    }

    fn visit_slots(&mut self, f: &mut dyn FnMut(&mut ParamSlot)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn cost(&self) -> LayerCost {
        let spatial = self.geom.out_spatial() as u64;
        let patch = self.geom.patch_len() as u64;
        LayerCost {
            kind: "conv2d",
            macs: self.out_c as u64 * patch * spatial,
            param_elems: (self.weight.value.len() + self.bias.value.len()) as u64,
            output_elems: self.out_c as u64 * spatial,
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::forward;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(3, 8, 10, 10, 3, 1, 1, &mut rng);
        let x = Tensor::uniform(vec![2, 3, 10, 10], -1.0, 1.0, &mut rng);
        let y = forward(&mut conv, &x, true);
        assert_eq!(y.shape().dims(), &[2, 8, 10, 10]);
    }

    #[test]
    fn known_kernel_computes_expected_value() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 3, 3, 1, 0, &mut rng);
        // Set kernel to all ones, bias to 0.5: output = sum of image + 0.5.
        conv.weight.value = Tensor::ones(vec![1, 9]).into();
        conv.bias.value = Tensor::from_vec(vec![1], vec![0.5]).into();
        let x = Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let y = forward(&mut conv, &x, true);
        assert_eq!(y.data(), &[45.5]);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // Scalar loss = sum(conv(x)); compare analytic dW/dx to finite diff.
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(2, 3, 5, 5, 3, 1, 1, &mut rng);
        let x = Tensor::uniform(vec![1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let y = forward(&mut conv, &x, true);
        let ones = Tensor::ones(y.shape().dims().to_vec());
        let dx = conv.backward(&ones);

        let eps = 1e-3;
        // Check a few input coordinates.
        for &flat in &[0usize, 7, 24, 49] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let fp = forward(&mut conv, &xp, true).sum();
            let fm = forward(&mut conv, &xm, true).sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = dx.data()[flat];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "dx[{flat}]: numeric {numeric} vs analytic {analytic}"
            );
        }

        // Re-run forward/backward to get clean weight grads.
        let mut conv2 = conv.clone();
        conv2.weight.grad.map_in_place(|_| 0.0);
        conv2.bias.grad.map_in_place(|_| 0.0);
        let y2 = forward(&mut conv2, &x, true);
        let _ = conv2.backward(&Tensor::ones(y2.shape().dims().to_vec()));
        for &flat in &[0usize, 5, 17] {
            let mut cp = conv.clone();
            cp.weight.value.data_mut()[flat] += eps;
            let mut cm = conv.clone();
            cm.weight.value.data_mut()[flat] -= eps;
            let fp = forward(&mut cp, &x, true).sum();
            let fm = forward(&mut cm, &x, true).sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = conv2.weight.grad.data()[flat];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "dW[{flat}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn inference_forward_keeps_no_cols_cache() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(2, 4, 6, 6, 3, 1, 1, &mut rng);
        let x = Tensor::uniform(vec![3, 2, 6, 6], -1.0, 1.0, &mut rng);
        let _ = forward(&mut conv, &x, true);
        assert_eq!(conv.cols_cache.len(), 3, "training must cache per-image patches");
        let _ = forward(&mut conv, &x, false);
        assert!(conv.cols_cache.is_empty(), "inference must not retain im2col buffers");
        let mut ws = Workspace::new();
        let mut buf = ws.acquire(x.shape().dims());
        buf.data_mut().copy_from_slice(x.data());
        let (out, sums) = conv.forward_into(buf, &mut ws, false, true);
        sums.expect("conv emits checksums").verify(out.data(), 1e-4).unwrap();
        assert!(conv.cols_cache.is_empty(), "checked inference must not retain im2col buffers");
    }

    #[test]
    fn cost_counts_macs() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(3, 8, 10, 10, 3, 1, 1, &mut rng);
        let c = conv.cost();
        assert_eq!(c.macs, 8 * 27 * 100);
        assert_eq!(c.param_elems, (8 * 27 + 8) as u64);
        assert_eq!(c.output_elems, 800);
    }
}
