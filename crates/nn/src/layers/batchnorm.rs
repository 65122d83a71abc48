//! Per-channel batch normalization for NCHW batches.

use crate::layer::{Layer, LayerCost, OutputChecksum, ParamSlot};
use crate::workspace::{ActBuf, Workspace};
use pgmr_tensor::Tensor;

/// 2-D batch normalization with learnable scale/shift and running statistics
/// for inference, matching the standard formulation:
///
/// * training: normalize with the batch mean/variance, update running stats
///   with momentum,
/// * inference: normalize with the running mean/variance.
#[derive(Clone)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: ParamSlot,
    beta: ParamSlot,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    // Forward cache (training mode).
    cache: Option<BnCache>,
    output_elems_per_image: u64,
}

#[derive(Clone)]
struct BnCache {
    x_hat: Tensor,
    batch_mean: Vec<f32>,
    batch_var: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: ParamSlot::new(Tensor::ones(vec![channels])),
            beta: ParamSlot::new(Tensor::zeros(vec![channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
            output_elems_per_image: 0,
        }
    }

    /// The running (inference-time) mean per channel.
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// The running (inference-time) variance per channel.
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// The batch's per-channel mean and variance, folded into the running
    /// statistics, plus zeroed `x_hat` storage for the backward cache.
    // pgmr-lint: boundary(hot-path-alloc): training-only batch statistics and backward cache; inference normalizes with the running statistics
    fn batch_statistics(&mut self, input: &ActBuf) -> BnCache {
        let (n, c, h, w) = input.as_nchw();
        let plane = h * w;
        let count = (n * plane) as f32;
        let data = input.data();
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for img in 0..n {
            for (ch, m) in mean.iter_mut().enumerate() {
                let base = (img * c + ch) * plane;
                *m += data[base..base + plane].iter().sum::<f32>();
            }
        }
        for m in &mut mean {
            *m /= count;
        }
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                let m = mean[ch];
                var[ch] += data[base..base + plane].iter().map(|&x| (x - m) * (x - m)).sum::<f32>();
            }
        }
        for v in &mut var {
            *v /= count;
        }
        for ch in 0..c {
            self.running_mean[ch] =
                (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean[ch];
            self.running_var[ch] =
                (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var[ch];
        }
        BnCache { x_hat: Tensor::zeros(input.dims().to_vec()), batch_mean: mean, batch_var: var }
    }
}

impl Layer for BatchNorm2d {
    fn forward_into(
        &mut self,
        mut input: ActBuf,
        _ws: &mut Workspace,
        train: bool,
        _checked: bool,
    ) -> (ActBuf, Option<OutputChecksum>) {
        let (n, c, h, w) = input.as_nchw();
        assert_eq!(c, self.channels, "batchnorm channel mismatch");
        let plane = h * w;
        self.output_elems_per_image = (c * plane) as u64;
        // Training normalizes with the batch statistics, inference with the
        // running ones. Either way the transform is elementwise per channel,
        // so it runs in place on the input buffer (pass-through).
        let mut batch = train.then(|| self.batch_statistics(&input));
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        let data = input.data_mut();
        for img in 0..n {
            for ch in 0..c {
                let (m, v) = match &batch {
                    Some(b) => (b.batch_mean[ch], b.batch_var[ch]),
                    None => (self.running_mean[ch], self.running_var[ch]),
                };
                let inv_std = 1.0 / (v + self.eps).sqrt();
                let base = (img * c + ch) * plane;
                let row = &mut data[base..base + plane];
                for x in row.iter_mut() {
                    *x = (*x - m) * inv_std;
                }
                if let Some(b) = &mut batch {
                    b.x_hat.data_mut()[base..base + plane].copy_from_slice(row);
                }
                let (g, b) = (gamma[ch], beta[ch]);
                for x in row.iter_mut() {
                    *x = g * *x + b;
                }
            }
        }
        if train {
            self.cache = batch;
        }
        (input, None)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("batchnorm backward called before training forward");
        let (n, c, h, w) = cache.x_hat.shape().as_nchw();
        let plane = h * w;
        let count = (n * plane) as f32;
        let go = grad_output.data();
        let xh = cache.x_hat.data();
        let gamma = self.gamma.value.data().to_vec();

        // Per-channel reductions.
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                for i in base..base + plane {
                    sum_dy[ch] += go[i];
                    sum_dy_xhat[ch] += go[i] * xh[i];
                }
            }
        }
        // Parameter gradients.
        {
            let g_gamma = self.gamma.grad.data_mut();
            let g_beta = self.beta.grad.data_mut();
            for ch in 0..c {
                g_gamma[ch] += sum_dy_xhat[ch];
                g_beta[ch] += sum_dy[ch];
            }
        }
        // Input gradient (standard batch-norm backward):
        // dx = gamma * inv_std / N * (N*dy - sum(dy) - x_hat * sum(dy*x_hat))
        let mut dx = vec![0.0f32; go.len()];
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                let inv_std = 1.0 / (cache.batch_var[ch] + self.eps).sqrt();
                let k = gamma[ch] * inv_std / count;
                for i in base..base + plane {
                    dx[i] = k * (count * go[i] - sum_dy[ch] - xh[i] * sum_dy_xhat[ch]);
                }
            }
        }
        Tensor::from_vec(vec![n, c, h, w], dx)
    }

    fn visit_slots(&mut self, f: &mut dyn FnMut(&mut ParamSlot)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    fn cost(&self) -> LayerCost {
        LayerCost {
            kind: "batchnorm2d",
            // One multiply-add per element.
            macs: self.output_elems_per_image,
            param_elems: (2 * self.channels) as u64,
            output_elems: self.output_elems_per_image,
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::forward;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_output_is_normalized() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::normal(vec![8, 3, 4, 4], 5.0, 2.0, &mut rng);
        let mut bn = BatchNorm2d::new(3);
        let y = forward(&mut bn, &x, true);
        // Per-channel mean ≈ 0, var ≈ 1 after normalization (gamma=1, beta=0).
        let (n, c, h, w) = y.shape().as_nchw();
        let plane = h * w;
        for ch in 0..c {
            let mut vals = Vec::new();
            for img in 0..n {
                let base = (img * c + ch) * plane;
                vals.extend_from_slice(&y.data()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut bn = BatchNorm2d::new(2);
        // Train on many batches so running stats converge.
        for _ in 0..200 {
            let x = Tensor::normal(vec![4, 2, 2, 2], 3.0, 1.0, &mut rng);
            let _ = forward(&mut bn, &x, true);
        }
        assert!((bn.running_mean()[0] - 3.0).abs() < 0.2);
        // Inference on a biased batch still normalizes to ≈0 mean using the
        // running statistics, not the batch's own.
        let x = Tensor::filled(vec![1, 2, 2, 2], 3.0);
        let y = forward(&mut bn, &x, false);
        assert!(y.data().iter().all(|v| v.abs() < 0.3), "{:?}", y.data());
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::uniform(vec![2, 2, 3, 3], -1.0, 1.0, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        // Non-trivial gamma/beta.
        bn.gamma.value = Tensor::from_vec(vec![2], vec![1.5, 0.7]).into();
        bn.beta.value = Tensor::from_vec(vec![2], vec![0.1, -0.2]).into();
        // Weighted loss so the gradient is not uniform.
        let weights: Vec<f32> = (0..x.len()).map(|i| ((i % 7) as f32) * 0.3 - 1.0).collect();
        let y = forward(&mut bn, &x, true);
        let w_t = Tensor::from_vec(y.shape().dims().to_vec(), weights.clone());
        let dx = bn.backward(&w_t);

        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            forward(bn, x, true).data().iter().zip(&weights).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-2;
        for &flat in &[0usize, 5, 13, 30] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let mut bn_probe = bn.clone();
            let fp = loss(&mut bn_probe, &xp);
            let fm = loss(&mut bn_probe, &xm);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[flat]).abs() < 2e-2,
                "dx[{flat}] numeric {numeric} vs analytic {}",
                dx.data()[flat]
            );
        }
    }
}
