//! Fully-connected (dense) layers.

use crate::init::he_normal;
use crate::layer::{GemmGuard, Layer, LayerCost, ParamSlot};
use crate::workspace::Workspace;
use pgmr_tensor::checksum::ChecksumFault;
use pgmr_tensor::gemm::{gemm_a_bt, gemm_at_b};
use pgmr_tensor::Tensor;
use rand::Rng;

/// A fully-connected layer computing `y = x W^T + b` over a `[n, in]` batch.
///
/// Weights are stored `[out, in]` row-major, so the forward pass is
/// `gemm_a_bt(x, W)`.
#[derive(Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weight: ParamSlot,
    bias: ParamSlot,
    input_cache: Option<Tensor>,
    /// ABFT state: weight-side sums and the batch's expectations, one
    /// block per image.
    guard: GemmGuard,
}

impl Dense {
    /// Creates a dense layer with He-initialized weights and zero bias.
    pub fn new<R: Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Dense {
            in_features,
            out_features,
            weight: ParamSlot::new(he_normal(vec![out_features, in_features], in_features, rng)),
            bias: ParamSlot::new(Tensor::zeros([out_features])),
            input_cache: None,
            guard: GemmGuard::default(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Keeps the batch input for `backward`.
    // pgmr-lint: boundary(hot-path-alloc): training-only backward cache; inference forwards never record it
    fn cache_input(&mut self, input: &Tensor) {
        self.input_cache = Some(input.clone());
    }
}

impl Layer for Dense {
    /// A checked forward computes the product and every image's checksum
    /// expectations together, in one pass over the weight
    /// ([`GemmChecksums::gemm_a_bt`]); an unchecked one runs the GEMM
    /// alone. Either way the batch shares each pass over the weight.
    ///
    /// [`GemmChecksums::gemm_a_bt`]: pgmr_tensor::checksum::GemmChecksums::gemm_a_bt
    fn forward_into(
        &mut self,
        input: Tensor,
        ws: &mut Workspace,
        train: bool,
        checked: bool,
    ) -> Tensor {
        let &[n, features] = input.shape().dims() else { panic!("dense expects [n, features]") };
        assert_eq!(features, self.in_features, "dense input feature mismatch");
        // y = x (n x in) * W^T (in x out) + bias
        let mut out = ws.acquire([n, self.out_features]);
        let (weight, bias) = (self.weight.value.data(), self.bias.value.data());
        for row in out.data_mut().chunks_mut(self.out_features) {
            row.copy_from_slice(bias);
        }
        let (fin, fout) = (self.in_features, self.out_features);
        if checked {
            let (sums, blocks) = self.guard.begin(1, fout, fin, weight, bias);
            let (x, y) = (input.data(), out.data_mut());
            blocks[0].gemm_a_bt(n, fin, fout, x, weight, bias, sums, y);
        } else {
            gemm_a_bt(n, fin, fout, input.data(), weight, out.data_mut());
        }
        if train {
            self.cache_input(&input);
        } else {
            self.input_cache = None;
        }
        ws.release(input);
        out
    }

    fn verify_output(&self, output: &[f32], tolerance: f32) -> Result<(), ChecksumFault> {
        self.guard.verify(output, tolerance)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.input_cache.as_ref().expect("dense backward called before forward");
        let n = input.shape().dim(0);
        assert_eq!(grad_output.shape().dims(), &[n, self.out_features]);

        // dW += dY^T (out x n) * X (n x in)
        gemm_at_b(
            self.out_features,
            n,
            self.in_features,
            grad_output.data(),
            input.data(),
            self.weight.grad_mut(),
        );
        // dB += column sums of dY.
        let bias_grad = self.bias.grad_mut();
        for row in grad_output.data().chunks(self.out_features) {
            for (b, &g) in bias_grad.iter_mut().zip(row) {
                *b += g;
            }
        }
        // dX = dY (n x out) * W (out x in)
        let mut dx = vec![0.0f32; n * self.in_features];
        pgmr_tensor::gemm::gemm(
            n,
            self.out_features,
            self.in_features,
            grad_output.data(),
            self.weight.value.data(),
            &mut dx,
        );
        Tensor::from_vec([n, self.in_features], dx)
    }

    fn visit_slots(&mut self, f: &mut dyn FnMut(&mut ParamSlot)) {
        self.guard.invalidate();
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn read_slots(&self, f: &mut dyn FnMut(&ParamSlot)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn cost(&self) -> LayerCost {
        LayerCost {
            kind: "dense",
            macs: (self.in_features * self.out_features) as u64,
            param_elems: (self.weight.value.len() + self.bias.value.len()) as u64,
            output_elems: self.out_features as u64,
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
    fn forward_identity_weight() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut dense = Dense::new(2, 2, &mut rng);
        dense.weight.value = Tensor::from_vec(vec![2, 2], vec![1., 0., 0., 1.]);
        dense.bias.value = Tensor::from_vec(vec![2], vec![1., 2.]);
        let x = Tensor::from_vec(vec![1, 2], vec![3., 4.]);
        let y = forward(&mut dense, &x, true);
        assert_eq!(y.data(), &[4., 6.]);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut dense = Dense::new(4, 3, &mut rng);
        let x = Tensor::uniform(vec![2, 4], -1.0, 1.0, &mut rng);
        let y = forward(&mut dense, &x, true);
        let dx = dense.backward(&Tensor::ones(*y.shape()));

        let eps = 1e-3;
        for flat in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let numeric = (forward(&mut dense, &xp, true).sum()
                - forward(&mut dense, &xm, true).sum())
                / (2.0 * eps);
            assert!((numeric - dx.data()[flat]).abs() < 1e-2);
        }

        let mut probe = dense.clone();
        probe.weight.zero_grad();
        probe.bias.zero_grad();
        let y2 = forward(&mut probe, &x, true);
        let _ = probe.backward(&Tensor::ones(*y2.shape()));
        for flat in 0..probe.weight.value.len() {
            let mut wp = dense.clone();
            wp.weight.value.data_mut()[flat] += eps;
            let mut wm = dense.clone();
            wm.weight.value.data_mut()[flat] -= eps;
            let numeric =
                (forward(&mut wp, &x, true).sum() - forward(&mut wm, &x, true).sum()) / (2.0 * eps);
            assert!((numeric - probe.weight.grad()[flat]).abs() < 1e-2);
        }
    }

    #[test]
    fn checked_inference_verifies_and_keeps_no_cache() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut dense = Dense::new(5, 4, &mut rng);
        let x = Tensor::uniform(vec![3, 5], -1.0, 1.0, &mut rng);
        let mut ws = crate::workspace::Workspace::new();
        let buf = ws.acquire_copy(&x);
        let out = dense.forward_into(buf, &mut ws, false, true);
        assert_eq!(out.shape().dims(), &[3, 4]);
        dense.verify_output(out.data(), 1e-4).unwrap();
        assert!(dense.input_cache.is_none(), "inference must not cache the input");
    }

    #[test]
    fn bias_gradient_is_batch_sum() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut dense = Dense::new(2, 2, &mut rng);
        let x = Tensor::uniform(vec![3, 2], -1.0, 1.0, &mut rng);
        let y = forward(&mut dense, &x, true);
        let _ = dense.backward(&Tensor::ones(*y.shape()));
        assert_eq!(dense.bias.grad(), &[3.0, 3.0]);
    }
}
