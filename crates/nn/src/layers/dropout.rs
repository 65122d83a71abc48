//! Dropout with an optional Monte-Carlo inference mode.
//!
//! Standard behavior: during training, zero each activation with
//! probability `p` and scale survivors by `1/(1-p)` (inverted dropout);
//! during inference, pass through unchanged. The extra `mc_mode` switch
//! keeps the mask *on* at inference time, which is what the MC-dropout
//! uncertainty baseline (Gal & Ghahramani, cited in the paper's related
//! work) needs: several stochastic forward passes approximate the
//! predictive distribution.

use crate::layer::{Layer, LayerCost, OutputChecksum, ParamSlot};
use crate::workspace::{ActBuf, Workspace};
use pgmr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inverted dropout layer.
#[derive(Clone)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask_cache: Option<Tensor>,
    mc_mode: bool,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`, seeded for
    /// reproducibility.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1), got {p}");
        Dropout { p, rng: StdRng::seed_from_u64(seed), mask_cache: None, mc_mode: false }
    }

    /// Enables or disables Monte-Carlo mode (mask stays active at
    /// inference).
    pub fn set_mc_mode(&mut self, on: bool) {
        self.mc_mode = on;
    }

    /// True when Monte-Carlo mode is active.
    pub fn mc_mode(&self) -> bool {
        self.mc_mode
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }

    /// Storage for the mask `backward` replays: training only.
    // pgmr-lint: boundary(hot-path-alloc): training-only backward cache; inference forwards never record it
    fn backward_mask(train: bool, dims: &[usize]) -> Option<Tensor> {
        train.then(|| Tensor::zeros(dims.to_vec()))
    }
}

impl Layer for Dropout {
    fn forward_into(
        &mut self,
        mut input: ActBuf,
        _ws: &mut Workspace,
        train: bool,
        _checked: bool,
    ) -> (ActBuf, Option<OutputChecksum>) {
        self.mask_cache = None;
        // pgmr-lint: allow(float-eq): p == 0.0 is the exact no-op configuration, not an arithmetic result
        if (!train && !self.mc_mode) || self.p == 0.0 {
            return (input, None);
        }
        // Draw the mask in element order and apply it in place; only
        // training keeps it for `backward`.
        let keep = 1.0 - self.p;
        let mut mask = Self::backward_mask(train, input.dims());
        for (j, v) in input.data_mut().iter_mut().enumerate() {
            let m = if self.rng.gen::<f32>() < self.p { 0.0 } else { 1.0 / keep };
            *v *= m;
            if let Some(mask) = &mut mask {
                mask.data_mut()[j] = m;
            }
        }
        self.mask_cache = mask;
        (input, None)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        match &self.mask_cache {
            Some(mask) => grad_output.mul(mask),
            None => grad_output.clone(),
        }
    }

    fn visit_slots(&mut self, _f: &mut dyn FnMut(&mut ParamSlot)) {}

    fn name(&self) -> &'static str {
        "dropout"
    }

    fn cost(&self) -> LayerCost {
        LayerCost { kind: "dropout", ..LayerCost::default() }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn set_mc_dropout(&mut self, on: bool) {
        self.set_mc_mode(on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::forward;

    #[test]
    fn inference_is_identity_without_mc() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::filled(vec![1, 100], 2.0);
        let y = forward(&mut d, &x, false);
        assert_eq!(y, x);
    }

    #[test]
    fn training_drops_and_rescales() {
        let mut d = Dropout::new(0.5, 2);
        let x = Tensor::filled(vec![1, 10_000], 1.0);
        let y = forward(&mut d, &x, true);
        // pgmr-lint: allow(float-eq): dropped activations are written as exact 0.0 by the mask
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f64 / y.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "drop fraction {frac}");
        // Survivors are scaled by 2, so the mean stays ≈ 1.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
    }

    #[test]
    fn mc_mode_randomizes_inference() {
        let mut d = Dropout::new(0.3, 3);
        d.set_mc_mode(true);
        let x = Tensor::filled(vec![1, 64], 1.0);
        let y1 = forward(&mut d, &x, false);
        let y2 = forward(&mut d, &x, false);
        assert_ne!(y1, y2, "MC passes must differ");
    }

    #[test]
    fn workspace_forward_is_identity_without_mc() {
        let mut d = Dropout::new(0.5, 7);
        let mut ws = crate::workspace::Workspace::new();
        let mut buf = ws.acquire(&[1, 8]);
        buf.data_mut().fill(2.0);
        let (out, _) = d.forward_into(buf, &mut ws, false, false);
        // pgmr-lint: allow(float-eq): identity pass-through must preserve the exact seed value
        assert!(out.data().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn backward_routes_through_mask() {
        let mut d = Dropout::new(0.5, 4);
        let x = Tensor::filled(vec![1, 32], 1.0);
        let y = forward(&mut d, &x, true);
        let g = d.backward(&Tensor::ones(vec![1, 32]));
        // Gradient is zero exactly where the forward output is zero.
        for (yv, gv) in y.data().iter().zip(g.data()) {
            // pgmr-lint: allow(float-eq): the mask writes exact zeros — the gradient must vanish exactly where the output does
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    fn zero_probability_is_identity_everywhere() {
        let mut d = Dropout::new(0.0, 5);
        let x = Tensor::filled(vec![1, 16], 3.0);
        assert_eq!(forward(&mut d, &x, true), x);
        assert_eq!(d.backward(&x), x);
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn rejects_p_one() {
        Dropout::new(1.0, 0);
    }
}
