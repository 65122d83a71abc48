//! Optimizers.

use crate::network::Network;
use pgmr_tensor::Tensor;

/// Stochastic gradient descent with classical momentum and decoupled L2
/// weight decay.
///
/// Velocity buffers are lazily allocated on the first step and keyed by the
/// stable parameter visiting order of the network.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f32,
    /// L2 weight-decay coefficient.
    pub weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        Sgd { lr, momentum, weight_decay, velocity: Vec::new() }
    }

    /// Applies one update step using the gradients currently stored in the
    /// network's parameter slots.
    pub fn step(&mut self, net: &mut Network) {
        let lr = self.lr;
        let momentum = self.momentum;
        let wd = self.weight_decay;
        let velocity = &mut self.velocity;
        let mut i = 0;
        net.visit_slots(&mut |slot| {
            if velocity.len() <= i {
                velocity.push(Tensor::zeros(*slot.value.shape()));
            }
            let v = &mut velocity[i];
            assert_eq!(v.shape(), slot.value.shape(), "optimizer state shape drift at param {i}");
            let v_data = v.data_mut();
            let p_data = slot.value.data_mut();
            let g_data = slot.grad.as_ref().map_or(&[][..], Tensor::data);
            for ((vj, pj), &gj) in v_data.iter_mut().zip(p_data.iter_mut()).zip(g_data) {
                let g = gj + wd * *pj;
                *vj = momentum * *vj - lr * g;
                *pj += *vj;
            }
            i += 1;
        });
    }
}

/// Adam optimizer (Kingma & Ba) with bias-corrected first and second
/// moments. Provided as an alternative to [`Sgd`] for users fine-tuning
/// their own members; the paper's training recipes all use SGD+momentum.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step_count: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard `β₁ = 0.9`,
    /// `β₂ = 0.999`, `ε = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step_count: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step from the gradients stored in the network's
    /// parameter slots.
    pub fn step(&mut self, net: &mut Network) {
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let m = &mut self.m;
        let v = &mut self.v;
        let mut i = 0;
        net.visit_slots(&mut |slot| {
            if m.len() <= i {
                m.push(Tensor::zeros(*slot.value.shape()));
                v.push(Tensor::zeros(*slot.value.shape()));
            }
            let m_data = m[i].data_mut();
            let v_data = v[i].data_mut();
            let p_data = slot.value.data_mut();
            let g_data = slot.grad.as_ref().map_or(&[][..], Tensor::data);
            for (((mj, vj), pj), &gj) in
                m_data.iter_mut().zip(v_data.iter_mut()).zip(p_data.iter_mut()).zip(g_data)
            {
                *mj = b1 * *mj + (1.0 - b1) * gj;
                *vj = b2 * *vj + (1.0 - b2) * gj * gj;
                let m_hat = *mj / bias1;
                let v_hat = *vj / bias2;
                *pj -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            i += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::layers::{Dense, Flatten};
    use crate::loss::softmax_cross_entropy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(rng: &mut StdRng) -> Network {
        let layers: Vec<Box<dyn Layer>> =
            vec![Box::new(Flatten::new()), Box::new(Dense::new(4, 2, rng))];
        Network::new(layers, "opt-test", 2)
    }

    #[test]
    fn sgd_reduces_loss_on_separable_problem() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = net(&mut rng);
        let mut opt = Sgd::new(0.5, 0.9, 0.0);
        let x = Tensor::from_vec(
            vec![4, 1, 1, 4],
            vec![
                1., 1., 0., 0., //
                1., 0.9, 0.1, 0., //
                0., 0., 1., 1., //
                0.1, 0., 0.9, 1.,
            ],
        );
        let labels = [0usize, 0, 1, 1];
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..50 {
            model.zero_grads();
            let logits = model.forward(&x, true);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            model.backward(&grad);
            opt.step(&mut model);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < first.unwrap() * 0.2, "loss {last} vs {}", first.unwrap());
        assert!(last < 0.1);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = net(&mut rng);
        let norm_before: f32 = model.state_dict().iter().map(|t| t.norm_sq()).sum();
        let mut opt = Sgd::new(0.1, 0.0, 0.1);
        model.zero_grads();
        opt.step(&mut model);
        let norm_after: f32 = model.state_dict().iter().map(|t| t.norm_sq()).sum();
        assert!(norm_after < norm_before);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_non_positive_lr() {
        Sgd::new(0.0, 0.9, 0.0);
    }

    #[test]
    fn adam_reduces_loss_on_separable_problem() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = net(&mut rng);
        let mut opt = Adam::new(0.05);
        let x = Tensor::from_vec(
            vec![4, 1, 1, 4],
            vec![
                1., 1., 0., 0., //
                1., 0.9, 0.1, 0., //
                0., 0., 1., 1., //
                0.1, 0., 0.9, 1.,
            ],
        );
        let labels = [0usize, 0, 1, 1];
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            model.zero_grads();
            let logits = model.forward(&x, true);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            model.backward(&grad);
            opt.step(&mut model);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < first.unwrap() * 0.2, "loss {last} vs {}", first.unwrap());
    }

    #[test]
    fn adam_zero_gradient_is_near_fixed_point() {
        // With zero gradients, Adam's update is exactly zero (m and v stay
        // zero, and 0 / (sqrt(0) + eps) = 0).
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = net(&mut rng);
        model.zero_grads();
        let before = model.state_dict();
        let mut opt = Adam::new(0.1);
        opt.step(&mut model);
        assert_eq!(model.state_dict(), before);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn adam_rejects_non_positive_lr() {
        Adam::new(0.0);
    }
}
