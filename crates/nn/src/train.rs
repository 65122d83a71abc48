//! Mini-batch training loop with seeded shuffling.

use crate::loss::softmax_cross_entropy;
use crate::network::{Network, RunPlan};
use crate::optim::Sgd;
use crate::workspace::Workspace;
use pgmr_tensor::{argmax, softmax, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Mini-batch size shared by the inference-mode evaluation helpers
/// ([`accuracy`] here, the sharded `evaluate` paths in `pgmr-core`): large
/// enough to amortize per-batch dispatch overhead, small enough that a
/// batch's activations stay cache-resident. Keeping every consumer on one
/// constant also keeps workspace arenas at a single steady-state size.
pub const INFER_BATCH: usize = 64;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Multiplicative LR decay applied at 50% and 75% of the epochs.
    pub lr_decay: f32,
    /// Seed for the per-epoch shuffle.
    pub shuffle_seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_decay: 0.1,
            shuffle_seed: 0,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss per epoch, in order.
    pub epoch_losses: Vec<f32>,
    /// Accuracy over the training set after the final epoch.
    pub final_train_accuracy: f64,
}

/// Drives SGD training of a [`Network`] on an in-memory dataset.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if `epochs == 0` or `batch_size == 0`.
    pub fn new(config: TrainConfig) -> Self {
        assert!(config.epochs > 0, "epochs must be positive");
        assert!(config.batch_size > 0, "batch size must be positive");
        Trainer { config }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `net` on `(images, labels)` and reports per-epoch losses.
    ///
    /// Reports into [`pgmr_obs::global`]: per-epoch duration
    /// (`train.epoch_ns`), epoch/sample counters, the last epoch loss as
    /// a gauge, and one `train.fit` event per completed run.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or the image/label counts differ.
    pub fn fit(&self, net: &mut Network, images: &[Tensor], labels: &[usize]) -> TrainReport {
        assert!(!images.is_empty(), "training set is empty");
        assert_eq!(images.len(), labels.len(), "image/label count mismatch");

        let cfg = &self.config;
        let obs = pgmr_obs::global();
        obs.counter("train.fit_total").inc();
        let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
        let mut rng = StdRng::seed_from_u64(cfg.shuffle_seed);
        let mut order: Vec<usize> = (0..images.len()).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);

        for epoch in 0..cfg.epochs {
            let epoch_span = obs.span("train.epoch_ns");
            // Step LR decay at 50% and 75% of the run.
            if cfg.epochs >= 4 && (epoch == cfg.epochs / 2 || epoch == cfg.epochs * 3 / 4) {
                opt.lr *= cfg.lr_decay;
            }
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0f32;
            for chunk in order.chunks(cfg.batch_size) {
                let batch_imgs: Vec<Tensor> = chunk.iter().map(|&i| images[i].clone()).collect();
                let batch = Tensor::stack_images(&batch_imgs);
                let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                net.zero_grads();
                let logits = net.forward(&batch, true);
                let (loss, grad) = softmax_cross_entropy(&logits, &batch_labels);
                net.backward(&grad);
                opt.step(net);
                // `loss` is the batch mean; weight it by the batch size so
                // a ragged final batch cannot bias the epoch mean.
                loss_sum += loss * chunk.len() as f32;
            }
            let epoch_loss = loss_sum / images.len() as f32;
            epoch_losses.push(epoch_loss);
            epoch_span.finish();
            obs.counter("train.epochs_total").inc();
            obs.counter("train.samples_total").add(images.len() as u64);
            obs.gauge("train.last_epoch_loss").set(f64::from(epoch_loss));
        }

        let final_train_accuracy = accuracy(net, images, labels);
        obs.emit(
            "train.fit",
            format!(
                "net={} epochs={} samples={} final_loss={:.6} train_acc={:.4}",
                net.arch_id(),
                cfg.epochs,
                images.len(),
                epoch_losses.last().copied().unwrap_or(f32::NAN),
                final_train_accuracy
            ),
        );
        TrainReport { epoch_losses, final_train_accuracy }
    }
}

/// Classification accuracy of `net` over a labeled set, evaluated in
/// inference mode with mini-batches.
///
/// Like a training forward, the evaluation runs on a workspace of its own:
/// the thread's inference arena keeps no evaluation-batch buffers, and
/// `infer.workspace_bytes` keeps meaning inference.
///
/// # Panics
///
/// Panics if the set is empty or counts mismatch.
pub fn accuracy(net: &mut Network, images: &[Tensor], labels: &[usize]) -> f64 {
    assert!(!images.is_empty(), "evaluation set is empty");
    assert_eq!(images.len(), labels.len(), "image/label count mismatch");
    let mut ws = Workspace::new();
    let mut logits = Vec::new();
    let mut correct = 0usize;
    for (chunk_imgs, chunk_labels) in images.chunks(INFER_BATCH).zip(labels.chunks(INFER_BATCH)) {
        let batch = Tensor::stack_images(chunk_imgs);
        net.run_in(&batch, &RunPlan::default(), &mut ws, &mut logits)
            .expect("an unguarded run cannot fault");
        for (row, &label) in logits.chunks(net.num_classes()).zip(chunk_labels) {
            if argmax(&softmax(row)) == label {
                correct += 1;
            }
        }
    }
    correct as f64 / images.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::layers::{Dense, Flatten, Relu};

    fn make_xor_like_dataset() -> (Vec<Tensor>, Vec<usize>) {
        // Two 2x2 patterns per class, plus noise-free copies: trivially
        // separable by a small MLP.
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for rep in 0..20 {
            let jitter = rep as f32 * 0.001;
            images.push(Tensor::from_vec(vec![1, 1, 2, 2], vec![1. + jitter, 0., 0., 1.]));
            labels.push(0);
            images.push(Tensor::from_vec(vec![1, 1, 2, 2], vec![0., 1. + jitter, 1., 0.]));
            labels.push(1);
        }
        (images, labels)
    }

    #[test]
    fn fit_learns_separable_patterns() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Flatten::new()),
            Box::new(Dense::new(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 2, &mut rng)),
        ];
        let mut net = Network::new(layers, "xor", 2);
        let (images, labels) = make_xor_like_dataset();
        let cfg = TrainConfig { epochs: 8, batch_size: 8, lr: 0.2, ..TrainConfig::default() };
        let report = Trainer::new(cfg).fit(&mut net, &images, &labels);
        assert_eq!(report.epoch_losses.len(), 8);
        assert!(report.final_train_accuracy > 0.95);
        assert!(report.epoch_losses.last().unwrap() < &0.2);
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let build = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let layers: Vec<Box<dyn Layer>> = vec![
                Box::new(Flatten::new()),
                Box::new(Dense::new(4, 4, &mut rng)),
                Box::new(Relu::new()),
                Box::new(Dense::new(4, 2, &mut rng)),
            ];
            Network::new(layers, "det", 2)
        };
        let (images, labels) = make_xor_like_dataset();
        let cfg = TrainConfig { epochs: 3, ..TrainConfig::default() };
        let mut a = build();
        let mut b = build();
        let ra = Trainer::new(cfg.clone()).fit(&mut a, &images, &labels);
        let rb = Trainer::new(cfg).fit(&mut b, &images, &labels);
        assert_eq!(ra.epoch_losses, rb.epoch_losses);
        assert_eq!(a.state_dict(), b.state_dict());
    }

    #[test]
    fn epoch_loss_is_sample_weighted_under_ragged_batches() {
        // With a vanishing lr the weights are effectively frozen, so every
        // batch sees the same network and the epoch loss must equal the
        // full-set mean loss regardless of how the set is chopped into
        // batches. 40 samples at batch_size 16 leave a ragged final batch
        // of 8 — the case the old unweighted mean-of-batch-means got wrong.
        let build = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            let layers: Vec<Box<dyn Layer>> = vec![
                Box::new(Flatten::new()),
                Box::new(Dense::new(4, 6, &mut rng)),
                Box::new(Relu::new()),
                Box::new(Dense::new(6, 2, &mut rng)),
            ];
            Network::new(layers, "ragged", 2)
        };
        let (images, labels) = make_xor_like_dataset();
        assert_eq!(images.len() % 16, 8, "fixture must produce a ragged final batch");
        let frozen =
            |batch_size| TrainConfig { epochs: 1, batch_size, lr: 1e-9, ..TrainConfig::default() };
        let ragged = Trainer::new(frozen(16)).fit(&mut build(), &images, &labels);
        let single = Trainer::new(frozen(images.len())).fit(&mut build(), &images, &labels);
        let gap = (ragged.epoch_losses[0] - single.epoch_losses[0]).abs();
        assert!(gap < 1e-5, "partition changed the epoch loss by {gap}");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn fit_rejects_empty_dataset() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let layers: Vec<Box<dyn Layer>> =
            vec![Box::new(Flatten::new()), Box::new(Dense::new(4, 2, &mut rng))];
        let mut net = Network::new(layers, "e", 2);
        Trainer::new(TrainConfig::default()).fit(&mut net, &[], &[]);
    }
}
