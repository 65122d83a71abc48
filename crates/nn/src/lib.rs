//! # pgmr-nn
//!
//! A from-scratch, CPU-only convolutional-neural-network framework built for
//! the PolygraphMR reproduction. The paper trains its benchmark CNNs in
//! Caffe; this crate is the substitute substrate: real layers, real
//! backpropagation, real SGD training — nothing is mocked — just scaled down
//! so the six benchmark networks train in seconds on a laptop core.
//!
//! ## What's here
//!
//! * [`layer`] — the [`layer::Layer`] trait and the cost-accounting
//!   types consumed by the `pgmr-perf` GPU model,
//! * [`layers`] — convolution, dense, pooling, batch-norm, ReLU, flatten,
//!   residual blocks and DenseNet-style dense blocks,
//! * [`network`] — [`network::Network`], a sequential container whose
//!   single driver [`network::Network::run`] executes every forward pass
//!   from a [`network::RunPlan`]: an activation hook (how
//!   `pgmr-precision` simulates truncating load/store values), a training
//!   flag, and an ABFT/duplication [`network::Guard`],
//! * [`loss`] — softmax cross-entropy,
//! * [`optim`] — SGD with momentum and weight decay,
//! * [`train`] — a mini-batch trainer with seeded shuffling and step LR
//!   decay,
//! * [`pool`] — the workspace's shared worker pool (persistent threads,
//!   ordered results, panic propagation) behind parallel training,
//!   batched inference, and fault campaigns,
//! * [`protect`] — selective-protection policy types
//!   ([`protect::CheckPlan`], [`protect::ProtectionLevel`]) consumed by
//!   the plan-aware ABFT forward pass,
//! * [`zoo`] — the six benchmark architectures of the paper's Table II,
//!   scaled to this repository's synthetic datasets,
//! * [`workspace`] — the activation arena every layer's single
//!   `forward_into` body computes into (one per thread for inference,
//!   reused across members and batches),
//! * [`serialize`] — a versioned binary parameter codec,
//! * [`store`] — the process-wide model store: digest-verified weight
//!   arenas shared read-only across tenants (owned↔shared `ParamSlot`
//!   split, one digest verification per blob).
//!
//! ## Example
//!
//! ```
//! use pgmr_nn::zoo::{self, ArchSpec};
//! use pgmr_nn::train::{Trainer, TrainConfig};
//! use pgmr_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! // A tiny two-class problem: mean-positive vs mean-negative images.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut images = Vec::new();
//! let mut labels = Vec::new();
//! for i in 0..64 {
//!     let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
//!     images.push(Tensor::normal(vec![1, 1, 8, 8], sign, 0.3, &mut rng));
//!     labels.push(i % 2);
//! }
//! let spec = ArchSpec::convnet(1, 8, 8, 2);
//! let mut net = zoo::build(&spec, 7);
//! let cfg = TrainConfig { epochs: 3, batch_size: 8, ..TrainConfig::default() };
//! let report = Trainer::new(cfg).fit(&mut net, &images, &labels);
//! assert!(report.final_train_accuracy > 0.9);
//! ```

pub mod init;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod network;
pub mod optim;
pub mod pool;
pub mod protect;
pub mod serialize;
pub mod store;
pub mod train;
pub mod workspace;
pub mod zoo;

pub use layer::{GradSlot, Layer, LayerCost, ParamSlot, ParamValue};
pub use network::Network;
pub use pool::WorkerPool;
pub use protect::{CheckPlan, ProtectionLevel};
pub use store::{model_store, ModelStore, StoredModel};
pub use train::{TrainConfig, TrainReport, Trainer, INFER_BATCH};
pub use workspace::{ActBuf, Workspace};
