//! # pgmr-tensor
//!
//! A minimal, dependency-light tensor and linear-algebra substrate used by the
//! PolygraphMR reproduction. It provides:
//!
//! * [`Tensor`] — an owned, dense, row-major `f32` tensor with an arbitrary
//!   number of dimensions (the networks in this repository use the NCHW
//!   convention for image batches),
//! * [`Shape`] — lightweight shape algebra with strides and bounds checking,
//! * [`gemm()`](gemm::gemm) — a packed, cache-blocked, register-tiled matrix
//!   multiply with quantized `i8`/`i16` variants,
//! * [`conv`] — im2col/col2im convolution lowering,
//! * [`ops`] — elementwise and reduction kernels (ReLU, softmax, argmax, …).
//!
//! The crate is deliberately CPU-only and deterministic: every random
//! constructor takes an explicit [`rand::Rng`], so a seeded generator
//! reproduces identical tensors across runs. This determinism is load-bearing
//! for the experiment harnesses, which must regenerate the paper's tables and
//! figures bit-identically between invocations.
//!
//! ## Example
//!
//! ```
//! use pgmr_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
//! let b = Tensor::zeros(vec![2, 3]);
//! let c = a.add(&b);
//! assert_eq!(c.data(), a.data());
//! ```

pub mod arena;
pub mod checksum;
pub mod conv;
pub mod gemm;
pub mod ops;
pub mod shape;
pub mod tensor;

pub use arena::{align_offset, ArenaView, WeightArena, ARENA_ALIGN, ARENA_ALIGN_ELEMS};
pub use checksum::{checked_gemm, ChecksumFault, ChecksumKind, GemmChecksums};
pub use conv::{col2im, im2col, im2col_into, Conv2dGeometry};
pub use gemm::{
    gemm, gemm_a_bt, gemm_a_bt_into, gemm_at_b, gemm_bias, gemm_into, gemm_into_tuned, GemmScratch,
    GemmTuning, DEFAULT_TUNING,
};
pub use ops::{argmax, log_softmax, relu_backward, softmax, softmax_in_place};
pub use shape::Shape;
pub use tensor::Tensor;
