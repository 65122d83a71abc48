//! # pgmr-tensor
//!
//! A minimal, dependency-light tensor and linear-algebra substrate used by the
//! PolygraphMR reproduction. It provides:
//!
//! * [`Tensor`] — a dense, row-major `f32` tensor of at most four
//!   dimensions (the networks in this repository use the NCHW convention
//!   for image batches), over owned storage or a copy-on-write slice of a
//!   shared [`WeightArena`],
//! * [`Shape`] — an inline, `Copy` shape of up to [`MAX_RANK`] extents,
//! * [`gemm()`](gemm::gemm) — a packed, cache-blocked, register-tiled matrix
//!   multiply,
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
//! let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
//! let b = Tensor::zeros([2, 3]);
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

pub use arena::{align_offset, WeightArena, ARENA_ALIGN, ARENA_ALIGN_ELEMS};
pub use checksum::{checked_gemm, ChecksumFault, ChecksumKind, GemmChecksums, WeightSums};
pub use conv::{col2im, im2col_into, Conv2dGeometry};
pub use gemm::{
    gemm, gemm_a_bt, gemm_a_bt_into, gemm_at_b, gemm_into, gemm_into_tuned, GemmScratch,
    GemmTuning, DEFAULT_TUNING,
};
pub use ops::{argmax, log_softmax, relu_backward, softmax, softmax_in_place};
pub use shape::{Shape, MAX_RANK};
pub use tensor::Tensor;
