//! # polygraph-mr
//!
//! PolygraphMR: a heterogeneous modular-redundancy (MR) system of CNNs that
//! detects *unreliable* predictions — the primary contribution of
//! *PolygraphMR: Enhancing the Reliability and Dependability of CNNs*
//! (Latifi, Zamirai, Mahlke; DSN 2020), reproduced here from scratch.
//!
//! The system has three layers (paper Fig. 4):
//!
//! 1. **Layer 1 — preprocessors** ([`ensemble::Member`] pairs each network
//!    with a [`Preprocessor`](pgmr_preprocess::Preprocessor)): a pool of
//!    simple image transformations injects behavior diversity far beyond
//!    what random weight initialization provides.
//! 2. **Layer 2 — heterogeneous MR** ([`ensemble::Ensemble`]): N CNNs, each
//!    trained on its preprocessor's view of the data, make independent
//!    predictions on every input.
//! 3. **Layer 3 — decision engine** ([`decision::DecisionEngine`]): votes
//!    above a confidence threshold `Thr_Conf` populate a class histogram;
//!    the most frequent class is the system's prediction and it is emitted
//!    as *reliable* only when its frequency reaches `Thr_Freq`.
//!
//! Around that core, this crate implements the paper's full tool chain:
//!
//! * [`profile`] — offline threshold profiling: sweep the
//!   `(Thr_Conf, Thr_Freq)` grid on a validation set, extract the TP/FP
//!   Pareto frontier, select an operating point from a user
//!   [`Demand`](profile::Demand) (§III-E);
//! * [`rade`] — the resource-aware decision engine: contribution-ranked
//!   staged activation that runs only as many networks as the input needs
//!   (§III-F);
//! * [`ramr`] — resource-aware MR: reduced-precision ensemble execution on
//!   top of [`pgmr_precision`] (§III-D);
//! * [`delta`] — the confidence-delta preprocessor comparison of §III-G
//!   (Fig. 8);
//! * [`builder`] — the iterative greedy preprocessor-selection procedure
//!   that assembles a PolygraphMR system for a benchmark (§III-G);
//! * [`analysis`] — the misclassification-characteristics breakdown
//!   (§II-C, Fig. 3) made quantitative by dataset corruption tags;
//! * [`agreement`] — the prediction-agreement histograms of Fig. 7;
//! * [`suite`] — the six-benchmark evaluation suite of Table II, bound to
//!   this repository's synthetic datasets and model zoo;
//! * [`baselines`] — the related-work uncertainty comparators (MC-dropout;
//!   deep ensembles are the `N_MR` configuration of [`ensemble`]).
//!
//! ## Quick start
//!
//! ```no_run
//! use polygraph_mr::prelude::*;
//!
//! // Train a 3-network PolygraphMR on the digit benchmark at tiny scale.
//! let bench = suite::Benchmark::lenet5_digits(suite::Scale::Tiny);
//! let built = builder::SystemBuilder::new(&bench).max_networks(3).build(7);
//! let test = bench.dataset.generate(pgmr_datasets::Split::Test, 100);
//! let mut system = built.system;
//! let verdict = system.infer(&test.images()[0]);
//! println!("prediction {verdict:?}");
//! ```

pub mod agreement;
pub mod analysis;
pub mod baselines;
pub mod builder;
pub mod decision;
pub mod delta;
pub mod ensemble;
pub mod evaluate;
pub mod profile;
pub mod rade;
pub mod ramr;
pub mod stream;
pub mod suite;
pub mod system;

pub use decision::{DecisionEngine, Thresholds, Verdict};
pub use ensemble::{Ensemble, Member};
pub use system::{FaultEvent, FaultPolicy, PolygraphSystem, QuarantineReason};

/// Convenient glob-import surface for examples and harnesses.
pub mod prelude {
    pub use crate::agreement;
    pub use crate::analysis;
    pub use crate::baselines;
    pub use crate::builder;
    pub use crate::decision::{DecisionEngine, Thresholds, Verdict};
    pub use crate::delta;
    pub use crate::ensemble::{Ensemble, Member};
    pub use crate::evaluate;
    pub use crate::profile;
    pub use crate::rade;
    pub use crate::ramr;
    pub use crate::stream;
    pub use crate::suite;
    pub use crate::system::{FaultEvent, FaultPolicy, PolygraphSystem, QuarantineReason};
}
