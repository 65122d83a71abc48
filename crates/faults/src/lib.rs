//! # pgmr-faults
//!
//! Seeded, reproducible bit-flip fault injection for the PolygraphMR
//! reproduction, plus the campaign harness that measures silent-data-
//! corruption (SDC) and detection rates with and without ABFT checksums.
//!
//! The fault model follows the soft-error literature the paper's
//! dependability claims target: a fault is a single-event upset that flips
//! one bit of an IEEE-754 value, either
//!
//! * **transiently** in an inter-layer activation — the canonical
//!   "corrupted GEMM output" that algorithm-based fault tolerance (ABFT)
//!   row/column checksums are designed to catch, or
//! * **persistently** in a stored weight — invisible to ABFT (the
//!   checksums are derived from the corrupted weight and stay consistent)
//!   and therefore the motivating case for ensemble-level quarantine in
//!   `polygraph-mr`.
//!
//! Everything is driven by explicit seeds: the same [`FaultSpec`] replayed
//! against the same network and inputs injects bit-identical faults, which
//! makes campaign reports reproducible across runs and machines.
//!
//! Two entry points run every study, both from one [`CampaignConfig`]
//! (its `target` picks activation or weight faults, its `guard` what each
//! trial verifies) and both on a caller-chosen [`pgmr_nn::WorkerPool`]:
//! [`run_campaign`] sprays trials over a site filter, and
//! [`run_site_sweep`] gives each listed site trials of its own. Reports do
//! not depend on the pool width. [`VulnerabilityProfile::measure`] is an
//! unguarded activation sweep over a network's guarded sites.
//!
//! ## Example
//!
//! ```
//! use pgmr_faults::{flip_bit, FaultSpec};
//!
//! // Flipping the same bit twice restores the value.
//! let v = 1.5f32;
//! assert_eq!(flip_bit(flip_bit(v, 30), 30), v);
//!
//! // A spec describes where and how often faults land.
//! let spec = FaultSpec::transient_activations(42, 1e-3);
//! assert_eq!(spec.seed, 42);
//! ```

pub mod campaign;
pub mod inject;
pub mod profile;

pub use campaign::{
    run_campaign, run_site_sweep, CampaignConfig, CampaignGuard, CampaignReport, SiteTally,
    TrialOutcome,
};
pub use inject::{
    flip_bit, guarded_sites, inject_weights, repair_weights, ActivationInjector, FaultRecord,
    FaultSpec, FaultTarget, SiteFilter, ANY_BIT, EXPONENT_BITS, MANTISSA_BITS, SIGN_BIT,
};
pub use profile::{ProfileConfig, ProfileSource, VulnerabilityProfile};
