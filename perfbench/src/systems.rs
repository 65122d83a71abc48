//! The two ensembles the workloads run, their member blobs, and the
//! start-up work `setup_s` times.

use pgmr_datasets::Dataset;
use pgmr_precision::Precision;
use pgmr_preprocess::Preprocessor;
use pgmr_serve::{ServeConfig, ServeHandle};
use polygraph_mr::rade::{self, StagedEngine};
use polygraph_mr::suite::{self, Benchmark, Scale};
use polygraph_mr::{Ensemble, FaultPolicy, Member, PolygraphSystem, Thresholds};
use std::path::PathBuf;
use std::time::Instant;

use crate::clock;

/// Where trained member blobs live, relative to the checkout root the
/// harness runs from. Kept apart from the cargo build directory so a
/// clean build does not force retraining.
pub const MODEL_DIR: &str = ".bench_cache/models";

/// Width of the shared worker pool: the 2-vCPU reference host's `nproc`,
/// fixed so the workload is the same on any host.
pub const POOL_THREADS: usize = 2;

/// Every member is {ORG s1, FlipX s2, Gamma(2.0) s3}.
pub const MEMBERS: [(Preprocessor, u64); 3] =
    [(Preprocessor::Identity, 1), (Preprocessor::FlipX, 2), (Preprocessor::Gamma(2.0), 3)];

/// Thresholds (Thr_Conf, Thr_Freq) of both systems.
pub fn thresholds() -> Thresholds {
    Thresholds::new(0.4, 2)
}

/// RAMR width of the guarded system.
pub fn ramr_precision() -> Precision {
    Precision::new(14)
}

/// The serve workloads' benchmark (lenet5-digits).
pub fn lenet() -> Benchmark {
    Benchmark::lenet5_digits(Scale::Small)
}

/// The guarded batch workload's benchmark (alexnet-scenes).
pub fn alexnet() -> Benchmark {
    Benchmark::alexnet_scenes(Scale::Small)
}

/// Points the suite's blob cache at [`MODEL_DIR`] and fixes the shared
/// pool width. Must run before anything touches the pool.
pub fn configure_process() {
    suite::set_cache_dir(Some(PathBuf::from(MODEL_DIR)));
    suite::set_threads(Some(POOL_THREADS));
}

/// Path of one member's cached blob.
pub fn blob_path(bench: &Benchmark, preprocessor: Preprocessor, seed: u64) -> PathBuf {
    suite::cache_dir().join(format!("{}.pgmr", bench.member_key(preprocessor, seed)))
}

/// Trains every member blob any workload uses that is missing or fails
/// its digest, and verifies the rest. Returns how many were (re)trained.
pub fn prepare() -> usize {
    let fits_before = pgmr_obs::global().counter("train.fit_total").get();
    let benches = [lenet(), alexnet()];
    let jobs: Vec<_> = benches
        .iter()
        .flat_map(|bench| MEMBERS.iter().map(move |&(p, s)| move || drop(bench.member(p, s))))
        .collect();
    pgmr_nn::pool::global().run(jobs);
    for bench in &benches {
        for &(p, s) in &MEMBERS {
            let path = blob_path(bench, p, s);
            assert!(path.is_file(), "member blob {} missing after prepare", path.display());
        }
    }
    (pgmr_obs::global().counter("train.fit_total").get() - fits_before) as usize
}

/// True when every member blob a workload needs is on disk.
pub fn blobs_present(bench: &Benchmark) -> bool {
    MEMBERS.iter().all(|&(p, s)| blob_path(bench, p, s).is_file())
}

/// One timed start-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTiming {
    /// From the first member load until the first request can be issued,
    /// seconds.
    pub total_s: f64,
    /// The validation pass alone, milliseconds.
    pub profile_ms: f64,
    /// Blob decoding into the model store (`store.load_ns`), milliseconds.
    pub store_load_ms: f64,
    /// Blobs read and digest-verified from disk; a cold start of three
    /// members reads exactly three.
    pub cold_loads: u64,
    /// Training runs; any is a blob-cache miss.
    pub trainings: u64,
}

/// Loads the three members from a cold model store, noting what the
/// store did.
fn load_members(bench: &Benchmark, timing: &mut SetupTiming) -> Vec<Member> {
    let obs = pgmr_obs::global();
    pgmr_nn::model_store().clear();
    let load_ns = obs.timer("store.load_ns").sum();
    let verified = obs.counter(pgmr_nn::serialize::DIGEST_VERIFY_COUNTER).get();
    let fits = obs.counter("train.fit_total").get();
    let members = MEMBERS.iter().map(|&(p, s)| bench.member(p, s)).collect();
    timing.store_load_ms = (obs.timer("store.load_ns").sum() - load_ns) as f64 / 1e6;
    timing.cold_loads = obs.counter(pgmr_nn::serialize::DIGEST_VERIFY_COUNTER).get() - verified;
    timing.trainings = obs.counter("train.fit_total").get() - fits;
    members
}

fn blank_timing() -> SetupTiming {
    SetupTiming { total_s: 0.0, profile_ms: 0.0, store_load_ms: 0.0, cold_loads: 0, trainings: 0 }
}

/// The serve system's start-up: cold member load, RADE priority from a
/// validation pass of `Member::predict` (the `serve_load` recipe), system
/// assembly and `ServeHandle::spawn` with the default front end.
pub fn setup_serve(
    bench: &Benchmark,
    val: &Dataset,
) -> (PolygraphSystem, ServeHandle, SetupTiming) {
    let mut timing = blank_timing();
    let start = clock::now();
    let mut members = load_members(bench, &mut timing);
    let profile_start = clock::now();
    let probs = pgmr_bench::member_probs(&mut members, val);
    let contributions = rade::contributions(&probs, val.labels());
    timing.profile_ms = ms_since(profile_start);
    let priority =
        StagedEngine::from_contributions(&contributions, thresholds()).priority().to_vec();
    let mut system = PolygraphSystem::new(Ensemble::new(members), thresholds());
    system.enable_staged(priority);
    let handle = ServeHandle::spawn(&system, ServeConfig::default());
    timing.total_s = secs_since(start);
    (system, handle, timing)
}

/// The guarded system's start-up: cold member load, RAMR 14-bit
/// precision, the default fault policy, and a validation pass of
/// `Member::predict_checked` per member. Also returns the checksum faults
/// the pass raised; there must be none.
pub fn setup_guarded(bench: &Benchmark, val: &Dataset) -> (PolygraphSystem, usize, SetupTiming) {
    let mut timing = blank_timing();
    let start = clock::now();
    let mut members = load_members(bench, &mut timing);
    for m in &mut members {
        m.set_precision(ramr_precision());
    }
    let policy = FaultPolicy::default();
    let mut system = PolygraphSystem::new(Ensemble::new(members), thresholds());
    system.set_fault_policy(Some(policy));
    let profile_start = clock::now();
    let mut faults = 0;
    for member in system.ensemble_mut().members_mut() {
        for img in val.images() {
            faults += usize::from(member.predict_checked(img, policy.tolerance).is_err());
        }
    }
    timing.profile_ms = ms_since(profile_start);
    timing.total_s = secs_since(start);
    (system, faults, timing)
}

fn secs_since(t: Instant) -> f64 {
    clock::now().duration_since(t).as_secs_f64()
}

fn ms_since(t: Instant) -> f64 {
    secs_since(t) * 1e3
}
