//! End-to-end observability: deterministic snapshots and hot-path metrics
//! captured from real inference workloads through the global registry.
//!
//! Every test in this binary shares the process-global [`pgmr::obs`]
//! registry, so they serialize on `OBS_LOCK` and start from
//! `global().reset()` — see [`exclusive_registry`].

use std::sync::{Mutex, MutexGuard};

use pgmr::core::decision::Thresholds;
use pgmr::core::ensemble::{Ensemble, Member};
use pgmr::core::stream::ReliabilityMonitor;
use pgmr::core::system::{FaultPolicy, PolygraphSystem};
use pgmr::datasets::families;
use pgmr::datasets::{Dataset, Split};
use pgmr::faults::{guarded_sites, ActivationInjector, FaultSpec, SiteFilter, EXPONENT_BITS};
use pgmr::nn::zoo::ArchSpec;
use pgmr::nn::{TrainConfig, WorkerPool};
use pgmr::obs;
use pgmr::preprocess::Preprocessor;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the test on the shared global registry and clears it.
fn exclusive_registry() -> MutexGuard<'static, ()> {
    let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::global().reset();
    guard
}

/// Trains a small seeded three-member system (`Member` is not `Sync`, so
/// the members cannot be cached in a static across tests).
fn fresh_system() -> (PolygraphSystem, Dataset) {
    let cfg = families::synth_digits(0);
    let train = cfg.generate(Split::Train, 150);
    let test = cfg.generate(Split::Test, 60);
    let spec = ArchSpec::convnet(1, 16, 16, 10);
    let tc = TrainConfig { epochs: 3, batch_size: 16, lr: 0.08, ..TrainConfig::default() };
    let members = vec![
        Member::train(Preprocessor::Identity, &spec, &train, &tc, 1).0,
        Member::train(Preprocessor::FlipX, &spec, &train, &tc, 2).0,
        Member::train(Preprocessor::Gamma(2.0), &spec, &train, &tc, 3).0,
    ];
    let system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.4, 2));
    (system, test.truncated(24))
}

#[test]
fn staged_batch_snapshot_is_byte_identical_across_runs() {
    let _guard = exclusive_registry();
    let run = || {
        let (mut system, data) = fresh_system();
        system.enable_staged(vec![0, 1, 2]);
        let pool = WorkerPool::new(4);
        obs::global().reset();
        system.evaluate_batch(&data, &pool);
        obs::global().snapshot().to_deterministic_json()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "deterministic export must be byte-identical across runs");
    assert!(first.contains("\"rade.activated\""), "missing activation histogram:\n{first}");
    assert!(first.contains("\"infer.forward_ns.m0\""), "missing member latency:\n{first}");
    assert!(!first.contains(".worker."), "scheduling-dependent metric leaked:\n{first}");
}

#[test]
fn full_snapshot_records_forward_latency_and_activations() {
    let _guard = exclusive_registry();
    let (mut system, data) = fresh_system();
    system.enable_staged(vec![0, 1, 2]);
    obs::global().reset();
    let pool = WorkerPool::new(4);
    system.evaluate_batch(&data, &pool);

    let snap = obs::global().snapshot();
    // Member 0 has highest staged priority, so it runs on every input.
    let m0 = snap.histogram("infer.forward_ns.m0").expect("member-0 latency histogram");
    assert_eq!(m0.count as usize, data.len());
    assert!(m0.sum > 0, "wall-clock forward latency must be nonzero");
    let acts = snap.histogram("rade.activated").expect("activation-count histogram");
    assert_eq!(acts.count as usize, data.len());
    assert!(acts.sum >= 2 * data.len() as u64, "staged mode activates at least Thr_Freq members");
    let verdicts = snap.counter("infer.verdicts.reliable_total").unwrap_or(0)
        + snap.counter("infer.verdicts.unreliable_total").unwrap_or(0);
    assert_eq!(verdicts as usize, data.len(), "every input yields exactly one verdict");
}

#[test]
fn checksum_barrage_emits_quarantine_events() {
    let _guard = exclusive_registry();
    let (mut system, data) = fresh_system();
    // Member 1 suffers a seeded barrage of exponent flips on its guarded
    // outputs: every guarded forward fails ABFT verification, so the
    // retry → strike → quarantine ladder runs to the end.
    let guarded = guarded_sites(system.ensemble().members()[1].network());
    let spec = FaultSpec::transient_activations(13, 0.05)
        .with_bits(EXPONENT_BITS)
        .with_sites(SiteFilter::Only(guarded));
    system.ensemble_mut().members_mut()[1].set_fault_injector(Some(ActivationInjector::new(&spec)));
    system.set_fault_policy(Some(FaultPolicy::default()));

    obs::global().reset();
    let mut monitor = ReliabilityMonitor::new(8, 0.9);
    for img in data.images() {
        system.infer_monitored(img, &mut monitor);
        if !system.quarantined().is_empty() {
            break;
        }
    }
    assert_eq!(system.quarantined(), vec![1]);

    let snap = obs::global().snapshot();
    assert!(snap.counter("abft.strikes_total").unwrap_or(0) >= 3);
    assert_eq!(snap.counter("abft.quarantines_total"), Some(1));
    assert_eq!(snap.events_of_kind("abft.quarantine").count(), 1);
    assert_eq!(snap.counter("monitor.quarantines_total"), Some(1));
    assert_eq!(monitor.quarantines(), 1);
    let event = snap.events_of_kind("monitor.quarantine").next().expect("monitor event");
    assert!(event.detail.contains("member=1"), "unexpected detail: {}", event.detail);
}

#[test]
fn selective_protection_metrics_are_deterministic() {
    use pgmr::faults::{ProfileConfig, VulnerabilityProfile};
    use pgmr::nn::ProtectionLevel;
    let _guard = exclusive_registry();
    // A clean selectively-protected run must account for every guarded
    // layer — checked or skipped — plus the duplicated critical layer,
    // and the whole export must be reproducible byte-for-byte.
    let run = || {
        let (mut system, data) = fresh_system();
        system.set_fault_policy(Some(FaultPolicy::default()));
        let inputs = data.images()[..4].to_vec();
        let cfg = ProfileConfig { trials_per_site: 4, ..ProfileConfig::default() };
        let profile = VulnerabilityProfile::measure(
            system.ensemble_mut().members_mut()[0].network_mut(),
            &inputs,
            &cfg,
            &WorkerPool::new(1),
        );
        // Reset after the measurement campaign so the snapshot holds only
        // the protected inference run (plus the gauge apply_protection
        // sets).
        obs::global().reset();
        system.apply_protection(ProtectionLevel::Selective { top_k: 1 }, &[profile], true);
        system.evaluate(&data);
        obs::global().snapshot().to_deterministic_json()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "selective-protection export must be byte-identical");

    // Re-run once more to inspect the structured snapshot.
    let (mut system, data) = fresh_system();
    system.set_fault_policy(Some(FaultPolicy::default()));
    let inputs = data.images()[..4].to_vec();
    let cfg = ProfileConfig { trials_per_site: 4, ..ProfileConfig::default() };
    let profile = VulnerabilityProfile::measure(
        system.ensemble_mut().members_mut()[0].network_mut(),
        &inputs,
        &cfg,
        &WorkerPool::new(1),
    );
    obs::global().reset();
    system.apply_protection(ProtectionLevel::Selective { top_k: 1 }, &[profile], true);
    system.evaluate(&data);
    let snap = obs::global().snapshot();
    assert_eq!(snap.gauge("protect.level"), Some(1.0), "selective level gauge");
    let checked = snap.counter("abft.checked_total").unwrap_or(0);
    let skipped = snap.counter("abft.skipped_total").unwrap_or(0);
    let duplicated = snap.counter("dup.exec_total").unwrap_or(0);
    assert!(checked > 0, "top-1 plan checks one layer per forward");
    assert!(skipped > 0, "remaining guarded layers must be skipped, not checked");
    assert!(duplicated > 0, "critical layer runs duplicated");
    // 3 members × data.len() forwards, one checked layer and one duplicated
    // layer each; the skipped count covers the other guarded layers.
    let forwards = (3 * data.len()) as u64;
    assert_eq!(checked, forwards);
    assert_eq!(duplicated, forwards);
    assert_eq!(skipped % forwards, 0, "whole guarded layers are skipped per forward");
}

#[test]
fn concurrent_increments_through_global_pool_are_lossless() {
    let _guard = exclusive_registry();
    let pool = pgmr::nn::pool::global();
    let counter = obs::global().counter("test.concurrent_total");
    let before = counter.get();
    let jobs: Vec<_> = (0..64)
        .map(|_| {
            let counter = counter.clone();
            move || {
                for _ in 0..1000 {
                    counter.inc();
                }
            }
        })
        .collect();
    pool.run(jobs);
    assert_eq!(counter.get() - before, 64_000, "relaxed increments must all land");
}
