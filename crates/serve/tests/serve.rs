//! Concurrency and determinism tests for the serving front-end:
//! admission bounds and liveness, bit-identical parity with sequential
//! inference under open deadlines (RADE, full-ensemble and guarded
//! systems), and deadline-expiry degradation.

use pgmr_datasets::{families, Dataset, Split};
use pgmr_faults::{ActivationInjector, FaultSpec, SiteFilter, EXPONENT_BITS};
use pgmr_nn::zoo::ArchSpec;
use pgmr_nn::TrainConfig;
use pgmr_preprocess::Preprocessor;
use pgmr_serve::{ServeConfig, ServeHandle};
use pgmr_tensor::argmax;
use polygraph_mr::ensemble::{Ensemble, Member};
use polygraph_mr::stream::StreamHealth;
use polygraph_mr::{FaultPolicy, PolygraphSystem, Thresholds};
use std::time::Duration;

/// The standard 3-member digit ensemble the core system tests use.
fn trained_members() -> (Vec<Member>, Dataset) {
    let cfg = families::synth_digits(0);
    let train = cfg.generate(Split::Train, 150);
    let test = cfg.generate(Split::Test, 60);
    let spec = ArchSpec::convnet(1, 16, 16, 10);
    let tc = TrainConfig { epochs: 3, batch_size: 16, lr: 0.08, ..TrainConfig::default() };
    let (a, _) = Member::train(Preprocessor::Identity, &spec, &train, &tc, 1);
    let (b, _) = Member::train(Preprocessor::FlipX, &spec, &train, &tc, 2);
    let (c, _) = Member::train(Preprocessor::Gamma(2.0), &spec, &train, &tc, 3);
    (vec![a, b, c], test)
}

#[test]
fn admission_window_never_exceeds_max_batch() {
    let (members, test) = trained_members();
    let mut system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.4, 2));
    system.enable_staged(vec![0, 1, 2]);
    let handle = ServeHandle::spawn(
        &system,
        ServeConfig { max_batch: 3, workers: 2, ..ServeConfig::default() },
    );
    for img in &test.images()[..8] {
        handle.submit(img.clone(), None);
    }
    let done = handle.drain(8);
    assert_eq!(done.len(), 8);
    let stats = handle.shutdown();
    assert_eq!(stats.submitted, 8);
    assert_eq!(stats.completed, 8);
    assert!(
        stats.max_batch_observed <= 3,
        "admission window exceeded max_batch: {}",
        stats.max_batch_observed
    );
    // 8 requests through windows of at most 3 need at least 3 batches.
    assert!(stats.batches >= 3, "only {} batches for 8 requests", stats.batches);
}

#[test]
fn lone_requests_dispatch_without_filling_a_batch() {
    let (members, test) = trained_members();
    let system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.4, 2));
    // A huge max_batch and one request at a time: each lone request can
    // only complete because admission dispatches what is queued instead
    // of waiting for the batch to fill. `drain` blocking forever here IS
    // the failure mode this test guards.
    let handle = ServeHandle::spawn(
        &system,
        ServeConfig { max_batch: 64, workers: 2, ..ServeConfig::default() },
    );
    for img in &test.images()[..2] {
        handle.submit(img.clone(), None);
        assert_eq!(handle.drain(1).len(), 1);
    }
    let stats = handle.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.batches, 2, "each lone request dispatches as its own batch");
}

#[test]
fn serve_verdicts_match_sequential_inference_bit_for_bit() {
    let (members, test) = trained_members();
    let thresholds = Thresholds::new(0.4, 2);

    // Sequential reference: infer_counted in arrival order.
    let mut reference = PolygraphSystem::new(Ensemble::new(members.clone()), thresholds);
    reference.enable_staged(vec![0, 1, 2]);
    let images = &test.images()[..30];
    let expected: Vec<_> = images.iter().map(|img| reference.infer_counted(img)).collect();

    let mut system = PolygraphSystem::new(Ensemble::new(members), thresholds);
    system.enable_staged(vec![0, 1, 2]);
    let handle = ServeHandle::spawn(
        &system,
        ServeConfig { max_batch: 4, workers: 3, monitor_window: 16, ..ServeConfig::default() },
    );
    let ids: Vec<_> = images.iter().map(|img| handle.submit(img.clone(), None)).collect();
    let done = handle.drain(30);
    assert_eq!(
        done.iter().map(|c| c.id).collect::<Vec<_>>(),
        ids,
        "completions must arrive in submission order"
    );
    for (c, e) in done.iter().zip(&expected) {
        assert_eq!(c.decision, *e, "served verdict diverged from sequential inference");
        assert!(!c.deadline_degraded, "open deadlines must never degrade");
        assert!(!c.deadline_missed, "open deadlines must never miss");
    }
    // 30 verdicts through a 16-wide monitor window: health is live.
    assert_ne!(handle.health(), StreamHealth::WarmingUp);
    let stats = handle.shutdown();
    assert_eq!(stats.completed, 30);
    assert_eq!(stats.deadline_missed, 0);
    assert_eq!(stats.deadline_degraded, 0);
    assert_eq!(stats.activated_members, expected.iter().map(|d| d.activated as u64).sum::<u64>());
}

#[test]
fn expired_deadlines_degrade_verdicts_and_count_misses() {
    let (members, test) = trained_members();
    // Thr_Conf 0 counts every vote, so escalation past stage 1 happens
    // exactly when the two stage-1 members disagree — find such an input.
    let mut m0 = members[0].clone();
    let mut m1 = members[1].clone();
    let image = test
        .images()
        .iter()
        .find(|img| argmax(&m0.predict(img)) != argmax(&m1.predict(img)))
        .expect("some test image where the stage-1 members disagree")
        .clone();

    let mut system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.0, 2));
    system.enable_staged(vec![0, 1, 2]);
    let miss_before = pgmr_obs::global().counter("serve.deadline_miss_total").get();
    let handle = ServeHandle::spawn(
        &system,
        ServeConfig { max_batch: 1, workers: 1, ..ServeConfig::default() },
    );

    // Zero budget: the deadline expires at submission, so the escalation
    // to member 2 is refused and the best-so-far answer comes back
    // degraded — and degraded always counts as a miss.
    handle.submit(image.clone(), Some(Duration::ZERO));
    let done = handle.drain(1);
    assert!(done[0].deadline_degraded, "expired budget must degrade the verdict");
    assert!(done[0].deadline_missed, "degraded completions are misses");
    assert_eq!(done[0].decision.activated, 2, "only stage 1 may run on a spent budget");
    assert!(!done[0].decision.verdict.is_reliable());

    // The same input with an open deadline escalates and resolves fully.
    handle.submit(image, None);
    let done = handle.drain(1);
    assert!(!done[0].deadline_degraded);
    assert!(!done[0].deadline_missed);
    assert_eq!(done[0].decision.activated, 3);

    let stats = handle.shutdown();
    assert_eq!(stats.deadline_degraded, 1);
    assert_eq!(stats.deadline_missed, 1);
    assert!(
        pgmr_obs::global().counter("serve.deadline_miss_total").get() > miss_before,
        "serve.deadline_miss_total must record the miss"
    );
}

#[test]
fn full_ensemble_mode_serves_without_staging() {
    let (members, test) = trained_members();
    let thresholds = Thresholds::new(0.4, 2);
    let mut reference = PolygraphSystem::new(Ensemble::new(members.clone()), thresholds);
    let images = &test.images()[..12];
    let expected: Vec<_> = images.iter().map(|img| reference.infer_counted(img)).collect();

    // No staged engine: every member runs, deadlines can only classify
    // completions as missed, never cut the protocol short.
    let system = PolygraphSystem::new(Ensemble::new(members), thresholds);
    let handle = ServeHandle::spawn(&system, ServeConfig::default());
    for img in images {
        handle.submit(img.clone(), Some(Duration::from_secs(60)));
    }
    let done = handle.drain(12);
    for (c, e) in done.iter().zip(&expected) {
        assert_eq!(c.decision, *e);
        assert_eq!(c.decision.activated, 3, "full mode always runs every member");
        assert!(!c.deadline_degraded, "full mode cannot degrade");
    }
    handle.shutdown();
}

/// A fault-policy system over `members` whose member 1 carries the seeded
/// barrage of guarded-output exponent flips the core batch fault-path
/// test uses: its checksums keep failing until it is quarantined.
fn guarded_system(members: Vec<Member>) -> PolygraphSystem {
    let mut system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.4, 2));
    let sites = pgmr_faults::guarded_sites(system.ensemble().members()[1].network());
    let spec = FaultSpec::transient_activations(13, 0.05)
        .with_bits(EXPONENT_BITS)
        .with_sites(SiteFilter::Only(sites));
    system.ensemble_mut().members_mut()[1].set_fault_injector(Some(ActivationInjector::new(&spec)));
    system.set_fault_policy(Some(FaultPolicy::default()));
    system
}

#[test]
fn guarded_system_serves_in_order_like_sequential_inference() {
    let (members, test) = trained_members();
    let images = &test.images()[..12];
    let mut twin = guarded_system(members.clone());
    let expected: Vec<_> = images.iter().map(|img| twin.infer_counted(img)).collect();
    assert_eq!(twin.quarantined(), vec![1], "the barrage must quarantine member 1");

    // Three workers are asked for; strikes and quarantine evolve from
    // request to request, so the front-end decides on one replica in
    // submission order and the verdicts follow the twin's exactly.
    let system = guarded_system(members);
    let handle = ServeHandle::spawn(
        &system,
        ServeConfig { max_batch: 4, workers: 3, ..ServeConfig::default() },
    );
    for img in images {
        handle.submit(img.clone(), None);
    }
    let done = handle.drain(images.len());
    let served: Vec<_> = done.iter().map(|c| c.decision).collect();
    assert_eq!(served, expected, "served guarded verdicts diverged from sequential inference");
    assert!(done.iter().all(|c| !c.deadline_degraded && !c.deadline_missed));
    let stats = handle.shutdown();
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.activated_members, expected.iter().map(|d| d.activated as u64).sum::<u64>());
}

#[test]
fn latency_is_a_timer_with_a_count_only_deterministic_entry() {
    let (members, test) = trained_members();
    let system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.4, 2));
    let handle = ServeHandle::spawn(&system, ServeConfig { workers: 1, ..ServeConfig::default() });
    for img in &test.images()[..3] {
        handle.submit(img.clone(), None);
    }
    assert_eq!(handle.drain(3).len(), 3);
    handle.shutdown();
    let snap = pgmr_obs::global().snapshot();
    let latency = snap.histogram("serve.latency_ns").expect("latency recorded");
    assert_eq!(latency.unit, pgmr_obs::Unit::Nanos);
    assert!(latency.count >= 3);
    // Wall-clock sums and buckets must not leak into deterministic output.
    let json = snap.to_deterministic_json();
    let entry = json.lines().find(|l| l.contains("\"serve.latency_ns\"")).expect("latency entry");
    assert!(entry.contains("{\"unit\": \"ns\", \"count\": "), "{entry}");
    assert!(!entry.contains("sum") && !entry.contains("buckets"), "{entry}");
}
