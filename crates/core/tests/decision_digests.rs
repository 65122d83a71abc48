//! Bit-exact FNV-1a digests of every decision path.
//!
//! The constants were recorded from the decision code as it stood before
//! the Layer-3 vote rule was gathered into one tally, when the rule was
//! still written out separately in the full engine, in RADE's running
//! count and final plurality, in the threshold sweep and in the guarded
//! fold. They pin, over seeded probability sets, `DecisionEngine::decide`
//! and `evaluate::decide_all` on a `(Thr_Conf, Thr_Freq)` grid,
//! `StagedEngine::decide_with_budget` under three priority orders with an
//! open and a refusing budget, and the points `profile::sweep_thresholds`
//! returns; and, on cheap untrained members, `infer_counted` of a plain
//! and a RADE system, of an ABFT-guarded one under a seeded fault barrage,
//! of a guarded one whose odd member out is quarantined for persistent
//! disagreement and of an unguarded one under the same barrage, whose
//! `infer_batch` on a 4-wide pool must give the same digests. The
//! unguarded barrage's digest was recorded later, from the code that
//! still decided it through a sequential `infer_counted` loop in
//! `infer_batch` and a separate full-ensemble loop. Only integers are hashed: verdict kind, class,
//! votes, activation count, budget flag, sweep counts and each drained
//! fault event; RADE's exit counters must agree with the exits the
//! hashed outputs imply. Never regenerate the digests to make a change
//! pass — a mismatch means a verdict, an activation count, a RADE exit or
//! a fault event changed.

use pgmr_datasets::{families, Split};
use pgmr_faults::{ActivationInjector, FaultSpec, SiteFilter, EXPONENT_BITS};
use pgmr_nn::serialize::fnv1a;
use pgmr_nn::zoo::{build, ArchSpec};
use pgmr_nn::WorkerPool;
use pgmr_preprocess::Preprocessor;
use polygraph_mr::evaluate::decide_all;
use polygraph_mr::profile::sweep_thresholds;
use polygraph_mr::rade::{StagedDecision, StagedEngine};
use polygraph_mr::{
    DecisionEngine, Ensemble, FaultEvent, FaultPolicy, Member, PolygraphSystem, QuarantineReason,
    Thresholds, Verdict,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, PoisonError};

/// A seeded probability set: members, classes, samples, seed.
type SetSpec = (usize, usize, usize, u64);

/// Per probability set: digests of `decide`, `decide_all`,
/// `decide_with_budget` and `sweep_thresholds`.
#[rustfmt::skip]
const DECISIONS: [(SetSpec, [u64; 4]); 4] = [
    ((3, 3, 60, 31), [0x8e6326f74c102e94, 0x8e6326f74c102e94, 0xcc187bdaaae46876, 0x411330490620ee5a]),
    ((4, 4, 60, 32), [0x4723dcaaf497f304, 0x4723dcaaf497f304, 0x5d05d0a4571e1a60, 0x1fc1635f88bc213a]),
    ((5, 10, 60, 33), [0x122c959369ab29a5, 0x122c959369ab29a5, 0xaea595d3d0b95c81, 0x1d78d5a8c26359bb]),
    ((7, 3, 60, 34), [0x500b62335f287181, 0x500b62335f287181, 0x50faf072aed7ab48, 0xad522041ed58da7a]),
];

/// Per system: the digest of its decisions and drained fault events.
#[rustfmt::skip]
const SYSTEMS: [(&str, u64); 5] = [
    ("plain", 0xe91bc81758b8ab83),
    ("rade", 0x17a039c421099003),
    ("guarded", 0xdef9dbe4b18bdfa0),
    ("solo", 0x2a94c3aaaf807b04),
    ("injected", 0xda0772e0d5e98b62),
];

/// The `Thr_Conf` grid; every `Thr_Freq` from 1 to the member count runs
/// at each level.
const CONF_GRID: [f32; 5] = [0.0, 0.3, 0.45, 0.6, 0.8];

fn digest(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a(&bytes)
}

fn push_verdict(words: &mut Vec<u64>, verdict: Verdict) {
    match verdict {
        Verdict::Reliable { class, votes } => words.extend([1, class as u64, votes as u64]),
        Verdict::Unreliable { class, votes } => {
            words.extend([0, class.map_or(u64::MAX, |c| c as u64), votes as u64])
        }
    }
}

fn push_event(words: &mut Vec<u64>, event: FaultEvent) {
    match event {
        FaultEvent::ChecksumRetry { member } => words.extend([0, member as u64]),
        FaultEvent::ChecksumStrike { member, strikes } => {
            words.extend([1, member as u64, strikes as u64])
        }
        FaultEvent::Quarantined { member, reason } => {
            let reason = match reason {
                QuarantineReason::RepeatedChecksumFaults => 0,
                QuarantineReason::PersistentDisagreement => 1,
            };
            words.extend([2, member as u64, reason])
        }
    }
}

fn check(label: String, got: u64, want: u64, mismatches: &mut Vec<String>) {
    if got != want {
        mismatches.push(format!("{label}: got {got:#018x}, recorded {want:#018x}"));
    }
}

/// One member's softmax-like vote. Mostly a random distribution leaning
/// towards one of the three lowest classes (so members often agree and
/// pluralities tie); sometimes a flat vector (an argmax tie at
/// confidence `1/classes`), a vector whose first entry is NaN (a vote no
/// `Thr_Conf`, not even 0, lets through), or one whose top-1 confidence
/// equals a grid level exactly (a vote that level still counts).
fn vote(rng: &mut StdRng, classes: usize) -> Vec<f32> {
    match rng.gen_range(0..16u32) {
        0 => vec![1.0 / classes as f32; classes],
        1 => {
            let mut v = vec![0.5 / classes as f32; classes];
            v[0] = f32::NAN;
            v
        }
        2 => {
            let mut v = vec![0.05; classes];
            v[rng.gen_range(0..classes.min(3))] = CONF_GRID[rng.gen_range(1..CONF_GRID.len())];
            v
        }
        _ => {
            let mut v: Vec<f32> = (0..classes).map(|_| rng.gen_range(0.01f32..1.0)).collect();
            let favourite = rng.gen_range(0..classes.min(3));
            v[favourite] += rng.gen_range(0.0f32..4.0);
            let sum: f32 = v.iter().sum();
            v.iter().map(|x| x / sum).collect()
        }
    }
}

/// A seeded probability set in the harness layout (`probs[m][i]` is
/// member `m`'s vector on sample `i`) with seeded labels.
fn probability_set(
    members: usize,
    classes: usize,
    samples: usize,
    seed: u64,
) -> (Vec<Vec<Vec<f32>>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut probs = vec![Vec::with_capacity(samples); members];
    for _ in 0..samples {
        for member in probs.iter_mut() {
            member.push(vote(&mut rng, classes));
        }
    }
    let labels = (0..samples).map(|_| rng.gen_range(0..classes)).collect();
    (probs, labels)
}

/// Every grid point for an `n`-member set.
fn grid(n: usize) -> Vec<Thresholds> {
    CONF_GRID
        .iter()
        .flat_map(|&conf| (1..=n).map(move |freq| Thresholds::new(conf, freq)))
        .collect()
}

/// Which way a staged decision ended, read from its outputs: a refused
/// escalation is budget-stopped; a reliable verdict is an early-reliable
/// exit (RADE returns it the moment the leader qualifies, last member
/// included); an unreliable one is early when members were left over and
/// exhausted otherwise. Indexes [`RADE_EXITS`].
#[derive(Clone, Copy)]
enum Exit {
    EarlyReliable,
    EarlyUnreliable,
    Exhausted,
    BudgetStopped,
}

/// RADE's exit counters, in [`Exit`] order.
const RADE_EXITS: [&str; 4] = [
    "rade.early_reliable_total",
    "rade.early_unreliable_total",
    "rade.exhausted_total",
    "rade.budget_stopped_total",
];

/// Both tests drive the process-wide RADE metrics; one reads them, so
/// they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// The RADE exit counters, then the `rade.activated` sample count and
/// sum.
fn rade_metrics() -> [u64; 6] {
    let obs = pgmr_obs::global();
    let activated = obs.histogram("rade.activated");
    let exit = |i: usize| obs.counter(RADE_EXITS[i]).get();
    [exit(0), exit(1), exit(2), exit(3), activated.count(), activated.sum()]
}

#[test]
fn decision_layer_matches_recorded_digests() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let metrics_before = rade_metrics();
    let mut activations = [0u64; 2]; // decisions, members activated
    let mut mismatches = Vec::new();
    let mut verdicts = [0usize; 2]; // unreliable, reliable
    let mut exits = [0usize; 4];
    for &((members, classes, samples, seed), want) in &DECISIONS {
        let (probs, labels) = probability_set(members, classes, samples, seed);
        let label = format!("{members} members x {classes} classes");
        let ballots: Vec<Vec<Vec<f32>>> =
            (0..samples).map(|i| probs.iter().map(|m| m[i].clone()).collect()).collect();

        let mut words = Vec::new();
        for thresholds in grid(members) {
            let engine = DecisionEngine::new(thresholds);
            for ballot in &ballots {
                let verdict = engine.decide(ballot);
                verdicts[verdict.is_reliable() as usize] += 1;
                push_verdict(&mut words, verdict);
            }
        }
        check(format!("{label} decide"), digest(&words), want[0], &mut mismatches);

        let mut words = Vec::new();
        for thresholds in grid(members) {
            for verdict in decide_all(&probs, thresholds) {
                push_verdict(&mut words, verdict);
            }
        }
        check(format!("{label} decide_all"), digest(&words), want[1], &mut mismatches);

        let identity: Vec<usize> = (0..members).collect();
        let reversed: Vec<usize> = identity.iter().rev().copied().collect();
        let rotated: Vec<usize> = (0..members).map(|m| (m + 1) % members).collect();
        let mut words = Vec::new();
        for priority in [identity, reversed, rotated] {
            for thresholds in grid(members) {
                let engine = StagedEngine::new(priority.clone(), thresholds);
                for open in [true, false] {
                    for ballot in &ballots {
                        let out = engine.decide_with_budget(|m| &ballot[m], members, |_| open);
                        let d = out.decision;
                        let exit = if out.budget_exhausted {
                            Exit::BudgetStopped
                        } else if d.verdict.is_reliable() {
                            Exit::EarlyReliable
                        } else if d.activated < members {
                            Exit::EarlyUnreliable
                        } else {
                            Exit::Exhausted
                        };
                        exits[exit as usize] += 1;
                        activations[0] += 1;
                        activations[1] += d.activated as u64;
                        push_verdict(&mut words, d.verdict);
                        words.extend([d.activated as u64, out.budget_exhausted as u64]);
                    }
                }
            }
        }
        check(format!("{label} decide_with_budget"), digest(&words), want[2], &mut mismatches);

        let mut words = Vec::new();
        let points = sweep_thresholds(&probs, &labels, &CONF_GRID);
        assert_eq!(points.len(), CONF_GRID.len() * members, "one point per grid cell");
        for (point, thresholds) in points.iter().zip(grid(members)) {
            assert_eq!(point.tag, thresholds, "sweep order");
            let count = |rate: f64| (rate * samples as f64).round() as u64;
            words.extend([thresholds.freq as u64, count(point.tp), count(point.fp)]);
        }
        check(format!("{label} sweep_thresholds"), digest(&words), want[3], &mut mismatches);
    }
    assert!(mismatches.is_empty(), "decision digests changed:\n{}", mismatches.join("\n"));
    assert!(verdicts.iter().all(|&n| n > 0), "verdict kinds reached: {verdicts:?}");
    assert!(exits.iter().all(|&n| n > 0), "RADE exits reached: {exits:?}");
    let metrics: Vec<u64> = rade_metrics().iter().zip(metrics_before).map(|(a, b)| a - b).collect();
    let want: Vec<u64> = exits.iter().map(|&n| n as u64).chain(activations).collect();
    assert_eq!(metrics, want, "RADE exit counters and activation histogram disagree");
}

/// A fresh system of `kind` over four untrained members: deterministic,
/// cheap to forward, and they disagree often enough to reach reliable
/// and unreliable verdicts. The guarded one carries the seeded barrage of
/// guarded-output exponent flips on member 1 that the system's batch
/// fault-path test uses; at `Thr_Freq` 3 its verdicts change when the
/// quarantine re-derives the vote bar to 2. The injected one carries the
/// same barrage without a fault policy, so member 1's corrupted votes
/// count. The solo one runs three copies of one network beside a fourth
/// that contradicts them, which the persistent-disagreement rule
/// quarantines.
fn system(kind: &str) -> PolygraphSystem {
    use Preprocessor::{FlipX, Gamma, Identity};
    let spec = ArchSpec::convnet(1, 16, 16, 10);
    let members = match kind {
        "solo" => [(Identity, 7), (Identity, 7), (Identity, 7), (FlipX, 8)],
        _ => [(Identity, 7), (FlipX, 8), (Gamma(2.0), 9), (Identity, 10)],
    };
    let members = members.iter().map(|&(p, seed)| Member::new(p, build(&spec, seed))).collect();
    let freq = if kind == "guarded" { 3 } else { 2 };
    let mut system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.15, freq));
    match kind {
        "plain" => {}
        "rade" => system.enable_staged(vec![3, 0, 2, 1]),
        "solo" => system.set_fault_policy(Some(FaultPolicy::default())),
        "guarded" | "injected" => {
            let guarded = pgmr_faults::guarded_sites(system.ensemble().members()[1].network());
            let spec = FaultSpec::transient_activations(13, 0.05)
                .with_bits(EXPONENT_BITS)
                .with_sites(SiteFilter::Only(guarded));
            system.ensemble_mut().members_mut()[1]
                .set_fault_injector(Some(ActivationInjector::new(&spec)));
            if kind == "guarded" {
                system.set_fault_policy(Some(FaultPolicy::default()));
            }
        }
        other => panic!("unknown system kind {other}"),
    }
    system
}

fn system_digest(decisions: &[StagedDecision], events: &[FaultEvent]) -> u64 {
    let mut words = Vec::new();
    for d in decisions {
        push_verdict(&mut words, d.verdict);
        words.push(d.activated as u64);
    }
    for &event in events {
        push_event(&mut words, event);
    }
    digest(&words)
}

#[test]
fn system_inference_matches_recorded_digests() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let data = families::synth_digits(4).generate(Split::Test, 25);
    let pool = WorkerPool::new(4);
    let mut mismatches = Vec::new();
    let mut verdicts = [0usize; 2]; // unreliable, reliable
    let mut events = [0usize; 4]; // retries, strikes, checksum and solo quarantines
    for &(kind, want) in &SYSTEMS {
        let mut sequential = system(kind);
        let decisions: Vec<StagedDecision> =
            data.images().iter().map(|img| sequential.infer_counted(img)).collect();
        let drained = sequential.drain_fault_events();
        check(
            format!("{kind} infer_counted"),
            system_digest(&decisions, &drained),
            want,
            &mut mismatches,
        );
        for d in &decisions {
            verdicts[d.verdict.is_reliable() as usize] += 1;
        }
        for event in &drained {
            events[match event {
                FaultEvent::ChecksumRetry { .. } => 0,
                FaultEvent::ChecksumStrike { .. } => 1,
                FaultEvent::Quarantined { reason, .. } => match reason {
                    QuarantineReason::RepeatedChecksumFaults => 2,
                    QuarantineReason::PersistentDisagreement => 3,
                },
            }] += 1;
        }

        let mut batched = system(kind);
        let decisions = batched.infer_batch(data.images(), &pool);
        let drained = batched.drain_fault_events();
        check(
            format!("{kind} infer_batch"),
            system_digest(&decisions, &drained),
            want,
            &mut mismatches,
        );
    }
    assert!(mismatches.is_empty(), "system digests changed:\n{}", mismatches.join("\n"));
    assert!(verdicts.iter().all(|&n| n > 0), "verdict kinds reached: {verdicts:?}");
    assert!(events.iter().all(|&n| n > 0), "fault events reached: {events:?}");
}
