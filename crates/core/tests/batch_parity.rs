//! Batched decisions against one-image-at-a-time references.
//!
//! `infer_batch_equals_sequential_infer_counted`: `PolygraphSystem::infer_batch`
//! against sequential `infer_counted` on the systems that decide in order
//! and vote with every member, whose batches run member-major: one pool
//! job per voting member per segment, the votes folded image by image
//! afterwards. In its job, a member without an injector runs the segment
//! in batched forwards of up to four images; an injected member, and the
//! images of any batched forward that faulted, run one at a time.
//!
//! The systems are `decision_digests.rs`' guarded, solo and injected ones:
//! four untrained members, a seeded fault barrage on member 1 (guarded
//! under a fault policy, injected without one), and a fourth member that
//! the persistent-disagreement rule quarantines (solo). A fourth system
//! (nan) plants a NaN in one weight of member 2, which has no injector,
//! under a fault policy: every pass it runs faults, so each of its batched
//! forwards is discarded and its images re-run one at a time, for strikes
//! 1, 2 and 3 and then quarantine. Each system streams the same 25 images
//! through `infer_batch` calls of 1, 2, 3, 5, 8 and 25 images on pools 1,
//! 2 and 4 wide, and must match the sequential run in every observable:
//! the decisions, the drained fault events, the quarantine set, each
//! member's injector flips (per site) and the number of forwards each
//! member's `infer.forward_ns.m*` timer recorded (a batched forward
//! records one per image, a discarded one none). A batch path that ran a
//! pass the sequential one would not — a member past its quarantine, or a
//! retry never needed — moves an injector's random stream or a timer count
//! and fails here even when its verdicts agree.
//!
//! `staged_runs_equal_the_per_image_protocol`: RADE systems decided stage
//! by stage, through `PolygraphSystem::decide_run` (runs of 1, 2, 3, 5, 8
//! and 25 images) and `infer_batch` (the same call sizes on pools 1, 2
//! and 4 wide), against an oracle written here that never calls either:
//! per image, `StagedEngine::decide_with_budget` over `Member::predict`
//! providers. The systems are four untrained members under
//! `decision_digests.rs`' RADE priority, plain or with seeded injectors on
//! a stage-1 member and on the last one, which runs only on the images
//! still undecided; each runs under an open budget and under one that
//! refuses chosen (image, activated) pairs. They must match the oracle in
//! the decisions and their budget flags, each image's sequence of budget
//! calls, the `rade.*` exit counters and activation histogram, the
//! forwards each member ran (timer samples against `predict` calls) and
//! each injector's flips per site. A stage that ran an image already
//! decided, an injected member that batched, or a budget asked for an
//! image that had already exited fails here.
//!
//! The forward timers and RADE counters are process-wide: this binary
//! holds its tests only, and they take turns through `SERIAL`.

use pgmr_datasets::{families, Split};
use pgmr_faults::{ActivationInjector, FaultSpec, SiteFilter, EXPONENT_BITS};
use pgmr_nn::zoo::{build, ArchSpec};
use pgmr_nn::WorkerPool;
use pgmr_preprocess::Preprocessor;
use pgmr_tensor::Tensor;
use polygraph_mr::rade::{BudgetedDecision, StagedDecision};
use polygraph_mr::{Ensemble, FaultEvent, FaultPolicy, Member, PolygraphSystem, Thresholds};
use std::sync::{Mutex, PoisonError};

/// Serializes the tests: they read deltas of process-wide metrics.
static SERIAL: Mutex<()> = Mutex::new(());

const MEMBERS: usize = 4;
const IMAGES: usize = 25;
const CALL_SIZES: [usize; 6] = [1, 2, 3, 5, 8, 25];
const POOL_WIDTHS: [usize; 3] = [1, 2, 4];

/// `decision_digests.rs`' system of `kind`, or the nan system.
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
    if kind != "injected" {
        system.set_fault_policy(Some(FaultPolicy::default()));
    }
    if kind == "nan" {
        let mut first = true;
        let network = system.ensemble_mut().members_mut()[2].network_mut();
        network.visit_slots(&mut |slot| {
            if std::mem::take(&mut first) {
                slot.value.data_mut()[0] = f32::NAN;
            }
        });
    }
    if kind == "guarded" || kind == "injected" {
        let guarded = pgmr_faults::guarded_sites(system.ensemble().members()[1].network());
        let spec = FaultSpec::transient_activations(13, 0.05)
            .with_bits(EXPONENT_BITS)
            .with_sites(SiteFilter::Only(guarded));
        system.ensemble_mut().members_mut()[1]
            .set_fault_injector(Some(ActivationInjector::new(&spec)));
    }
    assert!(system.decides_in_order(), "{kind} must decide in order");
    system
}

/// Everything a run leaves behind.
#[derive(Debug, PartialEq)]
struct Run {
    decisions: Vec<StagedDecision>,
    events: Vec<FaultEvent>,
    quarantined: Vec<usize>,
    /// Per member with an injector: its flips per site.
    flips: Vec<(usize, Vec<(usize, usize)>)>,
    /// Forwards each member's timer recorded during the run.
    forwards: [u64; MEMBERS],
}

fn forward_counts() -> [u64; MEMBERS] {
    let obs = pgmr_obs::global();
    std::array::from_fn(|m| obs.timer(&format!("infer.forward_ns.m{m}")).count())
}

/// Runs `decide` on a fresh system of `kind` and collects the run.
fn observe(kind: &str, decide: impl FnOnce(&mut PolygraphSystem) -> Vec<StagedDecision>) -> Run {
    let mut system = system(kind);
    let before = forward_counts();
    let decisions = decide(&mut system);
    let after = forward_counts();
    let flips = (system.ensemble().members().iter().enumerate())
        .filter_map(|(m, member)| member.fault_injector().map(|inj| (m, inj.site_flips())))
        .collect();
    Run {
        decisions,
        events: system.drain_fault_events(),
        quarantined: system.quarantined(),
        flips,
        forwards: std::array::from_fn(|m| after[m] - before[m]),
    }
}

#[test]
fn infer_batch_equals_sequential_infer_counted() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let data = families::synth_digits(4).generate(Split::Test, IMAGES);
    let images: &[Tensor] = data.images();
    for kind in ["guarded", "solo", "injected", "nan"] {
        let reference = observe(kind, |s| images.iter().map(|img| s.infer_counted(img)).collect());
        // The streams reach what the batch path must reproduce.
        let injected = reference.flips.iter().map(|(_, sites)| sites.len()).sum::<usize>();
        match kind {
            "guarded" => assert_eq!(reference.quarantined, vec![1], "a checksum quarantine"),
            "solo" => assert_eq!(reference.quarantined, vec![3], "a solo quarantine"),
            "nan" => {
                assert_eq!(reference.quarantined, vec![2], "a checksum quarantine");
                let strikes: Vec<u32> = (reference.events.iter())
                    .filter_map(|e| match *e {
                        FaultEvent::ChecksumStrike { member: 2, strikes } => Some(strikes),
                        _ => None,
                    })
                    .collect();
                assert_eq!(strikes, [1, 2, 3], "every pass of the NaN member faults");
            }
            _ => assert!(reference.events.is_empty() && injected > 0, "flips, no policy"),
        }
        for width in POOL_WIDTHS {
            let pool = WorkerPool::new(width);
            for size in CALL_SIZES {
                let batched = observe(kind, |s| {
                    images.chunks(size).flat_map(|call| s.infer_batch(call, &pool)).collect()
                });
                assert_eq!(batched, reference, "{kind}: calls of {size} on a {width}-wide pool");
            }
        }
    }
}

/// The RADE exit counters, then the `rade.activated` histogram's count
/// and sum.
fn rade_metrics() -> [u64; 6] {
    let obs = pgmr_obs::global();
    let exits = ["early_reliable", "budget_stopped", "early_unreliable", "exhausted"]
        .map(|exit| obs.counter(&format!("rade.{exit}_total")).get());
    let activated = obs.histogram("rade.activated");
    [exits[0], exits[1], exits[2], exits[3], activated.count(), activated.sum()]
}

/// A RADE system over four untrained members, without a fault policy:
/// `decision_digests.rs`' RADE priority and thresholds, and for
/// `injected` seeded barrages on member 0 (a stage-1 member, run on every
/// image) and member 1 (last, run only on the images still undecided),
/// which make it decide in order.
fn staged_system(injected: bool) -> PolygraphSystem {
    use Preprocessor::{FlipX, Gamma, Identity};
    let spec = ArchSpec::convnet(1, 16, 16, 10);
    let members = [(Identity, 7), (FlipX, 8), (Gamma(2.0), 9), (Identity, 10)];
    let members = members.iter().map(|&(p, seed)| Member::new(p, build(&spec, seed))).collect();
    let mut system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.15, 2));
    system.enable_staged(vec![3, 0, 2, 1]);
    if injected {
        for (m, seed) in [(0, 13), (1, 14)] {
            let member = &mut system.ensemble_mut().members_mut()[m];
            let guarded = pgmr_faults::guarded_sites(member.network());
            let spec = FaultSpec::transient_activations(seed, 0.05)
                .with_bits(EXPONENT_BITS)
                .with_sites(SiteFilter::Only(guarded));
            member.set_fault_injector(Some(ActivationInjector::new(&spec)));
        }
    }
    assert_eq!(system.decides_in_order(), injected);
    system
}

/// The budget of a run: open, or refusing every escalation of an image
/// whose index plus activation count is a multiple of three.
fn allows(refusing: bool, image: usize, activated: usize) -> bool {
    !refusing || !(image + activated).is_multiple_of(3)
}

/// Everything a staged run leaves behind.
#[derive(Debug, PartialEq)]
struct StagedRun {
    decisions: Vec<BudgetedDecision>,
    /// Per image: the activation counts its budget was asked at.
    asked: Vec<Vec<usize>>,
    /// [`rade_metrics`] deltas.
    rade: [u64; 6],
    /// Forwards each member ran.
    forwards: [u64; MEMBERS],
    /// Per member with an injector: its flips per site.
    flips: Vec<(usize, Vec<(usize, usize)>)>,
}

fn flips(system: &PolygraphSystem) -> Vec<(usize, Vec<(usize, usize)>)> {
    (system.ensemble().members().iter().enumerate())
        .filter_map(|(m, member)| member.fault_injector().map(|inj| (m, inj.site_flips())))
        .collect()
}

/// The oracle: each image in turn through `StagedEngine::decide_with_budget`
/// with `Member::predict` providers, counting the forwards itself.
fn oracle(injected: bool, refusing: bool, images: &[Tensor]) -> StagedRun {
    let mut system = staged_system(injected);
    let engine = system.staged_engine_shared().expect("a RADE system");
    let rade_before = rade_metrics();
    let mut forwards = [0; MEMBERS];
    let mut asked = vec![Vec::new(); images.len()];
    let members = system.ensemble_mut().members_mut();
    let decisions = (images.iter().enumerate())
        .map(|(i, image)| {
            let predict = |m: usize| {
                forwards[m] += 1;
                members[m].predict(image)
            };
            engine.decide_with_budget(predict, MEMBERS, |activated| {
                asked[i].push(activated);
                allows(refusing, i, activated)
            })
        })
        .collect();
    let rade_after = rade_metrics();
    StagedRun {
        decisions,
        asked,
        rade: std::array::from_fn(|k| rade_after[k] - rade_before[k]),
        forwards,
        flips: flips(&system),
    }
}

/// Runs `decide` on a fresh staged system and collects the run; `decide`
/// reports the decisions and logs budget calls into the given per-image
/// lists.
fn observe_staged(
    injected: bool,
    images: usize,
    decide: impl FnOnce(&mut PolygraphSystem, &mut [Vec<usize>]) -> Vec<BudgetedDecision>,
) -> StagedRun {
    let mut system = staged_system(injected);
    let (rade_before, forwards_before) = (rade_metrics(), forward_counts());
    let mut asked = vec![Vec::new(); images];
    let decisions = decide(&mut system, &mut asked);
    let (rade_after, forwards_after) = (rade_metrics(), forward_counts());
    StagedRun {
        decisions,
        asked,
        rade: std::array::from_fn(|k| rade_after[k] - rade_before[k]),
        forwards: std::array::from_fn(|m| forwards_after[m] - forwards_before[m]),
        flips: flips(&system),
    }
}

#[test]
fn staged_runs_equal_the_per_image_protocol() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let data = families::synth_digits(4).generate(Split::Test, IMAGES);
    let images: &[Tensor] = data.images();
    for injected in [false, true] {
        for refusing in [false, true] {
            let label = format!("injected {injected}, refusing {refusing}");
            let reference = oracle(injected, refusing, images);
            // The runs reach what the staged path must reproduce: images
            // that exit after stage 1 beside images that reach the last
            // member, so later stages run on scattered rows; refusals
            // under the refusing budget; injector flips.
            let activated =
                |n: usize| reference.decisions.iter().any(|d| d.decision.activated == n);
            assert!(activated(2) && activated(MEMBERS), "{label}: escalations");
            let refused = reference.decisions.iter().any(|d| d.budget_exhausted);
            assert_eq!(refused, refusing, "{label}: refusals");
            let flipped = reference.flips.iter().map(|(_, sites)| sites.len()).sum::<usize>();
            assert_eq!(flipped > 0, injected, "{label}: flips");

            for size in CALL_SIZES {
                let direct = observe_staged(injected, images.len(), |system, asked| {
                    let mut decisions = Vec::new();
                    for (c, call) in images.chunks(size).enumerate() {
                        let base = c * size;
                        let may_escalate = |i: usize, activated| {
                            asked[base + i].push(activated);
                            allows(refusing, base + i, activated)
                        };
                        system.decide_run(call, None, may_escalate, |d| decisions.push(d));
                    }
                    decisions
                });
                assert_eq!(direct, reference, "{label}: decide_run calls of {size}");
            }
            if refusing {
                continue;
            }
            for width in POOL_WIDTHS {
                let pool = WorkerPool::new(width);
                for size in CALL_SIZES {
                    let mut batched = observe_staged(injected, images.len(), |system, _| {
                        let calls =
                            images.chunks(size).flat_map(|call| system.infer_batch(call, &pool));
                        let open =
                            |decision| BudgetedDecision { decision, budget_exhausted: false };
                        calls.map(open).collect()
                    });
                    // `infer_batch` asks an open budget it does not expose.
                    batched.asked.clone_from(&reference.asked);
                    let what =
                        format!("{label}: infer_batch calls of {size} on a {width}-wide pool");
                    assert_eq!(batched, reference, "{what}");
                }
            }
        }
    }
}
