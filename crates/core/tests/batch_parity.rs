//! `PolygraphSystem::infer_batch` against sequential `infer_counted` on
//! the systems that decide in order, whose batches run member-major: one
//! pool job per voting member per segment, the votes folded image by
//! image afterwards. In its job, a member without an injector runs the
//! segment in batched forwards of up to four images; an injected member,
//! and the images of any batched forward that faulted, run one at a time.
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
//! One test in its own binary: the forward timers are process-wide.

use pgmr_datasets::{families, Split};
use pgmr_faults::{ActivationInjector, FaultSpec, SiteFilter, EXPONENT_BITS};
use pgmr_nn::zoo::{build, ArchSpec};
use pgmr_nn::WorkerPool;
use pgmr_preprocess::Preprocessor;
use pgmr_tensor::Tensor;
use polygraph_mr::rade::StagedDecision;
use polygraph_mr::{Ensemble, FaultEvent, FaultPolicy, Member, PolygraphSystem, Thresholds};

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
