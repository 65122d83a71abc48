//! Allocation pins for tensor storage: the heap allocation events that
//! constructing, cloning and preprocessing a tensor cost, a warmed member
//! forward, a warmed guarded network forward (also after a read-only
//! parameter visit), a warmed decision of a plain, a RADE and a guarded
//! system, and a warmed guarded `infer_batch` call. A tensor's shape is
//! inline, so each owned tensor costs one allocation, its data.
//!
//! Its own test binary with one test: the counting allocator is the
//! binary's global allocator and counts every thread, so no other test may
//! run beside it.

use pgmr_bench::alloc_counter::{alloc_events, CountingAlloc};
use pgmr_nn::network::{Guard, RunPlan};
use pgmr_nn::zoo::{build, ArchSpec};
use pgmr_nn::WorkerPool;
use pgmr_precision::Precision;
use pgmr_preprocess::Preprocessor;
use pgmr_tensor::Tensor;
use polygraph_mr::{Ensemble, FaultPolicy, Member, PolygraphSystem, Thresholds};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f`, returning the allocation events it made and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = alloc_events();
    let out = f();
    (alloc_events() - before, out)
}

#[test]
fn owned_tensors_and_a_warmed_member_forward_allocate_only_their_data() {
    let (n, zeros) = counted(|| Tensor::zeros([1, 1, 16, 16]));
    assert_eq!(n, 1, "Tensor::zeros with an array shape");
    let (n, copy) = counted(|| zeros.clone());
    assert_eq!(n, 1, "an owned clone");
    assert_eq!(copy, zeros);

    let image = Tensor::filled([1, 1, 16, 16], 0.25);
    let mut buffer = vec![0.0; image.len()];
    for p in [Preprocessor::Identity, Preprocessor::FlipX, Preprocessor::Gamma(2.0)] {
        let (n, out) = counted(|| p.apply(&image));
        assert_eq!(n, 1, "{p}.apply");
        assert_eq!(out.shape(), image.shape());
        let (n, ()) = counted(|| p.apply_into(&image, &mut buffer));
        assert_eq!(n, 0, "{p}.apply_into");
    }

    let spec = ArchSpec::lenet5(1, 16, 16, 10);
    let mut member = Member::new(Preprocessor::Identity, build(&spec, 1));
    member.predict(&image); // sizes the member's buffers and this thread's workspace arena
    let (n, probs) = counted(|| member.predict(&image));
    assert_eq!(probs.len(), 10);
    assert_eq!(n, 1, "a warmed predict: the copy of the probabilities");

    // A warmed guarded forward at 14 bits allocates nothing: every dense
    // and convolution layer refills its checksum buffers in place, and its
    // weight-side sums were derived on the first guarded forward.
    let q14 = Precision::new(14);
    let hook = |d: &mut [f32]| q14.quantize_slice(d);
    let tolerance = 2f32.powi(-(q14.mantissa_bits() as i32));
    let plan = RunPlan { hook: Some(&hook), guard: Guard::All(tolerance), ..RunPlan::default() };
    for spec in [spec.clone(), ArchSpec::alexnet_mini(3, 24, 24, 20)] {
        let mut net = build(&spec, 1);
        net.map_params(|v| q14.quantize(v));
        let input = Tensor::filled([1, spec.in_c, spec.in_h, spec.in_w], 0.25);
        let mut logits = Vec::new();
        // Two warm-up passes: the first derives the weight-side sums and
        // sizes the checksum buffers and this thread's arena, whose free
        // list (shared with the forwards above) settles on the second.
        for _ in 0..2 {
            net.run(&input, &plan, &mut logits).expect("a clean guarded forward verifies");
        }
        let (n, verdict) = counted(|| net.run(&input, &plan, &mut logits));
        verdict.expect("a clean guarded forward verifies");
        assert_eq!(n, 0, "a warmed guarded {} forward allocated {n} times", spec.kind.short_name());

        // Reading the parameters keeps the weight-side sums: the next
        // guarded forward derives nothing.
        net.state_dict();
        net.param_count();
        let (n, verdict) = counted(|| net.run(&input, &plan, &mut logits));
        verdict.expect("a clean guarded forward verifies");
        assert_eq!(n, 0, "a guarded {} forward after a read-only visit", spec.kind.short_name());
    }

    // A warmed decision allocates nothing: every member votes from its own
    // buffers (two of three under RADE, whose stage-1 pair agrees here)
    // and the vote tally counts inline.
    let system = |kind: &str, members: &[Preprocessor]| {
        let members =
            members.iter().zip(1..).map(|(&p, seed)| Member::new(p, build(&spec, seed))).collect();
        let mut system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.0, 2));
        match kind {
            "rade" => system.enable_staged(vec![0, 1, 2]),
            "guarded" => system.set_fault_policy(Some(FaultPolicy::default())),
            _ => {}
        }
        system
    };
    let three = [Preprocessor::Identity, Preprocessor::FlipX, Preprocessor::Gamma(2.0)];
    for kind in ["plain", "rade", "guarded"] {
        let mut system = system(kind, &three);
        system.infer_counted(&image); // sizes the buffers and resolves the metric handles
        let (n, _) = counted(|| system.infer_counted(&image));
        assert_eq!(n, 0, "a warmed {kind} decision allocated {n} times");
    }

    // A warmed guarded `infer_batch` call allocates its returned vector
    // and, on a pool wider than one, one job list plus the pool's
    // marshalling per segment; none of it grows with the images a segment
    // holds. Two members never reach the three-voter solo scan, so each
    // call is one segment; on a one-wide pool the member jobs run inline.
    let images = vec![image.clone(); 16];
    for (width, members, bound) in [(1, &three[..], 1), (2, &three[..2], 8)] {
        let pool = WorkerPool::new(width);
        let mut system = system("guarded", members);
        for _ in 0..4 {
            system.infer_batch(&images, &pool); // sizes every worker's buffers
        }
        for calls in [1, 4, 16] {
            let (n, decisions) = counted(|| system.infer_batch(&images[..calls], &pool));
            assert_eq!(decisions.len(), calls);
            assert!(
                n <= bound,
                "a warmed guarded infer_batch of {calls} on a {width}-wide pool: {n} allocations, pinned at {bound}"
            );
        }
    }
}
