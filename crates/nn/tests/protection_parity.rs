//! Parity suite for plan-driven selective protection: `ProtectionLevel`
//! and `CheckPlan` must never change *what* a network computes — only
//! which layers get ABFT verification or duplicated execution. Full plans
//! are pinned bit-identical to the uniformly-checked path, Off plans to
//! the plain forward, and the selective / duplicated paths are exercised
//! with targeted hook corruption to prove they detect exactly where
//! protection is placed.

use std::cell::Cell;

use pgmr_nn::network::{ActivationHook, Guard, RunPlan};
use pgmr_nn::zoo::{self, ArchSpec};
use pgmr_nn::{CheckPlan, Network};
use pgmr_tensor::checksum::{ChecksumFault, ChecksumKind};
use pgmr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Architectures covering all layer implementations the zoo exercises
/// (same sweep as the workspace parity suite).
fn specs() -> Vec<ArchSpec> {
    vec![
        ArchSpec::lenet5(1, 16, 16, 10),
        ArchSpec::convnet_dropout(1, 16, 16, 10),
        ArchSpec::resnet20_mini(1, 16, 16, 10),
        ArchSpec::densenet_mini(1, 16, 16, 10),
        ArchSpec::googlenet_mini(1, 16, 16, 10),
        ArchSpec::resnext_mini(1, 16, 16, 10),
    ]
}

/// Indices of the ABFT-guarded (dense / conv2d) layers of a network.
fn guarded_layers(net: &Network) -> Vec<usize> {
    net.cost_profile()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind == "dense" || c.kind == "conv2d")
        .map(|(i, _)| i)
        .collect()
}

/// Runs `net` under `plan`, returning the logits or the first fault.
fn run(net: &mut Network, x: &Tensor, plan: RunPlan<'_>) -> Result<Vec<f32>, ChecksumFault> {
    let mut logits = Vec::new();
    net.run(x, &plan, &mut logits).map(|()| logits)
}

fn under<'a>(plan: &'a CheckPlan, hook: Option<ActivationHook<'a>>) -> RunPlan<'a> {
    RunPlan { hook, guard: Guard::Plan(plan, 1e-4), ..RunPlan::default() }
}

#[test]
fn full_plan_is_bit_identical_to_uniform_checked_path() {
    let mut rng = StdRng::seed_from_u64(47);
    for (i, spec) in specs().into_iter().enumerate() {
        for &batch in &[1usize, 7, 64] {
            let x = Tensor::uniform(vec![batch, 1, 16, 16], -1.0, 1.0, &mut rng);
            let seed = 400 + i as u64;
            let mut uniform = zoo::build(&spec, seed);
            let mut planned = zoo::build(&spec, seed);
            let plan = CheckPlan::full(planned.num_layers());
            let want = uniform
                .forward_checked(&x, false, None, 1e-4)
                .expect("clean uniform forward must verify");
            let via_plan =
                run(&mut planned, &x, under(&plan, None)).expect("clean full plan must verify");
            assert_eq!(
                via_plan.as_slice(),
                want.data(),
                "full plan diverged from uniform checking: {} batch {batch}",
                spec.arch_id()
            );
        }
    }
}

#[test]
fn off_and_selective_plans_do_not_perturb_outputs() {
    let mut rng = StdRng::seed_from_u64(48);
    for (i, spec) in specs().into_iter().enumerate() {
        let x = Tensor::uniform(vec![7, 1, 16, 16], -1.0, 1.0, &mut rng);
        let seed = 500 + i as u64;
        let mut plain = zoo::build(&spec, seed);
        let mut planned = zoo::build(&spec, seed);
        let n = planned.num_layers();
        let want = plain.forward(&x, false);
        let off = run(&mut planned, &x, under(&CheckPlan::off(n), None))
            .expect("off plan has nothing to fail");
        assert_eq!(off.as_slice(), want.data(), "off plan diverged: {}", spec.arch_id());
        // A half-coverage selective plan: checks change detection, never data.
        let mut checks = vec![false; n];
        for (j, c) in checks.iter_mut().enumerate() {
            *c = j % 2 == 0;
        }
        let selective = run(&mut planned, &x, under(&CheckPlan::new(checks, None), None))
            .expect("clean selective forward must verify");
        assert_eq!(
            selective.as_slice(),
            want.data(),
            "selective plan diverged: {}",
            spec.arch_id()
        );
    }
}

/// A hook that adds a large constant to the first element of activation
/// site `target` only (site 0 is the network input; site `i + 1` is the
/// output of layer `i`), leaving every other site untouched.
fn corrupt_site(target: usize, site: &Cell<usize>) -> impl Fn(&mut [f32]) + '_ {
    move |d: &mut [f32]| {
        let s = site.get();
        site.set(s + 1);
        if s == target {
            d[0] += 1.0e3;
        }
    }
}

#[test]
fn selective_plan_detects_exactly_where_checks_are_placed() {
    let mut rng = StdRng::seed_from_u64(49);
    let spec = ArchSpec::lenet5(1, 16, 16, 10);
    let mut net = zoo::build(&spec, 600);
    let x = Tensor::uniform(vec![2, 1, 16, 16], -1.0, 1.0, &mut rng);
    let guarded = guarded_layers(&net);
    let victim = guarded[1]; // a mid-network conv/dense layer
    let n = net.num_layers();

    // Uniform checking flags a corruption of the victim layer's output.
    let site = Cell::new(0usize);
    let hook = corrupt_site(victim + 1, &site);
    let full = CheckPlan::full(n);
    let fault = run(&mut net, &x, under(&full, Some(&hook)))
        .expect_err("full plan must catch the corrupted layer output");
    assert!(matches!(fault.kind, ChecksumKind::Row | ChecksumKind::Col));

    // The same corruption sails through when the victim layer is the one
    // layer the plan leaves unchecked: checksums verify a layer's own
    // compute, so only the victim's checksum could have flagged it.
    let mut checks = vec![true; n];
    checks[victim] = false;
    let site = Cell::new(0usize);
    let hook = corrupt_site(victim + 1, &site);
    let selective = CheckPlan::new(checks, None);
    run(&mut net, &x, under(&selective, Some(&hook)))
        .expect("unchecked victim layer must not flag its own corruption");
}

#[test]
fn duplicated_layer_detects_corruption_checksums_cannot_see() {
    let mut rng = StdRng::seed_from_u64(50);
    let spec = ArchSpec::lenet5(1, 16, 16, 10);
    let mut net = zoo::build(&spec, 601);
    let x = Tensor::uniform(vec![2, 1, 16, 16], -1.0, 1.0, &mut rng);
    let victim = guarded_layers(&net)[0];
    let n = net.num_layers();

    // Clean duplicated run: bit-identical to the plain forward.
    let plan = CheckPlan::new(vec![false; n], Some(victim));
    let want = zoo::build(&spec, 601).forward(&x, false);
    let got = run(&mut net, &x, under(&plan, None)).expect("clean duplicated run must verify");
    assert_eq!(got.as_slice(), want.data(), "duplication must not perturb the canonical output");

    // Corrupt the duplicated layer's canonical output: with every checksum
    // off, only the recompute comparison can notice — and it must.
    let site = Cell::new(0usize);
    let hook = corrupt_site(victim + 1, &site);
    let fault = run(&mut net, &x, under(&plan, Some(&hook)))
        .expect_err("duplicate execution must catch the corrupted output");
    assert_eq!(fault.kind, ChecksumKind::Recompute, "detection must come from the recompute");
    assert_eq!(fault.index, 0, "first element carries the injected deviation");
}

#[test]
#[should_panic(expected = "check plan covers")]
fn mismatched_plan_size_panics() {
    let spec = ArchSpec::lenet5(1, 16, 16, 10);
    let mut net = zoo::build(&spec, 602);
    let x = Tensor::zeros(vec![1, 1, 16, 16]);
    let plan = CheckPlan::full(net.num_layers() + 1);
    let _ = run(&mut net, &x, under(&plan, None));
}
