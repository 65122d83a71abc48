//! A batched `Network::run` against the same images run one at a time.
//!
//! Members run a segment of images as one batched forward, and take each
//! image's vote and fault verdict from it, so a batch must be exactly its
//! images run alone. For every zoo architecture and every `RunPlan` of
//! `forward_digests.rs` (plain, hooked, checked, hooked-checked, selective
//! plan, duplicated plan), a run over 2, 7 and 8 images must give, bit for
//! bit, the logits of the batch-1 runs. A batch in which one image holds a
//! NaN must fault exactly when that image's own run faults, with its fault,
//! and leave the other images' unguarded logits as their own runs give
//! them.
//!
//! Batched-equals-per-image rests on the kernels' codegen (the dot kernel
//! applies a tile to four rows at once), so CI also runs this file in
//! release with `-C target-cpu=native`.

use pgmr_nn::network::{Guard, RunPlan};
use pgmr_nn::zoo::{self, ArchSpec};
use pgmr_nn::{CheckPlan, Network};
use pgmr_tensor::checksum::ChecksumFault;
use pgmr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCHES: [usize; 3] = [2, 7, 8];

/// Every architecture of the zoo at the 1×16×16, 10-class geometry.
fn specs() -> Vec<ArchSpec> {
    vec![
        ArchSpec::lenet5(1, 16, 16, 10),
        ArchSpec::convnet(1, 16, 16, 10),
        ArchSpec::convnet_dropout(1, 16, 16, 10),
        ArchSpec::alexnet_mini(1, 16, 16, 10),
        ArchSpec::vgg_mini(1, 16, 16, 10),
        ArchSpec::resnet20_mini(1, 16, 16, 10),
        ArchSpec::resnet34_mini(1, 16, 16, 10),
        ArchSpec::resnet152_mini(1, 16, 16, 10),
        ArchSpec::densenet_mini(1, 16, 16, 10),
        ArchSpec::googlenet_mini(1, 16, 16, 10),
        ArchSpec::inception_mini(1, 16, 16, 10),
        ArchSpec::resnext_mini(1, 16, 16, 10),
    ]
}

/// The hooks of `forward_digests.rs`: a coarse rounding (unguarded plans
/// only) and a 14-bit truncation within the 1e-2 guard tolerance.
fn round8(d: &mut [f32]) {
    for v in d {
        *v = (*v * 8.0).round() / 8.0;
    }
}

fn trunc14(d: &mut [f32]) {
    for v in d {
        *v = f32::from_bits(v.to_bits() & !0x1ff);
    }
}

/// Indices of the ABFT-guarded (dense / conv2d) layers of a network.
fn guarded_layers(net: &Network) -> Vec<usize> {
    let costs = net.cost_profile();
    let guarded = costs.iter().enumerate().filter(|(_, c)| c.kind == "dense" || c.kind == "conv2d");
    guarded.map(|(i, _)| i).collect()
}

/// Calls `f` with each of the `forward_digests.rs` plans for `net`, by
/// name.
fn with_plans(net: &Network, mut f: impl FnMut(&str, RunPlan<'_>)) {
    let n = net.num_layers();
    let guarded = guarded_layers(net);
    let selective = CheckPlan::new((0..n).map(|j| j % 2 == 0).collect(), None);
    let duplicated =
        CheckPlan::new((0..n).map(|j| j % 3 == 0).collect(), Some(guarded[guarded.len() / 2]));
    f("plain", RunPlan::default());
    f("hooked", RunPlan { hook: Some(&round8), ..RunPlan::default() });
    f("checked", RunPlan { guard: Guard::All(1e-4), ..RunPlan::default() });
    f(
        "hooked-checked",
        RunPlan { hook: Some(&trunc14), guard: Guard::All(1e-2), ..RunPlan::default() },
    );
    f("selective", RunPlan { guard: Guard::Plan(&selective, 1e-4), ..RunPlan::default() });
    f(
        "duplicated",
        RunPlan {
            hook: Some(&trunc14),
            guard: Guard::Plan(&duplicated, 1e-2),
            ..RunPlan::default()
        },
    );
}

/// One run's logits as bit patterns, or its fault.
type Run = Result<Vec<u32>, ChecksumFault>;

fn run(net: &mut Network, x: &Tensor, plan: &RunPlan<'_>) -> Run {
    let mut logits = Vec::new();
    net.run(x, plan, &mut logits)?;
    Ok(logits.iter().map(|v| v.to_bits()).collect())
}

/// The batch's run, and each image's own run in order.
fn batch_and_alone(net: &mut Network, x: &Tensor, plan: &RunPlan<'_>) -> (Run, Vec<Run>) {
    let batch = run(net, x, plan);
    let n = x.shape().dim(0);
    let alone = (0..n).map(|i| run(net, &x.image(i), plan)).collect();
    (batch, alone)
}

fn same_fault(x: &ChecksumFault, y: &ChecksumFault) -> bool {
    let same_bits = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    x.kind == y.kind && same_bits(x.deviation, y.deviation) && same_bits(x.bound, y.bound)
}

#[test]
fn a_batched_run_equals_its_images_run_alone() {
    for (a, spec) in specs().into_iter().enumerate() {
        let mut net = zoo::build(&spec, 300 + a as u64);
        let arch = spec.arch_id();
        for &n in &BATCHES {
            let mut rng = StdRng::seed_from_u64(4000 + 10 * a as u64 + n as u64);
            let x = Tensor::uniform([n, 1, 16, 16], -1.0, 1.0, &mut rng);
            with_plans(&net.clone(), |name, plan| {
                let (batch, alone) = batch_and_alone(&mut net, &x, &plan);
                let alone: Vec<u32> = alone
                    .into_iter()
                    .flat_map(|r| {
                        r.unwrap_or_else(|f| panic!("{arch} {name}: a clean image faults: {f}"))
                    })
                    .collect();
                let batch = batch.unwrap_or_else(|f| panic!("{arch} {name} batch {n} faults: {f}"));
                assert!(
                    batch == alone,
                    "{arch} {name}: batch {n} differs from its images run alone"
                );
            });
        }
    }
}

#[test]
fn a_nan_image_faults_its_batch_exactly_when_it_faults_alone() {
    for (a, spec) in specs().into_iter().enumerate() {
        let mut net = zoo::build(&spec, 500 + a as u64);
        let arch = spec.arch_id();
        for &n in &BATCHES {
            let mut rng = StdRng::seed_from_u64(6000 + 10 * a as u64 + n as u64);
            let mut x = Tensor::uniform([n, 1, 16, 16], -1.0, 1.0, &mut rng);
            let poisoned = n / 2;
            x.data_mut()[poisoned * 256 + 37] = f32::NAN;
            with_plans(&net.clone(), |name, plan| {
                let (batch, alone) = batch_and_alone(&mut net, &x, &plan);
                let label = format!("{arch} {name} batch {n}");
                for (i, own) in alone.iter().enumerate() {
                    assert!(i == poisoned || own.is_ok(), "{label}: clean image {i} faults alone");
                }
                match (&batch, &alone[poisoned]) {
                    (Err(x), Err(y)) => assert!(same_fault(x, y), "{label}: fault {x} vs {y}"),
                    (Ok(batch), Ok(_)) => {
                        // Unguarded, or unverified: every clean image keeps
                        // the logits of its own run.
                        let width = batch.len() / n;
                        for (i, own) in alone.iter().enumerate().filter(|&(i, _)| i != poisoned) {
                            let own = own.as_ref().expect("clean images pass");
                            let row = &batch[i * width..(i + 1) * width];
                            assert!(row == own.as_slice(), "{label}: image {i}'s logits changed");
                        }
                    }
                    (batch, own) => panic!("{label}: batch {batch:?}, the NaN image alone {own:?}"),
                }
            });
        }
    }
}
