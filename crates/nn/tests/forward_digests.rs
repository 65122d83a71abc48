//! Bit-exact FNV-1a digests of every forward path and of training.
//!
//! The constants were recorded from the two-body forward stack this crate
//! used to have (an allocating reference `forward` per layer beside the
//! workspace `forward_into`), after checking that both agreed bit-for-bit
//! on every case here. They pin the single `Network::run` driver to those
//! exact results: inference logits of six architectures covering all
//! eleven layer types × batches 1/7/64 on the plain, hooked, full-checked,
//! hooked-checked, selective-plan and duplicated-plan paths; Monte-Carlo
//! dropout passes; and the parameters, batch-norm buffers and logits after
//! two seeded SGD steps. Never regenerate them to make a change pass — a
//! mismatch means the forward or training arithmetic changed.

use pgmr_nn::loss::softmax_cross_entropy;
use pgmr_nn::network::{Guard, RunPlan};
use pgmr_nn::optim::Sgd;
use pgmr_nn::serialize::fnv1a;
use pgmr_nn::workspace::thread_workspace_stats;
use pgmr_nn::zoo::{self, ArchSpec};
use pgmr_nn::{CheckPlan, Network};
use pgmr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per architecture and batch: digests of the plain, hooked, checked,
/// hooked-checked, selective-plan and duplicated-plan logits.
#[rustfmt::skip]
const INFERENCE: [(&str, usize, [u64; 6]); 18] = [
    ("lenet5-1x16x16-10", 1, [0x8eec48903a0266e0, 0xc86cc65c176d96aa, 0x8eec48903a0266e0, 0x0059adce5aa4fdab, 0x8eec48903a0266e0, 0x0059adce5aa4fdab]),
    ("lenet5-1x16x16-10", 7, [0xfff30493242be09a, 0x96ad0361c35b704b, 0xfff30493242be09a, 0x916415a92b681b8d, 0xfff30493242be09a, 0x916415a92b681b8d]),
    ("lenet5-1x16x16-10", 64, [0xdd581bdf428c1664, 0x224d7df1e20801c8, 0xdd581bdf428c1664, 0xd75bba3caf414a98, 0xdd581bdf428c1664, 0xd75bba3caf414a98]),
    ("convnet_dropout-1x16x16-10", 1, [0xbfe408dc7cc72f2e, 0x0911954290f2aa02, 0xbfe408dc7cc72f2e, 0x708e9d2ff26403e9, 0xbfe408dc7cc72f2e, 0x708e9d2ff26403e9]),
    ("convnet_dropout-1x16x16-10", 7, [0xc1e19f1b1b1f5b93, 0xc69e86731220a8d0, 0xc1e19f1b1b1f5b93, 0x191f7a24775d678b, 0xc1e19f1b1b1f5b93, 0x191f7a24775d678b]),
    ("convnet_dropout-1x16x16-10", 64, [0xe269531d1d221e2d, 0x949aff081b649d3e, 0xe269531d1d221e2d, 0xa1c1aeacc96585b2, 0xe269531d1d221e2d, 0xa1c1aeacc96585b2]),
    ("resnet20_mini-1x16x16-10", 1, [0x323a2e71e52572b7, 0x17e97e1e1699cd22, 0x323a2e71e52572b7, 0x0b58bf15bc4d8705, 0x323a2e71e52572b7, 0x0b58bf15bc4d8705]),
    ("resnet20_mini-1x16x16-10", 7, [0x06ecaefefeb1f8cb, 0xcaa50f4f3087c24a, 0x06ecaefefeb1f8cb, 0x9279a6dd0b7a72c3, 0x06ecaefefeb1f8cb, 0x9279a6dd0b7a72c3]),
    ("resnet20_mini-1x16x16-10", 64, [0x33cbef5ad4b19974, 0x86324e2d124b3a4b, 0x33cbef5ad4b19974, 0x04ba3fabb4e3dbcb, 0x33cbef5ad4b19974, 0x04ba3fabb4e3dbcb]),
    ("densenet_mini-1x16x16-10", 1, [0xe67f3eb922e6c7db, 0x6791d0f6a0d95c10, 0xe67f3eb922e6c7db, 0xbd9758b2e695db14, 0xe67f3eb922e6c7db, 0xbd9758b2e695db14]),
    ("densenet_mini-1x16x16-10", 7, [0xe19b5fd5d0c01c9b, 0xae8f322c13c9377d, 0xe19b5fd5d0c01c9b, 0x77fc213ecc8cd1d4, 0xe19b5fd5d0c01c9b, 0x77fc213ecc8cd1d4]),
    ("densenet_mini-1x16x16-10", 64, [0xba14ff5a87137c51, 0x2e2014dbbad8019a, 0xba14ff5a87137c51, 0x1839f745d0810fff, 0xba14ff5a87137c51, 0x1839f745d0810fff]),
    ("googlenet_mini-1x16x16-10", 1, [0xb1500d4c13b38c67, 0x5e0a6340b3640e42, 0xb1500d4c13b38c67, 0x18849ad81918978b, 0xb1500d4c13b38c67, 0x18849ad81918978b]),
    ("googlenet_mini-1x16x16-10", 7, [0xc03516aa8ca375d8, 0xa6cfeb044b46f140, 0xc03516aa8ca375d8, 0x33f39570ac8298d1, 0xc03516aa8ca375d8, 0x33f39570ac8298d1]),
    ("googlenet_mini-1x16x16-10", 64, [0x8e65d8e9c419d62b, 0x5c17739ca900c5b2, 0x8e65d8e9c419d62b, 0x095e133ae5ba9451, 0x8e65d8e9c419d62b, 0x095e133ae5ba9451]),
    ("resnext_mini-1x16x16-10", 1, [0x033c28318b047849, 0x53693bd73b50064b, 0x033c28318b047849, 0x8714b74abda4eeb3, 0x033c28318b047849, 0x8714b74abda4eeb3]),
    ("resnext_mini-1x16x16-10", 7, [0x631a03f85e5f20af, 0x8a88b68b0c10261d, 0x631a03f85e5f20af, 0xeefc2a92555ecec8, 0x631a03f85e5f20af, 0xeefc2a92555ecec8]),
    ("resnext_mini-1x16x16-10", 64, [0xf156bdc0ac2f31bf, 0x46c395695f6b8265, 0xf156bdc0ac2f31bf, 0xf77d2d0358869356, 0xf156bdc0ac2f31bf, 0xf77d2d0358869356]),
];

/// Monte-Carlo dropout on `convnet_dropout`: three plain passes, one
/// hooked, one checked — each redraws the masks.
#[rustfmt::skip]
const MC_DROPOUT: [u64; 5] = [
    0x41ab29ed6a347b6e, 0xa3e6fb0f3e48da50, 0xd531ee2ca2bd2569, 0x7392bc2d62721690, 0x6ae945c769d60bba,
];

/// Per architecture, after two SGD steps: digests of the second step's
/// training logits, the parameters, the batch-norm buffers, and an
/// inference forward.
#[rustfmt::skip]
const TRAINING: [(&str, [u64; 4]); 6] = [
    ("lenet5-1x16x16-10", [0x34e3be9ddbff7c35, 0xe5ecfa80115dd6ff, 0xcbf29ce484222325, 0x33f1c98b26a898a6]),
    ("convnet_dropout-1x16x16-10", [0x60c2fbc049f2a156, 0x48655aa085816a75, 0xcbf29ce484222325, 0x727ac2b39266d2a4]),
    ("resnet20_mini-1x16x16-10", [0x578576b88b866146, 0x825247f594b209b5, 0x786604835ec4c7b3, 0x71ddcb302a33ee08]),
    ("densenet_mini-1x16x16-10", [0x2499c08bbb580033, 0xfad4df18bb844c78, 0x46c86f7f7d360ad3, 0x01312d5df32c2dd8]),
    ("googlenet_mini-1x16x16-10", [0xdcac6b4765e45c1a, 0x0a60cbb25d076e30, 0x82fac377f0ba4e05, 0x1fd055b0e3bbfd63]),
    ("resnext_mini-1x16x16-10", [0xbdd52e9ba5e62315, 0x6807480b5964ef3e, 0xa46dd4a2a5593bc4, 0x40f4e0ccf97e7133]),
];

/// Architectures covering all eleven layer implementations: conv, pool
/// (max and global-average), dense, batch-norm, flatten, relu, dropout,
/// residual, dense block, and parallel (inception/resnext) branches.
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

/// FNV-1a over the little-endian bit patterns.
fn digest(data: &[f32]) -> u64 {
    let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// A precision-truncation-style hook far coarser than any checksum
/// tolerance (unguarded paths only).
fn round8(d: &mut [f32]) {
    for v in d {
        *v = (*v * 8.0).round() / 8.0;
    }
}

/// Truncation to a 14-bit mantissa: within the 1e-2 guard tolerance.
fn trunc14(d: &mut [f32]) {
    for v in d {
        *v = f32::from_bits(v.to_bits() & !0x1ff);
    }
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

fn input(arch: usize, batch: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(1000 + 100 * arch as u64 + batch as u64);
    Tensor::uniform(vec![batch, 1, 16, 16], -1.0, 1.0, &mut rng)
}

/// Runs `plan` on a fresh copy of `net` and digests the logits.
fn run_digest(net: &Network, x: &Tensor, plan: RunPlan<'_>) -> u64 {
    let mut logits = Vec::new();
    net.clone().run(x, &plan, &mut logits).expect("clean inputs must verify");
    digest(&logits)
}

fn check(label: String, got: u64, want: u64, mismatches: &mut Vec<String>) {
    if got != want {
        mismatches.push(format!("{label}: got {got:#018x}, recorded {want:#018x}"));
    }
}

#[test]
fn inference_paths_match_recorded_digests() {
    let mut mismatches = Vec::new();
    let mut rows = INFERENCE.iter();
    for (i, spec) in specs().into_iter().enumerate() {
        for batch in [1usize, 7, 64] {
            let &(arch, want_batch, want) = rows.next().expect("one row per case");
            assert_eq!((arch, want_batch), (spec.arch_id().as_str(), batch), "table order");
            let x = input(i, batch);
            let net = zoo::build(&spec, 100 + i as u64);
            let n = net.num_layers();
            let guarded = guarded_layers(&net);
            let selective = CheckPlan::new((0..n).map(|j| j % 2 == 0).collect(), None);
            let duplicated = CheckPlan::new(
                (0..n).map(|j| j % 3 == 0).collect(),
                Some(guarded[guarded.len() / 2]),
            );
            let plans = [
                RunPlan::default(),
                RunPlan { hook: Some(&round8), ..RunPlan::default() },
                RunPlan { guard: Guard::All(1e-4), ..RunPlan::default() },
                RunPlan { hook: Some(&trunc14), guard: Guard::All(1e-2), ..RunPlan::default() },
                RunPlan { guard: Guard::Plan(&selective, 1e-4), ..RunPlan::default() },
                RunPlan {
                    hook: Some(&trunc14),
                    guard: Guard::Plan(&duplicated, 1e-2),
                    ..RunPlan::default()
                },
            ];
            let names = ["plain", "hooked", "checked", "hooked-checked", "selective", "duplicated"];
            for ((plan, name), want) in plans.into_iter().zip(names).zip(want) {
                let got = run_digest(&net, &x, plan);
                check(format!("{arch} batch {batch} {name}"), got, want, &mut mismatches);
            }
        }
    }
    assert!(mismatches.is_empty(), "forward digests changed:\n{}", mismatches.join("\n"));
}

#[test]
fn mc_dropout_passes_match_recorded_digests() {
    let mut net = zoo::build(&ArchSpec::convnet_dropout(1, 16, 16, 10), 101);
    net.set_mc_dropout(true);
    let x = input(1, 7);
    let mut got = Vec::new();
    for _ in 0..3 {
        got.push(digest(net.forward(&x, false).data()));
    }
    got.push(digest(net.forward_with_hook(&x, false, &round8).data()));
    got.push(digest(net.forward_checked(&x, false, None, 1e-4).unwrap().data()));
    assert_eq!(got, MC_DROPOUT, "MC-dropout digests changed");
}

#[test]
fn training_steps_match_recorded_digests() {
    let mut mismatches = Vec::new();
    for (i, (spec, &(arch, want))) in specs().into_iter().zip(&TRAINING).enumerate() {
        assert_eq!(arch, spec.arch_id(), "table order");
        let mut net = zoo::build(&spec, 700 + i as u64);
        let mut opt = Sgd::new(0.05, 0.9, 1e-4);
        let mut rng = StdRng::seed_from_u64(7000 + i as u64);
        let mut logits = Tensor::zeros(vec![1]);
        for step in 0..2 {
            let x = Tensor::uniform(vec![8, 1, 16, 16], -1.0, 1.0, &mut rng);
            let labels: Vec<usize> = (0..8).map(|j| (3 * j + step) % 10).collect();
            net.zero_grads();
            logits = net.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            net.backward(&grad);
            opt.step(&mut net);
        }
        let mut params = Vec::new();
        net.visit_slots(&mut |s| params.extend_from_slice(s.value.data()));
        let mut buffers = Vec::new();
        net.visit_buffers(&mut |b| buffers.extend_from_slice(b));
        let after = net.forward(&input(i, 7), false);
        let got = [digest(logits.data()), digest(&params), digest(&buffers), digest(after.data())];
        for ((name, got), want) in
            ["train logits", "params", "buffers", "inference"].iter().zip(got).zip(want)
        {
            check(format!("{arch} {name}"), got, want, &mut mismatches);
        }
    }
    assert!(mismatches.is_empty(), "training digests changed:\n{}", mismatches.join("\n"));
}

#[test]
fn workspace_reaches_steady_state_after_warmup() {
    let mut rng = StdRng::seed_from_u64(45);
    let mut net = zoo::build(&ArchSpec::lenet5(1, 16, 16, 10), 9);
    let x = Tensor::uniform(vec![7, 1, 16, 16], -1.0, 1.0, &mut rng);
    // Warmup sizes the arena for this (arch, batch) schedule.
    let warm = net.forward(&x, false);
    let stats = thread_workspace_stats();
    assert!(stats.grows > 0, "warmup must have grown the arena");
    assert!(stats.peak_bytes > 0);
    let mut logits = Vec::new();
    net.run(&x, &RunPlan::default(), &mut logits).unwrap(); // sizes the logits vector too
    let steady = thread_workspace_stats();
    for _ in 0..3 {
        let again = net.forward(&x, false);
        assert_eq!(again.data(), warm.data());
        net.run(&x, &RunPlan::default(), &mut logits).unwrap();
        assert_eq!(logits.as_slice(), warm.data());
    }
    assert_eq!(
        thread_workspace_stats().grows,
        steady.grows,
        "steady-state forwards must not regrow the arena"
    );
}

#[test]
fn training_runs_on_a_workspace_of_its_own() {
    let mut rng = StdRng::seed_from_u64(46);
    let mut net = zoo::build(&ArchSpec::resnet20_mini(1, 16, 16, 10), 11);
    let x = Tensor::uniform(vec![16, 1, 16, 16], -1.0, 1.0, &mut rng);
    let before = thread_workspace_stats();
    let y = net.forward(&x, true);
    let _ = net.backward(&Tensor::ones(y.shape().dims().to_vec()));
    assert_eq!(thread_workspace_stats(), before, "training must not touch the inference arena");
}
