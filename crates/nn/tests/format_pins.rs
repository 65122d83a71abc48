//! Format pins for `PGMR` v3 weight blobs: the length and FNV-1a digest of
//! `encode_params` output for the six zoo architectures, recorded from the
//! codec as it stood before the shared frame writer and reader replaced
//! its hand-written framing. Never regenerate the table. A mismatch means
//! the encoded bytes changed, and every cached `.pgmr` blob (perfbench's
//! `.bench_cache/models` included) would fail to load and retrain. Each
//! pinned blob must also decode and re-encode to the same bytes.

use pgmr_nn::serialize::{encode_params, fnv1a};
use pgmr_nn::zoo::{build, ArchSpec};
use pgmr_nn::{Network, StoredModel};
use pgmr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(arch_id, blob length, FNV-1a of the whole blob)`, in `zoo_six` order.
const PINS: [(&str, usize, u64); 6] = [
    ("lenet5-1x12x12-4", 42404, 0x30e8e59b18550161),
    ("convnet-1x8x8-4", 503, 0x0545d5c1fa7084e3),
    ("resnet20_mini-1x8x8-4", 154557, 0x141ace17f5d42ad8),
    ("densenet_mini-1x8x8-4", 117057, 0x1c0785cd22456b2f),
    ("alexnet_mini-1x8x8-4", 226758, 0xea17dbe3f567de0f),
    ("resnet34_mini-1x8x8-4", 301387, 0xcf603d1f2c2e32ed),
];

/// The six benchmark networks of `arena_parity.rs`.
fn zoo_six() -> Vec<ArchSpec> {
    vec![
        ArchSpec::lenet5(1, 12, 12, 4),
        ArchSpec::convnet(1, 8, 8, 4),
        ArchSpec::resnet20_mini(1, 8, 8, 4),
        ArchSpec::densenet_mini(1, 8, 8, 4),
        ArchSpec::alexnet_mini(1, 8, 8, 4),
        ArchSpec::resnet34_mini(1, 8, 8, 4),
    ]
}

/// Seed-21 weights after two training-mode passes, which move the
/// batch-norm running statistics off their defaults.
fn pinned_net(spec: &ArchSpec) -> Network {
    let mut net = build(spec, 21);
    let mut rng = StdRng::seed_from_u64(0xB17E);
    for _ in 0..2 {
        let x = Tensor::uniform(vec![4, spec.in_c, spec.in_h, spec.in_w], -1.0, 1.0, &mut rng);
        net.forward(&x, true);
    }
    net
}

#[test]
fn weight_blobs_keep_the_pinned_bytes_and_round_trip() {
    for (spec, &(arch, len, digest)) in zoo_six().iter().zip(&PINS) {
        let mut net = pinned_net(spec);
        let blob = encode_params(&mut net);
        assert_eq!(
            (spec.arch_id().as_str(), blob.len(), fnv1a(&blob)),
            (arch, len, digest),
            "{arch}: the encoded bytes drifted from the pinned format"
        );
        let mut fresh = build(spec, 0xF00D);
        StoredModel::from_blob(&blob).expect("pinned blob decodes").attach(&mut fresh).unwrap();
        assert_eq!(encode_params(&mut fresh), blob, "{arch}: decode did not round-trip the bytes");
    }
}
