//! Owned↔arena parity: a network whose parameter slots borrow from a
//! shared [`WeightArena`](pgmr_tensor::WeightArena) must be bit-identical
//! to the owned-weight network the blob was encoded from — on the plain
//! forward pass, the ABFT-checked pass, and the selective-protection
//! plan pass — across the six benchmark architectures and batch sizes
//! 1/7/64. Corrupt arena blobs must be rejected before any tenant sees
//! them.

use pgmr_nn::network::{Guard, RunPlan};
use pgmr_nn::serialize::{decode_params_arena, encode_params, DecodeParamsError};
use pgmr_nn::zoo::{build, ArchSpec};
use pgmr_nn::{CheckPlan, StoredModel};
use pgmr_tensor::checksum::DEFAULT_TOLERANCE;
use pgmr_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The six benchmark networks of the paper's Table II, scaled down.
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

/// Encodes `owned`'s weights and returns a fresh network of the same
/// architecture attached to the decoded arena.
fn arena_twin(spec: &ArchSpec, owned: &mut pgmr_nn::Network) -> pgmr_nn::Network {
    let blob = encode_params(owned);
    let stored = StoredModel::from_blob(&blob).expect("valid blob");
    let mut twin = build(spec, 0xDEAD);
    stored.attach(&mut twin).expect("same architecture attaches");
    let mut shared = 0;
    twin.visit_slots(&mut |s| shared += usize::from(s.value.is_shared()));
    assert!(shared > 0, "twin must borrow from the arena, not own copies");
    twin
}

/// A sparse plan: every other layer checked, first guarded layer
/// duplicated — exercises the plan-aware path rather than the full-check
/// shortcut.
fn sparse_plan(layers: usize) -> CheckPlan {
    let check: Vec<bool> = (0..layers).map(|i| i % 2 == 0).collect();
    CheckPlan::new(check, None)
}

#[test]
fn arena_forward_matches_owned_across_zoo_and_batches() {
    for spec in zoo_six() {
        let mut owned = build(&spec, 21);
        let mut twin = arena_twin(&spec, &mut owned);
        let plan = sparse_plan(owned.num_layers());
        for (i, &batch) in [1usize, 7, 64].iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(1000 + i as u64);
            let x =
                Tensor::uniform(vec![batch, spec.in_c, spec.in_h, spec.in_w], -1.0, 1.0, &mut rng);
            assert_eq!(
                owned.predict_logits(&x),
                twin.predict_logits(&x),
                "{}: plain forward diverged at batch {batch}",
                spec.arch_id()
            );
            let a = owned.forward_checked(&x, false, None, DEFAULT_TOLERANCE).unwrap();
            let b = twin.forward_checked(&x, false, None, DEFAULT_TOLERANCE).unwrap();
            assert_eq!(
                a.data(),
                b.data(),
                "{}: ABFT-checked forward diverged at batch {batch}",
                spec.arch_id()
            );
            let run =
                RunPlan { guard: Guard::Plan(&plan, DEFAULT_TOLERANCE), ..RunPlan::default() };
            let (mut a, mut b) = (Vec::new(), Vec::new());
            owned.run(&x, &run, &mut a).unwrap();
            twin.run(&x, &run, &mut b).unwrap();
            assert_eq!(a, b, "{}: plan-guarded forward diverged at batch {batch}", spec.arch_id());
        }
    }
}

fn small_spec() -> impl Strategy<Value = ArchSpec> {
    (0u8..4, 2usize..6).prop_map(|(kind, classes)| match kind {
        0 => ArchSpec::convnet(1, 8, 8, classes),
        1 => ArchSpec::lenet5(1, 12, 12, classes),
        2 => ArchSpec::resnet20_mini(1, 8, 8, classes),
        _ => ArchSpec::densenet_mini(1, 8, 8, classes),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Round trip through the arena decoder preserves predictions exactly
    /// for arbitrary (spec, seed, batch).
    #[test]
    fn arena_round_trip_parity(spec in small_spec(), seed in 0u64..50, n in 1usize..5) {
        let mut owned = build(&spec, seed);
        let mut twin = arena_twin(&spec, &mut owned);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
        let x = Tensor::uniform(vec![n, spec.in_c, spec.in_h, spec.in_w], -1.0, 1.0, &mut rng);
        prop_assert_eq!(owned.predict_proba(&x), twin.predict_proba(&x));
    }

    /// Any single flipped byte in the body of a blob is caught by the
    /// digest before an arena is built from it.
    #[test]
    fn flipped_body_byte_rejected(spec in small_spec(), seed in 0u64..50, pos in any::<usize>(), bit in 0u8..8) {
        let mut owned = build(&spec, seed);
        let mut blob = encode_params(&mut owned);
        // Bytes before 18 are the header (magic/version/length/digest);
        // flipping those yields format errors instead. The digest covers
        // every body byte, so any body flip must surface as a mismatch.
        let idx = 18 + pos % (blob.len() - 18);
        blob[idx] ^= 1 << bit;
        match decode_params_arena(&blob) {
            Err(DecodeParamsError::ChecksumMismatch) => {}
            other => prop_assert!(false, "corrupt blob not rejected: {:?}", other.map(|p| p.arch_id)),
        }
    }
}
