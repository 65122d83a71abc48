//! Property-based tests for the CNN framework: serialization round trips,
//! architecture/seed determinism, and softmax-head invariants across the
//! whole zoo.

use pgmr_nn::serialize::encode_params;
use pgmr_nn::zoo::{build, ArchSpec};
use pgmr_nn::StoredModel;
use pgmr_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_spec() -> impl Strategy<Value = ArchSpec> {
    (0u8..4, 2usize..6).prop_map(|(kind, classes)| match kind {
        0 => ArchSpec::convnet(1, 8, 8, classes),
        1 => ArchSpec::lenet5(1, 12, 12, classes),
        2 => ArchSpec::convnet(3, 8, 8, classes),
        _ => ArchSpec::convnet_dropout(3, 8, 8, classes),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (spec, seed) fully determines the network: same pair ⇒ identical
    /// predictions, different seed ⇒ different weights.
    #[test]
    fn seed_determinism(spec in small_spec(), seed in 0u64..100, input_seed in 0u64..100) {
        let mut a = build(&spec, seed);
        let mut b = build(&spec, seed);
        let c = build(&spec, seed + 1);
        let mut rng = StdRng::seed_from_u64(input_seed);
        let x = Tensor::uniform(vec![2, spec.in_c, spec.in_h, spec.in_w], 0.0, 1.0, &mut rng);
        prop_assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
        prop_assert_ne!(a.state_dict(), c.state_dict());
    }

    /// Serialization round-trips predictions exactly for every arch.
    #[test]
    fn serialization_round_trip(spec in small_spec(), seed in 0u64..50) {
        let mut net = build(&spec, seed);
        let blob = encode_params(&mut net);
        let mut fresh = build(&spec, seed + 17);
        StoredModel::from_blob(&blob).unwrap().attach(&mut fresh).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::uniform(vec![1, spec.in_c, spec.in_h, spec.in_w], 0.0, 1.0, &mut rng);
        prop_assert_eq!(net.predict_proba(&x), fresh.predict_proba(&x));
    }

    /// Every zoo net's softmax head produces a proper distribution per
    /// image in inference mode.
    #[test]
    fn predictions_on_simplex(spec in small_spec(), seed in 0u64..50, n in 1usize..4) {
        let mut net = build(&spec, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let x = Tensor::uniform(vec![n, spec.in_c, spec.in_h, spec.in_w], 0.0, 1.0, &mut rng);
        let probs = net.predict_proba(&x);
        prop_assert_eq!(probs.len(), n);
        for row in &probs {
            prop_assert_eq!(row.len(), spec.classes);
            prop_assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|p| p.is_finite() && *p >= 0.0));
        }
    }

    /// Inference is a pure function of (weights, input): repeated calls
    /// agree, even for dropout architectures (MC mode off).
    #[test]
    fn inference_is_deterministic(spec in small_spec(), seed in 0u64..50) {
        let mut net = build(&spec, seed);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::uniform(vec![2, spec.in_c, spec.in_h, spec.in_w], 0.0, 1.0, &mut rng);
        prop_assert_eq!(net.predict_proba(&x), net.predict_proba(&x));
    }

    /// A single SGD step with zero gradients and zero weight decay leaves
    /// parameters untouched.
    #[test]
    fn sgd_fixed_point_on_zero_gradient(spec in small_spec(), seed in 0u64..50) {
        use pgmr_nn::optim::Sgd;
        let mut net = build(&spec, seed);
        net.zero_grads();
        let before = net.state_dict();
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        opt.step(&mut net);
        prop_assert_eq!(net.state_dict(), before);
    }
}
