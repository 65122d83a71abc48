//! Property-based tests for the tensor substrate.

use pgmr_tensor::{argmax, softmax, Tensor};
use proptest::prelude::*;

proptest! {
    /// Softmax always lands on the probability simplex and preserves ranking.
    #[test]
    fn softmax_on_simplex(logits in prop::collection::vec(-50.0f32..50.0, 1..16)) {
        let p = softmax(&logits);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4, "sum {}", sum);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
        prop_assert_eq!(argmax(&p), argmax(&logits));
    }

    /// Addition is commutative and subtraction is its inverse.
    #[test]
    fn add_sub_inverse(data in prop::collection::vec(-100.0f32..100.0, 1..64)) {
        let n = data.len();
        let a = Tensor::from_vec(vec![n], data.clone());
        let b = Tensor::from_vec(vec![n], data.iter().map(|x| x * 0.5 + 1.0).collect());
        let ab = a.add(&b);
        let ba = b.add(&a);
        prop_assert_eq!(ab.data(), ba.data());
        let back = ab.sub(&b);
        for (x, y) in back.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Scaling by a factor then its reciprocal round-trips (away from zero).
    #[test]
    fn scale_round_trip(data in prop::collection::vec(-10.0f32..10.0, 1..32), factor in 0.25f32..4.0) {
        let a = Tensor::from_vec(vec![data.len()], data);
        let round = a.scale(factor).scale(1.0 / factor);
        for (x, y) in round.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// stack_images(image(i) for all i) reproduces the batch exactly.
    #[test]
    fn image_stack_round_trip(n in 1usize..5, c in 1usize..4, hw in 1usize..6, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let batch = Tensor::uniform(vec![n, c, hw, hw], -1.0, 1.0, &mut rng);
        let images: Vec<Tensor> = (0..n).map(|i| batch.image(i)).collect();
        prop_assert_eq!(Tensor::stack_images(&images), batch);
    }
}
