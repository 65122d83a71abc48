//! Failure-injection tests: degenerate ensembles, hostile inputs, and
//! corrupted model blobs must fail loudly or degrade gracefully — never
//! silently emit garbage verdicts.

use pgmr::core::decision::{DecisionEngine, Thresholds};
use pgmr::core::ensemble::Ensemble;
use pgmr::core::suite::{Benchmark, Scale};
use pgmr::core::system::PolygraphSystem;
use pgmr::datasets::Split;
use pgmr::nn::serialize::{encode_params, DecodeError};
use pgmr::nn::zoo::{build, ArchSpec};
use pgmr::nn::{Network, StoredModel};
use pgmr::preprocess::Preprocessor;
use pgmr::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn isolated_cache() {
    // Thread-safe override; std::env::set_var races with concurrent env
    // reads under the multi-threaded test runner.
    let dir = std::env::temp_dir().join(format!("pgmr-fi-cache-{}", std::process::id()));
    pgmr::core::suite::set_cache_dir(Some(dir));
}

#[test]
fn all_identical_members_behave_like_one_network() {
    isolated_cache();
    let bench = Benchmark::lenet5_digits(Scale::Tiny);
    let member = bench.member(Preprocessor::Identity, 5);
    // A degenerate ensemble: four copies of the same weights. Diversity is
    // zero, so full agreement is guaranteed and every answer looks
    // "reliable" — the failure mode the paper warns about with too little
    // diversity.
    let ensemble = Ensemble::new(vec![member.clone(), member.clone(), member.clone(), member]);
    let mut system = PolygraphSystem::new(ensemble, Thresholds::new(0.0, 4));
    let test = bench.data(Split::Test).truncated(60);
    let (summary, _) = system.evaluate(&test);
    // Nothing can be flagged by disagreement: coverage is total.
    assert!(summary.coverage() > 0.999, "coverage {}", summary.coverage());
}

#[test]
fn saturated_and_adversarially_noisy_inputs_dont_crash() {
    isolated_cache();
    let bench = Benchmark::lenet5_digits(Scale::Tiny);
    let mut member = bench.member(Preprocessor::Identity, 5);
    let mut rng = StdRng::seed_from_u64(0);
    let hostile = vec![
        Tensor::zeros(vec![1, 1, 16, 16]),
        Tensor::ones(vec![1, 1, 16, 16]),
        Tensor::uniform(vec![1, 1, 16, 16], 0.0, 1.0, &mut rng),
        // Checkerboard — maximal high-frequency content.
        Tensor::from_vec(
            vec![1, 1, 16, 16],
            (0..256).map(|i| ((i / 16 + i % 16) % 2) as f32).collect(),
        ),
    ];
    for img in &hostile {
        let probs = member.predict(img);
        assert!(probs.iter().all(|p| p.is_finite()));
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }
}

#[test]
fn every_preprocessor_survives_constant_and_extreme_images() {
    for p in pgmr::preprocess::standard_pool() {
        for img in [
            Tensor::zeros(vec![1, 3, 9, 9]),
            Tensor::ones(vec![1, 3, 9, 9]),
            Tensor::filled(vec![1, 3, 9, 9], 0.5),
        ] {
            let out = p.apply(&img);
            assert!(!out.has_non_finite(), "{p} produced non-finite output");
            assert_eq!(out.shape(), img.shape());
        }
    }
}

/// Loads `blob` into `net` the only way there is: decode, then attach.
fn load(net: &mut Network, blob: &[u8]) -> Result<(), DecodeError> {
    StoredModel::from_blob(blob)?.attach(net)
}

#[test]
fn corrupted_model_blob_is_rejected_not_loaded() {
    let spec = ArchSpec::convnet(1, 8, 8, 4);
    let mut net = build(&spec, 1);
    let mut blob = encode_params(&mut net);
    // Flip bytes in the header region.
    blob[0] ^= 0xFF;
    let mut victim = build(&spec, 2);
    let before = victim.state_dict();
    assert_eq!(load(&mut victim, &blob), Err(DecodeError::BadMagic));
    assert_eq!(victim.state_dict(), before, "failed decode must not mutate weights");
}

#[test]
fn single_bit_flipped_weight_blob_is_rejected() {
    // A single flipped bit in the weight payload models storage or DMA
    // corruption of a cached model. The v3 blob carries an FNV-1a digest
    // over the body, so any such flip must be rejected before a single
    // corrupted weight reaches the network.
    let spec = ArchSpec::convnet(1, 8, 8, 4);
    let mut net = build(&spec, 1);
    let blob = encode_params(&mut net);
    let mut victim = build(&spec, 2);
    let before = victim.state_dict();
    // Header: 4 magic + 2 version + 4 body length + 8 checksum = 18 bytes.
    let payload_start = 18usize;
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..32 {
        use rand::Rng;
        let pos = rng.gen_range(payload_start..blob.len());
        let bit = rng.gen_range(0u8..8);
        let mut bad = blob.clone();
        bad[pos] ^= 1 << bit;
        assert_eq!(
            load(&mut victim, &bad),
            Err(DecodeError::ChecksumMismatch),
            "flip of bit {bit} at byte {pos} slipped past the checksum"
        );
        assert_eq!(victim.state_dict(), before, "rejected blob mutated weights");
    }
}

#[test]
fn truncated_model_blob_is_rejected_without_partial_load() {
    let spec = ArchSpec::convnet(1, 8, 8, 4);
    let mut net = build(&spec, 1);
    let blob = encode_params(&mut net);
    let mut victim = build(&spec, 2);
    let before = victim.state_dict();
    for cut in [10usize, blob.len() / 3, blob.len() - 3] {
        let err = load(&mut victim, &blob[..cut]).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::Truncated | DecodeError::BadMagic | DecodeError::ShapeMismatch
        ));
        assert_eq!(victim.state_dict(), before);
    }
}

#[test]
fn decision_engine_handles_all_votes_filtered() {
    // Every member under-confident: the engine must flag, not guess.
    let probs = vec![vec![0.4f32, 0.3, 0.3], vec![0.35, 0.33, 0.32]];
    let engine = DecisionEngine::new(Thresholds::new(0.9, 1));
    let verdict = engine.decide(&probs);
    assert!(!verdict.is_reliable());
    assert_eq!(verdict.class(), None);
}

#[test]
fn member_rejects_wrong_input_geometry() {
    isolated_cache();
    let bench = Benchmark::lenet5_digits(Scale::Tiny);
    let mut member = bench.member(Preprocessor::Identity, 5);
    let wrong = Tensor::zeros(vec![1, 3, 16, 16]); // 3 channels, expects 1
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| member.predict(&wrong)));
    assert!(result.is_err(), "wrong-geometry input must be rejected loudly");
}

mod quantize_under_faults {
    use pgmr::precision::Precision;
    use proptest::prelude::*;

    proptest! {
        /// Reduced-precision inference composes with fault injection: even
        /// when a sign or exponent bit of the input was flipped in flight,
        /// `quantize` must stay idempotent (re-quantizing a quantized value
        /// is the identity) and must not manufacture non-finite values from
        /// finite corrupted inputs.
        #[test]
        fn quantize_idempotent_and_finite_under_bit_flips(
            bits in 10u32..=32,
            base in -1e30f32..1e30,
            flips in 0u8..8,
            exp_bit in 23u8..31,
        ) {
            let p = Precision::new(bits);
            let mut raw = base.to_bits();
            if flips & 1 != 0 {
                raw ^= 1 << 31; // sign flip
            }
            if flips & 2 != 0 {
                raw ^= 1 << exp_bit; // exponent flip
            }
            let v = f32::from_bits(raw);
            let q = p.quantize(v);
            // Idempotence holds for every input, corrupted or not —
            // including the Inf produced by an all-ones exponent flip.
            prop_assert_eq!(p.quantize(q).to_bits(), q.to_bits());
            // Finite in ⇒ finite out, away from the f32::MAX boundary
            // where round-to-nearest legitimately overflows.
            if v.is_finite() && v.abs() < 1e37 {
                prop_assert!(q.is_finite(), "quantize({v}) = {q} at {bits} bits");
                // The corrupted-then-quantized value is within one
                // mantissa step of the corrupted value.
                // pgmr-lint: allow(float-eq): exact-zero guard before relative-error division
                let rel = if v == 0.0 { 0.0 } else { ((q - v) / v).abs() };
                prop_assert!(rel <= 1.0 / (1u64 << p.mantissa_bits()) as f32);
            }
        }
    }
}

#[test]
fn heavily_corrupted_dataset_still_generates_valid_samples() {
    use pgmr::datasets::families;
    let mut cfg = families::synth_objects(99);
    cfg.blur_prob = 1.0;
    cfg.occlusion_prob = 1.0;
    cfg.multi_object_prob = 1.0;
    cfg.noise_std = 0.5;
    let ds = cfg.generate(Split::Test, 50);
    for (img, meta) in ds.images().iter().zip(ds.metas()) {
        assert!(!img.has_non_finite());
        assert!(img.min() >= 0.0 && img.max() <= 1.0);
        assert!(meta.tags.len() >= 3, "all corruptions recorded");
    }
}
