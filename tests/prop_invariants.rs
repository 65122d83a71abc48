//! Property-based invariants of the decision layer, RADE, quantization,
//! and calibration — exercised on arbitrary probability vectors rather
//! than trained networks, so they explore the space broadly.

use pgmr::calibration::scaled_softmax;
use pgmr::core::decision::{DecisionEngine, Thresholds};
use pgmr::core::rade::StagedEngine;
use pgmr::metrics::{pareto_frontier, ParetoPoint};
use pgmr::precision::Precision;
use proptest::prelude::*;

/// Strategy: a softmax-like probability vector of `classes` entries.
fn prob_vector(classes: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(0.01f32..1.0, classes).prop_map(|raw| {
        let sum: f32 = raw.iter().sum();
        raw.into_iter().map(|v| v / sum).collect()
    })
}

fn member_set() -> impl Strategy<Value = Vec<Vec<f32>>> {
    (2usize..7, 2usize..6)
        .prop_flat_map(|(members, classes)| prop::collection::vec(prob_vector(classes), members))
}

proptest! {
    /// The decision engine always reports a class drawn from some member's
    /// argmax, and its vote count never exceeds the member count.
    #[test]
    fn verdict_class_comes_from_votes(probs in member_set(), conf in 0.0f32..0.9, freq in 1usize..6) {
        let n = probs.len();
        let engine = DecisionEngine::new(Thresholds::new(conf, freq.min(n)));
        let verdict = engine.decide(&probs);
        prop_assert!(verdict.votes() <= n);
        if let Some(class) = verdict.class() {
            let argmaxes: Vec<usize> = probs.iter().map(|p| pgmr::tensor::argmax(p)).collect();
            prop_assert!(argmaxes.contains(&class));
        }
    }

    /// Raising Thr_Conf can only shrink the winning vote count.
    #[test]
    fn votes_monotone_in_conf(probs in member_set(), freq in 1usize..4) {
        let n = probs.len();
        let mut last_votes = usize::MAX;
        for conf in [0.0f32, 0.25, 0.5, 0.75, 0.95] {
            let v = DecisionEngine::new(Thresholds::new(conf, freq.min(n))).decide(&probs);
            prop_assert!(v.votes() <= last_votes);
            last_votes = v.votes();
        }
    }

    /// RADE never activates fewer than Thr_Freq networks before a reliable
    /// verdict, never more than the ensemble size, and a reliable staged
    /// verdict always carries >= Thr_Freq votes.
    #[test]
    fn rade_activation_bounds(probs in member_set(), conf in 0.0f32..0.9, freq in 1usize..6) {
        let n = probs.len();
        let freq = freq.min(n);
        let engine = StagedEngine::new((0..n).collect(), Thresholds::new(conf, freq));
        let d = engine.decide(&probs);
        prop_assert!(d.activated >= 1 && d.activated <= n);
        if d.verdict.is_reliable() {
            prop_assert!(d.activated >= freq);
            prop_assert!(d.verdict.votes() >= freq);
        }
    }

    /// RADE's verdict, class and votes included, is the full engine's over
    /// exactly the members it activated — under any priority order and
    /// any escalation budget. Activating every member is the case where
    /// it equals the full engine on the whole ensemble.
    #[test]
    fn rade_equals_full_engine_over_activated_members(
        probs in member_set(),
        conf in 0.0f32..0.9,
        freq in 1usize..6,
        keys in prop::collection::vec(any::<u32>(), 7),
        budget in 0usize..8,
    ) {
        let n = probs.len();
        let thresholds = Thresholds::new(conf, freq.min(n));
        let mut priority: Vec<usize> = (0..n).collect();
        priority.sort_by_key(|&m| (keys[m], m));
        let engine = StagedEngine::new(priority.clone(), thresholds);
        let out = engine.decide_with_budget(|m| &probs[m], n, |activated| activated < budget);
        let activated: Vec<Vec<f32>> =
            priority[..out.decision.activated].iter().map(|&m| probs[m].clone()).collect();
        prop_assert_eq!(out.decision.verdict, DecisionEngine::new(thresholds).decide(&activated));
    }

    /// Quantization is idempotent, sign-symmetric, monotone (non-decreasing
    /// quality with more bits), and never produces non-finite values from
    /// finite input.
    #[test]
    fn quantization_contracts(v in -1e6f32..1e6, bits in 10u32..=32) {
        let p = Precision::new(bits);
        let q = p.quantize(v);
        prop_assert!(q.is_finite());
        prop_assert_eq!(p.quantize(q), q);
        prop_assert_eq!(p.quantize(-v), -q);
        // More bits ⇒ error no larger.
        if bits < 32 {
            let finer = Precision::new(bits + 1);
            prop_assert!((finer.quantize(v) - v).abs() <= (q - v).abs() + f32::EPSILON);
        }
    }

    /// Temperature scaling never reorders a probability vector, for any
    /// temperature: the argmax is preserved exactly, and every pairwise
    /// order holds wherever the scaled probabilities remain numerically
    /// distinguishable (extreme temperatures underflow losers to 0.0,
    /// where order among exact ties is meaningless).
    #[test]
    fn temperature_preserves_ranking(logits in prop::collection::vec(-10.0f32..10.0, 2..8), t in 0.05f32..10.0) {
        let p1 = scaled_softmax(&logits, 1.0);
        let pt = scaled_softmax(&logits, t);
        prop_assert_eq!(pgmr::tensor::argmax(&p1), pgmr::tensor::argmax(&pt));
        for i in 0..p1.len() {
            for j in 0..p1.len() {
                if p1[i] > p1[j] && pt[i] != pt[j] {
                    prop_assert!(pt[i] > pt[j], "pair ({i},{j}) reordered at t={}", t);
                }
            }
        }
    }

    /// The optimized threshold sweep agrees exactly with per-point
    /// evaluation through the full decision engine, on arbitrary member
    /// sets and sample counts.
    #[test]
    fn fast_sweep_equals_per_point_evaluation(
        sets in (2usize..5, 2usize..5, 2usize..20).prop_flat_map(|(members, classes, samples)| {
            prop::collection::vec(
                prop::collection::vec(prob_vector(classes), samples),
                members,
            ).prop_map(move |probs| (probs, classes, samples))
        })
    ) {
        use pgmr::core::profile::sweep_thresholds;
        use pgmr::core::evaluate::evaluate;
        let (probs, classes, samples) = sets;
        let labels: Vec<usize> = (0..samples).map(|i| i % classes).collect();
        let grid = [0.0f32, 0.3, 0.6, 0.9];
        for point in sweep_thresholds(&probs, &labels, &grid) {
            let slow = evaluate(&probs, &labels, point.tag);
            prop_assert!((point.tp - slow.tp).abs() < 1e-12);
            prop_assert!((point.fp - slow.fp).abs() < 1e-12);
        }
    }

    /// No Pareto-frontier point is dominated by any input point.
    #[test]
    fn frontier_non_dominated(points in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40)) {
        let pts: Vec<ParetoPoint<usize>> = points
            .iter()
            .enumerate()
            .map(|(i, &(tp, fp))| ParetoPoint { tp, fp, tag: i })
            .collect();
        let frontier = pareto_frontier(&pts);
        prop_assert!(!frontier.is_empty());
        for f in &frontier {
            for p in &pts {
                prop_assert!(!p.dominates(f), "{:?} dominated by {:?}", f.tag, p.tag);
            }
        }
        // Frontier is strictly increasing in both coordinates.
        for w in frontier.windows(2) {
            prop_assert!(w[0].tp < w[1].tp);
            prop_assert!(w[0].fp < w[1].fp);
        }
    }
}
