//! Offline threshold profiling and operating-point selection (§III-E).
//!
//! After the MR networks are trained, the `(Thr_Conf, Thr_Freq)` value
//! space is swept over the validation set, the TP/FP Pareto frontier is
//! formed, and an operating point is selected from the frontier according
//! to the user's reliability demand. The thresholds are then fixed for
//! inference; a new demand only requires re-selecting from the stored
//! frontier, not re-profiling.

use crate::decision::{Thresholds, Verdict, VoteTally};
use pgmr_metrics::{pareto_frontier, ParetoPoint};
use serde::{Deserialize, Serialize};

/// The default `Thr_Conf` sweep grid: 0.00, 0.05, …, 0.95.
pub fn default_conf_grid() -> Vec<f32> {
    (0..20).map(|i| i as f32 * 0.05).collect()
}

/// Sweeps the full threshold grid and returns **all** design points
/// (one per `(conf, freq)` pair), tagged with their thresholds.
///
/// Semantically identical to calling [`crate::evaluate::evaluate`] per
/// grid point, but each sample's votes are tallied once per `Thr_Conf`
/// level and the verdict at every `Thr_Freq` is read off that tally —
/// with a 100-member ensemble (the paper's Fig. 13) this is two orders of
/// magnitude faster.
///
/// # Panics
///
/// Panics if `member_probs` is empty or ragged.
pub fn sweep_thresholds(
    member_probs: &[Vec<Vec<f32>>],
    labels: &[usize],
    conf_grid: &[f32],
) -> Vec<ParetoPoint<Thresholds>> {
    assert!(!member_probs.is_empty(), "need at least one member");
    let n_members = member_probs.len();
    let n = labels.len();
    assert!(member_probs.iter().all(|m| m.len() == n), "members disagree on sample count");
    // Precompute each member's (argmax class, confidence) per sample.
    let tops: Vec<Vec<(usize, f32)>> = member_probs
        .iter()
        .map(|m| {
            m.iter()
                .map(|p| {
                    let c = pgmr_tensor::argmax(p);
                    (c, p[c])
                })
                .collect()
        })
        .collect();

    let mut points = Vec::with_capacity(conf_grid.len() * n_members);
    for &conf in conf_grid {
        // (TP, FP) counts per Thr_Freq, from 1 up.
        let mut counts = vec![(0usize, 0usize); n_members];
        for (i, &label) in labels.iter().enumerate() {
            let mut tally = VoteTally::new(conf);
            for member in &tops {
                let (class, confidence) = member[i];
                tally.cast_top(class, confidence);
            }
            for (freq, (tp, fp)) in (1..).zip(counts.iter_mut()) {
                if let Verdict::Reliable { class, .. } = tally.verdict(freq) {
                    if class == label {
                        *tp += 1;
                    } else {
                        *fp += 1;
                    }
                }
            }
        }
        for (freq, (tp, fp)) in (1..).zip(counts) {
            points.push(ParetoPoint {
                tp: tp as f64 / n as f64,
                fp: fp as f64 / n as f64,
                tag: Thresholds::new(conf, freq),
            });
        }
    }
    points
}

/// Profiles the threshold space and returns the TP/FP Pareto frontier,
/// sorted by ascending TP.
pub fn profile_thresholds(
    member_probs: &[Vec<Vec<f32>>],
    labels: &[usize],
) -> Vec<ParetoPoint<Thresholds>> {
    pareto_frontier(&sweep_thresholds(member_probs, labels, &default_conf_grid()))
}

/// A user reliability demand used to pick an operating point off the
/// frontier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Demand {
    /// Keep the TP rate at or above this value and minimize FP — the
    /// paper's evaluation constraint is `TpAtLeast(baseline_accuracy)`
    /// ("normalized TP of 100%").
    TpAtLeast(f64),
    /// Keep the FP rate at or below this value and maximize TP.
    FpAtMost(f64),
}

/// Selects the operating point satisfying `demand` from a frontier sorted
/// by ascending TP. Returns `None` when no frontier point satisfies the
/// demand.
pub fn select_operating_point(
    frontier: &[ParetoPoint<Thresholds>],
    demand: Demand,
) -> Option<ParetoPoint<Thresholds>> {
    match demand {
        Demand::TpAtLeast(min_tp) => frontier
            .iter()
            .filter(|p| p.tp >= min_tp)
            .min_by(|a, b| a.fp.partial_cmp(&b.fp).expect("finite fp"))
            .copied(),
        Demand::FpAtMost(max_fp) => frontier
            .iter()
            .filter(|p| p.fp <= max_fp)
            .max_by(|a, b| a.tp.partial_cmp(&b.tp).expect("finite tp"))
            .copied(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;

    fn onehot(class: usize, n: usize, conf: f32) -> Vec<f32> {
        let mut v = vec![(1.0 - conf) / (n as f32 - 1.0); n];
        v[class] = conf;
        v
    }

    /// A 3-member, 8-sample fixture with a mix of agreement patterns.
    fn fixture() -> (Vec<Vec<Vec<f32>>>, Vec<usize>) {
        let mut members = vec![Vec::new(), Vec::new(), Vec::new()];
        let mut labels = Vec::new();
        // 4 unanimously-correct samples at varied confidence.
        for (i, conf) in [(0, 0.95f32), (1, 0.7), (2, 0.5), (0, 0.99)] {
            for m in members.iter_mut() {
                m.push(onehot(i, 4, conf));
            }
            labels.push(i);
        }
        // 2 unanimously-wrong, high-confidence samples.
        for _ in 0..2 {
            for m in members.iter_mut() {
                m.push(onehot(3, 4, 0.92));
            }
            labels.push(1);
        }
        // 2 disagreement samples (each member votes differently).
        for _ in 0..2 {
            for (c, m) in members.iter_mut().enumerate() {
                m.push(onehot(c, 4, 0.8));
            }
            labels.push(0);
        }
        (members, labels)
    }

    #[test]
    fn sweep_covers_grid() {
        let (probs, labels) = fixture();
        let grid = [0.0f32, 0.5];
        let points = sweep_thresholds(&probs, &labels, &grid);
        assert_eq!(points.len(), 2 * 3);
    }

    #[test]
    fn fast_sweep_matches_per_point_evaluation() {
        // The optimized sweep must agree exactly with deciding every grid
        // point through the full engine.
        let (probs, labels) = fixture();
        let grid: Vec<f32> = (0..20).map(|i| i as f32 * 0.05).collect();
        for point in sweep_thresholds(&probs, &labels, &grid) {
            let slow = evaluate(&probs, &labels, point.tag);
            assert!(
                (point.tp - slow.tp).abs() < 1e-12 && (point.fp - slow.fp).abs() < 1e-12,
                "mismatch at {:?}: fast ({}, {}) vs slow ({}, {})",
                point.tag,
                point.tp,
                point.fp,
                slow.tp,
                slow.fp
            );
        }
    }

    #[test]
    fn frontier_is_non_empty_and_non_dominated() {
        let (probs, labels) = fixture();
        let frontier = profile_thresholds(&probs, &labels);
        assert!(!frontier.is_empty());
        for a in &frontier {
            for b in &frontier {
                if a.tag != b.tag {
                    assert!(!b.dominates(a));
                }
            }
        }
    }

    #[test]
    fn tp_at_least_selects_lowest_fp() {
        let (probs, labels) = fixture();
        let frontier = profile_thresholds(&probs, &labels);
        // Baseline: all 3 members agree on samples 0-5 so plurality
        // accuracy is 4/8 = 0.5.
        let point =
            select_operating_point(&frontier, Demand::TpAtLeast(0.5)).expect("feasible demand");
        assert!(point.tp >= 0.5);
        // No frontier point with tp >= 0.5 has lower fp.
        for p in &frontier {
            if p.tp >= 0.5 {
                assert!(p.fp >= point.fp);
            }
        }
    }

    #[test]
    fn fp_at_most_selects_highest_tp() {
        let (probs, labels) = fixture();
        let frontier = profile_thresholds(&probs, &labels);
        let point = select_operating_point(&frontier, Demand::FpAtMost(0.01)).expect("feasible");
        assert!(point.fp <= 0.01);
        for p in &frontier {
            if p.fp <= 0.01 {
                assert!(p.tp <= point.tp);
            }
        }
    }

    #[test]
    fn infeasible_demand_returns_none() {
        let (probs, labels) = fixture();
        let frontier = profile_thresholds(&probs, &labels);
        assert!(select_operating_point(&frontier, Demand::TpAtLeast(1.1)).is_none());
    }

    #[test]
    fn higher_conf_thresholds_trade_tp_for_fp() {
        let (probs, labels) = fixture();
        // At conf 0, freq 3: the unanimous-wrong samples are FPs.
        let loose = evaluate(&probs, &labels, Thresholds::new(0.0, 3));
        // At conf ~0.93, freq 3 those same votes are filtered: FP drops.
        let strict = evaluate(&probs, &labels, Thresholds::new(0.93, 3));
        assert!(strict.fp < loose.fp);
        assert!(strict.tp <= loose.tp);
    }
}
