//! Shared evaluation helpers: verdicts → outcomes → rates.
//!
//! Experiment harnesses precompute the per-member probability arrays once
//! (`probs[m][i]` = member `m`'s softmax vector on sample `i`) and then
//! evaluate arbitrarily many threshold settings against them with these
//! free functions — profiling the whole `(Thr_Conf, Thr_Freq)` grid costs
//! a negligible fraction of training, as the paper notes in §III-E.

use crate::decision::{Thresholds, Verdict, VoteTally};
use pgmr_metrics::{summarize, Outcome, PredictionRecord, RateSummary};
use pgmr_tensor::argmax;

/// Decides every sample of a per-member probability array, reading each
/// member's vector in place.
///
/// # Panics
///
/// Panics if `member_probs` is empty or members disagree on sample count.
pub fn decide_all(member_probs: &[Vec<Vec<f32>>], thresholds: Thresholds) -> Vec<Verdict> {
    assert!(!member_probs.is_empty(), "need at least one member");
    let n = member_probs[0].len();
    assert!(member_probs.iter().all(|m| m.len() == n), "members disagree on sample count");
    (0..n)
        .map(|i| {
            let mut tally = VoteTally::new(thresholds.conf);
            for member in member_probs {
                tally.cast(&member[i]);
            }
            tally.verdict(thresholds.freq)
        })
        .collect()
}

/// Maps verdicts to reliability outcomes against ground truth. A verdict
/// with no emitted class counts as incorrect.
///
/// # Panics
///
/// Panics if the lengths disagree.
pub fn outcomes(verdicts: &[Verdict], labels: &[usize]) -> Vec<Outcome> {
    assert_eq!(verdicts.len(), labels.len(), "verdict/label count mismatch");
    verdicts
        .iter()
        .zip(labels)
        .map(|(v, &label)| Outcome::from_flags(v.class() == Some(label), v.is_reliable()))
        .collect()
}

/// Evaluates a threshold setting end to end: decide → outcomes → rates.
pub fn evaluate(
    member_probs: &[Vec<Vec<f32>>],
    labels: &[usize],
    thresholds: Thresholds,
) -> RateSummary {
    summarize(&outcomes(&decide_all(member_probs, thresholds), labels))
}

/// Plain top-1 accuracy of the ensemble under a threshold setting (the
/// emitted class against the label, reliability ignored).
pub fn ensemble_accuracy(
    member_probs: &[Vec<Vec<f32>>],
    labels: &[usize],
    thresholds: Thresholds,
) -> f64 {
    let verdicts = decide_all(member_probs, thresholds);
    let correct = verdicts.iter().zip(labels).filter(|(v, &l)| v.class() == Some(l)).count();
    correct as f64 / labels.len() as f64
}

/// Classic ensemble accuracy: average the members' softmax vectors per
/// sample and take the argmax. This is the combination rule the paper's
/// §III-D alludes to ("combining their predictions … performs similar to
/// ensembles and compensates for the individual accuracy drop") and the
/// metric behind Fig. 6's PolygraphMR curve.
///
/// # Panics
///
/// Panics if `member_probs` is empty or ragged.
pub fn mean_ensemble_accuracy(member_probs: &[Vec<Vec<f32>>], labels: &[usize]) -> f64 {
    assert!(!member_probs.is_empty(), "need at least one member");
    let n = labels.len();
    assert!(member_probs.iter().all(|m| m.len() == n), "members disagree on sample count");
    let mut correct = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        let classes = member_probs[0][i].len();
        let mut mean = vec![0.0f32; classes];
        for m in member_probs {
            for (acc, &p) in mean.iter_mut().zip(&m[i]) {
                *acc += p;
            }
        }
        if argmax(&mean) == label {
            correct += 1;
        }
    }
    correct as f64 / n as f64
}

/// Converts one member's probabilities into [`PredictionRecord`]s (top-1
/// class + confidence), the input format of the `pgmr-metrics` histogram
/// and sweep tools.
///
/// # Panics
///
/// Panics if the lengths disagree.
pub fn records_from_probs(probs: &[Vec<f32>], labels: &[usize]) -> Vec<PredictionRecord> {
    assert_eq!(probs.len(), labels.len(), "probs/label count mismatch");
    probs
        .iter()
        .zip(labels)
        .map(|(p, &label)| {
            let predicted = argmax(p);
            PredictionRecord { label, predicted, confidence: p[predicted] }
        })
        .collect()
}

/// Single-member top-1 accuracy from precomputed probabilities.
pub fn member_accuracy(probs: &[Vec<f32>], labels: &[usize]) -> f64 {
    let records = records_from_probs(probs, labels);
    records.iter().filter(|r| r.is_correct()).count() as f64 / records.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onehot(class: usize, n: usize, conf: f32) -> Vec<f32> {
        let mut v = vec![(1.0 - conf) / (n as f32 - 1.0); n];
        v[class] = conf;
        v
    }

    /// Two members over four samples; member 1 disagrees on the last two.
    fn fixture() -> (Vec<Vec<Vec<f32>>>, Vec<usize>) {
        let m0 = vec![onehot(0, 3, 0.9), onehot(1, 3, 0.9), onehot(2, 3, 0.9), onehot(0, 3, 0.9)];
        let m1 = vec![onehot(0, 3, 0.8), onehot(1, 3, 0.8), onehot(0, 3, 0.8), onehot(1, 3, 0.8)];
        let labels = vec![0, 1, 2, 2];
        (vec![m0, m1], labels)
    }

    #[test]
    fn decide_all_covers_every_sample() {
        let (probs, _) = fixture();
        let verdicts = decide_all(&probs, Thresholds::new(0.5, 2));
        assert_eq!(verdicts.len(), 4);
        // Samples 0 and 1: both members agree → reliable.
        assert!(verdicts[0].is_reliable());
        assert!(verdicts[1].is_reliable());
        // Samples 2 and 3: disagreement (tie) → unreliable.
        assert!(!verdicts[2].is_reliable());
        assert!(!verdicts[3].is_reliable());
    }

    #[test]
    fn outcome_mapping() {
        let (probs, labels) = fixture();
        let summary = evaluate(&probs, &labels, Thresholds::new(0.5, 2));
        // Samples 0,1 reliable & correct (TP); 2,3 unreliable. Sample 2's
        // plurality tie reports class 0 ≠ label 2 (FN), sample 3's tie
        // reports class 0 ≠ 2 (FN).
        assert!((summary.tp - 0.5).abs() < 1e-12);
        assert_eq!(summary.fp, 0.0);
        assert!((summary.fn_ + summary.tn - 0.5).abs() < 1e-12);
    }

    #[test]
    fn records_take_member_argmax() {
        let probs = vec![onehot(2, 4, 0.7)];
        let recs = records_from_probs(&probs, &[2]);
        assert_eq!(recs[0].predicted, 2);
        assert!((recs[0].confidence - 0.7).abs() < 1e-6);
        assert_eq!(member_accuracy(&probs, &[2]), 1.0);
        assert_eq!(member_accuracy(&probs, &[0]), 0.0);
    }

    #[test]
    fn ensemble_accuracy_counts_emitted_class() {
        let (probs, labels) = fixture();
        // freq=1, conf=0: plurality of two members; ties are unreliable but
        // still carry the lower class.
        let acc = ensemble_accuracy(&probs, &labels, Thresholds::majority_vote());
        assert!((acc - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "disagree on sample count")]
    fn rejects_ragged_members() {
        let m0 = vec![onehot(0, 2, 0.9)];
        let m1 = vec![onehot(0, 2, 0.9), onehot(1, 2, 0.9)];
        decide_all(&[m0, m1], Thresholds::majority_vote());
    }
}
