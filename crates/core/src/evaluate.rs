//! Shared evaluation helpers: verdicts → outcomes → rates.
//!
//! Experiment harnesses precompute the per-member probability arrays once
//! (`probs[m][i]` = member `m`'s softmax vector on sample `i`) and then
//! evaluate arbitrarily many threshold settings against them with these
//! free functions — profiling the whole `(Thr_Conf, Thr_Freq)` grid costs
//! a negligible fraction of training, as the paper notes in §III-E.

use crate::decision::{DecisionEngine, Thresholds, Verdict};
use crate::ensemble::Member;
use pgmr_metrics::{summarize, Outcome, PredictionRecord, RateSummary};
use pgmr_nn::pool::{shard_ranges, WorkerPool};
use pgmr_tensor::{argmax, Tensor};

/// Transposes a per-member probability array into the per-sample slices the
/// decision engine consumes, deciding every sample.
///
/// # Panics
///
/// Panics if `member_probs` is empty or members disagree on sample count.
pub fn decide_all(member_probs: &[Vec<Vec<f32>>], thresholds: Thresholds) -> Vec<Verdict> {
    assert!(!member_probs.is_empty(), "need at least one member");
    let n = member_probs[0].len();
    assert!(member_probs.iter().all(|m| m.len() == n), "members disagree on sample count");
    let engine = DecisionEngine::new(thresholds);
    (0..n)
        .map(|i| {
            let votes: Vec<Vec<f32>> = member_probs.iter().map(|m| m[i].clone()).collect();
            engine.decide(&votes)
        })
        .collect()
}

/// Parallel [`decide_all`]: shards the sample axis across `pool`. Each
/// decision is a pure function of its sample's votes, so the verdicts are
/// bit-identical to the sequential call.
///
/// # Panics
///
/// Panics if `member_probs` is empty or members disagree on sample count.
pub fn decide_all_sharded(
    member_probs: &[Vec<Vec<f32>>],
    thresholds: Thresholds,
    pool: &WorkerPool,
) -> Vec<Verdict> {
    assert!(!member_probs.is_empty(), "need at least one member");
    let n = member_probs[0].len();
    assert!(member_probs.iter().all(|m| m.len() == n), "members disagree on sample count");
    if pool.threads() == 1 || n < 2 {
        return decide_all(member_probs, thresholds);
    }
    let jobs: Vec<_> = shard_ranges(n, pool.threads())
        .map(|range| {
            move || {
                let engine = DecisionEngine::new(thresholds);
                range
                    .map(|i| {
                        let votes: Vec<Vec<f32>> =
                            member_probs.iter().map(|m| m[i].clone()).collect();
                        engine.decide(&votes)
                    })
                    .collect::<Vec<_>>()
            }
        })
        .collect();
    pool.run(jobs).into_iter().flatten().collect()
}

/// Parallel [`evaluate`]: decide (sharded over `pool`) → outcomes → rates,
/// bit-identical to the sequential pipeline.
pub fn evaluate_sharded(
    member_probs: &[Vec<Vec<f32>>],
    labels: &[usize],
    thresholds: Thresholds,
    pool: &WorkerPool,
) -> RateSummary {
    summarize(&outcomes(&decide_all_sharded(member_probs, thresholds, pool), labels))
}

/// Per-member probabilities over a raw image set (`out[m][i]` is member
/// `m`'s softmax vector for image `i`), computed on `pool`.
///
/// Clean members are sharded across the inputs on clones — forward passes
/// are deterministic, so the reassembled rows are bit-identical to
/// [`Member::predict_all`]. A member with an attached fault injector runs
/// as a single job instead: its injector's RNG stream advances across
/// images, and sharding would reorder it.
pub fn collect_predictions(
    members: &mut [Member],
    images: &[Tensor],
    pool: &WorkerPool,
) -> Vec<Vec<Vec<f32>>> {
    if pool.threads() == 1 || members.len() * images.len() < 2 {
        return members.iter_mut().map(|m| m.predict_all(images)).collect();
    }
    let ranges = shard_ranges(images.len(), pool.threads());
    enum Unit<'a> {
        Whole(usize, &'a mut Member),
        Shard(usize, std::ops::Range<usize>, Box<Member>),
    }
    let n_members = members.len();
    let mut units = Vec::new();
    for (m, member) in members.iter_mut().enumerate() {
        if member.fault_injector().is_some() || ranges.len() < 2 {
            units.push(Unit::Whole(m, member));
        } else {
            for range in ranges.clone() {
                units.push(Unit::Shard(m, range, Box::new(member.clone())));
            }
        }
    }
    let jobs: Vec<_> = units
        .into_iter()
        .map(|unit| {
            move || match unit {
                Unit::Whole(m, member) => (m, 0, member.predict_all(images)),
                Unit::Shard(m, range, mut member) => {
                    (m, range.start, member.predict_all(&images[range]))
                }
            }
        })
        .collect();
    let mut out: Vec<Vec<Vec<f32>>> =
        (0..n_members).map(|_| vec![Vec::new(); images.len()]).collect();
    for (m, start, probs) in pool.run(jobs) {
        for (offset, p) in probs.into_iter().enumerate() {
            out[m][start + offset] = p;
        }
    }
    out
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

    /// Three untrained (but deterministic) members over a synthetic image
    /// set — cheap enough to forward many times in a unit test.
    fn raw_members_and_data() -> (Vec<Member>, pgmr_datasets::Dataset) {
        use pgmr_nn::zoo::{build, ArchSpec};
        use pgmr_preprocess::Preprocessor;
        let spec = ArchSpec::convnet(1, 16, 16, 10);
        let members = vec![
            Member::new(Preprocessor::Identity, build(&spec, 7)),
            Member::new(Preprocessor::FlipX, build(&spec, 8)),
            Member::new(Preprocessor::Gamma(2.0), build(&spec, 9)),
        ];
        let data =
            pgmr_datasets::families::synth_digits(4).generate(pgmr_datasets::Split::Test, 25);
        (members, data)
    }

    #[test]
    fn sharded_prediction_and_decision_match_sequential_bit_for_bit() {
        let (mut seq_members, data) = raw_members_and_data();
        let mut par_members = seq_members.clone();
        let pool = pgmr_nn::WorkerPool::new(4);

        let sequential: Vec<Vec<Vec<f32>>> =
            seq_members.iter_mut().map(|m| m.predict_all(data.images())).collect();
        let sharded = collect_predictions(&mut par_members, data.images(), &pool);
        assert_eq!(sequential, sharded, "sharded member predictions diverged");

        let thresholds = Thresholds::new(0.4, 2);
        assert_eq!(
            decide_all(&sequential, thresholds),
            decide_all_sharded(&sharded, thresholds, &pool)
        );
        assert_eq!(
            evaluate(&sequential, data.labels(), thresholds),
            evaluate_sharded(&sharded, data.labels(), thresholds, &pool)
        );
    }

    #[test]
    fn injected_members_keep_their_sequential_fault_stream_when_pooled() {
        use pgmr_faults::{ActivationInjector, FaultSpec};
        let (mut seq_members, data) = raw_members_and_data();
        let mut par_members = seq_members.clone();
        // Member 1 carries a seeded injector whose RNG stream advances
        // across images; the pool must not reorder it.
        let spec = FaultSpec::transient_activations(21, 0.2);
        seq_members[1].set_fault_injector(Some(ActivationInjector::new(&spec)));
        par_members[1].set_fault_injector(Some(ActivationInjector::new(&spec)));

        let pool = pgmr_nn::WorkerPool::new(3);
        let sequential: Vec<Vec<Vec<f32>>> =
            seq_members.iter_mut().map(|m| m.predict_all(data.images())).collect();
        let pooled = collect_predictions(&mut par_members, data.images(), &pool);
        // Injected outputs can contain NaN, so compare bit patterns rather
        // than float equality.
        let bits = |probs: &[Vec<Vec<f32>>]| -> Vec<Vec<Vec<u32>>> {
            probs
                .iter()
                .map(|m| m.iter().map(|p| p.iter().map(|v| v.to_bits()).collect()).collect())
                .collect()
        };
        assert_eq!(bits(&sequential), bits(&pooled), "injected prediction stream diverged");
    }
}
