//! Layer 3: the decision engine (§III-E).

use pgmr_tensor::argmax;
use serde::{Deserialize, Serialize};

/// The two tunable thresholds of the decision policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    /// `Thr_Conf`: a network's vote only counts when its top-1 softmax
    /// probability reaches this value.
    pub conf: f32,
    /// `Thr_Freq`: the winning class must collect at least this many votes
    /// for the answer to be emitted as reliable.
    pub freq: usize,
}

impl Thresholds {
    /// Creates a threshold pair.
    ///
    /// # Panics
    ///
    /// Panics if `conf` is outside `[0, 1]` or `freq == 0`.
    pub fn new(conf: f32, freq: usize) -> Self {
        assert!((0.0..=1.0).contains(&conf), "Thr_Conf must be in [0,1], got {conf}");
        assert!(freq > 0, "Thr_Freq must be positive");
        Thresholds { conf, freq }
    }

    /// The paper's "Majority Vote" baseline: any vote counts, and any
    /// un-tied plurality is emitted as reliable.
    pub fn majority_vote() -> Self {
        Thresholds { conf: 0.0, freq: 1 }
    }

    /// The paper's "All identical" policy for an `n`-network system: every
    /// network must agree.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` — a zero-member system has no meaningful
    /// unanimity policy, and silently coercing it to `freq = 1` would turn
    /// "all must agree" into "any single vote wins".
    pub fn all_identical(n: usize) -> Self {
        assert!(n > 0, "all_identical requires at least one member, got n=0");
        Thresholds::new(0.0, n)
    }

    /// "All identical with Threshold": every network must agree with at
    /// least 75% confidence (the Fig. 5 configuration).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, as for [`Thresholds::all_identical`].
    pub fn all_identical_with_conf(n: usize) -> Self {
        assert!(n > 0, "all_identical_with_conf requires at least one member, got n=0");
        Thresholds::new(0.75, n)
    }
}

/// The decision engine's output for one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The prediction is emitted as reliable.
    Reliable {
        /// The system's predicted class.
        class: usize,
        /// Votes the class collected.
        votes: usize,
    },
    /// The prediction is flagged unreliable (detected potential
    /// misprediction).
    Unreliable {
        /// The plurality class, if any vote survived `Thr_Conf`.
        class: Option<usize>,
        /// Votes that class collected (0 when no votes survived).
        votes: usize,
    },
}

impl Verdict {
    /// The emitted class, reliable or not.
    pub fn class(&self) -> Option<usize> {
        match self {
            Verdict::Reliable { class, .. } => Some(*class),
            Verdict::Unreliable { class, .. } => *class,
        }
    }

    /// True when the answer was emitted as reliable.
    pub fn is_reliable(&self) -> bool {
        matches!(self, Verdict::Reliable { .. })
    }

    /// Votes collected by the winning class.
    pub fn votes(&self) -> usize {
        match self {
            Verdict::Reliable { votes, .. } => *votes,
            Verdict::Unreliable { votes, .. } => *votes,
        }
    }
}

/// The Layer-3 decision engine: vote histogram → plurality class →
/// reliability verdict.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionEngine {
    thresholds: Thresholds,
}

impl DecisionEngine {
    /// Creates an engine with the given thresholds.
    pub fn new(thresholds: Thresholds) -> Self {
        DecisionEngine { thresholds }
    }

    /// The engine's thresholds.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// Decides on one input given each member's softmax vector.
    ///
    /// Votes below `Thr_Conf` are discarded. The plurality class is the
    /// system prediction; a tie for the top frequency is always unreliable
    /// (the paper's rule for majority voting), as is a winning frequency
    /// below `Thr_Freq`.
    ///
    /// # Panics
    ///
    /// Panics if `member_probs` is empty or any probability vector is
    /// empty.
    pub fn decide(&self, member_probs: &[Vec<f32>]) -> Verdict {
        assert!(!member_probs.is_empty(), "decision requires at least one vote source");
        let mut tally = VoteTally::new(self.thresholds.conf);
        for probs in member_probs {
            tally.cast(probs);
        }
        tally.verdict(self.thresholds.freq)
    }
}

/// A softmax vector's top-1 vote, `(class, confidence)`: the lowest class
/// holding the maximum.
///
/// # Panics
///
/// Panics if `probs` is empty.
pub(crate) fn top_vote(probs: &[f32]) -> (usize, f32) {
    let class = argmax(probs);
    (class, probs[class])
}

/// Distinct classes a [`VoteTally`] counts inline. A vote names at most
/// one class per member, so ensembles of up to this many members never
/// spill.
const INLINE_CLASSES: usize = 8;

/// The Layer-3 vote rule of [`DecisionEngine::decide`], the one place it
/// is written down. A vote is a member's top-1 class, counted only when
/// its confidence reaches `Thr_Conf`; the lowest class among tied leaders
/// is reported. Votes are cast one at a time and the verdict can be read
/// between them: RADE (§III-F) is this rule over the members activated so
/// far. The class counts live inline, so a decision's tally touches the
/// heap only past [`INLINE_CLASSES`] distinct counted classes.
pub(crate) struct VoteTally {
    conf: f32,
    /// `(class, votes)` per class that has a counted vote: the first
    /// `inline_len` here, any further ones in `spill`.
    inline: [(usize, usize); INLINE_CLASSES],
    inline_len: usize,
    spill: Vec<(usize, usize)>,
    /// The leading vote count.
    best: usize,
    /// The lowest class holding `best` votes.
    leader: usize,
    /// Whether another class also holds `best` votes.
    tied: bool,
}

impl VoteTally {
    /// An empty tally that discards votes below `conf` (`Thr_Conf`).
    pub(crate) fn new(conf: f32) -> Self {
        VoteTally {
            conf,
            inline: [(0, 0); INLINE_CLASSES],
            inline_len: 0,
            // pgmr-lint: allow(hot-path-alloc): an empty Vec holds no heap memory; it grows only past INLINE_CLASSES distinct counted classes
            spill: Vec::new(),
            best: 0,
            leader: 0,
            tied: false,
        }
    }

    /// Casts one member's vote from its softmax vector.
    ///
    /// # Panics
    ///
    /// Panics if `probs` is empty.
    pub(crate) fn cast(&mut self, probs: &[f32]) {
        let (class, confidence) = top_vote(probs);
        self.cast_top(class, confidence);
    }

    /// Casts one member's vote from its precomputed top-1 class and
    /// confidence. A NaN confidence never reaches `Thr_Conf`.
    pub(crate) fn cast_top(&mut self, class: usize, confidence: f32) {
        if confidence >= self.conf {
            let mut counted = self.inline[..self.inline_len].iter_mut().chain(&mut self.spill);
            let votes = match counted.find(|(c, _)| *c == class) {
                Some((_, n)) => {
                    *n += 1;
                    *n
                }
                None if self.inline_len < INLINE_CLASSES => {
                    self.inline[self.inline_len] = (class, 1);
                    self.inline_len += 1;
                    1
                }
                None => {
                    self.spill.push((class, 1));
                    1
                }
            };
            if votes > self.best {
                (self.best, self.leader, self.tied) = (votes, class, false);
            } else if votes == self.best {
                self.leader = self.leader.min(class);
                self.tied = true;
            }
        }
    }

    /// The leading class's vote count so far (0 before any counted vote).
    pub(crate) fn best(&self) -> usize {
        self.best
    }

    /// The verdict over the votes cast so far, under `Thr_Freq = freq`.
    pub(crate) fn verdict(&self, freq: usize) -> Verdict {
        let votes = self.best;
        if votes == 0 {
            Verdict::Unreliable { class: None, votes }
        } else if !self.tied && votes >= freq {
            Verdict::Reliable { class: self.leader, votes }
        } else {
            Verdict::Unreliable { class: Some(self.leader), votes }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onehot(class: usize, n: usize, conf: f32) -> Vec<f32> {
        let mut v = vec![(1.0 - conf) / (n as f32 - 1.0); n];
        v[class] = conf;
        v
    }

    #[test]
    fn unanimous_vote_is_reliable() {
        let engine = DecisionEngine::new(Thresholds::new(0.5, 3));
        let probs = vec![onehot(2, 5, 0.9), onehot(2, 5, 0.8), onehot(2, 5, 0.95)];
        assert_eq!(engine.decide(&probs), Verdict::Reliable { class: 2, votes: 3 });
    }

    #[test]
    fn low_confidence_votes_are_discarded() {
        let engine = DecisionEngine::new(Thresholds::new(0.7, 2));
        // Two votes for class 1, but one is below Thr_Conf.
        let probs = vec![onehot(1, 4, 0.9), onehot(1, 4, 0.5), onehot(3, 4, 0.8)];
        let v = engine.decide(&probs);
        assert!(!v.is_reliable());
        // Plurality is a tie between 1 and 3 (one vote each): lower class
        // reported.
        assert_eq!(v.class(), Some(1));
    }

    #[test]
    fn tie_is_unreliable_even_with_low_freq_threshold() {
        let engine = DecisionEngine::new(Thresholds::majority_vote());
        let probs = vec![onehot(0, 3, 0.9), onehot(1, 3, 0.9)];
        let v = engine.decide(&probs);
        assert!(!v.is_reliable());
        assert_eq!(v.votes(), 1);
    }

    #[test]
    fn majority_vote_emits_any_plurality() {
        let engine = DecisionEngine::new(Thresholds::majority_vote());
        let probs = vec![onehot(0, 3, 0.2), onehot(0, 3, 0.4), onehot(2, 3, 0.99)];
        // Low confidences still count (Thr_Conf = 0) — 0 has plurality.
        // NOTE: onehot(0, 3, 0.2) has its max at another class though;
        // use explicit vectors to control argmax precisely.
        let explicit = vec![vec![0.5, 0.3, 0.2], vec![0.4, 0.35, 0.25], vec![0.1, 0.1, 0.8]];
        assert_eq!(engine.decide(&explicit), Verdict::Reliable { class: 0, votes: 2 });
        let _ = probs;
    }

    #[test]
    fn no_surviving_votes_is_unreliable_with_no_class() {
        let engine = DecisionEngine::new(Thresholds::new(0.99, 1));
        let probs = vec![onehot(1, 4, 0.6), onehot(2, 4, 0.7)];
        assert_eq!(engine.decide(&probs), Verdict::Unreliable { class: None, votes: 0 });
    }

    #[test]
    fn all_identical_requires_every_network() {
        let engine = DecisionEngine::new(Thresholds::all_identical(3));
        let agree2 = vec![onehot(1, 4, 0.9), onehot(1, 4, 0.9), onehot(0, 4, 0.9)];
        assert!(!engine.decide(&agree2).is_reliable());
        let agree3 = vec![onehot(1, 4, 0.9), onehot(1, 4, 0.9), onehot(1, 4, 0.9)];
        assert!(engine.decide(&agree3).is_reliable());
    }

    #[test]
    fn raising_freq_threshold_never_creates_reliability() {
        // Monotonicity: if a verdict is unreliable at freq f, it stays
        // unreliable at freq f+1.
        let probs = vec![onehot(1, 4, 0.9), onehot(1, 4, 0.9), onehot(2, 4, 0.9)];
        let mut was_reliable = true;
        for freq in 1..=4 {
            let v = DecisionEngine::new(Thresholds::new(0.5, freq)).decide(&probs);
            if !was_reliable {
                assert!(!v.is_reliable(), "reliability reappeared at freq {freq}");
            }
            was_reliable = v.is_reliable();
        }
    }

    #[test]
    fn votes_past_the_inline_classes_spill_and_still_count() {
        // One vote each for classes 19 down to 1 (eight counted inline,
        // eleven spilled), then more for spilled class 5 and inline class
        // 19: ties and leads form across both stores alike.
        let mut tally = VoteTally::new(0.5);
        for class in (1..20).rev() {
            tally.cast_top(class, 0.9);
        }
        assert_eq!(tally.verdict(1), Verdict::Unreliable { class: Some(1), votes: 1 });
        tally.cast_top(5, 0.9);
        assert_eq!(tally.verdict(2), Verdict::Reliable { class: 5, votes: 2 });
        tally.cast_top(19, 0.9);
        assert_eq!(tally.verdict(2), Verdict::Unreliable { class: Some(5), votes: 2 });
        tally.cast_top(19, 0.9);
        assert_eq!(tally.verdict(3), Verdict::Reliable { class: 19, votes: 3 });
        tally.cast_top(0, 0.4);
        assert_eq!(tally.best(), 3, "a vote below Thr_Conf is not counted");
    }

    #[test]
    #[should_panic(expected = "at least one vote source")]
    fn rejects_empty_input() {
        DecisionEngine::new(Thresholds::majority_vote()).decide(&[]);
    }

    #[test]
    #[should_panic(expected = "Thr_Conf")]
    fn rejects_bad_conf() {
        Thresholds::new(1.5, 1);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn all_identical_rejects_zero_members() {
        // Regression: n=0 used to be silently coerced to freq=1, turning
        // "all must agree" into "any single vote wins".
        Thresholds::all_identical(0);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn all_identical_with_conf_rejects_zero_members() {
        Thresholds::all_identical_with_conf(0);
    }
}
