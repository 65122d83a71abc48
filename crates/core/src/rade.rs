//! RADE: the resource-aware decision engine (§III-F).
//!
//! Instead of always activating every network, RADE stages activation by a
//! *priority scheme*: networks are ranked by how often each supplied a
//! correct label during profiling, the top `Thr_Freq` run first, and
//! further networks are activated one at a time only while the verdict is
//! still undetermined. Two early exits apply:
//!
//! * **early reliable** — some class has already collected `Thr_Freq`
//!   surviving votes;
//! * **early unreliable** — even if every remaining network voted for the
//!   current leader, it could not reach `Thr_Freq`.
//!
//! Each verdict is the full engine's rule applied to exactly the networks
//! activated so far; RADE approximates the full engine only in never
//! seeing the votes it did not activate, which is exactly the paper's
//! trade-off: Fig. 10 reports a modest FP increase in exchange for the
//! large energy/latency cut.
//!
//! The protocol reads top-1 votes and keeps one [`StagedRow`] per input:
//! [`StagedEngine::next_member`] names the member an input activates next
//! (asking the budget before an escalation), and [`StagedEngine::cast`],
//! the one RADE step, folds that member's vote in. The public
//! [`StagedEngine::decide`], `decide_with` and `decide_with_budget` step
//! one input's row with votes reduced from probability vectors; the
//! system steps the rows of a whole run stage by stage, with votes cast
//! straight from its members' reused buffers after batched passes, so a
//! warmed staged run allocates nothing.

use crate::decision::{top_vote, Thresholds, Verdict, VoteTally};
use pgmr_obs::{Counter, Histogram};
use pgmr_tensor::argmax;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// The staged, priority-ordered decision engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagedEngine {
    priority: Vec<usize>,
    thresholds: Thresholds,
}

/// A staged decision plus its activation cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StagedDecision {
    /// The verdict RADE emitted.
    pub verdict: Verdict,
    /// How many networks were activated to reach it.
    pub activated: usize,
}

/// A staged decision that may have been cut short by an exhausted
/// escalation budget — the deadline-aware serving outcome of
/// [`StagedEngine::decide_with_budget`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetedDecision {
    /// The (possibly best-so-far) staged decision.
    pub decision: StagedDecision,
    /// True when the escalation budget expired before the protocol could
    /// finish: the verdict is the best-so-far plurality over the members
    /// that did run, not the full staged outcome — a deadline-degraded
    /// answer.
    pub budget_exhausted: bool,
}

impl StagedEngine {
    /// Creates an engine with an explicit priority order (member indices,
    /// highest priority first).
    ///
    /// # Panics
    ///
    /// Panics if the priority list is empty, contains duplicates or
    /// out-of-range indices, or `Thr_Freq` exceeds the member count.
    pub fn new(priority: Vec<usize>, thresholds: Thresholds) -> Self {
        assert!(!priority.is_empty(), "priority order cannot be empty");
        let n = priority.len();
        let mut seen = vec![false; n];
        for &i in &priority {
            assert!(i < n, "priority index {i} out of range for {n} members");
            assert!(!seen[i], "duplicate priority index {i}");
            seen[i] = true;
        }
        assert!(thresholds.freq <= n, "Thr_Freq {} exceeds member count {n}", thresholds.freq);
        StagedEngine { priority, thresholds }
    }

    /// Builds the priority order from per-member correct-label frequencies
    /// measured during profiling (§III-F): higher contribution runs first.
    pub fn from_contributions(contributions: &[f64], thresholds: Thresholds) -> Self {
        assert!(!contributions.is_empty(), "need at least one contribution");
        let mut order: Vec<usize> = (0..contributions.len()).collect();
        order.sort_by(|&a, &b| {
            contributions[b]
                .partial_cmp(&contributions[a])
                .expect("finite contributions")
                .then(a.cmp(&b))
        });
        StagedEngine::new(order, thresholds)
    }

    /// The activation order (member indices).
    pub fn priority(&self) -> &[usize] {
        &self.priority
    }

    /// The engine's thresholds.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// Runs the staged protocol against precomputed per-member probability
    /// vectors for one input (`member_probs[m]` = member `m`'s softmax).
    /// Only members the protocol activates are read — borrowed, never
    /// cloned (this is the serve hot path; a per-decision softmax copy
    /// would be a needless allocation).
    ///
    /// # Panics
    ///
    /// Panics if `member_probs.len()` differs from the engine's member
    /// count.
    pub fn decide(&self, member_probs: &[Vec<f32>]) -> StagedDecision {
        self.decide_with_budget(|m| &member_probs[m], member_probs.len(), |_| true).decision
    }

    /// Runs the staged protocol with a lazy per-member prediction provider
    /// — in deployment each call triggers one network inference, so the
    /// returned `activated` count is exactly the energy spent.
    ///
    /// Every decision reports its activation count into the global
    /// `rade.activated` histogram, and its exit path into the
    /// `rade.early_reliable_total` / `rade.early_unreliable_total` /
    /// `rade.exhausted_total` counters (paper Fig. 12 observability).
    ///
    /// # Panics
    ///
    /// Panics if `n_members` differs from the engine's member count.
    pub fn decide_with<P: AsRef<[f32]>>(
        &self,
        predict: impl FnMut(usize) -> P,
        n_members: usize,
    ) -> StagedDecision {
        self.decide_with_budget(predict, n_members, |_| true).decision
    }

    /// Runs the staged protocol under an *escalation budget* — the
    /// deadline policy of the serving front-end. The first `Thr_Freq`
    /// members (stage 1) always run; before every activation beyond them
    /// `may_escalate(activated_so_far)` is consulted, and a `false` stops
    /// the protocol with the best-so-far plurality verdict, marked
    /// [`BudgetedDecision::budget_exhausted`]. With an always-true budget
    /// this is exactly [`StagedEngine::decide_with`].
    ///
    /// Whatever the exit, the verdict is [`crate::DecisionEngine::decide`]
    /// over exactly the members activated.
    ///
    /// Budget-stopped decisions report their exit into the
    /// `rade.budget_stopped_total` counter (alongside the usual
    /// `rade.activated` histogram).
    ///
    /// # Panics
    ///
    /// Panics if `n_members` differs from the engine's member count.
    pub fn decide_with_budget<P: AsRef<[f32]>>(
        &self,
        mut predict: impl FnMut(usize) -> P,
        n_members: usize,
        mut may_escalate: impl FnMut(usize) -> bool,
    ) -> BudgetedDecision {
        assert_eq!(n_members, self.priority.len(), "member count mismatch with priority order");
        let mut row = self.row();
        while let Some(m) = self.next_member(&mut row, &mut may_escalate) {
            self.cast(&mut row, top_vote(predict(m).as_ref()));
        }
        self.finish(&row)
    }

    /// An input that has activated no member yet.
    pub(crate) fn row(&self) -> StagedRow {
        StagedRow { tally: VoteTally::new(self.thresholds.conf), activated: 0, exit: None }
    }

    /// The member `row` activates next, or `None` once it has exited.
    /// Stage 1 (the first `Thr_Freq` members) is unconditional — a verdict
    /// needs at least that many candidate votes. Before every activation
    /// past it `may_escalate(activated_so_far)` is asked, and a refusal
    /// ends the row with its best-so-far plurality; a row that has exited
    /// asks nothing.
    pub(crate) fn next_member(
        &self,
        row: &mut StagedRow,
        may_escalate: impl FnOnce(usize) -> bool,
    ) -> Option<usize> {
        if row.exit.is_some() {
            return None;
        }
        if row.activated >= self.thresholds.freq && !may_escalate(row.activated) {
            row.exit = Some(Exit::BudgetStopped);
            return None;
        }
        Some(self.priority[row.activated])
    }

    /// The one RADE step: folds the vote `(class, confidence)` of the
    /// member [`StagedEngine::next_member`] named into `row`, and ends the
    /// row at an early exit or after the last member.
    pub(crate) fn cast(&self, row: &mut StagedRow, (class, confidence): (usize, f32)) {
        let freq = self.thresholds.freq;
        row.tally.cast_top(class, confidence);
        row.activated += 1;
        let remaining = self.priority.len() - row.activated;
        row.exit = if row.tally.best() + remaining < freq {
            // Early unreliable: even if every remaining network voted for
            // the current leader it could not reach Thr_Freq. This can
            // trigger mid-batch (e.g. a low-confidence vote was
            // discarded), which is RADE's "early detection of unreliable
            // answers".
            Some(if remaining > 0 { Exit::EarlyUnreliable } else { Exit::Exhausted })
        } else if row.tally.verdict(freq).is_reliable() {
            // Early reliable: the leader already meets Thr_Freq and no
            // other class ties it.
            Some(Exit::EarlyReliable)
        } else if remaining == 0 {
            Some(Exit::Exhausted)
        } else {
            None
        };
    }

    /// The decision of a row that has exited, its activation cost and exit
    /// path recorded into obs.
    ///
    /// # Panics
    ///
    /// Panics if the row has not exited.
    pub(crate) fn finish(&self, row: &StagedRow) -> BudgetedDecision {
        let exit = row.exit.expect("a staged row is decided once it has exited");
        Self::note_exit(row.activated, exit);
        BudgetedDecision {
            decision: StagedDecision {
                verdict: row.tally.verdict(self.thresholds.freq),
                activated: row.activated,
            },
            budget_exhausted: matches!(exit, Exit::BudgetStopped),
        }
    }

    /// Records one staged decision's activation cost and exit path. The
    /// metric handles are looked up by name on first use only.
    fn note_exit(activated: usize, exit: Exit) {
        static ACTIVATED: OnceLock<Arc<Histogram>> = OnceLock::new();
        static EXITS: [OnceLock<Arc<Counter>>; EXIT_COUNTERS.len()] =
            [const { OnceLock::new() }; EXIT_COUNTERS.len()];
        let obs = pgmr_obs::global();
        ACTIVATED.get_or_init(|| obs.histogram("rade.activated")).record(activated as u64);
        let i = exit as usize;
        EXITS[i].get_or_init(|| obs.counter(EXIT_COUNTERS[i])).inc();
    }
}

/// One input's place in the staged protocol: the votes of the members
/// activated so far and, once it has ended, how. Rows of many inputs step
/// side by side when a run of them is decided stage by stage.
#[derive(Clone)]
pub(crate) struct StagedRow {
    tally: VoteTally,
    activated: usize,
    exit: Option<Exit>,
}

/// How a staged decision ended; indexes [`EXIT_COUNTERS`].
#[derive(Clone, Copy)]
enum Exit {
    EarlyReliable,
    BudgetStopped,
    EarlyUnreliable,
    Exhausted,
}

/// The exit-path counters, in [`Exit`] order.
const EXIT_COUNTERS: [&str; 4] = [
    "rade.early_reliable_total",
    "rade.budget_stopped_total",
    "rade.early_unreliable_total",
    "rade.exhausted_total",
];

/// Measures each member's contribution — the fraction of profiling samples
/// it labels correctly — from precomputed probabilities.
///
/// # Panics
///
/// Panics if `labels` is empty (an empty profiling set would make every
/// contribution `0/0 = NaN`, which only surfaces later as a cryptic sort
/// failure inside [`StagedEngine::from_contributions`]), or if any
/// member's sample count differs from `labels.len()`.
pub fn contributions(member_probs: &[Vec<Vec<f32>>], labels: &[usize]) -> Vec<f64> {
    assert!(!labels.is_empty(), "contributions need a non-empty profiling set");
    member_probs
        .iter()
        .map(|probs| {
            assert_eq!(probs.len(), labels.len(), "probs/label count mismatch");
            let correct = probs.iter().zip(labels).filter(|(p, &l)| argmax(p) == l).count();
            correct as f64 / labels.len() as f64
        })
        .collect()
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
    fn early_exit_when_first_batch_agrees() {
        let engine = StagedEngine::new(vec![0, 1, 2, 3], Thresholds::new(0.5, 2));
        let probs = vec![
            onehot(1, 4, 0.9),
            onehot(1, 4, 0.9),
            onehot(2, 4, 0.9), // never read
            onehot(3, 4, 0.9), // never read
        ];
        let d = engine.decide(&probs);
        assert_eq!(d.verdict, Verdict::Reliable { class: 1, votes: 2 });
        assert_eq!(d.activated, 2);
    }

    #[test]
    fn disagreement_activates_more_networks() {
        let engine = StagedEngine::new(vec![0, 1, 2, 3], Thresholds::new(0.5, 2));
        let probs = vec![
            onehot(1, 4, 0.9),
            onehot(2, 4, 0.9),
            onehot(1, 4, 0.9), // tips class 1 to 2 votes
            onehot(3, 4, 0.9),
        ];
        let d = engine.decide(&probs);
        assert_eq!(d.verdict, Verdict::Reliable { class: 1, votes: 2 });
        assert_eq!(d.activated, 3);
    }

    #[test]
    fn early_unreliable_when_threshold_unreachable() {
        let engine = StagedEngine::new(vec![0, 1, 2], Thresholds::new(0.99, 3));
        // No vote survives the 0.99 confidence bar; after 1st network the
        // best class has 0 votes and 2 remaining < 3 → early break after
        // the first round where best+remaining < freq.
        let probs = vec![onehot(0, 4, 0.6), onehot(1, 4, 0.6), onehot(2, 4, 0.6)];
        let d = engine.decide(&probs);
        assert!(!d.verdict.is_reliable());
        assert!(d.activated < 3, "should stop early, activated {}", d.activated);
    }

    #[test]
    fn lazy_provider_only_called_for_activated_members() {
        let engine = StagedEngine::new(vec![2, 0, 1], Thresholds::new(0.5, 2));
        let mut calls = Vec::new();
        let d = engine.decide_with(
            |m| {
                calls.push(m);
                onehot(0, 3, 0.9)
            },
            3,
        );
        assert_eq!(d.verdict, Verdict::Reliable { class: 0, votes: 2 });
        assert_eq!(calls, vec![2, 0], "priority order respected, third member skipped");
    }

    #[test]
    fn contributions_rank_members() {
        let good = vec![onehot(0, 2, 0.9), onehot(1, 2, 0.9)];
        let bad = vec![onehot(1, 2, 0.9), onehot(1, 2, 0.9)];
        let c = contributions(&[bad.clone(), good.clone()], &[0, 1]);
        assert_eq!(c, vec![0.5, 1.0]);
        let engine = StagedEngine::from_contributions(&c, Thresholds::new(0.5, 1));
        assert_eq!(engine.priority(), &[1, 0]);
    }

    #[test]
    fn matches_full_engine_when_all_activated() {
        use crate::decision::DecisionEngine;
        // When RADE runs every member (no early exit possible because the
        // last vote decides), its verdict equals the full engine's.
        let thresholds = Thresholds::new(0.5, 3);
        let engine = StagedEngine::new(vec![0, 1, 2, 3], thresholds);
        let probs =
            vec![onehot(1, 4, 0.9), onehot(2, 4, 0.9), onehot(1, 4, 0.9), onehot(1, 4, 0.9)];
        let staged = engine.decide(&probs);
        let full = DecisionEngine::new(thresholds).decide(&probs);
        assert_eq!(staged.verdict, full);
        assert_eq!(staged.activated, 4);
    }

    #[test]
    fn reliable_staged_verdicts_have_enough_votes() {
        let engine = StagedEngine::new(vec![0, 1, 2], Thresholds::new(0.6, 2));
        let cases = vec![
            vec![onehot(0, 3, 0.9), onehot(0, 3, 0.9), onehot(1, 3, 0.9)],
            vec![onehot(0, 3, 0.9), onehot(1, 3, 0.9), onehot(1, 3, 0.9)],
            vec![onehot(2, 3, 0.5), onehot(1, 3, 0.9), onehot(1, 3, 0.9)],
        ];
        for probs in cases {
            let d = engine.decide(&probs);
            if let Verdict::Reliable { votes, .. } = d.verdict {
                assert!(votes >= 2);
            }
            assert!(d.activated >= engine.thresholds().freq.min(3));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty profiling set")]
    fn contributions_reject_empty_profiling_set() {
        // Regression: an empty label set used to yield 0/0 = NaN
        // contributions, which only blew up later inside
        // `from_contributions`' sort comparator with the misleading
        // message "finite contributions".
        contributions(&[Vec::new(), Vec::new()], &[]);
    }

    #[test]
    fn budgeted_decide_with_open_budget_matches_decide_with() {
        let engine = StagedEngine::new(vec![0, 1, 2, 3], Thresholds::new(0.5, 2));
        let cases = vec![
            vec![onehot(1, 4, 0.9), onehot(1, 4, 0.9), onehot(2, 4, 0.9), onehot(3, 4, 0.9)],
            vec![onehot(1, 4, 0.9), onehot(2, 4, 0.9), onehot(1, 4, 0.9), onehot(3, 4, 0.9)],
            vec![onehot(0, 4, 0.6), onehot(1, 4, 0.6), onehot(2, 4, 0.6), onehot(3, 4, 0.6)],
        ];
        for probs in cases {
            let plain = engine.decide(&probs);
            let budgeted = engine.decide_with_budget(|m| &probs[m], probs.len(), |_| true);
            assert_eq!(budgeted.decision, plain);
            assert!(!budgeted.budget_exhausted);
        }
    }

    #[test]
    fn exhausted_budget_returns_best_so_far_marked_degraded() {
        // Stage 1 (freq = 2) disagrees, so the protocol wants member 2 —
        // but the budget refuses every escalation. The best-so-far
        // plurality comes back marked deadline-degraded, with only the
        // stage-1 members activated.
        let engine = StagedEngine::new(vec![0, 1, 2, 3], Thresholds::new(0.5, 2));
        let probs =
            vec![onehot(1, 4, 0.9), onehot(2, 4, 0.9), onehot(1, 4, 0.9), onehot(1, 4, 0.9)];
        let out = engine.decide_with_budget(|m| &probs[m], probs.len(), |_| false);
        assert!(out.budget_exhausted);
        assert_eq!(out.decision.activated, 2);
        assert_eq!(out.decision.verdict, Verdict::Unreliable { class: Some(1), votes: 1 });
        // An open budget on the same input escalates and resolves.
        let open = engine.decide(&probs);
        assert_eq!(open.verdict, Verdict::Reliable { class: 1, votes: 2 });
        assert_eq!(open.activated, 3);
    }

    #[test]
    fn budget_is_only_consulted_for_escalations() {
        // Even a never-true budget runs all of stage 1.
        let engine = StagedEngine::new(vec![0, 1, 2], Thresholds::new(0.5, 3));
        let probs = [onehot(0, 3, 0.9), onehot(0, 3, 0.9), onehot(0, 3, 0.9)];
        let mut asked = Vec::new();
        let out = engine.decide_with_budget(
            |m| &probs[m],
            3,
            |activated| {
                asked.push(activated);
                false
            },
        );
        // freq = 3 means every member is stage 1: the budget is never
        // consulted and the full protocol runs.
        assert!(asked.is_empty());
        assert!(!out.budget_exhausted);
        assert_eq!(out.decision.verdict, Verdict::Reliable { class: 0, votes: 3 });
    }

    #[test]
    #[should_panic(expected = "duplicate priority")]
    fn rejects_duplicate_priorities() {
        StagedEngine::new(vec![0, 0], Thresholds::new(0.5, 1));
    }

    #[test]
    #[should_panic(expected = "exceeds member count")]
    fn rejects_oversized_freq() {
        StagedEngine::new(vec![0, 1], Thresholds::new(0.5, 3));
    }
}
