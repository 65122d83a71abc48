//! The assembled PolygraphMR system: ensemble + decision engine, with an
//! optional staged (RADE) inference mode.

use crate::decision::{Thresholds, Verdict, VoteTally};
use crate::ensemble::{Ensemble, Member};
use crate::evaluate::outcomes;
use crate::rade::{BudgetedDecision, StagedDecision, StagedEngine};
use crate::stream::ReliabilityMonitor;
use pgmr_datasets::Dataset;
use pgmr_faults::VulnerabilityProfile;
use pgmr_metrics::RateSummary;
use pgmr_nn::pool::{shard_ranges, WorkerPool};
use pgmr_nn::ProtectionLevel;
use pgmr_obs::{Counter, Histogram};
use pgmr_tensor::argmax;
use pgmr_tensor::checksum::{ChecksumFault, DEFAULT_TOLERANCE};
use pgmr_tensor::Tensor;
use std::sync::{Arc, OnceLock};

/// Runs `forward`, timed into member `index`'s latency histogram
/// `infer.forward_ns.m{index}`. Members 0–15 keep their handle after the
/// first use, so ensembles of up to 16 members look nothing up and
/// allocate nothing; members past them resolve their timer by name on
/// every call. The registry zeroes metrics in place on reset, so the
/// cached handles stay wired to it.
fn time_forward<R>(index: usize, forward: impl FnOnce() -> R) -> R {
    static TIMERS: [OnceLock<Arc<Histogram>>; 16] = [const { OnceLock::new() }; 16];
    // pgmr-lint: allow(hot-path-alloc): the name is formatted once per member 0–15 and on every forward only for members past them
    let resolve = || pgmr_obs::global().timer(&format!("infer.forward_ns.m{index}"));
    match TIMERS.get(index) {
        Some(slot) => slot.get_or_init(resolve).time(forward),
        None => resolve().time(forward),
    }
}

/// Tallies one emitted verdict into the reliable/unreliable counters,
/// each looked up by name on first use only.
fn note_verdict(verdict: &Verdict) {
    static RELIABLE: OnceLock<Arc<Counter>> = OnceLock::new();
    static UNRELIABLE: OnceLock<Arc<Counter>> = OnceLock::new();
    let (slot, name) = if verdict.is_reliable() {
        (&RELIABLE, "infer.verdicts.reliable_total")
    } else {
        (&UNRELIABLE, "infer.verdicts.unreliable_total")
    };
    slot.get_or_init(|| pgmr_obs::global().counter(name)).inc();
}

/// Policy for ABFT-guarded inference with graceful degradation (§ fault
/// model in `DESIGN.md`): how tolerant verification is, how hard the
/// system tries to recover a faulting member, and when it gives up and
/// quarantines one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Base ABFT verification tolerance (widened per member for reduced
    /// precision, see [`crate::ensemble::Member::abft_tolerance`]).
    pub tolerance: f32,
    /// Forward-pass retries per member per inference after a checksum
    /// fault — a transient flip rarely recurs on the re-run.
    pub retries: usize,
    /// Unrecovered checksum faults (strikes) before a member is
    /// quarantined.
    pub quarantine_after: u32,
    /// Consecutive solo disagreements (member contradicts an otherwise
    /// unanimous ensemble) before quarantine — the detector for
    /// persistent weight corruption, which ABFT checksums cannot see.
    pub solo_after: u32,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy { tolerance: DEFAULT_TOLERANCE, retries: 1, quarantine_after: 3, solo_after: 5 }
    }
}

/// Why a member was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Checksum faults kept firing even after retries.
    RepeatedChecksumFaults,
    /// The member persistently contradicted an otherwise unanimous
    /// ensemble — the signature of corrupted weights.
    PersistentDisagreement,
}

/// Degradation events emitted by fault-tolerant inference, drained via
/// [`PolygraphSystem::drain_fault_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A checksum fault was absorbed by re-running the member.
    ChecksumRetry {
        /// Member index.
        member: usize,
    },
    /// A member's forward pass failed verification even after retries; it
    /// was skipped for this inference.
    ChecksumStrike {
        /// Member index.
        member: usize,
        /// Accumulated strikes.
        strikes: u32,
    },
    /// A member was removed from the active ensemble.
    Quarantined {
        /// Member index.
        member: usize,
        /// What pushed it over the line.
        reason: QuarantineReason,
    },
}

/// A deployable PolygraphMR system (Fig. 4): Layer-1 preprocessors and
/// Layer-2 networks inside the [`Ensemble`], Layer-3 thresholds fixed by
/// offline profiling.
pub struct PolygraphSystem {
    ensemble: Ensemble,
    thresholds: Thresholds,
    staged: Option<Arc<StagedEngine>>,
    fault_policy: Option<FaultPolicy>,
    protection_level: Option<ProtectionLevel>,
    /// Per-member activity flags; quarantine clears a flag.
    active: Vec<bool>,
    /// Per-member unrecovered checksum-fault counts.
    strikes: Vec<u32>,
    /// Per-member consecutive solo-disagreement counts.
    solo: Vec<u32>,
    events: Vec<FaultEvent>,
}

impl PolygraphSystem {
    /// Assembles a system from a trained ensemble and profiled thresholds.
    pub fn new(ensemble: Ensemble, thresholds: Thresholds) -> Self {
        let n = ensemble.len();
        PolygraphSystem {
            ensemble,
            thresholds,
            staged: None,
            fault_policy: None,
            protection_level: None,
            active: vec![true; n],
            strikes: vec![0; n],
            solo: vec![0; n],
            events: Vec::new(),
        }
    }

    /// The system's thresholds.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// Replaces the thresholds (re-selection from a stored Pareto frontier
    /// when user demands change, §III-E).
    pub fn set_thresholds(&mut self, thresholds: Thresholds) {
        self.thresholds = thresholds;
        if let Some(staged) = &self.staged {
            self.staged = Some(Arc::new(StagedEngine::new(staged.priority().to_vec(), thresholds)));
        }
    }

    /// The underlying ensemble.
    pub fn ensemble(&self) -> &Ensemble {
        &self.ensemble
    }

    /// Mutable access to the ensemble (RAMR precision switches).
    pub fn ensemble_mut(&mut self) -> &mut Ensemble {
        &mut self.ensemble
    }

    /// Enables RADE with the given activation priority (member indices).
    ///
    /// # Panics
    ///
    /// Panics if the priority is invalid for this ensemble.
    pub fn enable_staged(&mut self, priority: Vec<usize>) {
        assert_eq!(priority.len(), self.ensemble.len(), "priority must cover every member");
        self.staged = Some(Arc::new(StagedEngine::new(priority, self.thresholds)));
    }

    /// Disables RADE; `infer` activates every member again.
    pub fn disable_staged(&mut self) {
        self.staged = None;
    }

    /// True when RADE staged activation is enabled.
    pub fn is_staged(&self) -> bool {
        self.staged.is_some()
    }

    /// The active staged engine, if RADE is enabled, behind its shared
    /// handle — serving front-ends replicate the system's decision policy
    /// onto their per-worker member replicas by cloning the `Arc` instead
    /// of deep-copying the probe/threshold state per handle.
    pub fn staged_engine_shared(&self) -> Option<Arc<StagedEngine>> {
        self.staged.clone()
    }

    /// Enables (or disables) ABFT-guarded fault-tolerant inference. While
    /// a policy is set, [`PolygraphSystem::infer`] runs every active
    /// member through checksum-verified forward passes, retries members
    /// whose outputs fail verification, and quarantines members that keep
    /// faulting or persistently contradict the rest of the ensemble.
    /// Takes precedence over RADE staging (every active member runs).
    pub fn set_fault_policy(&mut self, policy: Option<FaultPolicy>) {
        self.fault_policy = policy;
        self.sync_fault_state();
    }

    /// The active fault policy, if any.
    pub fn fault_policy(&self) -> Option<&FaultPolicy> {
        self.fault_policy.as_ref()
    }

    /// Applies a vulnerability-guided protection level to every member:
    /// each member gets the [`pgmr_nn::CheckPlan`] its profile derives for
    /// `level`, so guarded inference spends ABFT work only where measured
    /// SDC contribution concentrates. Pass one profile to broadcast (the
    /// usual case — a homogeneous-architecture ensemble shares one
    /// measurement) or one per member. With `duplicate_critical`, each
    /// member's single most vulnerable layer additionally runs duplicated
    /// (compute-twice-compare). Sets the `protect.level` gauge.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is neither 1 nor ensemble-sized, or a profile
    /// does not map onto its member's network.
    pub fn apply_protection(
        &mut self,
        level: ProtectionLevel,
        profiles: &[VulnerabilityProfile],
        duplicate_critical: bool,
    ) {
        let n = self.ensemble.len();
        assert!(
            profiles.len() == 1 || profiles.len() == n,
            "need 1 (broadcast) or {n} profiles, got {}",
            profiles.len()
        );
        for (m, member) in self.ensemble.members_mut().iter_mut().enumerate() {
            let profile = &profiles[if profiles.len() == 1 { 0 } else { m }];
            let layers = member.network().num_layers();
            member.set_protection(Some(profile.plan(level, layers, duplicate_critical)));
        }
        self.protection_level = Some(level);
        pgmr_obs::global().gauge("protect.level").set(level.gauge_value());
    }

    /// Removes every member's protection plan, restoring the uniform
    /// full-ABFT guarded path (the pre-selective-protection behavior).
    pub fn clear_protection(&mut self) {
        for member in self.ensemble.members_mut() {
            member.set_protection(None);
        }
        self.protection_level = None;
    }

    /// The applied protection level, if [`PolygraphSystem::apply_protection`]
    /// has been called.
    pub fn protection_level(&self) -> Option<ProtectionLevel> {
        self.protection_level
    }

    /// Indices of quarantined members.
    pub fn quarantined(&self) -> Vec<usize> {
        self.active.iter().enumerate().filter(|(_, &a)| !a).map(|(i, _)| i).collect()
    }

    /// Number of members still in the active ensemble.
    pub fn active_members(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Drains the pending degradation events (oldest first).
    pub fn drain_fault_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    /// The thresholds actually applied by fault-tolerant inference: when
    /// quarantine has shrunk the ensemble from `total` to `active`
    /// members, `Thr_Freq` is re-derived so the required agreement
    /// *fraction* stays as close as possible to the profiled one —
    /// `round(freq · active / total)`, half rounding up, clamped to
    /// `[1, active]`. (Ceiling would be stricter but over-corrects: a
    /// 2-of-3 system shrunk to 2 members would suddenly demand unanimity
    /// and lose coverage.) Equal to the base thresholds while the full
    /// ensemble is active.
    pub fn effective_thresholds(&self) -> Thresholds {
        let total = self.ensemble.len();
        let active = self.active.iter().filter(|&&a| a).count();
        if active == 0 || active == total {
            return self.thresholds;
        }
        let freq = (self.thresholds.freq * active * 2 + total) / (2 * total);
        Thresholds::new(self.thresholds.conf, freq.clamp(1, active))
    }

    /// Resizes the per-member bookkeeping if the ensemble grew or shrank
    /// (e.g. members pushed through [`PolygraphSystem::ensemble_mut`]).
    fn sync_fault_state(&mut self) {
        let n = self.ensemble.len();
        if self.active.len() != n {
            self.active.resize(n, true);
            self.strikes.resize(n, 0);
            self.solo.resize(n, 0);
        }
    }

    /// One fault-tolerant inference: every active member runs an
    /// ABFT-guarded forward pass; checksum faults trigger up to
    /// `policy.retries` re-runs, then a strike (the member sits out this
    /// input). Members reaching `quarantine_after` strikes, or
    /// `solo_after` consecutive solo disagreements, are quarantined and
    /// the vote threshold re-derived over the surviving ensemble.
    ///
    /// The guarded forward passes (including their retry loops) are
    /// independent per member — each owns its network and any attached
    /// injector — so batch mode runs them concurrently on `pool`; the
    /// outcomes are then folded in member order, which reproduces the
    /// sequential event stream and decision exactly.
    fn infer_guarded(&mut self, image: &Tensor, pool: Option<&WorkerPool>) -> StagedDecision {
        let policy = *self.fault_policy.as_ref().expect("fault policy set");
        self.sync_fault_state();
        let tol = policy.tolerance;
        let retries = policy.retries;

        // Stage 1: guarded forward passes of the active members.
        let active = &self.active;
        let jobs: Vec<_> = self
            .ensemble
            .members_mut()
            .iter_mut()
            .enumerate()
            .filter(|(m, _)| active[*m])
            .map(|(m, member)| {
                move || {
                    let mut result = time_forward(m, || member.predict_checked(image, tol));
                    let mut retried = 0;
                    while result.is_err() && retried < retries {
                        retried += 1;
                        result = time_forward(m, || member.predict_checked(image, tol));
                    }
                    (m, result, retried)
                }
            })
            .collect();
        let outcomes: Vec<(usize, Result<Vec<f32>, ChecksumFault>, usize)> = match pool {
            // pgmr-lint: allow(nested-pool-run): the only closure of infer_batch reaching here is an inline iterator adapter on the caller's thread (the sequential fault-policy path), never a pool job
            Some(pool) => pool.run(jobs),
            None => jobs.into_iter().map(|mut job| job()).collect(),
        };

        // Stage 2: fold outcomes in member order — retry/strike/quarantine
        // bookkeeping is identical to running the members one by one. The
        // fold is where obs events are emitted (never from the concurrent
        // jobs), so the event stream is deterministic at any pool width.
        let obs = pgmr_obs::global();
        let mut tally = VoteTally::new(self.thresholds.conf);
        let mut voters: Vec<(usize, usize)> = Vec::new(); // (member, top-1 class)
        for (m, result, retried) in outcomes {
            for _ in 0..retried {
                self.events.push(FaultEvent::ChecksumRetry { member: m });
                obs.counter("abft.retries_total").inc();
                obs.emit("abft.retry", format!("member={m}"));
            }
            match result {
                Ok(p) => {
                    let class = argmax(&p);
                    tally.cast_top(class, p[class]);
                    voters.push((m, class));
                }
                Err(_) => {
                    self.strikes[m] += 1;
                    self.events
                        .push(FaultEvent::ChecksumStrike { member: m, strikes: self.strikes[m] });
                    obs.counter("abft.strikes_total").inc();
                    obs.emit("abft.strike", format!("member={m} strikes={}", self.strikes[m]));
                    if self.strikes[m] >= policy.quarantine_after {
                        self.active[m] = false;
                        self.events.push(FaultEvent::Quarantined {
                            member: m,
                            reason: QuarantineReason::RepeatedChecksumFaults,
                        });
                        obs.counter("abft.quarantines_total").inc();
                        obs.emit("abft.quarantine", format!("member={m} reason=checksum"));
                    }
                }
            }
        }

        // Persistent-disagreement tracking: a member that contradicts an
        // otherwise unanimous ensemble over and over is running on
        // corrupted state (ABFT-invisible weight faults land here).
        if voters.len() >= 3 {
            for (i, &(m, class)) in voters.iter().enumerate() {
                let mut peers =
                    voters.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &(_, v))| v);
                let first = peers.next().expect("at least two peers");
                let peers_unanimous = peers.all(|v| v == first);
                if peers_unanimous && class != first {
                    self.solo[m] += 1;
                    if self.solo[m] >= policy.solo_after && self.active[m] {
                        self.active[m] = false;
                        self.events.push(FaultEvent::Quarantined {
                            member: m,
                            reason: QuarantineReason::PersistentDisagreement,
                        });
                        obs.counter("abft.quarantines_total").inc();
                        obs.emit("abft.quarantine", format!("member={m} reason=solo"));
                    }
                } else {
                    self.solo[m] = 0;
                }
            }
        }

        // Thr_Conf is never re-derived, so only Thr_Freq follows quarantine.
        let verdict = tally.verdict(self.effective_thresholds().freq);
        note_verdict(&verdict);
        StagedDecision { verdict, activated: voters.len() }
    }

    /// Like [`PolygraphSystem::infer`], but feeds the verdict and any
    /// quarantine events into a [`ReliabilityMonitor`] — the deployment
    /// glue between per-input fault tolerance and stream-level health.
    /// The event log stays intact for [`PolygraphSystem::drain_fault_events`].
    pub fn infer_monitored(&mut self, image: &Tensor, monitor: &mut ReliabilityMonitor) -> Verdict {
        let seen = self.events.len();
        let verdict = self.infer(image);
        for event in &self.events[seen..] {
            if let FaultEvent::Quarantined { member, .. } = event {
                monitor.note_quarantine(*member);
            }
        }
        monitor.observe(&verdict);
        verdict
    }

    /// Classifies one raw image, returning the reliability verdict. In
    /// staged mode only as many member networks run as the input requires.
    pub fn infer(&mut self, image: &Tensor) -> Verdict {
        self.infer_counted(image).verdict
    }

    /// Like [`PolygraphSystem::infer`] but also reports how many member
    /// networks were activated (always the full count without RADE).
    pub fn infer_counted(&mut self, image: &Tensor) -> StagedDecision {
        if self.fault_policy.is_some() {
            return self.infer_guarded(image, None);
        }
        let staged = self.staged.as_deref();
        decide_request(self.ensemble.members_mut(), staged, self.thresholds, image, |_| true)
            .decision
    }

    /// Batch-mode inference over `pool`: classifies every image with
    /// decision semantics preserved exactly — decisions and fault events
    /// are bit-identical to calling [`PolygraphSystem::infer_counted`] on
    /// each image in order.
    ///
    /// With a fault policy set, inputs stay sequential (strikes and
    /// quarantine evolve from input to input) but each input's guarded
    /// member passes run concurrently. Otherwise the input set is sharded
    /// across the pool on cloned members — forward passes are
    /// deterministic, so the shards compose bit-identically. Members with
    /// an attached fault injector force the sequential path: their
    /// injector's RNG stream advances across inputs and sharding would
    /// reorder it.
    pub fn infer_batch(&mut self, images: &[Tensor], pool: &WorkerPool) -> Vec<StagedDecision> {
        if self.fault_policy.is_some() {
            return images.iter().map(|img| self.infer_guarded(img, Some(pool))).collect();
        }
        let injected = self.ensemble.members().iter().any(|m| m.fault_injector().is_some());
        if pool.threads() == 1 || images.len() < 2 || injected {
            return images.iter().map(|img| self.infer_counted(img)).collect();
        }
        let staged = self.staged.as_deref();
        let thresholds = self.thresholds;
        let jobs: Vec<_> = shard_ranges(images.len(), pool.threads())
            .map(|range| {
                let mut members: Vec<Member> = self.ensemble.members().to_vec();
                move || {
                    images[range]
                        .iter()
                        .map(|img| {
                            decide_request(&mut members, staged, thresholds, img, |_| true).decision
                        })
                        .collect::<Vec<_>>()
                }
            })
            .collect();
        pool.run(jobs).into_iter().flatten().collect()
    }

    /// Batch-mode [`PolygraphSystem::evaluate`]: the identical summary and
    /// activation counts, with inference parallelized over `pool`.
    pub fn evaluate_batch(
        &mut self,
        data: &Dataset,
        pool: &WorkerPool,
    ) -> (RateSummary, Vec<usize>) {
        let decisions = self.infer_batch(data.images(), pool);
        summarize_decisions(&decisions, data.labels())
    }

    /// Evaluates the system over a dataset, returning the reliability rate
    /// summary and the per-sample activation counts (useful for RADE cost
    /// accounting; all-members counts without RADE).
    pub fn evaluate(&mut self, data: &Dataset) -> (RateSummary, Vec<usize>) {
        let decisions: Vec<StagedDecision> =
            data.images().iter().map(|img| self.infer_counted(img)).collect();
        summarize_decisions(&decisions, data.labels())
    }
}

/// The rate summary of `decisions` against `labels`, and each decision's
/// activation count.
fn summarize_decisions(
    decisions: &[StagedDecision],
    labels: &[usize],
) -> (RateSummary, Vec<usize>) {
    let verdicts: Vec<Verdict> = decisions.iter().map(|d| d.verdict).collect();
    let activations = decisions.iter().map(|d| d.activated).collect();
    (pgmr_metrics::summarize(&outcomes(&verdicts, labels)), activations)
}

/// One un-guarded (plain or RADE) per-request decision over a member
/// slice, with an escalation budget — the per-request core the serving
/// front-end (`pgmr-serve`) runs on its worker-owned member replicas.
///
/// With RADE (`staged` set) the first `Thr_Freq` members always run and
/// `may_escalate(activated_so_far)` gates every activation beyond them;
/// a refused escalation returns the best-so-far plurality marked
/// [`BudgetedDecision::budget_exhausted`] — the deadline-degraded answer.
/// Without RADE every member runs and the budget is ignored (the
/// always-full-ensemble serving mode). With an always-true budget this is
/// bit-identical to [`PolygraphSystem::infer_counted`] on an unguarded
/// system.
///
/// Forward passes report into the per-member `infer.forward_ns.m{i}`
/// timers and the emitted verdict into the reliable/unreliable tallies,
/// exactly like system-level inference.
pub fn decide_request(
    members: &mut [Member],
    staged: Option<&StagedEngine>,
    thresholds: Thresholds,
    image: &Tensor,
    may_escalate: impl FnMut(usize) -> bool,
) -> BudgetedDecision {
    let out = match staged {
        Some(staged) => {
            let n = members.len();
            // Split borrow: the closure indexes members directly.
            let mut predict = |m: usize| time_forward(m, || members[m].predict(image));
            staged.decide_with_budget(&mut predict, n, may_escalate)
        }
        None => {
            let mut tally = VoteTally::new(thresholds.conf);
            for (i, member) in members.iter_mut().enumerate() {
                tally.cast(&time_forward(i, || member.predict(image)));
            }
            BudgetedDecision {
                decision: StagedDecision {
                    verdict: tally.verdict(thresholds.freq),
                    activated: members.len(),
                },
                budget_exhausted: false,
            }
        }
    };
    note_verdict(&out.decision.verdict);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::Member;
    use pgmr_datasets::{families, Split};
    use pgmr_nn::zoo::{build, ArchSpec};
    use pgmr_nn::TrainConfig;
    use pgmr_preprocess::Preprocessor;

    fn build_system() -> (PolygraphSystem, Dataset) {
        let cfg = families::synth_digits(0);
        let train = cfg.generate(Split::Train, 150);
        let test = cfg.generate(Split::Test, 60);
        let spec = ArchSpec::convnet(1, 16, 16, 10);
        let tc = TrainConfig { epochs: 3, batch_size: 16, lr: 0.08, ..TrainConfig::default() };
        let (a, _) = Member::train(Preprocessor::Identity, &spec, &train, &tc, 1);
        let (b, _) = Member::train(Preprocessor::FlipX, &spec, &train, &tc, 2);
        let (c, _) = Member::train(Preprocessor::Gamma(2.0), &spec, &train, &tc, 3);
        let ensemble = Ensemble::new(vec![a, b, c]);
        (PolygraphSystem::new(ensemble, Thresholds::new(0.4, 2)), test)
    }

    #[test]
    fn full_and_staged_agree_on_activation_bounds() {
        let (mut system, test) = build_system();
        let (full_summary, full_acts) = system.evaluate(&test.truncated(30));
        assert!(full_acts.iter().all(|&a| a == 3));
        assert!(full_summary.total == 30);

        system.enable_staged(vec![0, 1, 2]);
        assert!(system.is_staged());
        let (_, staged_acts) = system.evaluate(&test.truncated(30));
        assert!(staged_acts.iter().all(|&a| (2..=3).contains(&a)));
        // Staged activation must save work on at least some inputs for a
        // trained, mostly-agreeing ensemble.
        assert!(staged_acts.contains(&2), "no early exits at all");
    }

    #[test]
    fn set_thresholds_rebuilds_staged_engine() {
        let (mut system, test) = build_system();
        system.enable_staged(vec![2, 0, 1]);
        system.set_thresholds(Thresholds::new(0.6, 3));
        assert_eq!(system.thresholds().freq, 3);
        let d = system.infer_counted(&test.images()[0]);
        // freq 3 forces all members before a reliable verdict.
        if d.verdict.is_reliable() {
            assert_eq!(d.activated, 3);
        }
    }

    #[test]
    fn fault_policy_without_faults_matches_plain_inference() {
        let (mut system, test) = build_system();
        let (plain, _) = system.evaluate(&test.truncated(30));
        system.set_fault_policy(Some(FaultPolicy::default()));
        let (guarded, acts) = system.evaluate(&test.truncated(30));
        assert_eq!(plain, guarded, "clean guarded inference must not change verdicts");
        assert!(acts.iter().all(|&a| a == 3));
        assert!(system.quarantined().is_empty());
        assert!(system.drain_fault_events().is_empty());
    }

    #[test]
    fn repeated_checksum_faults_quarantine_a_member() {
        use pgmr_faults::{ActivationInjector, FaultSpec, SiteFilter, EXPONENT_BITS};
        let (mut system, test) = build_system();
        // Member 1 suffers a barrage of exponent flips on its guarded
        // outputs: every guarded forward pass fails verification.
        let guarded = pgmr_faults::guarded_sites(system.ensemble().members()[1].network());
        let spec = FaultSpec::transient_activations(13, 0.05)
            .with_bits(EXPONENT_BITS)
            .with_sites(SiteFilter::Only(guarded));
        system.ensemble_mut().members_mut()[1]
            .set_fault_injector(Some(ActivationInjector::new(&spec)));
        system
            .set_fault_policy(Some(FaultPolicy { quarantine_after: 3, ..FaultPolicy::default() }));

        for img in &test.images()[..10] {
            system.infer(img);
            if !system.quarantined().is_empty() {
                break;
            }
        }
        assert_eq!(system.quarantined(), vec![1]);
        let events = system.drain_fault_events();
        assert!(events.iter().any(|e| matches!(e, FaultEvent::ChecksumRetry { member: 1 })));
        assert!(events.iter().any(|e| matches!(
            e,
            FaultEvent::Quarantined { member: 1, reason: QuarantineReason::RepeatedChecksumFaults }
        )));
        // The vote bar is re-derived over the 2 survivors:
        // round(2·2/3) = round(1.33) = 1.
        assert_eq!(system.effective_thresholds().freq, 1);
        assert_eq!(system.active_members(), 2);
    }

    /// Like [`build_system`] but trained long enough that the members
    /// mostly agree — the graceful-degradation criterion (coverage within
    /// 2 pp after quarantine) presumes a competent ensemble.
    fn build_strong_system() -> (PolygraphSystem, Dataset) {
        let cfg = families::synth_digits(0);
        let train = cfg.generate(Split::Train, 300);
        let test = cfg.generate(Split::Test, 150);
        let spec = ArchSpec::convnet(1, 16, 16, 10);
        let tc = TrainConfig { epochs: 8, batch_size: 16, lr: 0.08, ..TrainConfig::default() };
        let (a, _) = Member::train(Preprocessor::Identity, &spec, &train, &tc, 1);
        let (b, _) = Member::train(Preprocessor::FlipX, &spec, &train, &tc, 2);
        let (c, _) = Member::train(Preprocessor::Gamma(2.0), &spec, &train, &tc, 3);
        let ensemble = Ensemble::new(vec![a, b, c]);
        (PolygraphSystem::new(ensemble, Thresholds::new(0.4, 2)), test)
    }

    #[test]
    fn persistent_weight_faults_trigger_solo_quarantine_and_recovery() {
        use pgmr_faults::{inject_weights, FaultSpec, EXPONENT_BITS};
        let (mut system, test) = build_strong_system();
        system.set_fault_policy(Some(FaultPolicy::default()));
        let (clean, _) = system.evaluate(&test);

        // Corrupt member 2's weights persistently: ABFT checksums stay
        // consistent with the corrupted weights, so only the ensemble-level
        // disagreement detector can catch this.
        let spec = FaultSpec::persistent_weights(17, 0.02).with_bits(EXPONENT_BITS);
        inject_weights(system.ensemble_mut().members_mut()[2].network_mut(), &spec);

        let mut monitor = crate::stream::ReliabilityMonitor::new(8, 0.9);
        for img in test.images() {
            system.infer_monitored(img, &mut monitor);
            if !system.quarantined().is_empty() {
                break;
            }
        }
        assert_eq!(
            system.quarantined(),
            vec![2],
            "corrupted member must be quarantined by solo disagreement"
        );
        assert_eq!(monitor.quarantines(), 1);

        // With the corrupted member gone, coverage and accuracy over the
        // full test set must come back to within 2 pp of the fault-free
        // ensemble (the paper-level graceful-degradation criterion).
        let (degraded, acts) = system.evaluate(&test);
        assert!(acts.iter().all(|&a| a == 2));
        let cov_gap = (clean.coverage() - degraded.coverage()).abs();
        let acc_gap = (clean.tp - degraded.tp).abs();
        assert!(cov_gap <= 0.02, "coverage gap {cov_gap:.4} exceeds 2 pp");
        assert!(acc_gap <= 0.02, "reliable-accuracy gap {acc_gap:.4} exceeds 2 pp");
    }

    #[test]
    fn batch_evaluation_is_bit_identical_to_sequential() {
        let (mut system, test) = build_system();
        let data = test.truncated(40);
        let pool = WorkerPool::new(4);

        let sequential = system.evaluate(&data);
        let batched = system.evaluate_batch(&data, &pool);
        assert_eq!(sequential, batched, "plain batch evaluation diverged");

        system.enable_staged(vec![0, 1, 2]);
        let sequential = system.evaluate(&data);
        let batched = system.evaluate_batch(&data, &pool);
        assert_eq!(sequential, batched, "staged batch evaluation diverged");

        system.disable_staged();
        system.set_fault_policy(Some(FaultPolicy::default()));
        let sequential = system.evaluate(&data);
        system.drain_fault_events();
        let batched = system.evaluate_batch(&data, &pool);
        assert!(system.drain_fault_events().is_empty());
        assert_eq!(sequential, batched, "guarded batch evaluation diverged");
    }

    #[test]
    fn batch_fault_path_matches_sequential_events_and_quarantine() {
        use pgmr_faults::{ActivationInjector, FaultSpec, SiteFilter, EXPONENT_BITS};
        // Two identically-built systems, both with member 1 suffering the
        // same seeded barrage of guarded-output exponent flips; one runs
        // sequentially, the other in batch mode on a 4-wide pool. Every
        // observable — verdict summary, activations, event stream,
        // quarantine set — must be bit-identical.
        let configure = |system: &mut PolygraphSystem| {
            let guarded = pgmr_faults::guarded_sites(system.ensemble().members()[1].network());
            let spec = FaultSpec::transient_activations(13, 0.05)
                .with_bits(EXPONENT_BITS)
                .with_sites(SiteFilter::Only(guarded));
            system.ensemble_mut().members_mut()[1]
                .set_fault_injector(Some(ActivationInjector::new(&spec)));
            system.set_fault_policy(Some(FaultPolicy {
                quarantine_after: 3,
                ..FaultPolicy::default()
            }));
        };
        let (mut seq_system, test) = build_system();
        let (mut batch_system, _) = build_system();
        configure(&mut seq_system);
        configure(&mut batch_system);
        let data = test.truncated(12);

        let sequential = seq_system.evaluate(&data);
        let pool = WorkerPool::new(4);
        let batched = batch_system.evaluate_batch(&data, &pool);
        assert_eq!(sequential, batched, "fault-path batch evaluation diverged");
        assert_eq!(seq_system.drain_fault_events(), batch_system.drain_fault_events());
        assert_eq!(seq_system.quarantined(), batch_system.quarantined());
    }

    #[test]
    fn full_protection_is_bit_identical_to_uniform_guarded_path() {
        use pgmr_faults::{
            ActivationInjector, FaultSpec, ProfileConfig, SiteFilter, VulnerabilityProfile,
            EXPONENT_BITS,
        };
        // Two identically-built systems under the same seeded fault barrage
        // on member 1; one runs the historical uniformly-checked path (no
        // plan), the other `ProtectionLevel::Full` derived from a measured
        // profile. Every observable — verdicts, events, quarantine — must
        // be bit-identical: Full is the old behavior by construction.
        let configure = |system: &mut PolygraphSystem| {
            let guarded = pgmr_faults::guarded_sites(system.ensemble().members()[1].network());
            let spec = FaultSpec::transient_activations(13, 0.05)
                .with_bits(EXPONENT_BITS)
                .with_sites(SiteFilter::Only(guarded));
            system.ensemble_mut().members_mut()[1]
                .set_fault_injector(Some(ActivationInjector::new(&spec)));
            system.set_fault_policy(Some(FaultPolicy {
                quarantine_after: 3,
                ..FaultPolicy::default()
            }));
        };
        let (mut plain, test) = build_system();
        let (mut protected, _) = build_system();
        configure(&mut plain);
        configure(&mut protected);
        // Homogeneous architectures: one measured profile broadcasts.
        let inputs = test.images()[..4].to_vec();
        let cfg = ProfileConfig { trials_per_site: 4, ..ProfileConfig::default() };
        let profile = VulnerabilityProfile::measure(
            protected.ensemble_mut().members_mut()[0].network_mut(),
            &inputs,
            &cfg,
            &WorkerPool::new(1),
        );
        protected.apply_protection(ProtectionLevel::Full, &[profile], false);
        assert_eq!(protected.protection_level(), Some(ProtectionLevel::Full));

        let data = test.truncated(12);
        let unprotected_run = plain.evaluate(&data);
        let protected_run = protected.evaluate(&data);
        assert_eq!(unprotected_run, protected_run, "Full protection changed verdicts");
        assert_eq!(plain.drain_fault_events(), protected.drain_fault_events());
        assert_eq!(plain.quarantined(), protected.quarantined());

        protected.clear_protection();
        assert_eq!(protected.protection_level(), None);
        assert!(protected.ensemble().members().iter().all(|m| m.protection().is_none()));
    }

    #[test]
    fn selective_protection_clean_run_matches_plain_verdicts() {
        use pgmr_faults::{ProfileConfig, VulnerabilityProfile};
        // On clean inputs, tiered protection (top-1 checks plus duplicated
        // critical layer) is pure verification: verdicts, activations, and
        // the quarantine set match the unprotected guarded run exactly.
        let (mut system, test) = build_system();
        system.set_fault_policy(Some(FaultPolicy::default()));
        let data = test.truncated(20);
        let before = system.evaluate(&data);

        let inputs = test.images()[..4].to_vec();
        let cfg = ProfileConfig { trials_per_site: 4, ..ProfileConfig::default() };
        let profile = VulnerabilityProfile::measure(
            system.ensemble_mut().members_mut()[0].network_mut(),
            &inputs,
            &cfg,
            &WorkerPool::new(1),
        );
        system.apply_protection(ProtectionLevel::Selective { top_k: 1 }, &[profile], true);
        for member in system.ensemble().members() {
            let plan = member.protection().expect("plan applied to every member");
            assert_eq!(plan.checked_count(), 1);
            assert!(plan.duplicated_layer().is_some());
        }
        let after = system.evaluate(&data);
        assert_eq!(before, after, "clean selective protection must not change verdicts");
        assert!(system.quarantined().is_empty());
        assert!(system.drain_fault_events().is_empty());
    }

    #[test]
    fn members_past_fifteen_get_their_own_forward_timer() {
        // No other test in this crate runs more than 15 members, so the
        // deltas of m15 and m16 are this inference's alone.
        let spec = ArchSpec::convnet(1, 16, 16, 10);
        let members =
            (0..17).map(|seed| Member::new(Preprocessor::Identity, build(&spec, seed))).collect();
        let mut system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.0, 1));
        let timer = |m: usize| pgmr_obs::global().timer(&format!("infer.forward_ns.m{m}"));
        let before = [timer(15).count(), timer(16).count()];
        let image = families::synth_digits(0).generate(Split::Test, 1).images()[0].clone();
        system.infer_counted(&image);
        assert_eq!([timer(15).count(), timer(16).count()], [before[0] + 1, before[1] + 1]);
    }

    #[test]
    fn verdict_classes_are_in_range() {
        let (mut system, test) = build_system();
        for img in &test.images()[..20] {
            if let Some(c) = system.infer(img).class() {
                assert!(c < 10);
            }
        }
    }
}
