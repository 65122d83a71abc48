//! The assembled PolygraphMR system: ensemble + decision engine, with an
//! optional staged (RADE) inference mode and an optional fault policy.
//! [`PolygraphSystem::decide`] decides every request; a warmed decision
//! allocates nothing.
//!
//! The full-ensemble vote (no RADE, or a fault policy set) runs as a
//! *segment*: each voting member's passes over the segment's images,
//! then a fold of their top-1 votes image by image, in member order,
//! through retries, strikes, quarantine and the solo scan. A request is a
//! one-image segment. [`PolygraphSystem::infer_batch`] on a system that
//! [decides in order](PolygraphSystem::decides_in_order) runs its images
//! as segments bounded by the solo horizon, one pool job per voting
//! member per segment, and still gives exactly what deciding the images
//! one at a time gives (see `DESIGN.md` §4a).

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
/// model in `DESIGN.md`): how tolerant checksum verification is. Recovery
/// is fixed: a faulting member is re-run once, and it is quarantined
/// after 3 unrecovered faults (strikes) or 5 consecutive solo
/// disagreements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Base ABFT verification tolerance (widened per member for reduced
    /// precision, see [`crate::ensemble::Member::abft_tolerance`]).
    pub tolerance: f32,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy { tolerance: DEFAULT_TOLERANCE }
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

/// Forward-pass retries per member per request after a checksum fault —
/// a transient flip rarely recurs on the re-run.
const RETRIES: usize = 1;
/// Unrecovered checksum faults (strikes) before a member is quarantined.
const QUARANTINE_AFTER: u32 = 3;
/// Consecutive solo disagreements (a member contradicts an otherwise
/// unanimous ensemble) before quarantine — the detector for persistent
/// weight corruption, which ABFT checksums cannot see.
const SOLO_AFTER: u32 = 5;

/// One member's pass of one image: its top-1 vote `(class, confidence)`
/// or the checksum fault it kept raising, and the retries spent.
type Pass = (Result<(usize, f32), ChecksumFault>, usize);

/// Runs member `m`'s pass: an unguarded vote without a tolerance; with
/// one, a checksum-verified vote re-run up to [`RETRIES`] times while it
/// faults.
fn member_pass(m: usize, member: &mut Member, image: &Tensor, tolerance: Option<f32>) -> Pass {
    let mut result = time_forward(m, || member.vote(image, tolerance));
    let mut retried = 0;
    while result.is_err() && retried < RETRIES {
        retried += 1;
        result = time_forward(m, || member.vote(image, tolerance));
    }
    (result, retried)
}

/// Runs member `m`'s passes over a segment's `images`, in order, into
/// `slots`. It stops after the pass that gives the member its
/// [`QUARANTINE_AFTER`]-th strike, counting from `strikes`: the fold
/// quarantines the member at that image, so the sequential path runs it
/// on none of the later ones. Only the member's own faults move its
/// strikes.
fn member_passes(
    m: usize,
    member: &mut Member,
    images: &[Tensor],
    tolerance: Option<f32>,
    mut strikes: u32,
    slots: &mut [Option<Pass>],
) {
    for (image, slot) in images.iter().zip(slots) {
        let pass = member_pass(m, member, image, tolerance);
        let struck = pass.0.is_err();
        *slot = Some(pass);
        if struck {
            strikes += 1;
            if strikes >= QUARANTINE_AFTER {
                break;
            }
        }
    }
}

/// A deployable PolygraphMR system (Fig. 4): Layer-1 preprocessors and
/// Layer-2 networks inside the [`Ensemble`], Layer-3 thresholds fixed by
/// offline profiling.
///
/// Serving and sharded batches decide on clones: a clone shares the
/// staged engine and weight arenas, and copies everything else.
#[derive(Clone)]
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
    /// `(member, class)` of each vote under a fault policy, refilled per
    /// request for the solo scan.
    voters: Vec<(usize, usize)>,
    /// The passes of the segment being decided, member-major: member
    /// `m`'s pass on the segment's image `i` sits at `m * len + i`.
    /// Reused across segments.
    passes: Vec<Option<Pass>>,
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
            voters: Vec::new(),
            passes: Vec::new(),
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

    /// Mutable access to the ensemble (RAMR precision switches, fault
    /// injectors). The member count is fixed when the system is built, so
    /// do not assign an ensemble of another size through it.
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

    /// The active staged engine, if RADE is enabled, behind the handle the
    /// system's clones share — for harnesses that replay the staged
    /// protocol outside the system.
    pub fn staged_engine_shared(&self) -> Option<Arc<StagedEngine>> {
        self.staged.clone()
    }

    /// Enables (or disables) ABFT-guarded fault-tolerant inference. While
    /// a policy is set, [`PolygraphSystem::decide`] runs every active
    /// member through checksum-verified forward passes, retries members
    /// whose outputs fail verification, and quarantines members that keep
    /// faulting or persistently contradict the rest of the ensemble.
    /// Takes precedence over RADE staging (every active member runs).
    ///
    /// Clearing the policy (`None`) also clears its state: every member is
    /// active again with no strikes or solo count, so
    /// [`PolygraphSystem::quarantined`] and
    /// [`PolygraphSystem::effective_thresholds`] report the all-members
    /// vote that an unguarded decision casts.
    pub fn set_fault_policy(&mut self, policy: Option<FaultPolicy>) {
        if policy.is_none() {
            self.active.fill(true);
            self.strikes.fill(0);
            self.solo.fill(0);
        }
        self.fault_policy = policy;
    }

    /// The active fault policy, if any.
    pub fn fault_policy(&self) -> Option<&FaultPolicy> {
        self.fault_policy.as_ref()
    }

    /// True when this system's state changes from request to request, so
    /// its requests must be decided in order on one system: a fault policy
    /// evolves strikes and quarantine, a fault injector its RNG stream.
    /// [`PolygraphSystem::infer_batch`] and the serving front-end read it.
    pub fn decides_in_order(&self) -> bool {
        self.fault_policy.is_some()
            || self.ensemble.members().iter().any(|m| m.fault_injector().is_some())
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

    /// Decides one request: the one routine behind
    /// [`PolygraphSystem::infer_counted`], [`PolygraphSystem::infer_batch`]
    /// and the serving front-end. A warmed decision allocates nothing.
    ///
    /// RADE without a fault policy runs the staged protocol: the first
    /// `Thr_Freq` members always run, `may_escalate(activated_so_far)`
    /// gates every activation beyond them, and a refused escalation
    /// returns the best-so-far plurality marked
    /// [`BudgetedDecision::budget_exhausted`]. Otherwise every member
    /// votes in member order and the budget is never consulted; under a
    /// fault policy only the members not quarantined vote, through
    /// checksum-verified forwards with retries, strikes and quarantine (see
    /// [`FaultPolicy`]). That full-ensemble vote is a one-image segment of
    /// the fold [`PolygraphSystem::infer_batch`] runs.
    pub fn decide(
        &mut self,
        image: &Tensor,
        may_escalate: impl FnMut(usize) -> bool,
    ) -> BudgetedDecision {
        match &self.staged {
            Some(staged) if self.fault_policy.is_none() => {
                let members = self.ensemble.members_mut();
                let n = members.len();
                // Split borrow: the closure indexes members directly.
                let vote = |m: usize| {
                    let vote = time_forward(m, || members[m].vote(image, None));
                    vote.expect("an unguarded run cannot fault")
                };
                let out = staged.decide_votes(vote, n, may_escalate);
                note_verdict(&out.decision.verdict);
                out
            }
            _ => {
                let mut decision = None;
                self.poll_segment(std::slice::from_ref(image), None, |d| decision = Some(d));
                let decision = decision.expect("a segment decides each of its images");
                BudgetedDecision { decision, budget_exhausted: false }
            }
        }
    }

    /// True when requests go through the full-ensemble vote of
    /// [`PolygraphSystem::poll_segment`]: no RADE, or a fault policy set.
    fn polls_every_member(&self) -> bool {
        self.staged.is_none() || self.fault_policy.is_some()
    }

    /// The length of the next in-order segment over `remaining` images:
    /// up to and including the solo horizon, the first image at which a
    /// persistent-disagreement quarantine could fire. A member's solo
    /// count rises by at most one per image, so that image is
    /// `SOLO_AFTER − solo[m]` images away for the nearest active member.
    /// The solo scan needs three voters and runs only under a fault
    /// policy; without them the segment is the rest of the call.
    fn solo_horizon(&self, remaining: usize) -> usize {
        if self.fault_policy.is_none() || self.active_members() < 3 {
            return remaining;
        }
        let active = self.active.iter().zip(&self.solo).filter(|(&active, _)| active);
        let horizon = active.map(|(_, &solo)| SOLO_AFTER.saturating_sub(solo).max(1)).min();
        horizon.map_or(remaining, |h| remaining.min(h as usize))
    }

    /// Decides `images` in order through the full-ensemble vote, as one
    /// segment. First each voting member runs its passes over all of
    /// `images` ([`member_passes`]): one pool job per member given a pool,
    /// inline otherwise. Then the votes fold image by image, in member
    /// order, through [`PolygraphSystem::absorb`], the solo scan and the
    /// verdict, skipping members quarantined earlier in the fold; `emit`
    /// receives each decision in order.
    ///
    /// `images` must be non-empty and end at or before the
    /// [solo horizon](PolygraphSystem::solo_horizon). Inside it the voting
    /// set shrinks only through a member's own strikes, which its job
    /// follows, so no pass runs that deciding the images one at a time
    /// would not run: verdicts, fault events, injector streams and forward
    /// timers match [`PolygraphSystem::infer_counted`] per image at any
    /// pool width. Only the fold emits obs events, never a pool job.
    fn poll_segment(
        &mut self,
        images: &[Tensor],
        pool: Option<&WorkerPool>,
        mut emit: impl FnMut(StagedDecision),
    ) {
        let tolerance = self.fault_policy.map(|p| p.tolerance);
        let n = self.ensemble.len();
        let len = images.len();
        self.passes.clear();
        self.passes.resize(n * len, None);
        // Quarantine holds only under a policy: without one every member votes.
        let (active, strikes) = (&self.active, &self.strikes);
        let runs = (self.ensemble.members_mut().iter_mut().zip(self.passes.chunks_mut(len)))
            .enumerate()
            .filter(|(m, _)| tolerance.is_none() || active[*m]);
        match pool {
            Some(pool) => {
                let jobs: Vec<_> = runs
                    .map(|(m, (member, slots))| {
                        move || member_passes(m, member, images, tolerance, strikes[m], slots)
                    })
                    // pgmr-lint: allow(hot-path-alloc): the job list `WorkerPool::run` takes by value, one entry per voting member per segment; only `infer_batch` passes a pool
                    .collect();
                // pgmr-lint: allow(nested-pool-run): the pool jobs that reach this fold (the shards of `infer_batch` and of serve) come through `decide`, which passes no pool
                pool.run(jobs);
            }
            None => {
                for (m, (member, slots)) in runs {
                    member_passes(m, member, images, tolerance, strikes[m], slots);
                }
            }
        }

        let mut voters = std::mem::take(&mut self.voters);
        for i in 0..len {
            let mut tally = VoteTally::new(self.thresholds.conf);
            voters.clear();
            for m in 0..n {
                if tolerance.is_none() || self.active[m] {
                    let pass = self.passes[m * len + i].take();
                    let pass = pass.expect("a voting member's job ran its pass");
                    self.absorb(&mut tally, &mut voters, m, pass);
                }
            }
            self.note_solo_votes(&voters);
            // Thr_Conf is never re-derived, so only Thr_Freq follows quarantine.
            let (freq, activated) = match self.fault_policy {
                Some(_) => (self.effective_thresholds().freq, voters.len()),
                None => (self.thresholds.freq, n),
            };
            let decision = StagedDecision { verdict: tally.verdict(freq), activated };
            note_verdict(&decision.verdict);
            emit(decision);
        }
        self.voters = voters;
    }

    /// Persistent-disagreement tracking over one image's `voters`: a
    /// member that contradicts an otherwise unanimous ensemble over and
    /// over is running on corrupted state (ABFT-invisible weight faults
    /// land here).
    fn note_solo_votes(&mut self, voters: &[(usize, usize)]) {
        if voters.len() < 3 {
            return;
        }
        for (i, &(m, class)) in voters.iter().enumerate() {
            let mut peers =
                voters.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &(_, v))| v);
            let first = peers.next().expect("at least two peers");
            let peers_unanimous = peers.all(|v| v == first);
            if peers_unanimous && class != first {
                self.solo[m] += 1;
                if self.solo[m] >= SOLO_AFTER && self.active[m] {
                    self.active[m] = false;
                    let reason = QuarantineReason::PersistentDisagreement;
                    self.note_fault(FaultEvent::Quarantined { member: m, reason });
                }
            } else {
                self.solo[m] = 0;
            }
        }
    }

    /// Folds one member pass in: its retries, then its vote (also kept in
    /// `voters` under a policy) or a strike, which quarantines the member
    /// at [`QUARANTINE_AFTER`].
    fn absorb(
        &mut self,
        tally: &mut VoteTally,
        voters: &mut Vec<(usize, usize)>,
        m: usize,
        pass: Pass,
    ) {
        let (result, retried) = pass;
        for _ in 0..retried {
            self.note_fault(FaultEvent::ChecksumRetry { member: m });
        }
        match result {
            Ok((class, confidence)) => {
                tally.cast_top(class, confidence);
                if self.fault_policy.is_some() {
                    voters.push((m, class));
                }
            }
            Err(_) => {
                self.strikes[m] += 1;
                self.note_fault(FaultEvent::ChecksumStrike { member: m, strikes: self.strikes[m] });
                if self.strikes[m] >= QUARANTINE_AFTER {
                    self.active[m] = false;
                    let reason = QuarantineReason::RepeatedChecksumFaults;
                    self.note_fault(FaultEvent::Quarantined { member: m, reason });
                }
            }
        }
    }

    /// Logs one fault event for [`PolygraphSystem::drain_fault_events`]
    /// and reports it to obs: its `abft.*_total` counter and an `abft.*`
    /// event naming the member.
    // pgmr-lint: boundary(hot-path-alloc): fault events are rare — a retry, a strike or a quarantine — and each formats its obs event text; a request without a checksum fault or quarantine records none
    fn note_fault(&mut self, event: FaultEvent) {
        let (counter, kind, detail) = match event {
            FaultEvent::ChecksumRetry { member } => {
                ("abft.retries_total", "abft.retry", format!("member={member}"))
            }
            FaultEvent::ChecksumStrike { member, strikes } => {
                ("abft.strikes_total", "abft.strike", format!("member={member} strikes={strikes}"))
            }
            FaultEvent::Quarantined { member, reason } => {
                let reason = match reason {
                    QuarantineReason::RepeatedChecksumFaults => "checksum",
                    QuarantineReason::PersistentDisagreement => "solo",
                };
                let detail = format!("member={member} reason={reason}");
                ("abft.quarantines_total", "abft.quarantine", detail)
            }
        };
        let obs = pgmr_obs::global();
        obs.counter(counter).inc();
        obs.emit(kind, detail);
        self.events.push(event);
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
    /// networks were activated: [`PolygraphSystem::decide`] with an open
    /// budget.
    pub fn infer_counted(&mut self, image: &Tensor) -> StagedDecision {
        self.decide(image, |_| true).decision
    }

    /// Batch-mode inference over `pool`: classifies every image with
    /// decision semantics preserved exactly — decisions, fault events,
    /// injector streams and forward timers are what calling
    /// [`PolygraphSystem::infer_counted`] on each image in order gives.
    ///
    /// A system that [decides in order](PolygraphSystem::decides_in_order)
    /// through the full-ensemble vote runs member-major, in segments that
    /// each end at the first image where a persistent-disagreement
    /// quarantine could fire: a segment is one pool job per voting member,
    /// whose votes then fold image by image in request order (see
    /// `DESIGN.md` §4a). RADE decided in order (an injector without a
    /// policy) runs its images one after another, as does any batch the
    /// pool cannot split. Any other system is sharded across the pool on
    /// clones of itself — forward passes are deterministic, so the shards
    /// compose bit-identically.
    pub fn infer_batch(&mut self, images: &[Tensor], pool: &WorkerPool) -> Vec<StagedDecision> {
        let mut decisions = Vec::with_capacity(images.len());
        let in_order = self.decides_in_order();
        let one_by_one = in_order || pool.threads() == 1 || images.len() < 2;
        if in_order && self.polls_every_member() {
            // A one-wide pool would run the member jobs inline anyway.
            let jobs_pool = (pool.threads() > 1).then_some(pool);
            let mut rest = images;
            while !rest.is_empty() {
                let (segment, tail) = rest.split_at(self.solo_horizon(rest.len()));
                self.poll_segment(segment, jobs_pool, |d| decisions.push(d));
                rest = tail;
            }
        } else if one_by_one {
            for image in images {
                decisions.push(self.decide(image, |_| true).decision);
            }
        } else {
            // Each shard fills its own run of the result slots.
            let unset = StagedDecision {
                verdict: Verdict::Unreliable { class: None, votes: 0 },
                activated: 0,
            };
            decisions.resize(images.len(), unset);
            let mut slots = &mut decisions[..];
            let jobs: Vec<_> = shard_ranges(images.len(), pool.threads())
                .map(|range| {
                    let (shard_slots, rest) = std::mem::take(&mut slots).split_at_mut(range.len());
                    slots = rest;
                    let mut shard = self.clone();
                    let images = &images[range];
                    move || {
                        for (slot, image) in shard_slots.iter_mut().zip(images) {
                            *slot = shard.infer_counted(image);
                        }
                    }
                })
                // pgmr-lint: allow(hot-path-alloc): the job list `WorkerPool::run` takes by value, one entry per shard per call
                .collect();
            pool.run(jobs);
        }
        decisions
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
        system.set_fault_policy(Some(FaultPolicy::default()));

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
            system.set_fault_policy(Some(FaultPolicy::default()));
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
            system.set_fault_policy(Some(FaultPolicy::default()));
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
    fn clearing_the_fault_policy_clears_quarantine() {
        // Three untrained members, member 1 under the seeded barrage of
        // guarded-output exponent flips: guarded requests quarantine it.
        use pgmr_faults::{ActivationInjector, FaultSpec, SiteFilter, EXPONENT_BITS};
        use Preprocessor::{FlipX, Gamma, Identity};
        let spec = ArchSpec::convnet(1, 16, 16, 10);
        let members = [(Identity, 7), (FlipX, 8), (Gamma(2.0), 9)]
            .iter()
            .map(|&(p, seed)| Member::new(p, build(&spec, seed)))
            .collect();
        let mut system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.15, 2));
        let sites = pgmr_faults::guarded_sites(system.ensemble().members()[1].network());
        let barrage = FaultSpec::transient_activations(13, 0.05)
            .with_bits(EXPONENT_BITS)
            .with_sites(SiteFilter::Only(sites));
        system.ensemble_mut().members_mut()[1]
            .set_fault_injector(Some(ActivationInjector::new(&barrage)));
        system.set_fault_policy(Some(FaultPolicy::default()));
        let images = families::synth_digits(0).generate(Split::Test, 13);
        for img in &images.images()[..12] {
            system.infer_counted(img);
        }
        assert_eq!(system.quarantined(), vec![1], "the barrage must quarantine member 1");
        assert_eq!(system.effective_thresholds().freq, 1);

        // Without a policy every member votes under the base Thr_Freq, and
        // the reports say so.
        system.set_fault_policy(None);
        assert!(system.quarantined().is_empty());
        assert_eq!(system.active_members(), 3);
        assert_eq!(system.effective_thresholds(), system.thresholds());
        assert_eq!(system.infer_counted(&images.images()[12]).activated, 3);

        // A policy set again starts from a clean slate: member 1's next
        // strike is its first.
        system.drain_fault_events();
        system.set_fault_policy(Some(FaultPolicy::default()));
        let first_strike = images.images().iter().cycle().take(60).find_map(|img| {
            system.infer_counted(img);
            system.drain_fault_events().into_iter().find_map(|event| match event {
                FaultEvent::ChecksumStrike { member, strikes } => Some((member, strikes)),
                _ => None,
            })
        });
        assert_eq!(first_strike, Some((1, 1)));
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
