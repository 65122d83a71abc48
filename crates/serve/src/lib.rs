//! # pgmr-serve — deadline-aware streaming inference front-end
//!
//! The paper motivates PolygraphMR with streaming, latency-sensitive
//! deployments (pedestrian identification, steering-command generation).
//! This crate is the serving layer for such a deployment: a concurrent
//! request front-end that admits individual classification requests,
//! batches whatever is queued whenever the batcher is free, dispatches
//! batches onto a dedicated worker pool, and applies the ensemble's RADE
//! staging as a *deadline policy* — stage-1 members always run, reliable
//! answers exit early, and doubtful inputs escalate toward the full
//! ensemble only while the request's deadline budget allows. A request
//! whose budget expires mid-protocol still gets an answer: the
//! best-so-far plurality, marked deadline-degraded. Any system can be
//! served: plain, RADE, or guarded by a fault policy.
//!
//! ## Architecture
//!
//! * [`ServeHandle::spawn`] clones the system once per inference worker
//!   (forward passes are deterministic, so replicas answer
//!   bit-identically; a system that
//!   [decides in order](PolygraphSystem::decides_in_order) gets one) and
//!   starts one *batcher* thread.
//! * [`ServeHandle::submit`] / [`Submitter::submit`] enqueue requests;
//!   every request carries its own completion channel, so any number of
//!   client threads can submit concurrently and each drains only its own
//!   completions.
//! * The batcher is work-conserving: it blocks for the first arrival,
//!   takes whatever else is already queued (up to
//!   [`ServeConfig::max_batch`]) without waiting for more, and dispatches
//!   that batch at once across the replicas on a serve-owned
//!   [`WorkerPool`] (dedicated, because nesting
//!   `run` calls into the shared global pool can deadlock). A lone
//!   request runs immediately; requests that arrive while a batch runs
//!   form the next batch, so batches grow only with load.
//! * Each replica decides its shard of the batch as one
//!   [`PolygraphSystem::decide_run`], so its members run batched forwards
//!   over the shard; under RADE stage 1 runs over every request of the
//!   shard and the undecided ones escalate as a sub-batch. Each request's
//!   escalations are gated by a budget derived from its own deadline,
//!   asked at every stage boundary. After each batch the replicas'
//!   quarantines are noted in a [`ReliabilityMonitor`], then the verdicts
//!   are folded into it in submission order, so stream health
//!   ([`ServeHandle::health`]) reflects live traffic.
//!
//! ## Determinism
//!
//! With open deadlines the served verdicts are bit-identical to calling
//! [`PolygraphSystem::infer_counted`] on the same images in submission
//! order: batching and sharding only regroup work, never reorder the fold,
//! a run decides exactly what its requests decided one at a time give,
//! and a system decided in order runs each batch as one run on one
//! replica. Deadline-expired requests are the one (documented, surfaced)
//! exception — their verdict depends on how much budget was left.
//!
//! ## Observability
//!
//! The serve loop reports into [`pgmr_obs::global`]: `serve.queue_depth`
//! (gauge), `serve.batch_size` (histogram), `serve.latency_ns` (timer:
//! deterministic snapshots keep only its count; p50/p99 come from the
//! bench harness's exact per-request samples),
//! `serve.batches_total`, `serve.submitted_total`, `serve.completed_total`,
//! `serve.deadline_miss_total`, and `serve.deadline_degraded_total`. The
//! handles are resolved once, at spawn, so neither `submit` nor the fold
//! looks a metric up by name.
//!
//! ## Example
//!
//! ```no_run
//! use pgmr_serve::{ServeConfig, ServeHandle};
//! use polygraph_mr::prelude::*;
//! use std::time::Duration;
//!
//! let bench = suite::Benchmark::lenet5_digits(suite::Scale::Tiny);
//! let built = builder::SystemBuilder::new(&bench).max_networks(3).build(7);
//! let mut system = built.system;
//! system.enable_staged(vec![0, 1, 2]);
//!
//! let handle = ServeHandle::spawn(&system, ServeConfig::default());
//! let test = bench.dataset.generate(pgmr_datasets::Split::Test, 10);
//! for img in test.images() {
//!     handle.submit(img.clone(), Some(Duration::from_millis(5)));
//! }
//! for done in handle.drain(test.len()) {
//!     println!("{:?} degraded={}", done.decision.verdict, done.deadline_degraded);
//! }
//! handle.shutdown();
//! ```

use pgmr_nn::pool::{shard_ranges, WorkerPool};
use pgmr_obs::{Counter, Gauge, Histogram};
use pgmr_tensor::Tensor;
use polygraph_mr::rade::{BudgetedDecision, StagedDecision};
use polygraph_mr::stream::{ReliabilityMonitor, StreamHealth};
use polygraph_mr::{FaultEvent, PolygraphSystem};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Diagnostic for a poisoned serve mutex: a panic inside the serve loop
/// already tore the front-end down, so the lock holder died mid-update.
const POISONED: &str = "serve shared-state mutex poisoned";

/// Configuration of the serving front-end.
///
/// Admission has no delay knob: the batcher never waits for a batch to
/// fill. It runs one batch at a time, so every worker is idle while it
/// waits. Under load the requests queued behind a running batch already
/// fill the next one, and at light load a wait would add its whole length
/// to a lone request's latency to share part of one batched forward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Largest batch one admission step may take from the queue. Under
    /// load, when more requests wait than this, batches close on size.
    pub max_batch: usize,
    /// Inference worker threads. The front-end owns a dedicated
    /// [`WorkerPool`] of this width plus one batcher thread; it never
    /// submits into the shared global pool (nested `run` calls against
    /// one pool can deadlock). A system that
    /// [decides in order](PolygraphSystem::decides_in_order) runs on one
    /// worker whatever this says.
    pub workers: usize,
    /// Sliding window of the stream-health monitor fed by the serve loop.
    pub monitor_window: usize,
    /// Validation-time unreliable-flag rate the monitor's alarm threshold
    /// is calibrated from (margin 3×, floored at
    /// [`ReliabilityMonitor::DEFAULT_MIN_ALARM_RATE`]).
    pub expected_flag_rate: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { max_batch: 8, workers: 2, monitor_window: 64, expected_flag_rate: 0.0 }
    }
}

/// Identifier of one submitted request, unique within a front-end and
/// increasing in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// The finished outcome of one request, delivered on the reply channel it
/// was submitted with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The id [`Submitter::submit`] returned for this request.
    pub id: RequestId,
    /// Verdict plus activation cost.
    pub decision: StagedDecision,
    /// The deadline budget expired before the staged protocol finished:
    /// the verdict is the best-so-far plurality over the members that did
    /// run, not the full staged outcome.
    pub deadline_degraded: bool,
    /// The request finished after its deadline. Every degraded completion
    /// is also a miss; a non-degraded completion can still miss when the
    /// answer arrived late.
    pub deadline_missed: bool,
    /// Submission-to-completion latency.
    pub latency: Duration,
}

/// Aggregate front-end statistics, snapshot via [`ServeHandle::stats`] and
/// returned by [`ServeHandle::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Largest batch any admission step collected.
    pub max_batch_observed: u64,
    /// Completions that finished past their deadline (degraded ones
    /// included).
    pub deadline_missed: u64,
    /// Completions whose staged protocol was cut short by the deadline.
    pub deadline_degraded: u64,
    /// Total member activations across all completions — divide by
    /// `completed` for the mean ensemble cost per request.
    pub activated_members: u64,
}

/// What the fold needs of a queued request besides its image.
struct Ticket {
    id: RequestId,
    submitted: Instant,
    deadline: Option<Instant>,
    reply: Sender<Completion>,
}

/// The admitted batch, reused across batches: the images, so that a
/// shard's requests are one contiguous run, and their tickets, index
/// for index.
#[derive(Default)]
struct Batch {
    images: Vec<Tensor>,
    tickets: Vec<Ticket>,
}

impl Batch {
    fn push(&mut self, image: Tensor, ticket: Ticket) {
        self.images.push(image);
        self.tickets.push(ticket);
    }
}

/// Queue messages: requests, plus the shutdown marker that lets
/// [`ServeHandle::shutdown`] terminate the batcher even while submitter
/// clones are still alive elsewhere.
enum Envelope {
    Request { image: Tensor, ticket: Ticket },
    Shutdown,
}

/// State shared between submitters, the batcher, and the handle. The
/// per-request counters are atomics, so `submit` takes no lock; they
/// publish no other data (the request itself travels through the
/// channel), so `Relaxed` suffices. The aggregate stats and the stream
/// health are mutex-guarded and written by the fold once per batch.
struct Shared {
    next_id: AtomicU64,
    /// Requests admitted but not yet dispatched.
    queue_depth: AtomicU64,
    /// Requests accepted; [`ServeHandle::stats`] merges it into `stats`.
    submitted: AtomicU64,
    stats: Mutex<ServeStats>,
    health: Mutex<StreamHealth>,
    metrics: Metrics,
}

impl Shared {
    /// The aggregate statistics with the submitted count merged in. Every
    /// submit a completion counts happened before that completion's fold
    /// released the stats lock, so `submitted >= completed` holds.
    fn stats(&self) -> ServeStats {
        let stats = *self.stats.lock().expect(POISONED);
        ServeStats { submitted: self.submitted.load(Ordering::Relaxed), ..stats }
    }
}

/// The `serve.*` metric handles, resolved once at spawn. The registry
/// zeroes metrics in place on reset, so cached handles stay wired to it.
struct Metrics {
    /// A recent sample of the queue depth: submitters and the batcher each
    /// set it after their own update, so it can briefly lag the count.
    queue_depth: Arc<Gauge>,
    submitted: Arc<Counter>,
    batches: Arc<Counter>,
    batch_size: Arc<Histogram>,
    latency: Arc<Histogram>,
    completed: Arc<Counter>,
    deadline_miss: Arc<Counter>,
    deadline_degraded: Arc<Counter>,
}

impl Metrics {
    fn resolve() -> Self {
        let obs = pgmr_obs::global();
        Metrics {
            queue_depth: obs.gauge("serve.queue_depth"),
            submitted: obs.counter("serve.submitted_total"),
            batches: obs.counter("serve.batches_total"),
            batch_size: obs.histogram("serve.batch_size"),
            latency: obs.timer("serve.latency_ns"),
            completed: obs.counter("serve.completed_total"),
            deadline_miss: obs.counter("serve.deadline_miss_total"),
            deadline_degraded: obs.counter("serve.deadline_degraded_total"),
        }
    }
}

/// A cloneable submission endpoint. Clients on any thread submit through
/// their own clone; each request carries the reply channel its completion
/// comes back on.
#[derive(Clone)]
pub struct Submitter {
    sender: Sender<Envelope>,
    shared: Arc<Shared>,
}

impl Submitter {
    /// Enqueues one classification request. `deadline` is a relative
    /// budget measured from now; `None` means unbounded. The completion
    /// arrives on `reply`.
    ///
    /// # Panics
    ///
    /// Panics if the front-end has been shut down.
    pub fn submit(
        &self,
        image: Tensor,
        deadline: Option<Duration>,
        reply: &Sender<Completion>,
    ) -> RequestId {
        let submitted = Instant::now();
        let shared = &*self.shared;
        let id = RequestId(shared.next_id.fetch_add(1, Ordering::Relaxed));
        let depth = shared.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        shared.metrics.queue_depth.set(depth as f64);
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        shared.metrics.submitted.inc();
        let ticket = Ticket {
            id,
            submitted,
            deadline: deadline.map(|d| submitted + d),
            reply: reply.clone(),
        };
        self.sender
            .send(Envelope::Request { image, ticket })
            .expect("request submitted to a shut-down serve front-end");
        id
    }
}

/// A running serving front-end: the submission endpoint, the default
/// completion channel for requests submitted through the handle, and the
/// batcher thread's lifecycle.
pub struct ServeHandle {
    submitter: Submitter,
    reply: Sender<Completion>,
    completions: Receiver<Completion>,
    batcher: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Starts a front-end serving clones of `system`, one per worker, each
    /// deciding its shard of every batch as one run. With
    /// RADE and no fault policy the staged engine is the deadline policy;
    /// any other system runs every active member on every request, and
    /// deadlines then only mark completions missed, never degraded. A
    /// system that [decides in order](PolygraphSystem::decides_in_order)
    /// gets one replica and one worker, so its verdicts and quarantines
    /// follow sequential [`PolygraphSystem::infer_counted`].
    ///
    /// The system itself is only read; it stays usable (e.g. as the
    /// bit-identical sequential reference in tests).
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` is zero.
    pub fn spawn(system: &PolygraphSystem, config: ServeConfig) -> ServeHandle {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        let workers = if system.decides_in_order() { 1 } else { config.workers.max(1) };
        let replicas = (0..workers).map(|_| system.clone()).collect();
        let monitor =
            ReliabilityMonitor::calibrated(config.monitor_window, config.expected_flag_rate, 3.0);
        let shared = Arc::new(Shared {
            next_id: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            stats: Mutex::new(ServeStats::default()),
            health: Mutex::new(StreamHealth::WarmingUp),
            metrics: Metrics::resolve(),
        });
        let (sender, receiver) = channel();
        let engine = BatchEngine {
            receiver,
            replicas,
            pool: WorkerPool::new(workers),
            monitor,
            shared: Arc::clone(&shared),
            max_batch: config.max_batch,
            batch: Batch::default(),
            outcomes: Vec::new(),
        };
        let batcher = std::thread::Builder::new()
            .name("pgmr-serve-batcher".into())
            .spawn(move || engine.run())
            .expect("spawn serve batcher thread");
        let (reply, completions) = channel();
        ServeHandle {
            submitter: Submitter { sender, shared: Arc::clone(&shared) },
            reply,
            completions,
            batcher: Some(batcher),
            shared,
        }
    }

    /// Submits one request whose completion comes back through this
    /// handle's own channel ([`ServeHandle::drain`] /
    /// [`ServeHandle::try_drain`]). See [`Submitter::submit`].
    pub fn submit(&self, image: Tensor, deadline: Option<Duration>) -> RequestId {
        self.submitter.submit(image, deadline, &self.reply)
    }

    /// A cloneable submission endpoint for client threads. Completions for
    /// requests submitted through it go to the per-call reply channel, not
    /// to this handle's drain.
    pub fn submitter(&self) -> Submitter {
        self.submitter.clone()
    }

    /// Collects every already-delivered completion for handle-submitted
    /// requests, without blocking. Completions arrive in submission order.
    pub fn try_drain(&self) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Ok(done) = self.completions.try_recv() {
            out.push(done);
        }
        out
    }

    /// Blocks until `n` completions for handle-submitted requests have
    /// arrived (in submission order) and returns them. Fewer come back
    /// only if the front-end dies first.
    pub fn drain(&self, n: usize) -> Vec<Completion> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.completions.recv() {
                Ok(done) => out.push(done),
                Err(_) => break,
            }
        }
        out
    }

    /// Live stream health as judged by the serve loop's monitor.
    pub fn health(&self) -> StreamHealth {
        *self.shared.health.lock().expect(POISONED)
    }

    /// Requests admitted but not yet dispatched.
    pub fn queue_depth(&self) -> u64 {
        self.shared.queue_depth.load(Ordering::Relaxed)
    }

    /// Snapshot of the aggregate statistics.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Stops the front-end: already-queued requests are answered, the
    /// batcher and its worker pool are joined, and the final statistics
    /// returned. Requests submitted through outstanding [`Submitter`]
    /// clones after shutdown panic on `submit`.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that killed the batcher thread.
    pub fn shutdown(mut self) -> ServeStats {
        // A dead batcher has already dropped the receiver; the join below
        // still re-raises its panic.
        let _ = self.submitter.sender.send(Envelope::Shutdown);
        let batcher = self.batcher.take().expect("batcher joined exactly once");
        if let Err(payload) = batcher.join() {
            std::panic::resume_unwind(payload);
        }
        self.shared.stats()
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        if let Some(batcher) = self.batcher.take() {
            let _ = self.submitter.sender.send(Envelope::Shutdown);
            // Swallow a batcher panic: drop must not double-panic. Use
            // `shutdown` to observe it.
            let _ = batcher.join();
        }
    }
}

/// The batcher: admission plus batch dispatch, running on the dedicated
/// serve thread.
struct BatchEngine {
    receiver: Receiver<Envelope>,
    /// One system replica per worker (one for a system decided in order);
    /// forward passes are deterministic, so replicas answer identically.
    replicas: Vec<PolygraphSystem>,
    pool: WorkerPool,
    monitor: ReliabilityMonitor,
    shared: Arc<Shared>,
    max_batch: usize,
    /// The admitted batch, reused across batches.
    batch: Batch,
    /// Per-request outcome and finish time, index-aligned with `batch`;
    /// each shard job fills its own slice. Reused across batches.
    outcomes: Vec<Option<(BudgetedDecision, Instant)>>,
}

impl BatchEngine {
    fn run(mut self) {
        loop {
            let open = admit(&self.receiver, self.max_batch, &mut self.batch);
            if !self.batch.tickets.is_empty() {
                self.process();
            }
            if !open {
                break;
            }
        }
    }

    /// Dispatches the admitted batch across the replicas, notes the
    /// quarantines they logged, and folds the outcomes in submission order
    /// (completion delivery, monitor feed, and stats all follow that
    /// order — the determinism contract).
    fn process(&mut self) {
        let n = self.batch.tickets.len();
        let metrics = &self.shared.metrics;
        let depth = self.shared.queue_depth.fetch_sub(n as u64, Ordering::Relaxed) - n as u64;
        metrics.queue_depth.set(depth as f64);
        metrics.batches.inc();
        metrics.batch_size.record(n as u64);

        // Shard the batch across the replicas; each shard is one run of
        // its requests on its own replica, under each request's deadline,
        // and writes its own slice of `outcomes`, so the slots in order
        // reproduce the sequential fold exactly.
        self.outcomes.clear();
        self.outcomes.resize(n, None);
        let mut slots = &mut self.outcomes[..];
        let jobs: Vec<_> = shard_ranges(n, self.replicas.len())
            .zip(self.replicas.iter_mut())
            .map(|(range, replica)| {
                let (shard, rest) = std::mem::take(&mut slots).split_at_mut(range.len());
                slots = rest;
                let images = &self.batch.images[range.clone()];
                let tickets = &self.batch.tickets[range];
                move || {
                    let mut shard = shard.iter_mut();
                    let may_escalate =
                        |i: usize, _| tickets[i].deadline.is_none_or(|d| Instant::now() < d);
                    replica.decide_run(images, None, may_escalate, |out| {
                        *shard.next().expect("a slot per request") = Some((out, Instant::now()));
                    });
                }
            })
            // pgmr-lint: allow(hot-path-alloc): the job list `WorkerPool::run` takes by value, one entry per replica shard
            .collect();
        // pgmr-lint: allow(nested-pool-run): false cross-crate edge — polygraph-mr does not depend on pgmr-serve, so no core job closure can reach this dedicated-pool dispatch
        self.pool.run(jobs);
        self.batch.images.clear();

        // Only a replica under a fault policy logs events; its quarantines
        // reach the monitor before this batch's verdicts do.
        for replica in &mut self.replicas {
            for event in replica.drain_fault_events() {
                if let FaultEvent::Quarantined { member, .. } = event {
                    self.monitor.note_quarantine(member);
                }
            }
        }

        // Both locks are held across the fold, so a client that has its
        // completion sees stats and health that already count it.
        let mut stats = self.shared.stats.lock().expect(POISONED);
        let mut health = self.shared.health.lock().expect(POISONED);
        stats.batches += 1;
        stats.max_batch_observed = stats.max_batch_observed.max(n as u64);
        for (ticket, slot) in self.batch.tickets.drain(..).zip(&mut self.outcomes) {
            let (out, finished) = slot.take().expect("every shard job fills its slots");
            let degraded = out.budget_exhausted;
            let missed = degraded || ticket.deadline.is_some_and(|d| finished > d);
            let latency = finished.duration_since(ticket.submitted);
            metrics.latency.record(latency.as_nanos() as u64);
            metrics.completed.inc();
            if missed {
                metrics.deadline_miss.inc();
            }
            if degraded {
                metrics.deadline_degraded.inc();
            }
            stats.completed += 1;
            stats.activated_members += out.decision.activated as u64;
            stats.deadline_missed += u64::from(missed);
            stats.deadline_degraded += u64::from(degraded);
            self.monitor.observe(&out.decision.verdict);
            // A client that dropped its reply receiver forfeits the
            // answer; the front-end keeps serving.
            let _ = ticket.reply.send(Completion {
                id: ticket.id,
                decision: out.decision,
                deadline_degraded: degraded,
                deadline_missed: missed,
                latency,
            });
        }
        *health = self.monitor.health();
    }
}

/// One admission step: blocks for the first arrival, then takes only what
/// is already queued, up to `max_batch` requests in all, into `batch`. It
/// never waits for a batch to fill, so a lone request dispatches at once
/// and later arrivals form the next batch. Returns `false` once the
/// shutdown marker (or a disconnected queue) is reached; the requests
/// admitted ahead of it are still in `batch`.
fn admit(receiver: &Receiver<Envelope>, max_batch: usize, batch: &mut Batch) -> bool {
    batch.images.clear();
    batch.tickets.clear();
    match receiver.recv() {
        Ok(Envelope::Request { image, ticket }) => batch.push(image, ticket),
        Ok(Envelope::Shutdown) | Err(_) => return false,
    }
    while batch.tickets.len() < max_batch {
        match receiver.try_recv() {
            Ok(Envelope::Request { image, ticket }) => batch.push(image, ticket),
            Ok(Envelope::Shutdown) | Err(TryRecvError::Disconnected) => return false,
            Err(TryRecvError::Empty) => break,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, reply: &Sender<Completion>) -> Envelope {
        let submitted = Instant::now();
        let ticket = Ticket { id: RequestId(id), submitted, deadline: None, reply: reply.clone() };
        Envelope::Request { image: Tensor::zeros(vec![1]), ticket }
    }

    fn ids(batch: &Batch) -> Vec<u64> {
        assert_eq!(batch.images.len(), batch.tickets.len(), "an image per ticket");
        batch.tickets.iter().map(|t| t.id.0).collect()
    }

    #[test]
    fn admission_takes_only_what_is_already_queued() {
        const MAX_BATCH: usize = 4;
        let (reply, _completions) = channel();
        for k in [0u64, 1, 3, 4, 9] {
            // The first arrival plus k requests already queued behind it.
            // The sender stays alive throughout, so an admission step that
            // waited for more arrivals would block here.
            let (sender, receiver) = channel();
            for id in 0..=k {
                sender.send(request(id, &reply)).unwrap();
            }
            let mut batch = Batch::default();
            let mut next = 0;
            while next <= k {
                let take = (k + 1 - next).min(MAX_BATCH as u64);
                assert!(admit(&receiver, MAX_BATCH, &mut batch), "no shutdown was queued");
                // Whatever the step left stays queued, in order, for the
                // next batch.
                assert_eq!(ids(&batch), (next..next + take).collect::<Vec<_>>(), "k = {k}");
                next += take;
            }
            assert!(matches!(receiver.try_recv(), Err(TryRecvError::Empty)), "k = {k}");
        }
    }

    #[test]
    fn queued_shutdown_stops_admission() {
        let (reply, _completions) = channel();
        let (sender, receiver) = channel();
        sender.send(request(0, &reply)).unwrap();
        sender.send(request(1, &reply)).unwrap();
        sender.send(Envelope::Shutdown).unwrap();
        sender.send(request(2, &reply)).unwrap();
        let mut batch = Batch::default();
        // The requests ahead of the marker still form the last batch.
        assert!(!admit(&receiver, 8, &mut batch));
        assert_eq!(ids(&batch), [0, 1]);

        // A marker as the first arrival stops with nothing to dispatch.
        let (sender, receiver) = channel();
        sender.send(Envelope::Shutdown).unwrap();
        assert!(!admit(&receiver, 8, &mut batch));
        assert!(batch.tickets.is_empty() && batch.images.is_empty());
    }
}
