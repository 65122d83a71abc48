//! # pgmr-serve — deadline-aware streaming inference front-end
//!
//! The paper motivates PolygraphMR with streaming, latency-sensitive
//! deployments (pedestrian identification, steering-command generation).
//! This crate is the serving layer for such a deployment: a concurrent
//! request front-end that admits individual classification requests,
//! batches them through a dynamic admission window, dispatches batches
//! onto a dedicated worker pool, and applies the ensemble's RADE staging
//! as a *deadline policy* — stage-1 members always run, reliable answers
//! exit early, and doubtful inputs escalate toward the full ensemble only
//! while the request's deadline budget allows. A request whose budget
//! expires mid-protocol still gets an answer: the best-so-far plurality,
//! marked deadline-degraded.
//!
//! ## Architecture
//!
//! * [`ServeHandle::spawn`] replicates the system's members once per
//!   inference worker (forward passes are deterministic, so replicas
//!   answer bit-identically) and starts one *batcher* thread.
//! * [`ServeHandle::submit`] / [`Submitter::submit`] enqueue requests;
//!   every request carries its own completion channel, so any number of
//!   client threads can submit concurrently and each drains only its own
//!   completions.
//! * The batcher collects an admission window — up to
//!   [`ServeConfig::max_batch`] requests or [`ServeConfig::max_delay`]
//!   after the first arrival, whichever closes first — and dispatches the
//!   batch across the member replicas on a serve-owned
//!   [`WorkerPool`](pgmr_nn::pool::WorkerPool) (dedicated, because nesting
//!   `run` calls into the shared global pool can deadlock).
//! * Each request runs [`polygraph_mr::system::decide_request`]: one
//!   `Member::predict` per activated member (a `Network::run` on the
//!   worker's thread-local workspace arena) under an escalation budget
//!   derived from the request's deadline. Verdicts are folded in
//!   submission order, feeding a [`ReliabilityMonitor`] so stream health
//!   ([`ServeHandle::health`]) reflects live traffic.
//!
//! ## Determinism
//!
//! With open deadlines the served verdicts are bit-identical to calling
//! [`PolygraphSystem::infer_counted`] on the same images in submission
//! order: batching and sharding only regroup work, never reorder the fold.
//! Deadline-expired requests are the one (documented, surfaced) exception
//! — their verdict depends on how much budget was left.
//!
//! ## Observability
//!
//! The serve loop reports into [`pgmr_obs::global`]: `serve.queue_depth`
//! (gauge), `serve.batch_size` (histogram), `serve.latency_ns` (timer:
//! deterministic snapshots keep only its count; p50/p99 come from the
//! bench harness's exact per-request samples),
//! `serve.batches_total`, `serve.submitted_total`, `serve.completed_total`,
//! `serve.deadline_miss_total`, and `serve.deadline_degraded_total`.
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
use pgmr_tensor::Tensor;
use polygraph_mr::ensemble::Member;
use polygraph_mr::rade::{StagedDecision, StagedEngine};
use polygraph_mr::stream::{ReliabilityMonitor, StreamHealth};
use polygraph_mr::system::{decide_request, PolygraphSystem};
use polygraph_mr::Thresholds;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Diagnostic for a poisoned serve mutex: a panic inside the serve loop
/// already tore the front-end down, so the lock holder died mid-update.
const POISONED: &str = "serve shared-state mutex poisoned";

/// Configuration of the serving front-end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Largest batch one admission window may collect.
    pub max_batch: usize,
    /// Longest an admission window stays open after its first arrival
    /// before the (possibly partial) batch dispatches.
    pub max_delay: Duration,
    /// Inference worker threads. The front-end owns a dedicated
    /// [`WorkerPool`] of this width plus one batcher thread; it never
    /// submits into the shared global pool (nested `run` calls against
    /// one pool can deadlock).
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
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            workers: 2,
            monitor_window: 64,
            expected_flag_rate: 0.0,
        }
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
    /// Largest batch any admission window collected.
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

/// One queued request.
struct Request {
    id: RequestId,
    image: Tensor,
    submitted: Instant,
    deadline: Option<Instant>,
    reply: Sender<Completion>,
}

/// Queue messages: requests, plus the shutdown marker that lets
/// [`ServeHandle::shutdown`] terminate the batcher even while submitter
/// clones are still alive elsewhere.
enum Envelope {
    Request(Request),
    Shutdown,
}

/// State shared between submitters, the batcher, and the handle. Plain
/// mutex-guarded values: every access is queue-rate (not per-element), and
/// the lock names the synchronization contract outright.
struct Shared {
    next_id: Mutex<u64>,
    queue_depth: Mutex<u64>,
    stats: Mutex<ServeStats>,
    health: Mutex<StreamHealth>,
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
        let id = {
            let mut next = self.shared.next_id.lock().expect(POISONED);
            let id = RequestId(*next);
            *next += 1;
            id
        };
        let obs = pgmr_obs::global();
        {
            let mut depth = self.shared.queue_depth.lock().expect(POISONED);
            *depth += 1;
            obs.gauge("serve.queue_depth").set(*depth as f64);
        }
        self.shared.stats.lock().expect(POISONED).submitted += 1;
        obs.counter("serve.submitted_total").inc();
        let request = Request {
            id,
            image,
            submitted,
            deadline: deadline.map(|d| submitted + d),
            reply: reply.clone(),
        };
        self.sender
            .send(Envelope::Request(request))
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
    /// Starts a front-end serving `system`'s decision policy: its members
    /// (cloned once per worker), its thresholds, and — when RADE is
    /// enabled — its staged engine as the deadline policy. Without RADE
    /// every member runs on every request (the always-full-ensemble
    /// serving mode); deadlines then only classify completions as missed,
    /// never degrade them.
    ///
    /// The system itself is only read; it stays usable (e.g. as the
    /// bit-identical sequential reference in tests).
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` is zero, the ensemble is empty, a
    /// fault policy is set (serve runs the unguarded inference path), or
    /// any member carries a fault injector (injector RNG streams cannot be
    /// replicated deterministically across workers).
    pub fn spawn(system: &PolygraphSystem, config: ServeConfig) -> ServeHandle {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(
            system.fault_policy().is_none(),
            "serve runs the unguarded inference path — disable the fault policy first"
        );
        let members = system.ensemble().members();
        assert!(!members.is_empty(), "cannot serve an empty ensemble");
        assert!(
            members.iter().all(|m| m.fault_injector().is_none()),
            "members with fault injectors cannot be replicated across serve workers"
        );
        let workers = config.workers.max(1);
        let replicas: Vec<Vec<Member>> = (0..workers).map(|_| members.to_vec()).collect();
        let monitor =
            ReliabilityMonitor::calibrated(config.monitor_window, config.expected_flag_rate, 3.0);
        let shared = Arc::new(Shared {
            next_id: Mutex::new(0),
            queue_depth: Mutex::new(0),
            stats: Mutex::new(ServeStats::default()),
            health: Mutex::new(StreamHealth::WarmingUp),
        });
        let (sender, receiver) = channel();
        let engine = BatchEngine {
            receiver,
            replicas,
            pool: WorkerPool::new(workers),
            staged: system.staged_engine_shared(),
            thresholds: system.thresholds(),
            monitor,
            shared: Arc::clone(&shared),
            max_batch: config.max_batch,
            max_delay: config.max_delay,
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
        *self.shared.queue_depth.lock().expect(POISONED)
    }

    /// Snapshot of the aggregate statistics.
    pub fn stats(&self) -> ServeStats {
        *self.shared.stats.lock().expect(POISONED)
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
        *self.shared.stats.lock().expect(POISONED)
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

/// The batcher: admission-window collection plus batch dispatch, running
/// on the dedicated serve thread.
struct BatchEngine {
    receiver: Receiver<Envelope>,
    /// One member replica set per worker — workers answer bit-identically
    /// because forward passes are deterministic.
    replicas: Vec<Vec<Member>>,
    pool: WorkerPool,
    staged: Option<Arc<StagedEngine>>,
    thresholds: Thresholds,
    monitor: ReliabilityMonitor,
    shared: Arc<Shared>,
    max_batch: usize,
    max_delay: Duration,
}

impl BatchEngine {
    fn run(mut self) {
        loop {
            // Block for the first arrival; it opens the admission window.
            let first = match self.receiver.recv() {
                Ok(Envelope::Request(r)) => r,
                Ok(Envelope::Shutdown) | Err(_) => break,
            };
            // pgmr-lint: allow(hot-path-alloc): per-batch admission buffer on the engine thread — one allocation per batch window, not per image
            let mut batch = vec![first];
            let mut stop = false;
            let window_closes = Instant::now() + self.max_delay;
            while batch.len() < self.max_batch {
                let now = Instant::now();
                if now >= window_closes {
                    break;
                }
                match self.receiver.recv_timeout(window_closes - now) {
                    Ok(Envelope::Request(r)) => batch.push(r),
                    Ok(Envelope::Shutdown) | Err(RecvTimeoutError::Disconnected) => {
                        stop = true;
                        break;
                    }
                    Err(RecvTimeoutError::Timeout) => break,
                }
            }
            self.process(batch);
            if stop {
                break;
            }
        }
    }

    /// Dispatches one batch across the member replicas and folds the
    /// outcomes in submission order (completion delivery, monitor feed,
    /// and stats all follow that order — the determinism contract).
    fn process(&mut self, batch: Vec<Request>) {
        let obs = pgmr_obs::global();
        {
            let mut depth = self.shared.queue_depth.lock().expect(POISONED);
            *depth = depth.saturating_sub(batch.len() as u64);
            obs.gauge("serve.queue_depth").set(*depth as f64);
        }
        obs.counter("serve.batches_total").inc();
        obs.histogram("serve.batch_size").record(batch.len() as u64);

        // Shard the batch across the replicas; each shard runs its
        // requests sequentially on its own member set, so concatenating
        // shard results in order reproduces the sequential fold exactly.
        let staged = self.staged.as_deref();
        let thresholds = self.thresholds;
        let jobs: Vec<_> = shard_ranges(batch.len(), self.replicas.len())
            .into_iter()
            .zip(self.replicas.iter_mut())
            .map(|(range, members)| {
                let requests = &batch[range];
                move || {
                    requests
                        .iter()
                        .map(|r| {
                            let out =
                                decide_request(members, staged, thresholds, &r.image, |_| match r
                                    .deadline
                                {
                                    Some(d) => Instant::now() < d,
                                    None => true,
                                });
                            (out, Instant::now())
                        })
                        // pgmr-lint: allow(hot-path-alloc): per-shard outcome marshalling — one Vec per shard per batch, not per image
                        .collect::<Vec<_>>()
                }
            })
            // pgmr-lint: allow(hot-path-alloc): per-batch job list, bounded by replica count
            .collect();
        // pgmr-lint: allow(nested-pool-run): false cross-crate edge — polygraph-mr does not depend on pgmr-serve, so no core job closure can reach this dedicated-pool dispatch
        // pgmr-lint: allow(hot-path-alloc): per-batch outcome concatenation, bounded by batch size
        let outcomes: Vec<_> = self.pool.run(jobs).into_iter().flatten().collect();

        let mut stats = self.shared.stats.lock().expect(POISONED);
        stats.batches += 1;
        stats.max_batch_observed = stats.max_batch_observed.max(batch.len() as u64);
        for (r, (out, finished)) in batch.into_iter().zip(outcomes) {
            let degraded = out.budget_exhausted;
            let missed = degraded || r.deadline.is_some_and(|d| finished > d);
            let latency = finished.duration_since(r.submitted);
            obs.timer("serve.latency_ns").record(latency.as_nanos() as u64);
            obs.counter("serve.completed_total").inc();
            if missed {
                obs.counter("serve.deadline_miss_total").inc();
            }
            if degraded {
                obs.counter("serve.deadline_degraded_total").inc();
            }
            stats.completed += 1;
            stats.activated_members += out.decision.activated as u64;
            stats.deadline_missed += u64::from(missed);
            stats.deadline_degraded += u64::from(degraded);
            let health = self.monitor.observe(&out.decision.verdict);
            *self.shared.health.lock().expect(POISONED) = health;
            // A client that dropped its reply receiver forfeits the
            // answer; the front-end keeps serving.
            let _ = r.reply.send(Completion {
                id: r.id,
                decision: out.decision,
                deadline_degraded: degraded,
                deadline_missed: missed,
                latency,
            });
        }
    }
}
