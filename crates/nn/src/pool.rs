//! The workspace's shared worker pool: persistent threads, a channel-fed
//! job queue, and scoped batch submission.
//!
//! [`WorkerPool`] owns a fixed set of long-lived worker threads draining a
//! single job queue. [`WorkerPool::run`] submits a batch of closures —
//! which may borrow from the caller's stack — blocks until every job has
//! finished, and returns the results in submission order. A panic inside a
//! job is caught on the worker (which survives and keeps serving the
//! queue) and re-raised on the submitting thread, so a poisoned job cannot
//! strand the pool.
//!
//! ## Determinism contract
//!
//! A job's output never depends on which worker ran it or on the pool
//! width: `run` returns exactly what executing the jobs sequentially in
//! submission order would return. Every parallel path in the workspace
//! (ensemble training, batch evaluation, fault campaigns) leans on this —
//! parallel results are bit-identical to sequential ones. The contract
//! covers panic semantics too: *every* job in a batch runs to completion
//! (so side effects are width-independent) and the earliest-submitted
//! panic is re-raised afterwards, whether the batch ran inline or on the
//! workers.
//!
//! ## Sizing
//!
//! The process-wide pool from [`global`] is sized once, at first use, from
//! [`configured_threads`]: an explicit [`set_thread_override`] wins, then
//! the `PGMR_THREADS` environment variable, then the host's available
//! parallelism. The override is a mutex-guarded cell rather than
//! `std::env::set_var` (unsound with concurrent env reads); call it before
//! the pool's first use — later calls cannot resize an already-built
//! global pool. Code that needs a specific width builds its own
//! [`WorkerPool`].
//!
//! Jobs must not submit nested batches to the *same* pool: a job blocking
//! on `run` against the pool executing it can deadlock once every worker
//! is parked the same way. Nested work belongs in a separate pool or
//! inline in the job.
//!
//! ## Instrumentation
//!
//! Every batch reports into [`pgmr_obs::global`]: `pool.batches_total`,
//! `pool.jobs_total` / `pool.jobs_inline_total`, queue-wait and job-run
//! latency histograms (`pool.queue_wait_ns`, `pool.job_run_ns`), and
//! per-worker utilization counters (`pool.worker.{i}.jobs_total` —
//! scheduling-dependent, excluded from deterministic snapshots).

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

thread_local! {
    /// The worker's index within its pool, for per-worker utilization
    /// accounting; `usize::MAX` on non-worker threads.
    static WORKER_ID: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// A type-erased unit of work queued to the workers.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared completion state for one `run` batch: slot-addressed results
/// plus a countdown the caller blocks on.
struct Batch<T> {
    results: Mutex<Vec<Option<std::thread::Result<T>>>>,
    remaining: Mutex<usize>,
    done: Condvar,
}

/// A fixed-width pool of persistent worker threads.
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("pgmr-worker-{i}"))
                    .spawn(move || worker_loop(i, &receiver))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { sender: Some(sender), workers }
    }

    /// The pool's worker-thread count.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `jobs` on the workers and returns their outputs in submission
    /// order. Blocks until every job has completed. Jobs may borrow from
    /// the caller's stack; single-threaded pools (and empty batches) run
    /// inline with identical results.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the earliest-submitted panicking job, after
    /// every job in the batch has finished.
    // pgmr-lint: boundary(hot-path-alloc): dispatch marshalling (job boxes, result slots) is per-batch, not per-image; the jobs themselves are rooted separately via Network::run and Layer::forward_into
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let obs = pgmr_obs::global();
        obs.counter("pool.batches_total").inc();
        if self.threads() == 1 || n == 1 {
            // The inline path mirrors the pooled path's panic semantics
            // exactly: every job runs (a panicking job must not starve the
            // ones submitted after it — side effects are width-independent)
            // and the earliest-submitted panic is re-raised at the end.
            // `pool.job_run_ns` is recorded per job for obs parity.
            obs.counter("pool.jobs_inline_total").add(n as u64);
            let mut out = Vec::with_capacity(n);
            let mut first_panic = None;
            for job in jobs {
                let run_span = obs.span("pool.job_run_ns");
                let result = catch_unwind(AssertUnwindSafe(job));
                run_span.finish();
                match result {
                    Ok(v) => out.push(v),
                    Err(payload) => {
                        if first_panic.is_none() {
                            first_panic = Some(payload);
                        }
                    }
                }
            }
            if let Some(payload) = first_panic {
                resume_unwind(payload);
            }
            return out;
        }
        let batch: Arc<Batch<T>> = Arc::new(Batch {
            results: Mutex::new((0..n).map(|_| None).collect()),
            remaining: Mutex::new(n),
            done: Condvar::new(),
        });
        let sender = self.sender.as_ref().expect("pool is live while not dropped");
        for (slot, job) in jobs.into_iter().enumerate() {
            let batch = Arc::clone(&batch);
            // Started here, finished on the worker: the span's lifetime IS
            // the queue wait.
            let queue_span = obs.span("pool.queue_wait_ns");
            let task = move || {
                let obs = pgmr_obs::global();
                queue_span.finish();
                obs.counter("pool.jobs_total").inc();
                let worker = WORKER_ID.with(Cell::get);
                if worker != usize::MAX {
                    obs.counter(&format!("pool.worker.{worker}.jobs_total")).inc();
                }
                let run_span = obs.span("pool.job_run_ns");
                let out = catch_unwind(AssertUnwindSafe(job));
                run_span.finish();
                batch.results.lock().expect("pool batch results mutex poisoned")[slot] = Some(out);
                let mut left = batch.remaining.lock().expect("pool batch countdown mutex poisoned");
                *left -= 1;
                if *left == 0 {
                    batch.done.notify_all();
                }
            };
            // SAFETY: the job queue demands 'static closures but `task`
            // may borrow from this stack frame (through `job`) and carries
            // the non-'static type parameter `T`. Erasing the lifetime is
            // sound because this call does not return until `remaining`
            // hits 0, and a worker only decrements `remaining` after the
            // borrowed-data-touching part of the task (the job itself,
            // panic or not) has fully finished. After the decrement the
            // task touches nothing but its own `Arc<Batch<T>>`, whose `T`
            // payload the caller drains before returning, so a straggling
            // worker can at most drop an empty, payload-free `Batch`.
            let task: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(Box::new(task))
            };
            sender.send(task).expect("worker pool accepts jobs while live");
        }
        let mut left = batch.remaining.lock().expect("pool batch countdown mutex poisoned");
        while *left > 0 {
            left = batch.done.wait(left).expect("pool batch countdown mutex poisoned");
        }
        drop(left);

        let slots =
            std::mem::take(&mut *batch.results.lock().expect("pool batch results mutex poisoned"));
        let mut out = Vec::with_capacity(n);
        let mut first_panic = None;
        for slot in slots {
            match slot.expect("every job reports a result") {
                Ok(v) => out.push(v),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel wakes every idle worker with a recv error.
        self.sender = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(index: usize, receiver: &Mutex<Receiver<Job>>) {
    WORKER_ID.with(|id| id.set(index));
    loop {
        // Hold the lock only for the dequeue, not while running the job.
        let job = match receiver.lock().expect("pool job-queue mutex poisoned").recv() {
            Ok(job) => job,
            Err(_) => break, // pool dropped
        };
        job();
    }
}

/// Process-wide worker-count override, set via [`set_thread_override`]
/// (normally through the suite config). Mutex-guarded instead of mutating
/// `PGMR_THREADS`: `std::env::set_var` is unsound with concurrent
/// environment reads.
static THREAD_OVERRIDE: Mutex<Option<usize>> = Mutex::new(None);

/// Overrides the worker-thread count that [`configured_threads`] resolves,
/// process-wide and thread-safe. `None` restores the default resolution
/// (`PGMR_THREADS`, then the host's available parallelism). Takes effect
/// on the shared [`global`] pool only if called before its first use.
pub fn set_thread_override(threads: Option<usize>) {
    *THREAD_OVERRIDE.lock().expect("thread-override mutex poisoned") = threads.map(|t| t.max(1));
}

/// The worker-thread count for new pools: the [`set_thread_override`]
/// value, else a positive `PGMR_THREADS` environment variable, else the
/// host's available parallelism (1 when unknown).
pub fn configured_threads() -> usize {
    if let Some(t) = *THREAD_OVERRIDE.lock().expect("thread-override mutex poisoned") {
        return t;
    }
    if let Ok(raw) = std::env::var("PGMR_THREADS") {
        if let Ok(t) = raw.trim().parse::<usize>() {
            if t > 0 {
                return t;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The process-wide shared pool, built on first use at
/// [`configured_threads`] width and kept alive for the process lifetime.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool = WorkerPool::new(configured_threads());
        pgmr_obs::global().gauge("pool.threads").set(pool.threads() as f64);
        pool
    })
}

/// Splits `0..len` into at most `shards` contiguous near-equal ranges
/// (longer ranges first, empties dropped) — the standard work split for
/// sharded batch processing: concatenating per-range results in order
/// reproduces the sequential output exactly.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.clamp(1, len.max(1));
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let size = base + usize::from(s < extra);
        if size == 0 {
            break;
        }
        out.push(start..start + size);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<_> = (0..32).map(|i| move || i * i).collect();
        let out = pool.run(jobs);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_may_borrow_the_callers_stack() {
        let pool = WorkerPool::new(3);
        let data: Vec<u64> = (0..100).collect();
        let slices: Vec<&[u64]> = data.chunks(7).collect();
        let jobs: Vec<_> = slices.iter().map(|s| move || s.iter().sum::<u64>()).collect::<Vec<_>>();
        let partials = pool.run(jobs);
        assert_eq!(partials.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn oversubscribed_pool_still_completes() {
        // More workers than jobs: the extra workers idle, nothing hangs.
        let pool = WorkerPool::new(8);
        let jobs: Vec<_> = (0..3).map(|i| move || i + 10).collect();
        assert_eq!(pool.run(jobs), vec![10, 11, 12]);
    }

    #[test]
    fn panics_propagate_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> i32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom in job")), Box::new(|| 3)];
        let caught = catch_unwind(AssertUnwindSafe(|| pool.run(jobs)));
        let payload = caught.expect_err("panic must propagate to the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("boom"), "unexpected payload {msg:?}");
        // The workers caught the panic and keep serving.
        let jobs: Vec<_> = (0..4).map(|i| move || i).collect();
        assert_eq!(pool.run(jobs), vec![0, 1, 2, 3]);
    }

    #[test]
    fn panic_side_effects_are_width_independent() {
        // Regression: the inline path (width 1) used to abort at the first
        // panicking job, so jobs submitted after it never ran — side
        // effects diverged from the pooled path, which runs every job.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let run_ns_before = pgmr_obs::global().timer("pool.job_run_ns").count();
        let mut counts = Vec::new();
        for width in [1usize, 4] {
            let pool = WorkerPool::new(width);
            let ran = AtomicUsize::new(0);
            let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..5)
                .map(|i| {
                    let ran = &ran;
                    Box::new(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                        if i == 2 {
                            panic!("middle job boom");
                        }
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            let payload = catch_unwind(AssertUnwindSafe(|| pool.run(jobs))).unwrap_err();
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("middle job boom"), "unexpected payload {msg:?}");
            counts.push(ran.load(Ordering::SeqCst));
        }
        assert_eq!(counts, vec![5, 5], "every job must run at every width");
        // Obs parity: the inline path records pool.job_run_ns too.
        assert!(pgmr_obs::global().timer("pool.job_run_ns").count() >= run_ns_before + 10);
    }

    #[test]
    fn earliest_submitted_panic_wins_inline_too() {
        // The width-1 inline path shares the earliest-panic contract.
        let pool = WorkerPool::new(1);
        let jobs: Vec<Box<dyn FnOnce() + Send>> =
            vec![Box::new(|| panic!("first")), Box::new(|| panic!("second"))];
        let payload = catch_unwind(AssertUnwindSafe(|| pool.run(jobs))).unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "first");
    }

    #[test]
    fn earliest_submitted_panic_wins() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() + Send>> =
            vec![Box::new(|| panic!("first")), Box::new(|| panic!("second"))];
        let payload = catch_unwind(AssertUnwindSafe(|| pool.run(jobs))).unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "first");
    }

    #[test]
    fn empty_batch_is_empty() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = Vec::new();
        assert!(pool.run(jobs).is_empty());
    }

    #[test]
    fn zero_width_clamps_to_one_worker() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run(vec![|| 7]), vec![7]);
    }

    #[test]
    fn pooled_matches_sequential_bit_for_bit() {
        // The determinism contract: identical outputs at any width.
        let work = |seed: u64| {
            let mut h = seed;
            for _ in 0..1000 {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            }
            h
        };
        let sequential: Vec<u64> = (0..40).map(work).collect();
        for width in [2, 4, 8] {
            let pool = WorkerPool::new(width);
            let jobs: Vec<_> = (0..40).map(|s| move || work(s)).collect();
            assert_eq!(pool.run(jobs), sequential, "width {width} diverged");
        }
    }

    #[test]
    fn shard_ranges_cover_exactly_once() {
        for len in [0usize, 1, 2, 7, 8, 9, 100] {
            for shards in [1usize, 2, 3, 8, 200] {
                let ranges = shard_ranges(len, shards);
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..len).collect::<Vec<_>>(), "len {len} shards {shards}");
                assert!(ranges.len() <= shards.max(1));
                assert!(ranges.iter().all(|r| !r.is_empty()));
            }
        }
    }

    #[test]
    fn pooled_batches_report_job_metrics() {
        // Counters on the global registry only grow, so assert deltas as
        // lower bounds — other tests in this binary add to them too.
        let obs = pgmr_obs::global();
        let jobs_before = obs.counter("pool.jobs_total").get();
        let inline_before = obs.counter("pool.jobs_inline_total").get();
        let pool = WorkerPool::new(4);
        let jobs: Vec<_> = (0..16).map(|i| move || i).collect();
        pool.run(jobs);
        assert!(obs.counter("pool.jobs_total").get() >= jobs_before + 16);
        assert!(obs.timer("pool.queue_wait_ns").count() >= 16);
        // Width-1 pools take the inline path and count separately.
        let solo = WorkerPool::new(1);
        solo.run((0..3).map(|i| move || i).collect::<Vec<_>>());
        assert!(obs.counter("pool.jobs_inline_total").get() >= inline_before + 3);
    }

    #[test]
    fn thread_override_takes_precedence() {
        // Serialized against other override users by being the only such
        // test in this binary.
        set_thread_override(Some(3));
        assert_eq!(configured_threads(), 3);
        set_thread_override(Some(0));
        assert_eq!(configured_threads(), 1, "override clamps to one thread");
        set_thread_override(None);
        assert!(configured_threads() >= 1);
    }
}
