//! The serve load generators: eight open-loop cameras (`serve_light`) and
//! one closed-loop client keeping 16 requests in flight
//! (`serve_saturated`), both through `pgmr-serve`'s public API and both
//! on the calling thread alone.

use pgmr_serve::{Completion, Submitter};
use pgmr_tensor::Tensor;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use crate::clock;
use crate::inputs::Frame;
use crate::meter::Meter;
use crate::trace::{root_id, Trace};

/// Per-request deadline: generous, so only a stall misses it.
pub const DEADLINE: Duration = Duration::from_millis(500);

/// How long the harness waits for a completion before declaring the rest
/// lost.
const LOST_AFTER: Duration = Duration::from_secs(10);

/// Head start between issuing the schedule and its first due frame.
const LEAD: Duration = Duration::from_millis(20);

/// Everything one load phase observed, indexed by request.
pub struct Load {
    /// Request `i`'s Test-split sample.
    pub samples: Vec<usize>,
    /// When request `i` was due (open loop) or issued (closed loop).
    pub due: Vec<Instant>,
    /// When `Submitter::submit` was called for request `i`.
    pub submitted: Vec<Instant>,
    /// When, and with what, each request completed.
    pub received: Received,
    /// Spans recorded while the load ran (traced phases only).
    pub trace: Option<Trace>,
}

impl Load {
    /// Buffers for `samples.len()` requests, allocated and written before
    /// the measured phase so their pages are resident beforehand.
    pub fn new(samples: Vec<usize>, traced: bool) -> Self {
        let n = samples.len();
        let origin = clock::now();
        Load {
            samples,
            due: vec![origin; n],
            submitted: vec![origin; n],
            received: Received { slots: vec![None; n], ..Received::default() },
            trace: traced.then(|| Trace::new(origin, 1, n)),
        }
    }

    /// Requests issued.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Request `i`'s latency from due (or issue) time to receipt.
    pub fn latency(&self, i: usize) -> Option<Duration> {
        self.received.slots[i].map(|(at, _)| at.saturating_duration_since(self.due[i]))
    }

    /// Submits request `i` (the image copy is the one harness allocation
    /// per request that `submit`'s by-value API forces).
    fn submit(
        &mut self,
        submitter: &Submitter,
        reply: &Sender<Completion>,
        images: &[Tensor],
        i: usize,
    ) {
        let image = images[self.samples[i]].clone();
        let start = clock::now();
        submitter.submit(image, Some(DEADLINE), reply);
        self.submitted[i] = start;
        if let Some(trace) = &mut self.trace {
            trace.child("serve.submit", root_id(i as u64), i as u64, start, clock::now());
        }
    }
}

/// Completions of one phase, keyed by request id minus the phase's
/// first id.
#[derive(Default)]
pub struct Received {
    /// When, and with what, request `i` completed.
    pub slots: Vec<Option<(Instant, Completion)>>,
    /// Completions for a request that had already completed.
    pub duplicates: u64,
    /// Completions whose id names no request of this phase.
    pub strays: u64,
    /// Requests completed.
    pub got: usize,
}

impl Received {
    fn record(&mut self, base: u64, done: Completion, at: Instant) {
        match done.id.0.checked_sub(base).and_then(|i| self.slots.get_mut(i as usize)) {
            Some(slot @ None) => {
                *slot = Some((at, done));
                self.got += 1;
            }
            Some(Some(_)) => self.duplicates += 1,
            None => self.strays += 1,
        }
    }

    /// Waits for the next completion; false once none came for
    /// [`LOST_AFTER`].
    fn next(&mut self, completions: &Receiver<Completion>, base: u64) -> bool {
        match completions.recv_timeout(LOST_AFTER) {
            Ok(done) => {
                self.record(base, done, clock::now());
                true
            }
            Err(_) => false,
        }
    }

    /// Records completions until `upto` requests have completed, or none
    /// came for [`LOST_AFTER`].
    fn drain(&mut self, completions: &Receiver<Completion>, base: u64, upto: usize) {
        while self.got < upto && self.next(completions, base) {}
    }

    /// Records completions until `until`.
    fn collect_until(&mut self, completions: &Receiver<Completion>, base: u64, until: Instant) {
        loop {
            let wait = until.saturating_duration_since(clock::now());
            if wait.is_zero() {
                return;
            }
            match completions.recv_timeout(wait) {
                Ok(done) => self.record(base, done, clock::now()),
                Err(_) => return,
            }
        }
    }
}

/// A measured load phase: its meter, and untimed work to run at the start
/// of every `every`-th window after the first, once every request issued
/// so far has completed.
pub struct Timed<'a> {
    /// Marks the phase's windows.
    pub meter: &'a mut Meter,
    /// The untimed work.
    pub between: &'a mut dyn FnMut(),
    /// Windows from one run of the untimed work to the next.
    pub every: usize,
}

impl Timed<'_> {
    /// Before issuing request `i` of `n`: when `i` opens a window that
    /// runs the untimed work, waits for every earlier request, pauses the
    /// meter and runs it; then marks the window. Returns how long it
    /// paused.
    fn before(
        &mut self,
        i: usize,
        n: usize,
        received: &mut Received,
        completions: &Receiver<Completion>,
        base: u64,
    ) -> Duration {
        let start = clock::now();
        let every = self.every.max(1);
        let paused = self.meter.opens(i, n).is_some_and(|w| w > 0 && w % every == 0);
        if paused {
            received.drain(completions, base, i);
            self.meter.pause();
            (self.between)();
        }
        self.meter.before(i, n);
        if paused {
            clock::now().saturating_duration_since(start)
        } else {
            Duration::ZERO
        }
    }
}

/// Open loop: request `i` is submitted at its frame's due time whatever
/// the server is doing; between frames the calling thread records
/// completions. At a window boundary the schedule is shifted by the
/// pause. `base` is the id the front end will give the first request.
pub fn open_loop(
    submitter: &Submitter,
    base: u64,
    images: &[Tensor],
    frames: &[Frame],
    load: &mut Load,
    mut timed: Timed<'_>,
) {
    let (reply, completions) = channel();
    let n = frames.len();
    let origin = clock::now() + LEAD;
    for (due, f) in load.due.iter_mut().zip(frames) {
        *due = origin + Duration::from_nanos(f.due_ns);
    }
    for i in 0..n {
        let pause = timed.before(i, n, &mut load.received, &completions, base);
        if !pause.is_zero() {
            for due in &mut load.due[i..] {
                *due += pause;
            }
        }
        load.received.collect_until(&completions, base, load.due[i]);
        load.submit(submitter, &reply, images, i);
    }
    load.received.drain(&completions, base, n);
}

/// Closed loop: `in_flight` requests outstanding; each completion
/// triggers the next submit, all on the calling thread. Latency runs
/// from each request's submit.
pub fn closed_loop(
    submitter: &Submitter,
    base: u64,
    images: &[Tensor],
    in_flight: usize,
    load: &mut Load,
    mut timed: Option<Timed<'_>>,
) {
    let (reply, completions) = channel();
    let n = load.len();
    let mut next = 0;
    while next < n {
        if next - load.received.got < in_flight {
            if let Some(t) = &mut timed {
                t.before(next, n, &mut load.received, &completions, base);
            }
            load.submit(submitter, &reply, images, next);
            next += 1;
        } else if !load.received.next(&completions, base) {
            break;
        }
    }
    load.received.drain(&completions, base, n);
    load.due.copy_from_slice(&load.submitted);
}
