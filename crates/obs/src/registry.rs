//! The name → metric registry, span timers, and the process-wide
//! [`global`] instance.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::event::EventLog;
use crate::metric::{Counter, Gauge, Histogram, Unit};
use crate::snapshot::Snapshot;

/// Default retention bound of a registry's event log.
pub(crate) const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// A set of named metrics plus one event log.
///
/// Metric handles are `Arc`s: get-or-create by name, then increment
/// lock-free. Names are dot-namespaced by convention
/// (`subsystem.metric`, e.g. `infer.forward_ns.m0`); two suffix/infix
/// conventions carry semantics — `_ns` histograms hold wall-clock
/// nanoseconds and `.worker.` metrics depend on thread scheduling, and
/// the deterministic snapshot export treats both specially.
#[derive(Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: EventLog,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry with the default event-log capacity.
    pub fn new() -> Self {
        Registry::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An empty registry retaining at most `capacity` events.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            events: EventLog::new(capacity),
        }
    }

    /// The counter named `name`, created zeroed on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name, Counter::new)
    }

    /// The gauge named `name`, created at `0.0` on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name, Gauge::new)
    }

    /// The value histogram named `name`. The unit is fixed at first
    /// creation; later calls return the existing histogram regardless of
    /// which constructor they came through.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name, || Histogram::new(Unit::Value))
    }

    /// The nanosecond histogram named `name` (span-timer target).
    pub fn timer(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name, || Histogram::new(Unit::Nanos))
    }

    /// Starts a [`Span`] recording its elapsed nanoseconds into the timer
    /// histogram `name` when dropped.
    pub fn span(&self, name: &str) -> Span {
        Span::start(&self.timer(name))
    }

    /// Appends an event to the registry's log.
    pub fn emit(&self, kind: impl Into<String>, detail: impl Into<String>) {
        self.events.emit(kind, detail);
    }

    /// The registry's event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// A point-in-time snapshot of every metric and the retained events.
    /// Concurrent updates may land between individual metric reads —
    /// snapshots are consistent per metric, not across metrics.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(&self.counters, &self.gauges, &self.histograms, &self.events)
    }

    /// Zeroes every metric and clears the event log, keeping handles
    /// alive — outstanding `Arc`s keep recording into the same metrics.
    /// Meant for test isolation around the [`global`] registry; callers
    /// must serialize against concurrent instrumented work themselves.
    pub fn reset(&self) {
        for c in self.counters.lock().expect("obs counter registry mutex poisoned").values() {
            c.reset();
        }
        for g in self.gauges.lock().expect("obs gauge registry mutex poisoned").values() {
            g.reset();
        }
        for h in self.histograms.lock().expect("obs histogram registry mutex poisoned").values() {
            h.reset();
        }
        self.events.reset();
    }
}

fn get_or_create<T>(
    map: &Mutex<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    let mut map = map.lock().expect("obs metric registry mutex poisoned");
    match map.get(name) {
        Some(existing) => Arc::clone(existing),
        None => {
            let fresh = Arc::new(make());
            map.insert(name.to_string(), Arc::clone(&fresh));
            fresh
        }
    }
}

/// An RAII timer: created by [`Registry::span`], records the elapsed
/// nanoseconds into its histogram when dropped. Use
/// [`Span::finish`] to end it explicitly mid-scope.
#[must_use = "a span records on drop — binding it to _ ends it immediately"]
pub struct Span {
    hist: Arc<Histogram>,
    start: Instant,
}

impl Span {
    /// Starts a span recording into `hist`, for callers that already hold
    /// the handle (no lookup by name).
    pub fn start(hist: &Arc<Histogram>) -> Span {
        Span { hist: Arc::clone(hist), start: Instant::now() }
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}

    /// Nanoseconds elapsed so far, without ending the span.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

/// The process-wide registry every instrumented hot path reports into,
/// built on first use.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let r = Registry::new();
        r.counter("a").inc();
        r.counter("a").add(2);
        r.counter("b").inc();
        assert_eq!(r.counter("a").get(), 3);
        assert_eq!(r.counter("b").get(), 1);
    }

    #[test]
    fn timer_and_histogram_units() {
        let r = Registry::new();
        assert_eq!(r.timer("t_ns").unit(), Unit::Nanos);
        assert_eq!(r.histogram("h").unit(), Unit::Value);
        // First creation wins; the name maps to one histogram.
        assert_eq!(r.histogram("t_ns").unit(), Unit::Nanos);
    }

    #[test]
    fn span_records_positive_nanos_on_drop() {
        let r = Registry::new();
        {
            let span = r.span("work_ns");
            std::hint::black_box(&span);
        }
        let h = r.timer("work_ns");
        assert_eq!(h.count(), 1);
        // Monotonic clocks can report 0ns for back-to-back reads on some
        // hosts, so assert only on the recorded count plus a sane sum.
        assert!(h.sum() < 1_000_000_000, "span claimed >1s for a no-op");
    }

    #[test]
    fn reset_preserves_outstanding_handles() {
        let r = Registry::new();
        let c = r.counter("kept");
        c.add(5);
        r.emit("e", "detail");
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(r.events().events().len(), 0);
        c.inc();
        assert_eq!(r.counter("kept").get(), 1, "handle still wired to the registry");
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        let r = Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                // pgmr-lint: allow(stray-spawn): pgmr-obs sits below pgmr-nn in the crate DAG, so this concurrency test cannot use pgmr_nn::pool without a dependency cycle; raw threads are the point here — they exercise cross-thread counter atomicity with no pool machinery in between
                std::thread::spawn(move || {
                    let c = r.counter("shared");
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.counter("shared").get(), 80_000);
    }
}
