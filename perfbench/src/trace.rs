//! In-memory span recording for the traced run. Spans are taken around
//! the harness's own calls into each layer's public functions, kept in
//! pre-allocated per-thread buffers while the load runs, and written out
//! as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within a run; a request's root span has id `request + 1`.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The request (or batch chunk) the span belongs to.
    pub request: u64,
    /// Layer call, e.g. `serve.submit` or `nn.forward`.
    pub name: &'static str,
    /// Nanoseconds after the run's origin.
    pub start_ns: u64,
    /// Nanoseconds after the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The root span id of `request`.
pub fn root_id(request: u64) -> u64 {
    request + 1
}

/// One thread's span buffer.
pub struct Trace {
    origin: Instant,
    lane: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Trace {
    /// A buffer for `capacity` spans, timed against `origin`. `lane`
    /// keeps non-root ids of different buffers apart.
    pub fn new(origin: Instant, lane: u64, capacity: usize) -> Self {
        Trace { origin, lane, next: 0, spans: Vec::with_capacity(capacity) }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records the root span of `request`.
    pub fn root(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) -> u64 {
        let id = root_id(request);
        self.push(id, 0, request, name, start, end);
        id
    }

    /// Records a child of `parent`; returns its id.
    pub fn child(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.next += 1;
        let id = (self.lane << 40) | self.next;
        self.push(id, parent, request, name, start, end);
        id
    }

    fn push(
        &mut self,
        id: u64,
        parent: u64,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.offset(start), self.offset(end));
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns });
    }

    /// Appends another buffer's spans (after its thread finished).
    pub fn absorb(&mut self, other: Trace) {
        self.spans.extend(other.spans);
    }

    /// Durations, in nanoseconds, of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    /// Writes the spans of requests `keep` selects as JSON lines.
    pub fn write(&self, path: &std::path::Path, keep: impl Fn(u64) -> bool) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans.iter().filter(|s| keep(s.request)) {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
