//! The three scalar metric primitives: counters, gauges, histograms.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing event count. All operations are relaxed
/// atomics — counts commute, so concurrent increments from worker threads
/// sum to exactly the sequential total.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (test isolation).
    pub(crate) fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins `f64` cell (current loss, configured pool width, …),
/// stored as IEEE-754 bits in an `AtomicU64`.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh gauge reading `0.0`.
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Stores `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `v` unless it already reads more: a high-water
    /// mark that any number of threads can publish into, in any order.
    /// `v` must be non-negative (not `-0.0`, not NaN): non-negative `f64`
    /// bit patterns order like their values, so one integer `fetch_max`
    /// does it.
    pub fn set_max(&self, v: f64) {
        debug_assert!(v.is_sign_positive() && !v.is_nan(), "set_max needs v >= +0.0, got {v}");
        self.0.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    /// The last stored value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    pub(crate) fn reset(&self) {
        self.set(0.0);
    }
}

/// What a histogram's samples measure — controls how the deterministic
/// snapshot export treats it (see [`crate::Snapshot::to_deterministic_json`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Wall-clock nanoseconds (span timers). Bucket placement depends on
    /// host speed, so the deterministic export keeps only the count.
    Nanos,
    /// A dimensionless count or size — deterministic for a seeded
    /// workload, exported in full.
    Value,
}

impl Unit {
    /// The snapshot label (`"ns"` / `"value"`).
    pub fn label(self) -> &'static str {
        match self {
            Unit::Nanos => "ns",
            Unit::Value => "value",
        }
    }
}

/// Bucket count: one underflow bucket for zero plus one per power of two
/// up to `2^63`.
pub const BUCKETS: usize = 65;

/// A lock-free log₂-bucketed histogram of `u64` samples.
///
/// Sample `v` lands in bucket `0` when `v == 0`, else in bucket
/// `floor(log2 v) + 1`, i.e. bucket `b ≥ 1` covers `[2^(b-1), 2^b)`.
/// Coarse, but cheap (a `leading_zeros` and one atomic add) and wide
/// enough for anything from activation counts to second-scale latencies.
#[derive(Debug)]
pub struct Histogram {
    unit: Unit,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// A fresh empty histogram measuring `unit`.
    pub fn new(unit: Unit) -> Self {
        Histogram {
            unit,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The histogram's unit.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration as whole nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Runs `f`, records its wall-clock duration, and returns its output
    /// — the closure-shaped counterpart of a [`crate::Span`], for call
    /// sites that already hold the histogram handle (retry loops, hot
    /// paths timing several attempts into one metric). This is the
    /// sanctioned way to time code outside `pgmr-obs`: the workspace
    /// linter (`pgmr-lint`, rule `wall-clock`) keeps raw `Instant::now`
    /// reads confined to this crate and the benches.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        self.time_split(f, |_| 1)
    }

    /// Runs `f`, and records its wall-clock duration split evenly over
    /// the `samples` its output asks for: `n` samples of `elapsed / n`
    /// nanoseconds each, or none for 0 — one run over a batch of items,
    /// timed as one sample per item, or discarded.
    pub fn time_split<R>(&self, f: impl FnOnce() -> R, samples: impl FnOnce(&R) -> u64) -> R {
        let start = std::time::Instant::now();
        let out = f();
        let n = samples(&out);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(each) = ns.checked_div(n) {
            (0..n).for_each(|_| self.record(each));
        }
        out
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The recorded count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// The bucket index for sample `v`.
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The inclusive lower bound of bucket `i` (`0`, then `2^(i-1)`).
    pub fn bucket_lower_bound(i: usize) -> u64 {
        assert!(i < BUCKETS, "bucket index {i} out of range");
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_resets() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_round_trips_f64() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-1.25e-3);
        assert_eq!(g.get(), -1.25e-3);
    }

    #[test]
    fn gauge_set_max_keeps_the_largest_value() {
        let g = Gauge::new();
        for v in [38_912.0, 648_192.0, 0.5, 648_191.5, 0.0] {
            g.set_max(v);
        }
        assert_eq!(g.get(), 648_192.0);
        g.set_max(1e300);
        assert_eq!(g.get(), 1e300);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // The satellite-mandated boundary check: 0 has its own bucket and
        // every power of two opens a new one.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 0..BUCKETS {
            let lo = Histogram::bucket_lower_bound(i);
            assert_eq!(Histogram::bucket_index(lo), i, "lower bound of bucket {i}");
            if lo > 0 {
                assert_eq!(Histogram::bucket_index(lo - 1), i - 1, "below bucket {i}");
            }
        }
    }

    #[test]
    fn time_records_one_sample_and_returns_the_output() {
        let h = Histogram::new(Unit::Nanos);
        let out = h.time(|| 6 * 7);
        assert_eq!(out, 42);
        assert_eq!(h.count(), 1);
        assert!(h.sum() < 1_000_000_000, "timing a multiply claimed >1s");
    }

    #[test]
    fn time_split_records_equal_samples_or_none() {
        let h = Histogram::new(Unit::Nanos);
        let out = h.time_split(|| 3, |&n| n);
        assert_eq!(out, 3);
        assert_eq!(h.count(), 3);
        let each = h.sum() / 3;
        assert_eq!(h.sum(), 3 * each, "three equal samples");
        assert_eq!(h.bucket(Histogram::bucket_index(each)), 3);
        h.time_split(|| (), |_| 0);
        assert_eq!(h.count(), 3, "zero samples record nothing");
    }

    #[test]
    fn histogram_tracks_count_sum_buckets() {
        let h = Histogram::new(Unit::Value);
        for v in [0, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 2);
        assert_eq!(h.bucket(11), 1);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn duration_recording_saturates() {
        let h = Histogram::new(Unit::Nanos);
        h.record_duration(Duration::from_nanos(1500));
        assert_eq!(h.sum(), 1500);
        h.record_duration(Duration::MAX);
        assert_eq!(h.count(), 2);
    }
}
