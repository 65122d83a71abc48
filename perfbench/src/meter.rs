//! The measurement window around a timed phase: wall time, host steal,
//! process and program CPU time, allocation events, and the program's
//! own obs counters, each as a before/after difference.

use pgmr_obs::Snapshot;
use std::time::Instant;

use crate::host::{StealClock, ThreadClocks};
use crate::{clock, host};

/// Difference of two obs snapshots of one registry.
pub struct ObsDelta {
    before: Snapshot,
    after: Snapshot,
}

impl ObsDelta {
    /// The change from `before` to `after`.
    pub fn new(before: Snapshot, after: Snapshot) -> Self {
        ObsDelta { before, after }
    }

    /// Counter increase.
    pub fn counter(&self, name: &str) -> u64 {
        let get = |s: &Snapshot| s.counter(name).unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before))
    }

    /// Histogram (sample count, sample sum) increase.
    pub fn histogram(&self, name: &str) -> (u64, u64) {
        let get = |s: &Snapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        let (c0, s0) = get(&self.before);
        let (c1, s1) = get(&self.after);
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    }

    /// Mean of the samples a histogram gained.
    pub fn histogram_mean(&self, name: &str) -> f64 {
        let (count, sum) = self.histogram(name);
        crate::stats::ratio(sum as f64, count as f64)
    }

    /// A gauge's value at the end.
    pub fn gauge(&self, name: &str) -> f64 {
        self.after.gauge(name).unwrap_or(0.0)
    }

    /// Mean admitted batch size (`serve.batch_size`).
    pub fn batch_size_mean(&self) -> f64 {
        self.histogram_mean("serve.batch_size")
    }

    /// Share of worker capacity spent running pool jobs:
    /// `pool.job_run_ns` ÷ (wall × workers).
    pub fn pool_busy_frac(&self, wall_s: f64, workers: usize) -> f64 {
        let (_, run_ns) = self.histogram("pool.job_run_ns");
        crate::stats::ratio(run_ns as f64 / 1e9, wall_s * workers as f64)
    }

    /// Mean pool queue wait in microseconds.
    pub fn pool_queue_wait_us(&self) -> f64 {
        self.histogram_mean("pool.queue_wait_ns") / 1e3
    }

    /// Share of RADE decisions that exited early with a reliable verdict.
    pub fn rade_early_exit_frac(&self) -> f64 {
        let (decisions, _) = self.histogram("rade.activated");
        crate::stats::ratio(self.counter("rade.early_reliable_total") as f64, decisions as f64)
    }
}

/// Readings taken when a timed phase starts, plus the marks taken at
/// the start and end of each of its windows.
pub struct Meter {
    obs: Snapshot,
    process_ticks: u64,
    clocks: ThreadClocks,
    steal: StealClock,
    /// Start and end mark of each window opened so far.
    marks: Vec<(Mark, Option<Mark>)>,
    windows: usize,
}

/// Wall time, program CPU time, allocation events and host steal at one
/// instant.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at: Instant,
    cpu_ns: u64,
    allocs: u64,
    steal_ticks: u64,
}

/// One window of a phase: consecutive requests `first..end`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// First request of the window.
    pub first: usize,
    /// One past its last request.
    pub end: usize,
    /// Wall seconds from its first submit to its end: the next window's
    /// first submit, or the pause before untimed work between the two.
    pub wall_s: f64,
    /// CPU milliseconds of the program's threads meanwhile.
    pub cpu_ms: f64,
    /// Allocation events meanwhile, all threads.
    pub allocs: u64,
    /// Host steal meanwhile ÷ (wall × nproc).
    pub steal_frac: f64,
}

/// What a timed phase cost, summed over its windows: untimed work
/// between windows is left out.
pub struct PhaseCost {
    /// Wall seconds.
    pub wall_s: f64,
    /// Host steal ticks ÷ (wall × nproc).
    pub steal_frac: f64,
    /// CPU milliseconds of the whole process between start and stop,
    /// untimed work included.
    pub process_cpu_ms: f64,
    /// CPU milliseconds of the program's threads.
    pub program_cpu_ms: f64,
    /// Allocation events, all threads.
    pub allocs: u64,
    /// The phase's windows, in order.
    pub windows: Vec<Window>,
    /// The program's obs counters between start and stop.
    pub obs: ObsDelta,
}

/// True for the threads the program itself starts: pool workers
/// (`pgmr-worker-*`) and the serve batcher (`pgmr-serve-batcher`). The
/// main thread is classified by the caller.
pub fn program_thread(name: &str) -> bool {
    name.starts_with("pgmr-")
}

/// Host steal ticks over `wall_s` as a share of this VM's CPU capacity.
fn steal_frac(ticks: u64, wall_s: f64) -> f64 {
    crate::stats::ratio(ticks as f64 / host::TICKS_PER_S, wall_s * host::nproc() as f64)
}

/// Index of the first request of window `w` of `windows` over `n`.
pub fn window_start(w: usize, windows: usize, n: usize) -> usize {
    w * n / windows
}

impl Meter {
    /// Takes the starting readings. The program's threads are those alive
    /// now, plus the main thread when `main_is_program` (workloads where
    /// it calls into the library for each request). Room for `windows`
    /// marks is reserved so marking never allocates.
    pub fn start(main_is_program: bool, windows: usize) -> Self {
        let obs = pgmr_obs::global().snapshot();
        let pid = host::pid();
        let clocks =
            ThreadClocks::open(
                |tid, name| {
                    if tid == pid {
                        main_is_program
                    } else {
                        program_thread(name)
                    }
                },
            );
        let process_ticks = host::process_cpu_ticks();
        let windows = windows.max(1);
        let marks = Vec::with_capacity(windows);
        let steal = StealClock::open();
        Meter { obs, process_ticks, clocks, steal, marks, windows }
    }

    /// The window that unit `i` of `n` opens, if it opens one.
    pub fn opens(&self, i: usize, n: usize) -> Option<usize> {
        let windows = self.windows.min(n);
        let w = self.marks.len();
        (w < windows && i == window_start(w, windows, n)).then_some(w)
    }

    /// Called before issuing unit `i` of `n`: when `i` opens a window,
    /// ends the previous one (unless paused) and starts the new one.
    pub fn before(&mut self, i: usize, n: usize) {
        if self.opens(i, n).is_some() {
            let mark = self.mark();
            self.end_window(mark);
            self.marks.push((mark, None));
        }
    }

    /// Ends the open window before untimed work; the next window starts
    /// at its first unit.
    pub fn pause(&mut self) {
        let mark = self.mark();
        self.end_window(mark);
    }

    fn end_window(&mut self, mark: Mark) {
        if let Some((_, end @ None)) = self.marks.last_mut() {
            *end = Some(mark);
        }
    }

    fn mark(&self) -> Mark {
        let allocs = pgmr_bench::alloc_counter::alloc_events();
        let cpu_ns = self.clocks.read_ns();
        let steal_ticks = self.steal.ticks();
        Mark { at: clock::now(), cpu_ns, allocs, steal_ticks }
    }

    /// Ends the last window and takes the closing readings of a phase of
    /// `n` units, every one of which was announced through
    /// [`Meter::before`].
    pub fn stop(mut self, n: usize) -> PhaseCost {
        assert_eq!(self.marks.len(), self.windows.min(n), "every window was opened");
        self.pause();
        let process_ticks = host::process_cpu_ticks() - self.process_ticks;
        let obs = ObsDelta::new(self.obs, pgmr_obs::global().snapshot());
        let windows_n = self.marks.len();
        let mut steal_ticks = 0;
        let windows = self
            .marks
            .iter()
            .enumerate()
            .map(|(w, &(start, end))| {
                let end = end.expect("every window was ended");
                let wall_s = end.at.saturating_duration_since(start.at).as_secs_f64();
                let ticks = end.steal_ticks.saturating_sub(start.steal_ticks);
                steal_ticks += ticks;
                Window {
                    first: window_start(w, windows_n, n),
                    end: window_start(w + 1, windows_n, n),
                    wall_s,
                    cpu_ms: (end.cpu_ns - start.cpu_ns) as f64 / 1e6,
                    allocs: end.allocs - start.allocs,
                    steal_frac: steal_frac(ticks, wall_s),
                }
            })
            .collect::<Vec<_>>();
        let wall_s = windows.iter().map(|w| w.wall_s).sum();
        PhaseCost {
            wall_s,
            steal_frac: steal_frac(steal_ticks, wall_s),
            process_cpu_ms: process_ticks as f64 * 1e3 / host::TICKS_PER_S,
            program_cpu_ms: windows.iter().map(|w| w.cpu_ms).sum(),
            allocs: windows.iter().map(|w| w.allocs).sum(),
            windows,
            obs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmr_obs::Registry;

    #[test]
    fn obs_ratios_come_from_the_window_only() {
        let reg = Registry::new();
        reg.histogram("serve.batch_size").record(100);
        reg.counter("rade.early_reliable_total").add(50);
        let before = reg.snapshot();
        for size in [8, 8, 4, 4] {
            reg.histogram("serve.batch_size").record(size);
        }
        reg.timer("pool.job_run_ns").record(1_500_000_000);
        reg.timer("pool.job_run_ns").record(500_000_000);
        reg.timer("pool.queue_wait_ns").record(3_000);
        reg.timer("pool.queue_wait_ns").record(5_000);
        for activated in [2, 2, 3, 3] {
            reg.histogram("rade.activated").record(activated);
        }
        reg.counter("rade.early_reliable_total").add(3);
        reg.gauge("infer.workspace_bytes").set(2048.0);
        let d = ObsDelta::new(before, reg.snapshot());
        assert_eq!(d.batch_size_mean(), 6.0);
        assert_eq!(d.pool_busy_frac(2.0, 2), 0.5);
        assert_eq!(d.pool_queue_wait_us(), 4.0);
        assert_eq!(d.rade_early_exit_frac(), 0.75);
        assert_eq!(d.gauge("infer.workspace_bytes"), 2048.0);
        assert_eq!(d.counter("abft.quarantines_total"), 0);
    }

    #[test]
    fn empty_windows_give_zero_not_nan() {
        let reg = Registry::new();
        let d = ObsDelta::new(reg.snapshot(), reg.snapshot());
        assert_eq!(d.batch_size_mean(), 0.0);
        assert_eq!(d.pool_busy_frac(0.0, 2), 0.0);
        assert_eq!(d.rade_early_exit_frac(), 0.0);
    }

    #[test]
    fn windows_partition_the_requests() {
        let starts: Vec<usize> = (0..=4).map(|w| window_start(w, 4, 10)).collect();
        assert_eq!(starts, [0, 2, 5, 7, 10]);
    }

    #[test]
    fn a_pause_between_windows_is_left_out_of_the_phase() {
        let mut meter = Meter::start(false, 2);
        assert_eq!(meter.opens(0, 4), Some(0));
        meter.before(0, 4);
        meter.before(1, 4);
        assert_eq!(meter.opens(1, 4), None);
        assert_eq!(meter.opens(2, 4), Some(1));
        meter.pause();
        std::thread::sleep(std::time::Duration::from_millis(200));
        meter.before(2, 4);
        meter.before(3, 4);
        let cost = meter.stop(4);
        assert_eq!(cost.windows.len(), 2);
        assert_eq!((cost.windows[1].first, cost.windows[1].end), (2, 4));
        assert!(cost.wall_s < 0.2, "the pause was timed: {}s", cost.wall_s);
    }

    #[test]
    fn program_threads_are_the_libraries_named_threads() {
        assert!(program_thread("pgmr-worker-0"));
        assert!(program_thread("pgmr-serve-batc"));
        assert!(!program_thread("bench-recv"));
    }
}
