//! Host and process readings from `/proc`: CPU steal, CPU time, and
//! resident memory. They let a disagreement between runs be pinned on
//! the host or on the program.

use std::fs;

/// Kernel clock ticks per second for `/proc` tick counters (`USER_HZ`,
/// 100 on every mainstream Linux build).
pub const TICKS_PER_S: f64 = 100.0;

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Host-wide steal ticks — time a hypervisor ran other guests while this
/// VM had runnable work (8th value of the `cpu` line of `/proc/stat`) —
/// read from a file opened once, without allocating, so it can be
/// sampled while load runs.
pub struct StealClock {
    stat: Option<fs::File>,
}

impl StealClock {
    /// Opens `/proc/stat`; without it every reading is 0.
    pub fn open() -> Self {
        StealClock { stat: fs::File::open("/proc/stat").ok() }
    }

    /// Steal ticks so far.
    pub fn ticks(&self) -> u64 {
        use std::os::unix::fs::FileExt;
        let mut buf = [0u8; 256];
        let len = self.stat.as_ref().map_or(0, |f| f.read_at(&mut buf, 0).unwrap_or(0));
        let line = buf[..len].split(|&b| b == b'\n').next().unwrap_or(&[]);
        let field = line.split(|&b| b == b' ').filter(|f| !f.is_empty()).nth(8).unwrap_or(&[]);
        std::str::from_utf8(field).ok().and_then(|v| v.parse().ok()).unwrap_or(0)
    }
}

/// This process's CPU time (utime + stime over all threads, live and
/// exited), in ticks.
pub fn process_cpu_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    field(11) + field(12)
}

/// Open CPU-time counters (`/proc/self/task/<tid>/schedstat`, whose
/// first field is nanoseconds on CPU) of a fixed set of threads, read
/// without allocating so they can be sampled while load runs.
pub struct ThreadClocks {
    files: Vec<fs::File>,
}

impl ThreadClocks {
    /// Opens the counters of the live threads `select` picks by task id
    /// and name.
    pub fn open(select: impl Fn(u64, &str) -> bool) -> Self {
        let mut files = Vec::new();
        for task in fs::read_dir("/proc/self/task").into_iter().flatten().flatten() {
            let Some(tid) = task.file_name().to_str().and_then(|t| t.parse::<u64>().ok()) else {
                continue;
            };
            let name = fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            if select(tid, name.trim()) {
                if let Ok(f) = fs::File::open(task.path().join("schedstat")) {
                    files.push(f);
                }
            }
        }
        ThreadClocks { files }
    }

    /// Total CPU nanoseconds of the counted threads so far.
    pub fn read_ns(&self) -> u64 {
        use std::os::unix::fs::FileExt;
        let mut total = 0;
        for f in &self.files {
            let mut buf = [0u8; 96];
            let len = f.read_at(&mut buf, 0).unwrap_or(0);
            let field = buf[..len].split(|&b| b == b' ').next().unwrap_or(&[]);
            total +=
                std::str::from_utf8(field).ok().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        }
        total
    }
}

/// This process's id (the main thread's task id).
pub fn pid() -> u64 {
    u64::from(std::process::id())
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in KiB.
pub fn status_kb(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}
