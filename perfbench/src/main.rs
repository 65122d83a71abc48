//! End-to-end and per-layer benchmark of the PolygraphMR reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_light|serve_saturated|batch_guarded> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! result: `correct`, `attempted`, `failed` and the metrics (end-to-end
//! with `--trace 0`, per-layer with `--trace 1`); the line before it
//! holds the run's host-noise and tail diagnostics. See `NOTES.md`.

mod clock;
mod host;
mod inputs;
mod layers;
mod meter;
mod serve;
mod spec;
mod stats;
mod systems;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use workload::{Options, Workload};

#[global_allocator]
static ALLOC: pgmr_bench::alloc_counter::CountingAlloc = pgmr_bench::alloc_counter::CountingAlloc;

/// Where each run's record and trace are written, under the checkout.
const RUN_DIR: &str = ".bench_cache/runs";

const USAGE: &str = "usage: pgmr-perfbench --workload <serve_light|serve_saturated|batch_guarded> --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => traced = Some(false),
                "1" => traced = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(30),
        traced: traced.unwrap_or(false),
    })
}

/// Trains or verifies every member blob in a child process, so the
/// measured process starts cold and a training run can never land in it.
fn prepare_in_child() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let status = Command::new(exe)
        .arg("prepare")
        .status()
        .map_err(|e| format!("starting the prepare step: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("prepare step failed: {status}"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    systems::configure_process();
    if args.first().map(String::as_str) == Some("prepare") {
        let start = clock::now();
        let trained = systems::prepare();
        eprintln!(
            "prepare: {trained} member(s) trained, all blobs verified in {:.1}s",
            start.elapsed().as_secs_f64()
        );
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = prepare_in_child() {
        eprintln!("{e}");
        return ExitCode::from(1);
    }

    let out = workload::run(&opts);
    let obs = pgmr_obs::global().snapshot();
    let trainings = obs.counter("train.fit_total").unwrap_or(0)
        + obs.events_of_kind("train.fit").count() as u64;
    let trained = (trainings > 0).then(|| "a train.fit event in the measured process".to_string());
    if let Some(why) = out.abort.or(trained) {
        eprintln!("aborted: {why}");
        return ExitCode::from(3);
    }
    for p in &out.problems {
        eprintln!("output check failed: {p}");
    }
    let name = Workload::ALL.iter().find(|(_, w)| *w == opts.workload).map_or("", |(n, _)| n);
    let stem = format!("{name}-seed{}-trace{}", opts.seed, u8::from(opts.traced));
    let list = if opts.traced { spec::PER_LAYER } else { spec::END_TO_END };
    let diagnostics = spec::object(&out.diagnostics);
    let result = spec::result_line(out.correct, out.attempted, out.failed, list, &out.metrics);
    let dir = PathBuf::from(RUN_DIR);
    if let Some(trace) = &out.trace {
        let keep: std::collections::BTreeSet<u64> =
            out.traced_requests.iter().map(|&r| r as u64).collect();
        if let Err(e) = trace.write(&dir.join(format!("{stem}.trace.jsonl")), |r| keep.contains(&r))
        {
            eprintln!("could not write the trace: {e}");
        }
    }
    let probes: Vec<String> = out.probes.iter().map(|p| format!("\"{p}\"")).collect();
    let probes = probes.join(", ");
    let windows: Vec<String> = out
        .windows
        .iter()
        .map(|w| format!("[{}]", w.iter().map(|v| format!("{v:?}")).collect::<Vec<_>>().join(", ")))
        .collect();
    let windows = windows.join(", ");
    let record = format!(
        "{{\"diagnostics\": {diagnostics}, \"probes\": [{probes}], \"windows\": [{windows}], \"result\": {result}}}\n"
    );
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record))
    {
        eprintln!("could not write the run record: {e}");
    }
    println!("{{\"diagnostics\": {diagnostics}, \"probes\": [{probes}]}}");
    println!("{result}");
    ExitCode::SUCCESS
}
