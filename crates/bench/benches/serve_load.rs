//! Serve load generator — offered load vs goodput vs deadline-miss rate
//! for the streaming front-end, RADE-staged vs always-full ensemble.
//!
//! Not a paper exhibit: this harness drives `pgmr-serve` with a
//! closed-loop client fleet (each client submits, waits for its
//! completion, submits again — offered load grows with the client count)
//! and measures goodput (completions within deadline per second), the
//! deadline-miss rate, exact p50/p99 latency from the per-request
//! samples, and the mean number of ensemble members activated per
//! request. Every point runs twice: with RADE staging as the deadline
//! policy and with the always-full ensemble.
//!
//! Clients run on a `WorkerPool` (the workspace's sanctioned thread
//! owner), each submitting through its own `Submitter` clone with a
//! private reply channel — the front-end's multi-client path under real
//! contention.
//!
//! The harness writes `BENCH_serve.json` with a `serve_ok` verdict CI
//! gates on: at the generous deadline nothing may miss in either mode,
//! every submitted request must complete, and staged serving must
//! activate measurably fewer members than always-full while keeping
//! comparable goodput. `BENCH_serve_obs.json` captures the observability
//! snapshot (queue depth, batch sizes, serve latency histograms).

use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use pgmr_bench::{banner, scale};
use pgmr_datasets::Split;
use pgmr_nn::WorkerPool;
use pgmr_preprocess::Preprocessor;
use pgmr_serve::{ServeConfig, ServeHandle};
use pgmr_tensor::Tensor;
use polygraph_mr::decision::Thresholds;
use polygraph_mr::ensemble::Ensemble;
use polygraph_mr::rade;
use polygraph_mr::suite::{Benchmark, Scale};
use polygraph_mr::system::PolygraphSystem;

/// Closed-loop client counts (offered-load axis).
const CLIENT_COUNTS: [usize; 3] = [1, 2, 4];

/// Generous deadline: long enough that nothing should miss — the
/// correctness end of the curve, gated by `serve_ok`.
const GENEROUS: Duration = Duration::from_millis(500);

/// Tight deadline: tens of member forwards of budget, so under load
/// queueing behind other clients' batches and RADE escalations decide who
/// makes it — the stress end of the curve, reported but not gated (its
/// miss rate is host-speed-dependent by construction). Kept at the value
/// earlier committed runs used, so their rows compare.
const TIGHT: Duration = Duration::from_millis(3);

/// One measured operating point.
struct LoadPoint {
    mode: &'static str,
    clients: usize,
    deadline: Duration,
    completed: usize,
    missed: usize,
    offered_per_s: f64,
    goodput_per_s: f64,
    miss_rate: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_activated: f64,
}

/// Exact percentile (nearest-rank on the sorted samples).
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Drives one closed-loop point: `clients` clients, `per_client` requests
/// each, every request carrying `deadline`.
fn run_point(
    system: &PolygraphSystem,
    mode: &'static str,
    clients: usize,
    per_client: usize,
    deadline: Duration,
    images: &[Tensor],
) -> LoadPoint {
    let handle = ServeHandle::spawn(
        system,
        ServeConfig { max_batch: 8, workers: 2, ..ServeConfig::default() },
    );
    let client_pool = WorkerPool::new(clients);
    let jobs: Vec<_> = (0..clients)
        .map(|c| {
            let submitter = handle.submitter();
            move || {
                let (reply, completions) = channel();
                let mut latencies_ms = Vec::with_capacity(per_client);
                let mut missed = 0usize;
                let mut activated = 0usize;
                for i in 0..per_client {
                    let img = &images[(c * per_client + i) % images.len()];
                    submitter.submit(img.clone(), Some(deadline), &reply);
                    let done = completions.recv().expect("completion for every request");
                    latencies_ms.push(done.latency.as_secs_f64() * 1e3);
                    missed += usize::from(done.deadline_missed);
                    activated += done.decision.activated;
                }
                (latencies_ms, missed, activated)
            }
        })
        .collect();
    let start = Instant::now();
    let results = client_pool.run(jobs);
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    let stats = handle.shutdown();

    let mut latencies_ms = Vec::new();
    let mut missed = 0usize;
    let mut activated = 0usize;
    for (lat, m, a) in results {
        latencies_ms.extend(lat);
        missed += m;
        activated += a;
    }
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let completed = latencies_ms.len();
    assert_eq!(completed as u64, stats.completed, "every submission must complete");
    assert_eq!(stats.submitted, stats.completed, "no request may be dropped");

    LoadPoint {
        mode,
        clients,
        deadline,
        completed,
        missed,
        offered_per_s: completed as f64 / wall_s,
        goodput_per_s: (completed - missed) as f64 / wall_s,
        miss_rate: missed as f64 / completed.max(1) as f64,
        p50_ms: percentile(&latencies_ms, 50.0),
        p99_ms: percentile(&latencies_ms, 99.0),
        mean_activated: activated as f64 / completed.max(1) as f64,
    }
}

fn main() {
    banner("Serve load", "deadline-aware front-end: offered load vs goodput vs misses");
    let bench = Benchmark::lenet5_digits(scale());
    let per_client = match scale() {
        Scale::Tiny => 50,
        Scale::Small => 150,
        Scale::Full => 300,
    };
    let mut members = vec![
        bench.member(Preprocessor::Identity, 1),
        bench.member(Preprocessor::FlipX, 2),
        bench.member(Preprocessor::Gamma(2.0), 3),
    ];
    let thresholds = Thresholds::new(0.4, 2);

    // RADE priority from measured validation contributions (§III-F).
    let val = bench.data(Split::Val);
    let val_probs = pgmr_bench::member_probs(&mut members, &val);
    let contributions = rade::contributions(&val_probs, val.labels());
    let priority =
        rade::StagedEngine::from_contributions(&contributions, thresholds).priority().to_vec();
    println!("RADE priority (by validation contribution): {priority:?}");

    let mut staged_system = PolygraphSystem::new(Ensemble::new(members.clone()), thresholds);
    staged_system.enable_staged(priority);
    let full_system = PolygraphSystem::new(Ensemble::new(members), thresholds);

    let test = bench.data(Split::Test);
    let images = test.images();
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "host cores: {nproc}   per-client requests: {per_client}   deadlines: {}ms / {}ms",
        GENEROUS.as_millis(),
        TIGHT.as_millis()
    );
    println!();

    let mut points = Vec::new();
    for &deadline in &[GENEROUS, TIGHT] {
        for &clients in &CLIENT_COUNTS {
            points.push(run_point(&staged_system, "staged", clients, per_client, deadline, images));
            points.push(run_point(&full_system, "full", clients, per_client, deadline, images));
        }
    }

    println!(
        "{:>7} {:>8} {:>9} {:>12} {:>12} {:>9} {:>9} {:>9} {:>10}",
        "mode",
        "clients",
        "deadline",
        "offered/s",
        "goodput/s",
        "miss",
        "p50 ms",
        "p99 ms",
        "activated"
    );
    for p in &points {
        println!(
            "{:>7} {:>8} {:>7}ms {:>12.1} {:>12.1} {:>8.1}% {:>9.3} {:>9.3} {:>10.2}",
            p.mode,
            p.clients,
            p.deadline.as_millis(),
            p.offered_per_s,
            p.goodput_per_s,
            p.miss_rate * 100.0,
            p.p50_ms,
            p.p99_ms,
            p.mean_activated
        );
    }

    // The gate: at the generous deadline every point must be miss-free in
    // both modes, and staged serving must activate measurably fewer
    // members than always-full while holding comparable goodput.
    let generous: Vec<&LoadPoint> = points.iter().filter(|p| p.deadline == GENEROUS).collect();
    let no_misses = generous.iter().all(|p| p.missed == 0);
    let mean_over = |mode: &str, f: fn(&LoadPoint) -> f64| -> f64 {
        let sel: Vec<f64> = generous.iter().filter(|p| p.mode == mode).map(|p| f(p)).collect();
        sel.iter().sum::<f64>() / sel.len().max(1) as f64
    };
    let staged_activated = mean_over("staged", |p| p.mean_activated);
    let full_activated = mean_over("full", |p| p.mean_activated);
    let goodput_ratio =
        mean_over("staged", |p| p.goodput_per_s) / mean_over("full", |p| p.goodput_per_s);
    let serve_ok = no_misses && staged_activated < full_activated - 0.05 && goodput_ratio >= 0.75;

    println!();
    println!(
        "generous-deadline summary: staged activates {staged_activated:.2} members/request vs {full_activated:.2} full   goodput ratio {goodput_ratio:.2}   misses: {}",
        if no_misses { "none" } else { "PRESENT" }
    );
    println!("serve_ok: {serve_ok}");

    // Hand-rolled JSON artifact (the workspace has no JSON dependency).
    let point_objs: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"mode\": \"{}\", \"clients\": {}, \"deadline_ms\": {}, \"completed\": {}, \"offered_per_s\": {:.3}, \"goodput_per_s\": {:.3}, \"miss_rate\": {:.4}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"mean_activated\": {:.4}}}",
                p.mode,
                p.clients,
                p.deadline.as_millis(),
                p.completed,
                p.offered_per_s,
                p.goodput_per_s,
                p.miss_rate,
                p.p50_ms,
                p.p99_ms,
                p.mean_activated
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"nproc\": {nproc},\n  \"config\": {{\"max_batch\": 8, \"workers\": 2, \"per_client\": {per_client}, \"generous_deadline_ms\": {}, \"tight_deadline_ms\": {}}},\n  \"points\": [\n{}\n  ],\n  \"staged_mean_activated\": {staged_activated:.4},\n  \"full_mean_activated\": {full_activated:.4},\n  \"goodput_ratio_staged_vs_full\": {goodput_ratio:.4},\n  \"serve_ok\": {serve_ok}\n}}\n",
        GENEROUS.as_millis(),
        TIGHT.as_millis(),
        point_objs.join(",\n"),
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    let obs_json = pgmr_obs::global().snapshot().to_json();
    std::fs::write("BENCH_serve_obs.json", &obs_json).expect("write BENCH_serve_obs.json");
    println!();
    println!("wrote BENCH_serve.json (serve_ok gate for CI)");
    println!("wrote BENCH_serve_obs.json (observability snapshot of the run)");
    assert!(serve_ok, "serve load gate failed — see the table above");
}
