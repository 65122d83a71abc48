//! Worker-pool throughput — batched evaluation and fault campaigns,
//! sequential vs pooled.
//!
//! Not a paper exhibit: this harness measures the items/s of the shared
//! worker pool on the two batch-shaped hot paths it powers — sharded
//! system evaluation ([`polygraph_mr::system::PolygraphSystem::evaluate_batch`])
//! and trial-sharded activation-fault campaigns
//! ([`pgmr_faults::run_campaign`]) — at pool widths 1 (sequential), 2, 4,
//! and 8. Every pooled run is verified bit-identical to the width-1
//! baseline before its timing is reported.
//!
//! Besides the printed table, the harness writes `BENCH_throughput.json`
//! to the working directory so CI can archive the numbers, plus
//! `BENCH_throughput_obs.json` — the full [`pgmr_obs`] metrics snapshot
//! accumulated over the run (per-member forward latency, pool job
//! accounting, verdict tallies). Speedups scale with the host's cores; on
//! a single-core container every width times out at ~1× and the JSON
//! records `nproc` so readers can tell.
//!
//! The harness also pins the workspace-arena guarantee: a steady-state
//! per-image inference loop through `Network::run` with a reused logits
//! buffer is measured under a counting `#[global_allocator]` and must
//! perform **zero** heap allocations per image (`infer.allocs_per_image`
//! in the JSON, asserted to be 0), alongside the arena's peak footprint
//! (`infer.workspace_peak_bytes`, also exported as the
//! `infer.workspace_bytes` observability gauge). A warmed
//! [`PolygraphSystem::decide`] loop over the same images must allocate
//! nothing either (`decide.allocs_per_request`, asserted to be 0): every
//! member votes from its own buffers and the vote tally counts inline.
//!
//! `infer.items_per_s` is the number CI's `perf_gate` compares against the
//! committed artifact. Per-layer kernel speed is the `layers` bench's job.

use std::time::Instant;

use pgmr_bench::alloc_counter::{self, CountingAlloc};
use pgmr_bench::{banner, scale};
use pgmr_datasets::Split;
use pgmr_faults::{run_campaign, CampaignConfig};
use pgmr_nn::network::RunPlan;
use pgmr_nn::WorkerPool;
use pgmr_preprocess::Preprocessor;
use polygraph_mr::decision::Thresholds;
use polygraph_mr::ensemble::Ensemble;
use polygraph_mr::suite::Benchmark;
use polygraph_mr::system::PolygraphSystem;

/// Counts every heap allocation so the steady-state inference section can
/// assert the workspace hot path stays allocation-free.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const POOL_WIDTHS: [usize; 3] = [2, 4, 8];

/// Measured passes over the test set in the zero-alloc inference section.
/// Sized so each timed section runs for a few hundred milliseconds — long
/// enough to damp scheduler noise on a shared single-core container.
const INFER_PASSES: usize = 12;

/// Times `f`, returning (result, items/s) for `items` units of work.
fn time<T>(items: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (out, items as f64 / secs)
}

fn main() {
    banner("Throughput", "worker-pool items/s on batch evaluation and fault campaigns");
    let bench = Benchmark::lenet5_digits(scale());
    let members = vec![
        bench.member(Preprocessor::Identity, 1),
        bench.member(Preprocessor::FlipX, 2),
        bench.member(Preprocessor::Gamma(2.0), 3),
    ];
    let mut system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.4, 2));
    let data = bench.data(Split::Test);
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("host cores: {nproc}   batch: {} samples   campaign: 200 trials", data.len());
    println!();

    // Batch evaluation: sequential baseline, then each pool width,
    // verified bit-identical before its throughput is reported.
    let (baseline, seq_eval_rate) = time(data.len(), || system.evaluate(&data));
    let mut eval_rates = Vec::new();
    for width in POOL_WIDTHS {
        let pool = WorkerPool::new(width);
        let (pooled, rate) = time(data.len(), || system.evaluate_batch(&data, &pool));
        assert_eq!(pooled, baseline, "pooled evaluation diverged at width {width}");
        eval_rates.push((width, rate));
    }

    // Steady-state zero-alloc inference: after one warmup pass, per-image
    // inference through `Network::run` with a reused logits buffer runs
    // entirely out of the thread-local workspace arena — the counting
    // allocator proves it by observing zero allocation events across the
    // measured passes.
    let images = data.images();
    let infer_net = system.ensemble_mut().members_mut()[0].network_mut();
    let plain = RunPlan::default();
    let mut logits = Vec::new();
    let mut infer = |logits: &mut Vec<f32>| {
        for img in images {
            infer_net.run(img, &plain, logits).expect("an unguarded run cannot fault");
        }
    };
    infer(&mut logits); // sizes arena + logits
    let allocs_before = alloc_counter::alloc_events();
    let (_, infer_rate) = time(INFER_PASSES * images.len(), || {
        for _ in 0..INFER_PASSES {
            infer(&mut logits);
        }
    });
    let infer_allocs = alloc_counter::alloc_events() - allocs_before;
    let allocs_per_image = infer_allocs as f64 / (INFER_PASSES * images.len()) as f64;
    let ws_peak_bytes = pgmr_nn::workspace::thread_workspace_stats().peak_bytes;
    assert_eq!(
        infer_allocs, 0,
        "steady-state inference must not allocate ({infer_allocs} events over {INFER_PASSES} passes)"
    );

    // Steady-state zero-alloc decisions: after one warmup pass, deciding
    // each image through the three-member system allocates nothing.
    let decide = |system: &mut PolygraphSystem| {
        for img in images {
            system.decide(img, |_| true);
        }
    };
    decide(&mut system); // sizes the members' buffers
    let decide_before = alloc_counter::alloc_events();
    decide(&mut system);
    let decide_allocs = alloc_counter::alloc_events() - decide_before;
    let decide_allocs_per_request = decide_allocs as f64 / images.len() as f64;
    assert_eq!(
        decide_allocs,
        0,
        "a warmed decision must not allocate ({decide_allocs} events over {} requests)",
        images.len()
    );

    // Activation-fault campaign over the baseline member's network.
    let inputs: Vec<_> = data.images().iter().take(16).cloned().collect();
    let cfg = CampaignConfig { trials: 200, seed: 2020, rate: 1e-3, ..CampaignConfig::default() };
    let net = system.ensemble_mut().members_mut()[0].network_mut();
    let solo = WorkerPool::new(1);
    let (seq_report, seq_camp_rate) = time(cfg.trials, || run_campaign(net, &inputs, &cfg, &solo));
    let mut camp_rates = Vec::new();
    for width in POOL_WIDTHS {
        let pool = WorkerPool::new(width);
        let (report, rate) = time(cfg.trials, || run_campaign(net, &inputs, &cfg, &pool));
        assert_eq!(report, seq_report, "pooled campaign diverged at width {width}");
        camp_rates.push((width, rate));
    }

    println!("{:>22} {:>14} {:>10}", "workload / width", "items/s", "speedup");
    println!("{:>22} {:>14.1} {:>10.2}", "eval seq", seq_eval_rate, 1.0);
    for &(width, rate) in &eval_rates {
        println!("{:>20}x{width} {rate:>14.1} {:>10.2}", "eval", rate / seq_eval_rate);
    }
    println!("{:>22} {:>14.1}", "infer zero-alloc", infer_rate);
    println!(
        "{:>22} allocs/image: {allocs_per_image:.1}   workspace peak: {:.1} KiB",
        "",
        ws_peak_bytes as f64 / 1024.0
    );
    println!("{:>22} allocs/request: {decide_allocs_per_request:.1}", "decide zero-alloc");
    println!("{:>22} {:>14.1} {:>10.2}", "campaign seq", seq_camp_rate, 1.0);
    for &(width, rate) in &camp_rates {
        println!("{:>20}x{width} {rate:>14.1} {:>10.2}", "campaign", rate / seq_camp_rate);
    }

    // Hand-rolled JSON artifact (the workspace has no JSON dependency).
    let workers = |rates: &[(usize, f64)]| -> String {
        let fields: Vec<String> = rates.iter().map(|(w, r)| format!("\"{w}\": {r:.3}")).collect();
        format!("{{{}}}", fields.join(", "))
    };
    let json = format!(
        "{{\n  \"nproc\": {nproc},\n  \"batch_eval\": {{\"items\": {}, \"sequential_items_per_s\": {seq_eval_rate:.3}, \"workers_items_per_s\": {}}},\n  \"infer\": {{\"allocs_per_image\": {allocs_per_image:.1}, \"workspace_peak_bytes\": {ws_peak_bytes}, \"items_per_s\": {infer_rate:.3}}},\n  \"decide\": {{\"requests\": {}, \"allocs_per_request\": {decide_allocs_per_request:.1}}},\n  \"fault_campaign\": {{\"trials\": {}, \"sequential_items_per_s\": {seq_camp_rate:.3}, \"workers_items_per_s\": {}}}\n}}\n",
        data.len(),
        workers(&eval_rates),
        images.len(),
        cfg.trials,
        workers(&camp_rates),
    );
    std::fs::write("BENCH_throughput.json", &json).expect("write BENCH_throughput.json");
    let obs_json = pgmr_obs::global().snapshot().to_json();
    std::fs::write("BENCH_throughput_obs.json", &obs_json)
        .expect("write BENCH_throughput_obs.json");
    println!();
    println!("wrote BENCH_throughput.json (all pooled results verified bit-identical)");
    println!("wrote BENCH_throughput_obs.json (observability snapshot of the run)");
}
