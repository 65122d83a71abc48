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
//! `infer.workspace_bytes` observability gauge).
//!
//! A GEMM-level autotune sweep of cache-blocking candidates rounds out the
//! artifact (every candidate asserted bit-identical to the default — the
//! tuning-independence contract exercised on real runs).
//! `infer.items_per_s` is the number CI's `perf_gate` compares against the
//! committed artifact.

use std::time::Instant;

use pgmr_bench::alloc_counter::{self, CountingAlloc};
use pgmr_bench::{banner, scale};
use pgmr_datasets::Split;
use pgmr_faults::{run_campaign, CampaignConfig};
use pgmr_nn::network::RunPlan;
use pgmr_nn::WorkerPool;
use pgmr_preprocess::Preprocessor;
use pgmr_tensor::gemm::{gemm_into_tuned, GemmScratch, GemmTuning, DEFAULT_TUNING};
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

/// Deterministic pseudo-random fill in [-1, 1) for the GEMM sections.
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// GEMM shape for the autotune sweep: a dense-sized `[batch, in] × [in,
/// out]` product, big enough that the packed path engages and cache
/// blocking matters.
const GEMM_SHAPE: (usize, usize, usize) = (64, 512, 512);

/// Sweep repetitions per candidate (first rep warms the scratch).
const GEMM_REPS: usize = 12;

/// Blocking candidates for the autotune sweep. [`DEFAULT_TUNING`] first.
const TUNE_CANDIDATES: [GemmTuning; 5] = [
    DEFAULT_TUNING,
    GemmTuning { mc: 32, kc: 128, nc: 256 },
    GemmTuning { mc: 64, kc: 256, nc: 256 },
    GemmTuning { mc: 128, kc: 256, nc: 256 },
    GemmTuning { mc: 256, kc: 512, nc: 128 },
];

/// Sweeps [`TUNE_CANDIDATES`] over [`GEMM_SHAPE`], returning
/// `(tuning, gmacs)` per candidate, best first kept in input order.
/// Every candidate's result is asserted bit-identical to the default's —
/// the tuning-independence contract, re-checked on real measured runs.
fn autotune_gemm() -> Vec<(GemmTuning, f64)> {
    let (m, k, n) = GEMM_SHAPE;
    let a = fill(0xA, m * k);
    let b = fill(0xB, k * n);
    let mut reference = vec![0.0f32; m * n];
    let mut scratch = GemmScratch::new();
    gemm_into_tuned(m, k, n, &a, &b, &mut reference, &mut scratch, DEFAULT_TUNING);
    let macs = (m * k * n) as f64;
    TUNE_CANDIDATES
        .iter()
        .map(|&t| {
            let mut c = vec![0.0f32; m * n];
            let mut best = f64::INFINITY;
            for rep in 0..GEMM_REPS {
                c.fill(0.0);
                let start = Instant::now();
                gemm_into_tuned(m, k, n, &a, &b, &mut c, &mut scratch, t);
                let secs = start.elapsed().as_secs_f64().max(1e-9);
                if rep > 0 {
                    best = best.min(secs);
                }
                std::hint::black_box(&c);
            }
            assert_eq!(c, reference, "tuning {t:?} diverged from the default blocking");
            (t, macs / best / 1e9)
        })
        .collect()
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

    // GEMM autotune sweep: cache-blocking candidates over a dense-sized
    // shape, each verified bit-identical to the default blocking.
    let sweep = autotune_gemm();
    let &(best_tuning, best_gmacs) =
        sweep.iter().max_by(|a, b| a.1.total_cmp(&b.1)).expect("non-empty sweep");

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
    println!("{:>22} {:>14.1} {:>10.2}", "campaign seq", seq_camp_rate, 1.0);
    for &(width, rate) in &camp_rates {
        println!("{:>20}x{width} {rate:>14.1} {:>10.2}", "campaign", rate / seq_camp_rate);
    }

    let (gm, gk, gn) = GEMM_SHAPE;
    println!();
    println!("gemm autotune ({gm}x{gk}x{gn}, GMAC/s; all candidates bit-identical):");
    for &(t, gmacs) in &sweep {
        let marker = if t == best_tuning { "  <- best" } else { "" };
        println!("  mc={:<4} kc={:<4} nc={:<4} {gmacs:>8.2}{marker}", t.mc, t.kc, t.nc);
    }

    // Hand-rolled JSON artifact (the workspace has no JSON dependency).
    let workers = |rates: &[(usize, f64)]| -> String {
        let fields: Vec<String> = rates.iter().map(|(w, r)| format!("\"{w}\": {r:.3}")).collect();
        format!("{{{}}}", fields.join(", "))
    };
    let sweep_fields: Vec<String> =
        sweep.iter().map(|(t, g)| format!("\"{}x{}x{}\": {g:.3}", t.mc, t.kc, t.nc)).collect();
    let json = format!(
        "{{\n  \"nproc\": {nproc},\n  \"batch_eval\": {{\"items\": {}, \"sequential_items_per_s\": {seq_eval_rate:.3}, \"workers_items_per_s\": {}}},\n  \"infer\": {{\"allocs_per_image\": {allocs_per_image:.1}, \"workspace_peak_bytes\": {ws_peak_bytes}, \"items_per_s\": {infer_rate:.3}}},\n  \"fault_campaign\": {{\"trials\": {}, \"sequential_items_per_s\": {seq_camp_rate:.3}, \"workers_items_per_s\": {}}},\n  \"gemm_autotune\": {{\"shape\": \"{gm}x{gk}x{gn}\", \"best\": {{\"mc\": {}, \"kc\": {}, \"nc\": {}, \"gmacs\": {best_gmacs:.3}}}, \"candidates_gmacs\": {{{}}}}}\n}}\n",
        data.len(),
        workers(&eval_rates),
        cfg.trials,
        workers(&camp_rates),
        best_tuning.mc,
        best_tuning.kc,
        best_tuning.nc,
        sweep_fields.join(", "),
    );
    std::fs::write("BENCH_throughput.json", &json).expect("write BENCH_throughput.json");
    let obs_json = pgmr_obs::global().snapshot().to_json();
    std::fs::write("BENCH_throughput_obs.json", &obs_json)
        .expect("write BENCH_throughput_obs.json");
    println!();
    println!("wrote BENCH_throughput.json (all pooled results verified bit-identical)");
    println!("wrote BENCH_throughput_obs.json (observability snapshot of the run)");
}
