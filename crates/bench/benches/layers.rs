//! Layer profile — ns/image, MACs and GMAC/s for every layer of a member
//! network at batch 1 and at batch 8.
//!
//! Not a paper exhibit: this harness measures where a member forward
//! spends its time, for lenet5 (1×16×16, 10 classes) and alexnet_mini
//! (3×24×24, 20 classes) — the networks the serve and guarded batch
//! workloads run — untrained, with weights rounded to 14 bits as a RAMR
//! member's are. Each network runs one image at a time, as a served
//! request does, and eight at a time, as a member's batched pass over an
//! eight-image `infer_batch` segment does; batch-8 times are reported per
//! image (the run's time divided by 8). Each network runs in three modes:
//!
//! - `off`: `Guard::Off`, with a hook that only takes timestamps;
//! - `hook14`: `Guard::Off`, the hook rounding every activation to 14 bits;
//! - `guarded_hook14`: `Guard::All` at the 14-bit tolerance, same hook.
//!
//! Times come from `RunPlan::hook`, which `Network::run` calls on the input
//! and on every top-level layer's output: the hook takes a timestamp after
//! it has rounded, so a layer's time runs from the end of the hook on its
//! input to the end of the hook on its output. That covers the layer's
//! forward (checksum derivation included when guarded) and the rounding
//! of its output, and — since a layer's output is verified after the hook
//! on it returns — the verification of the guarded layer before it. The
//! last layer's verification and the logits copy fall outside every
//! layer and inside `total_ns`, the whole `Network::run`.
//!
//! The modes are interleaved within each round, in an order that rotates
//! from round to round, so host drift hits all three alike; after
//! `WARMUP` unrecorded rounds, `ROUNDS` rounds are recorded. Each layer
//! reports the median and p90 ns/image, its MACs from
//! `Network::cost_profile` and GMAC/s at the median (MACs per ns). The
//! harness writes `BENCH_layers.json` to the working directory (the
//! package root under `cargo bench`) and prints the same numbers.
//!
//! ```bash
//! cargo bench -p pgmr-bench --bench layers
//! ```

use std::cell::RefCell;
use std::time::Instant;

use pgmr_bench::banner;
use pgmr_nn::network::{Guard, RunPlan};
use pgmr_nn::zoo::{build, ArchSpec};
use pgmr_precision::Precision;
use pgmr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Recorded rounds: 1,000 samples leave 100 beyond the reported p90.
const ROUNDS: usize = 1000;
/// Unrecorded rounds first: derive the guarded layers' weight sums, size
/// the workspace arena and warm the caches.
const WARMUP: usize = 20;

/// One way to run the forward.
struct Mode {
    name: &'static str,
    quantize: bool,
    guard: bool,
}

const MODES: [Mode; 3] = [
    Mode { name: "off", quantize: false, guard: false },
    Mode { name: "hook14", quantize: true, guard: false },
    Mode { name: "guarded_hook14", quantize: true, guard: true },
];

/// Median and p90 of `samples` (sorted in place).
fn median_p90(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    (at(0.5), at(0.9))
}

fn ns(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_nanos() as f64
}

/// Batch sizes each network is profiled at.
const BATCHES: [usize; 2] = [1, 8];

/// Profiles one network at `batch` images per run; returns its JSON
/// object.
fn profile(spec: &ArchSpec, batch: usize) -> String {
    let q14 = Precision::new(14);
    let tolerance = 2f32.powi(-(q14.mantissa_bits() as i32));
    let mut net = build(spec, 1);
    net.map_params(|v| q14.quantize(v));
    let costs = net.cost_profile();
    let layers = costs.len();
    let mut rng = StdRng::seed_from_u64(24);
    let dims = [batch, spec.in_c, spec.in_h, spec.in_w];
    let pixels = dims.iter().product();
    let image = Tensor::from_vec(dims, (0..pixels).map(|_| rng.gen_range(0.0..1.0)).collect());

    let stamps = RefCell::new(Vec::with_capacity(layers + 1));
    // samples[mode][layer], with the whole run at index `layers`.
    let mut samples = vec![vec![Vec::with_capacity(ROUNDS); layers + 1]; MODES.len()];
    let mut logits = Vec::new();
    for round in 0..WARMUP + ROUNDS {
        for turn in 0..MODES.len() {
            let m = (round + turn) % MODES.len();
            let mode = &MODES[m];
            let hook = |d: &mut [f32]| {
                if mode.quantize {
                    q14.quantize_slice(d);
                }
                stamps.borrow_mut().push(Instant::now());
            };
            let guard = if mode.guard { Guard::All(tolerance) } else { Guard::Off };
            let plan = RunPlan { hook: Some(&hook), guard, ..RunPlan::default() };
            stamps.borrow_mut().clear();
            let t0 = Instant::now();
            net.run(&image, &plan, &mut logits).expect("a clean forward verifies");
            let t1 = Instant::now();
            if round >= WARMUP {
                let s = stamps.borrow();
                assert_eq!(s.len(), layers + 1, "one stamp for the input and each layer");
                let per_image = batch as f64;
                for (l, pair) in s.windows(2).enumerate() {
                    samples[m][l].push(ns(pair[0], pair[1]) / per_image);
                }
                samples[m][layers].push(ns(t0, t1) / per_image);
            }
        }
    }

    let total_macs: u64 = costs.iter().map(|c| c.macs).sum();
    println!();
    println!("{} at batch {batch} ({layers} layers, {total_macs} MACs/image)", spec.arch_id());
    print!("{:>3} {:<16} {:>10}", "#", "kind", "MACs");
    for mode in &MODES {
        print!(" {:>16}", format!("{} ns", mode.name));
    }
    println!(" {:>9}", "GMAC/s");
    let mut modes_json = Vec::new();
    let mut totals = [0.0f64; MODES.len()];
    let mut rows: Vec<Vec<(f64, f64)>> = vec![Vec::new(); layers + 1];
    for (m, mode_samples) in samples.iter_mut().enumerate() {
        for (l, s) in mode_samples.iter_mut().enumerate() {
            rows[l].push(median_p90(s));
        }
        totals[m] = rows[layers][m].0;
    }
    for (l, cost) in costs.iter().enumerate() {
        print!("{l:>3} {:<16} {:>10}", cost.kind, cost.macs);
        for &(med, _) in &rows[l] {
            print!(" {med:>16.0}");
        }
        let off = rows[l][0].0;
        if cost.macs > 0 {
            println!(" {:>9.2}", cost.macs as f64 / off);
        } else {
            println!(" {:>9}", "-");
        }
    }
    print!("{:>3} {:<16} {:>10}", "", "total", "");
    for total in totals {
        print!(" {total:>16.0}");
    }
    println!();

    for (m, mode) in MODES.iter().enumerate() {
        let layer_fields: Vec<String> = costs
            .iter()
            .enumerate()
            .map(|(l, cost)| {
                let (med, p90) = rows[l][m];
                let gmacs = if cost.macs > 0 {
                    format!("{:.3}", cost.macs as f64 / med)
                } else {
                    "null".to_string()
                };
                format!(
                    "{{\"index\": {l}, \"kind\": \"{}\", \"ns_p50\": {med:.0}, \"ns_p90\": {p90:.0}, \"macs\": {}, \"gmacs\": {gmacs}}}",
                    cost.kind, cost.macs
                )
            })
            .collect();
        let (total, total_p90) = rows[layers][m];
        modes_json.push(format!(
            "\"{}\": {{\"total_ns_p50\": {total:.0}, \"total_ns_p90\": {total_p90:.0}, \"layers\": [\n        {}\n      ]}}",
            mode.name,
            layer_fields.join(",\n        ")
        ));
    }
    let abft = totals[2] / totals[1] - 1.0;
    println!("ABFT overhead (guarded_hook14 / hook14 - 1, medians): {abft:.3}");
    format!(
        "{{\"arch\": \"{}\", \"batch\": {batch}, \"abft_overhead_frac\": {abft:.4}, \"modes\": {{\n      {}\n    }}}}",
        spec.arch_id(),
        modes_json.join(",\n      ")
    )
}

fn main() {
    banner("Layer profile", "per-layer ns/image, MACs and GMAC/s at batch 1 and 8");
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("host cores: {nproc}   rounds: {ROUNDS} (+{WARMUP} warm-up), modes interleaved");
    let specs = [ArchSpec::lenet5(1, 16, 16, 10), ArchSpec::alexnet_mini(3, 24, 24, 20)];
    let nets: Vec<String> =
        (specs.iter()).flat_map(|spec| BATCHES.map(|batch| profile(spec, batch))).collect();
    let json = format!(
        "{{\n  \"nproc\": {nproc},\n  \"rounds\": {ROUNDS},\n  \"nets\": [\n    {}\n  ]\n}}\n",
        nets.join(",\n    ")
    );
    std::fs::write("BENCH_layers.json", &json).expect("write BENCH_layers.json");
    println!();
    println!("wrote BENCH_layers.json");
}
