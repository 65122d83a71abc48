//! Fault-injection campaign — SDC rate vs ABFT detection rate.
//!
//! Not a paper exhibit: this harness quantifies the dependability add-on
//! of this reproduction. Seeded single-bit flips are injected into the
//! guarded (dense/conv) activations of a trained benchmark network at a
//! sweep of per-element rates, with and without ABFT row/column-checksum
//! verification, and the silent-data-corruption (SDC) and detection rates
//! are reported. A persistent weight-fault campaign rides along to show
//! the checksum blind spot that motivates ensemble-level quarantine.
//!
//! Reports are deterministic: identical seeds reproduce identical tables.
//! The harness also writes `BENCH_fault_campaign_obs.json`, the
//! deterministic [`pgmr_obs`] snapshot of the run (trial outcome counters
//! under `faults.*`), for CI to archive.

use pgmr_bench::{banner, scale};
use pgmr_datasets::Split;
use pgmr_faults::{
    guarded_sites, run_campaign, CampaignConfig, CampaignGuard, FaultTarget, ProfileConfig,
    SiteFilter, ANY_BIT, EXPONENT_BITS,
};
use pgmr_nn::network::{Guard, RunPlan};
use pgmr_nn::{CheckPlan, ProtectionLevel};
use pgmr_preprocess::Preprocessor;
use pgmr_tensor::checksum::DEFAULT_TOLERANCE;
use polygraph_mr::suite::Benchmark;
use std::time::Instant;

/// One measured point of the coverage-vs-throughput frontier.
struct FrontierPoint {
    level: String,
    checked_layers: usize,
    duplicated: bool,
    masked: usize,
    sdc: usize,
    detected: usize,
    detection_rate: f64,
    items_per_s: f64,
}

fn main() {
    banner("Fault campaign", "SDC rate vs ABFT detection rate under bit flips");
    let bench = Benchmark::lenet5_digits(scale());
    // Resolving the member through the profile-aware path also resolves
    // (or measures and persists) its `.pgvp` vulnerability artifact.
    let profile_cfg = ProfileConfig { trials_per_site: 24, seed: 7, ..ProfileConfig::default() };
    let (mut member, profile) = bench.member_with_profile(Preprocessor::Identity, 1, &profile_cfg);

    let test = bench.data(Split::Test);
    let inputs: Vec<_> = test.images().iter().take(32).cloned().collect();
    let net = member.network_mut();
    let sites = SiteFilter::Only(guarded_sites(net));
    let pool = pgmr_nn::pool::global();

    let trials = 200;
    let seed = 2020;
    println!("network: {}   trials/point: {trials}   campaign seed: {seed}", net.arch_id());
    println!();
    println!(
        "{:>8} {:>5} {:>12} {:>12} {:>12} {:>10}",
        "rate", "bits", "sdc% (raw)", "sdc% (abft)", "detected%", "flips/try"
    );

    for (bits, bits_label) in [(EXPONENT_BITS, "exp"), (ANY_BIT, "any")] {
        for rate in [1e-4, 3e-4, 1e-3, 3e-3, 1e-2] {
            let base = CampaignConfig {
                trials,
                seed,
                rate,
                bits: bits.clone(),
                sites: sites.clone(),
                ..CampaignConfig::default()
            };
            let raw = run_campaign(
                net,
                &inputs,
                &CampaignConfig { guard: CampaignGuard::Off, ..base.clone() },
                pool,
            );
            let abft = run_campaign(net, &inputs, &base, pool);
            println!(
                "{:>8.0e} {:>5} {:>12.2} {:>12.2} {:>12.2} {:>10.2}",
                rate,
                bits_label,
                raw.sdc_rate() * 100.0,
                abft.sdc_rate() * 100.0,
                abft.detection_rate() * 100.0,
                abft.injected as f64 / trials as f64,
            );
        }
    }

    println!();
    println!("persistent weight faults (ABFT blind spot — checksums derive from the");
    println!("corrupted weights and stay consistent while values remain finite; only");
    println!("corruption violent enough to overflow the arithmetic gets caught):");
    for rate in [1e-3, 1e-2] {
        let cfg = CampaignConfig {
            trials,
            seed,
            rate,
            bits: EXPONENT_BITS,
            target: FaultTarget::Weights,
            ..CampaignConfig::default()
        };
        let report = run_campaign(net, &inputs, &cfg, pool);
        println!(
            "  rate {:>6.0e}: sdc {:>6.2}%  detected {:>6.2}%  (flips/trial {:.1})",
            rate,
            report.sdc_rate() * 100.0,
            report.detected as f64 / trials as f64 * 100.0,
            report.injected as f64 / trials as f64,
        );
    }
    println!();
    println!("shape: ABFT pushes activation-fault SDC to ~0 at ≥99% detection of");
    println!("exponent flips; weight faults largely evade it and need ensemble-level");
    println!("quarantine (see the fault-model section in DESIGN.md).");

    // --- Vulnerability-guided selective-protection frontier ---------------
    // Ranks the guarded layers by measured SDC contribution, then sweeps
    // ProtectionLevel from Off through every Selective top-k to Full,
    // measuring detection of exponent flips (the plan-aware campaign) and
    // clean-path throughput per point.
    let n_layers = net.num_layers();
    let n_guarded = guarded_sites(net).len();
    println!();
    println!("vulnerability profile ({} guarded sites, {} trials/site, seed 7):", n_guarded, 24);
    for v in profile.ranking() {
        println!(
            "  site {:>2} (layer {:>2}): sdc {:>3}  detected {:>3}  masked {:>3}  flips {:>5}",
            v.site,
            v.site - 1,
            v.sdc,
            v.detected,
            v.masked,
            v.injected
        );
    }

    let mut plans: Vec<(String, CheckPlan)> =
        vec![("off".to_string(), profile.plan(ProtectionLevel::Off, n_layers, false))];
    if let Some(site) = profile.most_critical_site() {
        // Duplication-only: every checksum off, the single most critical
        // layer recomputed and compared — the cheapest nonzero tier.
        plans.push(("dup-only".to_string(), CheckPlan::new(vec![false; n_layers], Some(site - 1))));
    }
    for top_k in 1..n_guarded {
        plans.push((
            format!("sel{top_k}"),
            profile.plan(ProtectionLevel::Selective { top_k }, n_layers, false),
        ));
    }
    plans.push(("full".to_string(), profile.plan(ProtectionLevel::Full, n_layers, false)));

    let frontier_seed = 2021;
    let points: Vec<FrontierPoint> = plans
        .iter()
        .map(|(level, plan)| {
            let cfg = CampaignConfig {
                trials,
                seed: frontier_seed,
                rate: 1e-3,
                bits: EXPONENT_BITS,
                sites: sites.clone(),
                guard: CampaignGuard::Plan(plan.clone(), DEFAULT_TOLERANCE),
                ..CampaignConfig::default()
            };
            let report = run_campaign(net, &inputs, &cfg, pool);
            // Clean-path throughput of this plan (wall clock, informational:
            // the gate below uses the deterministic checked-layer count).
            let reps = 3;
            let run = RunPlan { guard: Guard::Plan(plan, 1e-4), ..RunPlan::default() };
            let mut logits = Vec::new();
            for img in inputs.iter().take(4) {
                let _ = net.run(img, &run, &mut logits);
            }
            let t0 = Instant::now();
            for _ in 0..reps {
                for img in &inputs {
                    net.run(img, &run, &mut logits).expect("clean planned forward must verify");
                }
            }
            let elapsed = t0.elapsed().as_secs_f64();
            FrontierPoint {
                level: level.clone(),
                checked_layers: plan.checked_count(),
                duplicated: plan.duplicated_layer().is_some(),
                masked: report.masked,
                sdc: report.sdc,
                detected: report.detected,
                detection_rate: report.detection_rate(),
                items_per_s: (reps * inputs.len()) as f64 / elapsed,
            }
        })
        .collect();

    let full = points.last().expect("frontier always ends at Full");
    let full_detection = full.detection_rate;
    let full_checked = full.checked_layers;
    let retention = |p: &FrontierPoint| {
        // pgmr-lint: allow(float-eq): exact-zero guard before division — any nonzero detection takes the normal path
        if full_detection == 0.0 {
            1.0
        } else {
            p.detection_rate / full_detection
        }
    };
    // The frontier holds when some Selective point keeps ≥90% of Full's
    // detection while checking strictly fewer layers per image.
    let frontier_ok = points
        .iter()
        .filter(|p| p.level.starts_with("sel"))
        .any(|p| retention(p) >= 0.9 && p.checked_layers < full_checked);

    println!();
    println!("coverage-vs-throughput frontier (exponent flips, rate 1e-3, {trials} trials):");
    println!(
        "{:>9} {:>8} {:>5} {:>9} {:>7} {:>10} {:>10} {:>10}",
        "level", "checked", "dup", "detected%", "sdc%", "retention", "items/s", ""
    );
    for p in &points {
        println!(
            "{:>9} {:>8} {:>5} {:>9.2} {:>7.2} {:>10.3} {:>10.0} {:>10}",
            p.level,
            p.checked_layers,
            if p.duplicated { "yes" } else { "no" },
            p.detection_rate * 100.0,
            p.sdc as f64 / trials as f64 * 100.0,
            retention(p),
            p.items_per_s,
            ""
        );
    }
    println!("frontier_ok: {frontier_ok} (some Selective point ≥90% of Full detection");
    println!("with strictly fewer checked layers per image)");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"arch\": \"{}\",\n", net.arch_id()));
    json.push_str(&format!("  \"trials\": {trials},\n"));
    json.push_str(&format!("  \"seed\": {frontier_seed},\n"));
    json.push_str("  \"rate\": 1e-3,\n");
    json.push_str("  \"profile_ranking\": [\n");
    let ranking = profile.ranking();
    for (i, v) in ranking.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"site\": {}, \"sdc\": {}, \"detected\": {}, \"masked\": {}, \"injected\": {}}}{}\n",
            v.site,
            v.sdc,
            v.detected,
            v.masked,
            v.injected,
            if i + 1 < ranking.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"frontier\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"level\": \"{}\", \"checked_layers\": {}, \"duplicated\": {}, \
             \"masked\": {}, \"sdc\": {}, \"detected\": {}, \"detection_rate\": {:.6}, \
             \"retention_vs_full\": {:.6}, \"items_per_s\": {:.1}}}{}\n",
            p.level,
            p.checked_layers,
            p.duplicated,
            p.masked,
            p.sdc,
            p.detected,
            p.detection_rate,
            retention(p),
            p.items_per_s,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"frontier_ok\": {frontier_ok}\n"));
    json.push_str("}\n");
    std::fs::write("BENCH_fault_campaign.json", &json).expect("write BENCH_fault_campaign.json");
    println!();
    println!("wrote BENCH_fault_campaign.json (selective-protection frontier)");

    // The campaign counters are seed-deterministic, so the reproducibility
    // export is byte-identical across runs of this harness.
    let obs_json = pgmr_obs::global().snapshot().to_deterministic_json();
    std::fs::write("BENCH_fault_campaign_obs.json", &obs_json)
        .expect("write BENCH_fault_campaign_obs.json");
    println!();
    println!("wrote BENCH_fault_campaign_obs.json (observability snapshot of the run)");
}
