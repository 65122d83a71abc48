//! Injection-campaign runner: many seeded fault trials against one
//! network, classified into masked / silent-data-corruption / detected
//! outcomes, with and without ABFT checksums.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use pgmr_nn::network::{ActivationHook, Guard, RunPlan};
use pgmr_nn::pool::{shard_ranges, WorkerPool};
use pgmr_nn::{CheckPlan, Network};
use pgmr_tensor::checksum::ChecksumFault;
use pgmr_tensor::{argmax, Tensor};

use crate::inject::{
    inject_weights, repair_weights, ActivationInjector, FaultSpec, SiteFilter, ANY_BIT,
};

/// Mixing constant (golden-ratio based) for deriving per-trial seeds from
/// the campaign seed, so trials are independent yet fully reproducible.
const TRIAL_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Classification of one fault-injection trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// The prediction matched the fault-free run (fault absorbed, or no
    /// fault landed at the sampled rate).
    Masked,
    /// The prediction silently changed — the dependability hazard.
    Sdc,
    /// An ABFT checksum caught the corruption before it reached the output.
    Detected,
}

/// Parameters of an injection campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of independent fault trials.
    pub trials: usize,
    /// Campaign seed; trial `t` runs with a seed derived from it.
    pub seed: u64,
    /// Per-element flip probability per trial.
    pub rate: f64,
    /// Eligible bit positions.
    pub bits: RangeInclusive<u8>,
    /// Eligible injection sites.
    pub sites: SiteFilter,
    /// ABFT verification tolerance (used when `checksums` is on).
    pub tolerance: f32,
    /// Whether the forward pass is ABFT-guarded.
    pub checksums: bool,
    /// Optional selective-protection plan for the guarded forward. `None`
    /// (the default) verifies every layer; `Some(plan)` guards trials
    /// with [`Guard::Plan`], which is how the coverage-vs-throughput
    /// frontier measures each `top_k` point. Ignored when `checksums` is
    /// off.
    pub plan: Option<CheckPlan>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            trials: 100,
            seed: 0,
            rate: 1e-3,
            bits: ANY_BIT,
            sites: SiteFilter::All,
            tolerance: pgmr_tensor::checksum::DEFAULT_TOLERANCE,
            checksums: true,
            plan: None,
        }
    }
}

/// Per-site outcome tallies within a campaign: every trial that flipped a
/// bit at this site has its outcome attributed here (a trial touching
/// several sites counts once at each), so the tallies resolve *which*
/// sites' corruptions turn into SDCs — the raw material of a
/// vulnerability ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteTally {
    /// Injection site (hook invocation index for activation campaigns,
    /// parameter-slot index for weight campaigns).
    pub site: usize,
    /// Trials that flipped here and stayed masked.
    pub masked: usize,
    /// Trials that flipped here and ended in silent data corruption.
    pub sdc: usize,
    /// Trials that flipped here and were stopped by a checksum.
    pub detected: usize,
    /// Bit flips injected at this site across all trials.
    pub injected: usize,
}

impl SiteTally {
    /// An all-zero tally for `site`.
    pub fn empty(site: usize) -> Self {
        SiteTally { site, masked: 0, sdc: 0, detected: 0, injected: 0 }
    }
}

/// Aggregated campaign results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Trials run.
    pub trials: usize,
    /// Trials whose prediction matched the fault-free run.
    pub masked: usize,
    /// Trials with a silent prediction change.
    pub sdc: usize,
    /// Trials stopped by a checksum violation.
    pub detected: usize,
    /// Total bit flips injected across all trials.
    pub injected: usize,
    /// Outcome tallies resolved per injection site, sorted by site index.
    /// Sites where no trial ever flipped a bit are absent (the site
    /// sweeps guarantee an entry for every swept site regardless).
    pub per_site: Vec<SiteTally>,
}

impl CampaignReport {
    /// The tally for `site`, if any trial flipped a bit there.
    pub fn site(&self, site: usize) -> Option<&SiteTally> {
        self.per_site.iter().find(|t| t.site == site)
    }
    /// Fraction of trials ending in silent data corruption.
    pub fn sdc_rate(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.sdc as f64 / self.trials as f64
    }

    /// Fraction of *unmasked* corruptions that the checksums caught:
    /// `detected / (detected + sdc)`. 1.0 when nothing went unmasked.
    pub fn detection_rate(&self) -> f64 {
        let unmasked = self.detected + self.sdc;
        if unmasked == 0 {
            return 1.0;
        }
        self.detected as f64 / unmasked as f64
    }
}

/// Derives the deterministic seed for trial `t` of a campaign.
fn trial_seed(campaign_seed: u64, t: usize) -> u64 {
    campaign_seed.wrapping_add((t as u64 + 1).wrapping_mul(TRIAL_SEED_STRIDE))
}

fn classify(predicted: usize, golden: usize) -> TrialOutcome {
    if predicted == golden {
        TrialOutcome::Masked
    } else {
        TrialOutcome::Sdc
    }
}

/// One trial's result: its outcome plus the per-site flip counts that
/// produced it (sorted by site).
type TrialResult = (TrialOutcome, Vec<(usize, usize)>);

/// Runs one trial's forward: ABFT-guarded when the config asks for
/// checksums (plan-aware when it carries a selective-protection plan,
/// every guarded layer otherwise), plain when it does not. Returns the
/// logits, or the checksum fault that detected the corruption.
fn trial_forward(
    net: &mut Network,
    input: &Tensor,
    hook: Option<ActivationHook<'_>>,
    cfg: &CampaignConfig,
) -> Result<Vec<f32>, ChecksumFault> {
    let guard = match (&cfg.plan, cfg.checksums) {
        (_, false) => Guard::Off,
        (Some(plan), true) => Guard::Plan(plan, cfg.tolerance),
        (None, true) => Guard::All(cfg.tolerance),
    };
    let mut logits = Vec::new();
    net.run(input, &RunPlan { hook, guard, ..RunPlan::default() }, &mut logits)?;
    Ok(logits)
}

/// Classifies a trial's forward against the fault-free prediction.
fn outcome(result: Result<Vec<f32>, ChecksumFault>, golden: usize) -> TrialOutcome {
    match result {
        Err(_) => TrialOutcome::Detected,
        Ok(logits) => classify(argmax(&logits), golden),
    }
}

/// One transient activation-fault trial: outcome plus per-site flips.
/// Trial `t` is a pure function of `(net, inputs, cfg, t)` — its injector
/// is seeded from [`trial_seed`] alone — which is what lets campaigns
/// shard across a worker pool without changing their results.
fn activation_trial(
    net: &mut Network,
    inputs: &[Tensor],
    cfg: &CampaignConfig,
    golden: &[usize],
    t: usize,
) -> TrialResult {
    let input = &inputs[t % inputs.len()];
    let spec = FaultSpec::transient_activations(trial_seed(cfg.seed, t), cfg.rate)
        .with_bits(cfg.bits.clone())
        .with_sites(cfg.sites.clone());
    let inj = ActivationInjector::new(&spec);
    inj.begin_forward();
    let hook = |x: &mut [f32]| inj.apply(x);
    let outcome = outcome(trial_forward(net, input, Some(&hook), cfg), golden[t % inputs.len()]);
    (outcome, inj.site_flips())
}

/// One persistent weight-fault trial: inject, evaluate, repair. Sites in
/// the result are parameter-slot indices.
fn weight_trial(
    net: &mut Network,
    inputs: &[Tensor],
    cfg: &CampaignConfig,
    golden: &[usize],
    t: usize,
) -> TrialResult {
    let input = &inputs[t % inputs.len()];
    let spec = FaultSpec::persistent_weights(trial_seed(cfg.seed, t), cfg.rate)
        .with_bits(cfg.bits.clone())
        .with_sites(cfg.sites.clone());
    let records = inject_weights(net, &spec);
    let outcome = outcome(trial_forward(net, input, None, cfg), golden[t % inputs.len()]);
    let mut by_site: BTreeMap<usize, usize> = BTreeMap::new();
    for r in &records {
        *by_site.entry(r.site).or_insert(0) += 1;
    }
    repair_weights(net, &records);
    (outcome, by_site.into_iter().collect())
}

/// Folds per-trial results into a report, in any order — the counters
/// commute and the per-site map is keyed (not ordered), so sharded
/// campaigns sum to exactly the sequential report. Mirrors the totals
/// into the `faults.*` counters on the global [`pgmr_obs`] registry.
fn tally(trials: usize, outcomes: impl IntoIterator<Item = TrialResult>) -> CampaignReport {
    let mut report = CampaignReport {
        trials,
        masked: 0,
        sdc: 0,
        detected: 0,
        injected: 0,
        per_site: Vec::new(),
    };
    let mut per_site: BTreeMap<usize, SiteTally> = BTreeMap::new();
    for (outcome, flips) in outcomes {
        match outcome {
            TrialOutcome::Masked => report.masked += 1,
            TrialOutcome::Sdc => report.sdc += 1,
            TrialOutcome::Detected => report.detected += 1,
        }
        for &(site, n) in &flips {
            report.injected += n;
            let t = per_site.entry(site).or_insert_with(|| SiteTally::empty(site));
            t.injected += n;
            match outcome {
                TrialOutcome::Masked => t.masked += 1,
                TrialOutcome::Sdc => t.sdc += 1,
                TrialOutcome::Detected => t.detected += 1,
            }
        }
    }
    report.per_site = per_site.into_values().collect();
    let obs = pgmr_obs::global();
    obs.counter("faults.trials_total").add(report.trials as u64);
    obs.counter("faults.masked_total").add(report.masked as u64);
    obs.counter("faults.sdc_total").add(report.sdc as u64);
    obs.counter("faults.detected_total").add(report.detected as u64);
    obs.counter("faults.flips_total").add(report.injected as u64);
    report
}

/// One trial of a campaign: `(net, inputs, cfg, golden, t) → (outcome,
/// per-site flips)`.
type TrialFn = fn(&mut Network, &[Tensor], &CampaignConfig, &[usize], usize) -> TrialResult;

/// Runs a campaign with per-shard network clones on `pool`. Each trial is
/// independently seeded, so the merged report is identical to the
/// sequential loop.
fn run_campaign_sharded(
    net: &Network,
    inputs: &[Tensor],
    cfg: &CampaignConfig,
    golden: &[usize],
    pool: &WorkerPool,
    trial: TrialFn,
) -> CampaignReport {
    let jobs: Vec<_> = shard_ranges(cfg.trials, pool.threads())
        .into_iter()
        .map(|range| {
            let mut net = net.clone();
            move || range.map(|t| trial(&mut net, inputs, cfg, golden, t)).collect::<Vec<_>>()
        })
        .collect();
    tally(cfg.trials, pool.run(jobs).into_iter().flatten())
}

/// Runs `cfg.trials` transient activation-fault trials against `net`,
/// cycling through `inputs`. Each trial compares the faulty prediction to
/// the fault-free prediction on the same input; with checksums on, a
/// verification failure counts as [`TrialOutcome::Detected`].
///
/// # Panics
///
/// Panics if `inputs` is empty.
pub fn run_activation_campaign(
    net: &mut Network,
    inputs: &[Tensor],
    cfg: &CampaignConfig,
) -> CampaignReport {
    assert!(!inputs.is_empty(), "campaign needs at least one input");
    let golden: Vec<usize> = inputs.iter().map(|x| argmax(net.forward(x, false).data())).collect();
    tally(cfg.trials, (0..cfg.trials).map(|t| activation_trial(net, inputs, cfg, &golden, t)))
}

/// [`run_activation_campaign`], with trials sharded across `pool` on
/// per-worker network clones. Trial seeds depend only on the trial index,
/// so the report is bit-identical to the sequential runner.
///
/// # Panics
///
/// Panics if `inputs` is empty.
pub fn run_activation_campaign_with(
    net: &mut Network,
    inputs: &[Tensor],
    cfg: &CampaignConfig,
    pool: &WorkerPool,
) -> CampaignReport {
    assert!(!inputs.is_empty(), "campaign needs at least one input");
    if pool.threads() == 1 || cfg.trials < 2 {
        return run_activation_campaign(net, inputs, cfg);
    }
    let golden: Vec<usize> = inputs.iter().map(|x| argmax(net.forward(x, false).data())).collect();
    run_campaign_sharded(net, inputs, cfg, &golden, pool, activation_trial)
}

/// Runs `cfg.trials` weight-fault trials: each trial injects persistent
/// flips, evaluates one input, then repairs the network. Because the ABFT
/// checksums are derived from the corrupted weights they stay consistent,
/// so with `cfg.checksums` on, weight faults still surface as
/// [`TrialOutcome::Sdc`] as long as the arithmetic stays finite (flips
/// violent enough to overflow into `inf`/`NaN` do trip verification) —
/// the experimental evidence that weight corruption needs ensemble-level
/// quarantine rather than checksums.
///
/// # Panics
///
/// Panics if `inputs` is empty.
pub fn run_weight_campaign(
    net: &mut Network,
    inputs: &[Tensor],
    cfg: &CampaignConfig,
) -> CampaignReport {
    assert!(!inputs.is_empty(), "campaign needs at least one input");
    let golden: Vec<usize> = inputs.iter().map(|x| argmax(net.forward(x, false).data())).collect();
    tally(cfg.trials, (0..cfg.trials).map(|t| weight_trial(net, inputs, cfg, &golden, t)))
}

/// [`run_weight_campaign`], with trials sharded across `pool` on
/// per-worker network clones. Each shard injects into and repairs its own
/// clone, so the caller's network is untouched and the merged report is
/// bit-identical to the sequential runner.
///
/// # Panics
///
/// Panics if `inputs` is empty.
pub fn run_weight_campaign_with(
    net: &mut Network,
    inputs: &[Tensor],
    cfg: &CampaignConfig,
    pool: &WorkerPool,
) -> CampaignReport {
    assert!(!inputs.is_empty(), "campaign needs at least one input");
    if pool.threads() == 1 || cfg.trials < 2 {
        return run_weight_campaign(net, inputs, cfg);
    }
    let golden: Vec<usize> = inputs.iter().map(|x| argmax(net.forward(x, false).data())).collect();
    run_campaign_sharded(net, inputs, cfg, &golden, pool, weight_trial)
}

/// Parameters of an MRFI-style per-site resolution sweep: instead of one
/// campaign spraying flips across a site filter, each listed site gets its
/// own `trials_per_site`-trial campaign with injection confined to that
/// site — so the merged per-site tallies measure every site's SDC
/// contribution with equal statistical weight, regardless of how many
/// elements the site holds.
#[derive(Debug, Clone)]
pub struct SiteSweepConfig {
    /// Trials devoted to each site.
    pub trials_per_site: usize,
    /// Sweep seed; site `s` runs a campaign seeded from `(seed, s)`.
    pub seed: u64,
    /// Per-element flip probability per trial.
    pub rate: f64,
    /// Eligible bit positions.
    pub bits: RangeInclusive<u8>,
    /// The sites to measure, one confined campaign each.
    pub sites: Vec<usize>,
    /// ABFT verification tolerance (used when `checksums` is on).
    pub tolerance: f32,
    /// Whether trial forwards are ABFT-guarded. Vulnerability profiling
    /// runs with this *off*: it measures where faults become SDCs when
    /// nothing is protected.
    pub checksums: bool,
}

impl Default for SiteSweepConfig {
    fn default() -> Self {
        SiteSweepConfig {
            trials_per_site: 50,
            seed: 0,
            rate: 1e-3,
            bits: ANY_BIT,
            sites: Vec::new(),
            tolerance: pgmr_tensor::checksum::DEFAULT_TOLERANCE,
            checksums: false,
        }
    }
}

/// Derives the deterministic campaign seed for one site of a sweep.
fn site_seed(sweep_seed: u64, site: usize) -> u64 {
    sweep_seed ^ (site as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The confined single-site campaign config for site `site` of a sweep.
fn site_campaign_config(cfg: &SiteSweepConfig, site: usize) -> CampaignConfig {
    CampaignConfig {
        trials: cfg.trials_per_site,
        seed: site_seed(cfg.seed, site),
        rate: cfg.rate,
        bits: cfg.bits.clone(),
        sites: SiteFilter::Only(vec![site]),
        tolerance: cfg.tolerance,
        checksums: cfg.checksums,
        plan: None,
    }
}

/// Merges per-site campaign reports into one sweep report. Every swept
/// site is guaranteed a [`SiteTally`] entry, even if none of its trials
/// landed a flip (possible at low rates on small sites).
fn merge_site_reports(cfg: &SiteSweepConfig, reports: Vec<CampaignReport>) -> CampaignReport {
    let mut per_site: BTreeMap<usize, SiteTally> =
        cfg.sites.iter().map(|&s| (s, SiteTally::empty(s))).collect();
    let mut merged = CampaignReport {
        trials: 0,
        masked: 0,
        sdc: 0,
        detected: 0,
        injected: 0,
        per_site: Vec::new(),
    };
    for report in reports {
        merged.trials += report.trials;
        merged.masked += report.masked;
        merged.sdc += report.sdc;
        merged.detected += report.detected;
        merged.injected += report.injected;
        for t in report.per_site {
            let e = per_site.entry(t.site).or_insert_with(|| SiteTally::empty(t.site));
            e.masked += t.masked;
            e.sdc += t.sdc;
            e.detected += t.detected;
            e.injected += t.injected;
        }
    }
    merged.per_site = per_site.into_values().collect();
    merged
}

/// One full campaign: `(net, inputs, cfg) → report`.
type CampaignFn = fn(&mut Network, &[Tensor], &CampaignConfig) -> CampaignReport;

fn run_site_sweep(
    net: &mut Network,
    inputs: &[Tensor],
    cfg: &SiteSweepConfig,
    runner: CampaignFn,
) -> CampaignReport {
    assert!(!inputs.is_empty(), "site sweep needs at least one input");
    assert!(!cfg.sites.is_empty(), "site sweep needs at least one site");
    let reports = cfg
        .sites
        .iter()
        .map(|&s| runner(net, inputs, &site_campaign_config(cfg, s)))
        .collect::<Vec<_>>();
    merge_site_reports(cfg, reports)
}

fn run_site_sweep_with(
    net: &Network,
    inputs: &[Tensor],
    cfg: &SiteSweepConfig,
    pool: &WorkerPool,
    runner: CampaignFn,
) -> CampaignReport {
    assert!(!inputs.is_empty(), "site sweep needs at least one input");
    assert!(!cfg.sites.is_empty(), "site sweep needs at least one site");
    let jobs: Vec<_> = cfg
        .sites
        .iter()
        .map(|&s| {
            let mut net = net.clone();
            let site_cfg = site_campaign_config(cfg, s);
            move || runner(&mut net, inputs, &site_cfg)
        })
        .collect();
    merge_site_reports(cfg, pool.run(jobs))
}

/// Sweeps transient activation faults one site at a time (see
/// [`SiteSweepConfig`]). The merged report carries a [`SiteTally`] for
/// every swept site; aggregate counters sum over all per-site campaigns.
///
/// # Panics
///
/// Panics if `inputs` or `cfg.sites` is empty.
pub fn run_activation_site_sweep(
    net: &mut Network,
    inputs: &[Tensor],
    cfg: &SiteSweepConfig,
) -> CampaignReport {
    run_site_sweep(net, inputs, cfg, run_activation_campaign)
}

/// [`run_activation_site_sweep`], sharded one site per pool job on
/// per-worker network clones. Site campaigns are independently seeded and
/// merged by site index, so the report is bit-identical to the sequential
/// sweep.
///
/// # Panics
///
/// Panics if `inputs` or `cfg.sites` is empty.
pub fn run_activation_site_sweep_with(
    net: &mut Network,
    inputs: &[Tensor],
    cfg: &SiteSweepConfig,
    pool: &WorkerPool,
) -> CampaignReport {
    if pool.threads() == 1 || cfg.sites.len() < 2 {
        return run_activation_site_sweep(net, inputs, cfg);
    }
    run_site_sweep_with(net, inputs, cfg, pool, run_activation_campaign)
}

/// Sweeps persistent weight faults one parameter slot at a time; sites
/// are [`pgmr_nn::ParamSlot`] indices in visit order.
///
/// # Panics
///
/// Panics if `inputs` or `cfg.sites` is empty.
pub fn run_weight_site_sweep(
    net: &mut Network,
    inputs: &[Tensor],
    cfg: &SiteSweepConfig,
) -> CampaignReport {
    run_site_sweep(net, inputs, cfg, run_weight_campaign)
}

/// [`run_weight_site_sweep`], sharded one site per pool job on per-worker
/// network clones; bit-identical to the sequential sweep.
///
/// # Panics
///
/// Panics if `inputs` or `cfg.sites` is empty.
pub fn run_weight_site_sweep_with(
    net: &mut Network,
    inputs: &[Tensor],
    cfg: &SiteSweepConfig,
    pool: &WorkerPool,
) -> CampaignReport {
    if pool.threads() == 1 || cfg.sites.len() < 2 {
        return run_weight_site_sweep(net, inputs, cfg);
    }
    run_site_sweep_with(net, inputs, cfg, pool, run_weight_campaign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{guarded_sites, EXPONENT_BITS};
    use pgmr_nn::layer::Layer;
    use pgmr_nn::layers::{Conv2d, Dense, Flatten, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net_and_inputs() -> (Network, Vec<Tensor>) {
        let mut rng = StdRng::seed_from_u64(5);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(1, 4, 8, 8, 3, 1, 1, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(4 * 8 * 8, 6, &mut rng)),
        ];
        let net = Network::new(layers, "campaign-net", 6);
        let inputs =
            (0..4).map(|_| Tensor::uniform(vec![1, 1, 8, 8], -1.0, 1.0, &mut rng)).collect();
        (net, inputs)
    }

    #[test]
    fn campaigns_are_deterministic_across_runs() {
        let (mut net, inputs) = net_and_inputs();
        let cfg = CampaignConfig { trials: 40, seed: 123, rate: 5e-3, ..Default::default() };
        let a = run_activation_campaign(&mut net, &inputs, &cfg);
        let b = run_activation_campaign(&mut net, &inputs, &cfg);
        assert_eq!(a, b);
        let c = run_weight_campaign(&mut net, &inputs, &cfg);
        let d = run_weight_campaign(&mut net, &inputs, &cfg);
        assert_eq!(c, d);
    }

    #[test]
    fn parallel_campaigns_are_bit_identical_to_sequential() {
        use pgmr_nn::WorkerPool;
        let (mut net, inputs) = net_and_inputs();
        let cfg = CampaignConfig { trials: 37, seed: 99, rate: 5e-3, ..Default::default() };
        let seq_act = run_activation_campaign(&mut net, &inputs, &cfg);
        let seq_wt = run_weight_campaign(&mut net, &inputs, &cfg);
        for width in [2, 4] {
            let pool = WorkerPool::new(width);
            assert_eq!(
                run_activation_campaign_with(&mut net, &inputs, &cfg, &pool),
                seq_act,
                "activation campaign diverged at width {width}"
            );
            assert_eq!(
                run_weight_campaign_with(&mut net, &inputs, &cfg, &pool),
                seq_wt,
                "weight campaign diverged at width {width}"
            );
        }
        // Width 1 takes the sequential fast path; it must agree too.
        let solo = WorkerPool::new(1);
        assert_eq!(run_activation_campaign_with(&mut net, &inputs, &cfg, &solo), seq_act);
        assert_eq!(run_weight_campaign_with(&mut net, &inputs, &cfg, &solo), seq_wt);
    }

    #[test]
    fn checksums_catch_guarded_exponent_flips() {
        let (mut net, inputs) = net_and_inputs();
        let cfg = CampaignConfig {
            trials: 120,
            seed: 7,
            rate: 2e-3,
            bits: EXPONENT_BITS,
            sites: SiteFilter::Only(guarded_sites(&net)),
            ..Default::default()
        };
        let report = run_activation_campaign(&mut net, &inputs, &cfg);
        assert!(report.injected > 0, "rate too low, nothing injected");
        assert!(
            report.detection_rate() >= 0.95,
            "ABFT detection rate {:.3} below 0.95 ({} sdc, {} detected)",
            report.detection_rate(),
            report.sdc,
            report.detected
        );
    }

    #[test]
    fn unguarded_run_suffers_more_sdc() {
        let (mut net, inputs) = net_and_inputs();
        let base = CampaignConfig {
            trials: 150,
            seed: 21,
            rate: 5e-3,
            bits: EXPONENT_BITS,
            sites: SiteFilter::Only(guarded_sites(&net)),
            ..Default::default()
        };
        let guarded = run_activation_campaign(&mut net, &inputs, &base);
        let unguarded = run_activation_campaign(
            &mut net,
            &inputs,
            &CampaignConfig { checksums: false, ..base },
        );
        assert!(
            guarded.sdc < unguarded.sdc || unguarded.sdc == 0,
            "checksums should strictly reduce SDC: guarded {} vs unguarded {}",
            guarded.sdc,
            unguarded.sdc
        );
    }

    #[test]
    fn weight_faults_evade_checksums() {
        let (mut net, inputs) = net_and_inputs();
        let cfg = CampaignConfig {
            trials: 60,
            seed: 3,
            rate: 1e-2,
            bits: EXPONENT_BITS,
            ..Default::default()
        };
        let report = run_weight_campaign(&mut net, &inputs, &cfg);
        assert!(report.injected > 0);
        // ABFT checksums are derived from the (corrupted) weights, so they
        // stay consistent: nothing is detected, corruption is silent.
        assert_eq!(report.detected, 0);
        assert!(report.sdc > 0, "1% exponent flips should corrupt predictions");
    }

    #[test]
    fn report_rates_handle_edge_cases() {
        let empty = CampaignReport {
            trials: 0,
            masked: 0,
            sdc: 0,
            detected: 0,
            injected: 0,
            per_site: Vec::new(),
        };
        assert_eq!(empty.sdc_rate(), 0.0);
        assert_eq!(empty.detection_rate(), 1.0);
        let mixed = CampaignReport {
            trials: 10,
            masked: 5,
            sdc: 2,
            detected: 3,
            injected: 9,
            per_site: Vec::new(),
        };
        assert!((mixed.sdc_rate() - 0.2).abs() < 1e-12);
        assert!((mixed.detection_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn per_site_tallies_sum_to_aggregates_and_respect_filters() {
        let (mut net, inputs) = net_and_inputs();
        let cfg = CampaignConfig {
            trials: 60,
            seed: 11,
            rate: 5e-3,
            sites: SiteFilter::Only(vec![1]),
            ..Default::default()
        };
        let report = run_activation_campaign(&mut net, &inputs, &cfg);
        assert!(report.injected > 0);
        // Injection was confined to site 1, so the resolution must be too.
        assert_eq!(report.per_site.len(), 1);
        let t = report.site(1).expect("confined site must be tallied");
        assert_eq!(t.injected, report.injected);
        // Trials where no flip landed (possible at this rate) carry no
        // site attribution; every other outcome lands on site 1 exactly.
        let attributed = t.masked + t.sdc + t.detected;
        assert!(attributed > 0 && attributed <= report.trials);
        assert_eq!(report.masked + report.sdc + report.detected, report.trials);
        assert!(t.masked <= report.masked && t.sdc <= report.sdc && t.detected <= report.detected);
    }

    #[test]
    fn per_site_resolution_commutes_across_shards() {
        use pgmr_nn::WorkerPool;
        let (mut net, inputs) = net_and_inputs();
        let cfg = CampaignConfig {
            trials: 41,
            seed: 17,
            rate: 5e-3,
            bits: EXPONENT_BITS,
            ..Default::default()
        };
        let seq = run_activation_campaign(&mut net, &inputs, &cfg);
        assert!(seq.per_site.len() > 1, "multi-site run should resolve several sites");
        for width in [2, 4] {
            let pool = WorkerPool::new(width);
            // Full-report Eq covers the per-site vectors too.
            assert_eq!(run_activation_campaign_with(&mut net, &inputs, &cfg, &pool), seq);
        }
        let wt_seq = run_weight_campaign(&mut net, &inputs, &cfg);
        assert!(!wt_seq.per_site.is_empty());
        let pool = WorkerPool::new(3);
        assert_eq!(run_weight_campaign_with(&mut net, &inputs, &cfg, &pool), wt_seq);
    }

    #[test]
    fn site_sweep_measures_every_site_and_matches_pooled() {
        use pgmr_nn::WorkerPool;
        let (mut net, inputs) = net_and_inputs();
        let cfg = SiteSweepConfig {
            trials_per_site: 25,
            seed: 29,
            rate: 2e-3,
            bits: EXPONENT_BITS,
            sites: guarded_sites(&net),
            ..Default::default()
        };
        let seq = run_activation_site_sweep(&mut net, &inputs, &cfg);
        assert_eq!(seq.trials, cfg.trials_per_site * cfg.sites.len());
        // Every swept site has an entry, in sorted order.
        let swept: Vec<usize> = seq.per_site.iter().map(|t| t.site).collect();
        assert_eq!(swept, cfg.sites, "one tally per swept site, site-sorted");
        for width in [2, 4] {
            let pool = WorkerPool::new(width);
            let par = run_activation_site_sweep_with(&mut net, &inputs, &cfg, &pool);
            assert_eq!(par, seq, "site-sharded sweep diverged at width {width}");
        }
    }

    #[test]
    fn plan_aware_campaign_detects_less_when_checks_are_off() {
        use pgmr_nn::CheckPlan;
        let (mut net, inputs) = net_and_inputs();
        let base = CampaignConfig {
            trials: 120,
            seed: 7,
            rate: 2e-3,
            bits: EXPONENT_BITS,
            sites: SiteFilter::Only(guarded_sites(&net)),
            ..Default::default()
        };
        let full_plan =
            CampaignConfig { plan: Some(CheckPlan::full(net.num_layers())), ..base.clone() };
        // A full plan is the uniformly-checked forward: identical report.
        let uniform = run_activation_campaign(&mut net, &inputs, &base);
        let planned = run_activation_campaign(&mut net, &inputs, &full_plan);
        assert_eq!(uniform, planned);
        // An empty plan verifies nothing: no trial can end in Detected.
        let off_plan = CampaignConfig { plan: Some(CheckPlan::off(net.num_layers())), ..base };
        let off = run_activation_campaign(&mut net, &inputs, &off_plan);
        assert_eq!(off.detected, 0, "nothing is checked, nothing can be detected");
        assert!(uniform.detected > 0);
    }
}
