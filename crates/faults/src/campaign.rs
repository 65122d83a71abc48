//! Injection-campaign runner: many seeded fault trials against one
//! network, classified into masked / silent-data-corruption / detected
//! outcomes, with and without ABFT checksums.
//!
//! One [`CampaignConfig`] drives both runners: its `target` picks
//! activation or weight trials and its `guard` what every trial forward
//! verifies. [`run_campaign`] sprays its trials over the site filter;
//! [`run_site_sweep`] gives each listed site trials of its own. Both run
//! on per-job network clones on a [`WorkerPool`], and every trial is
//! seeded from its index alone, so a report does not depend on the pool
//! width.

use std::collections::BTreeMap;
use std::ops::{Range, RangeInclusive};

use pgmr_nn::network::{ActivationHook, Guard, RunPlan};
use pgmr_nn::pool::{shard_ranges, WorkerPool};
use pgmr_nn::{CheckPlan, Network};
use pgmr_tensor::{argmax, Tensor};

use crate::inject::{
    inject_weights, repair_weights, ActivationInjector, FaultSpec, FaultTarget, SiteFilter, ANY_BIT,
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

/// What every trial forward of a campaign verifies: the owned form of
/// [`Guard`], each variant with its tolerance.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignGuard {
    /// Nothing is verified, so no trial ends [`TrialOutcome::Detected`].
    Off,
    /// Every guarded (dense / convolution) layer.
    All(f32),
    /// The layers a selective-protection [`CheckPlan`] checks, plus its
    /// duplicated layer — how the coverage-vs-throughput frontier
    /// measures each `top_k` point.
    Plan(CheckPlan, f32),
}

impl CampaignGuard {
    fn as_guard(&self) -> Guard<'_> {
        match self {
            CampaignGuard::Off => Guard::Off,
            CampaignGuard::All(tol) => Guard::All(*tol),
            CampaignGuard::Plan(plan, tol) => Guard::Plan(plan, *tol),
        }
    }
}

/// Parameters of an injection campaign or site sweep.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Independent fault trials: of the whole campaign, or of each site
    /// in a sweep.
    pub trials: usize,
    /// Campaign seed; trial `t` runs with a seed derived from it (in a
    /// sweep, from the site's seed, itself derived from this one).
    pub seed: u64,
    /// Per-element flip probability per trial.
    pub rate: f64,
    /// Eligible bit positions.
    pub bits: RangeInclusive<u8>,
    /// Eligible injection sites; a sweep measures each listed site alone.
    pub sites: SiteFilter,
    /// Transient activation flips, or persistent weight flips that are
    /// repaired after each trial.
    pub target: FaultTarget,
    /// What every trial forward verifies.
    pub guard: CampaignGuard,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            trials: 100,
            seed: 0,
            rate: 1e-3,
            bits: ANY_BIT,
            sites: SiteFilter::All,
            target: FaultTarget::Activations,
            guard: CampaignGuard::All(pgmr_tensor::checksum::DEFAULT_TOLERANCE),
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
    /// Sites where no trial ever flipped a bit are absent (a site sweep
    /// guarantees an entry for every swept site regardless).
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

/// Derives the deterministic campaign seed for one site of a sweep.
fn site_seed(sweep_seed: u64, site: usize) -> u64 {
    sweep_seed ^ (site as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// One trial's result: its outcome plus the per-site flip counts that
/// produced it (sorted by site).
type TrialResult = (TrialOutcome, Vec<(usize, usize)>);

/// Runs one trial forward and classifies it against the fault-free
/// prediction; a guard violation is [`TrialOutcome::Detected`].
fn classify(
    net: &mut Network,
    input: &Tensor,
    hook: Option<ActivationHook<'_>>,
    guard: Guard<'_>,
    golden: usize,
) -> TrialOutcome {
    let mut logits = Vec::new();
    match net.run(input, &RunPlan { hook, guard, ..RunPlan::default() }, &mut logits) {
        Err(_) => TrialOutcome::Detected,
        Ok(()) if argmax(&logits) == golden => TrialOutcome::Masked,
        Ok(()) => TrialOutcome::Sdc,
    }
}

/// Trial `t`: flips bits of `cfg.target` during a forward of input
/// `t % inputs.len()`, classifies it, and repairs any weight flips. A
/// pure function of `(net, inputs, cfg, t)` — the injector is seeded from
/// [`trial_seed`] alone — which is what lets trials shard across a pool
/// without changing the report. Sites in the result are hook indices for
/// activation trials and parameter-slot indices for weight trials.
fn trial(
    net: &mut Network,
    inputs: &[Tensor],
    cfg: &CampaignConfig,
    golden: &[usize],
    t: usize,
) -> TrialResult {
    let i = t % inputs.len();
    let spec = FaultSpec {
        seed: trial_seed(cfg.seed, t),
        rate: cfg.rate,
        target: cfg.target,
        bits: cfg.bits.clone(),
        sites: cfg.sites.clone(),
    };
    let guard = cfg.guard.as_guard();
    match cfg.target {
        FaultTarget::Activations => {
            let inj = ActivationInjector::new(&spec);
            inj.begin_forward();
            let hook = |x: &mut [f32]| inj.apply(x);
            (classify(net, &inputs[i], Some(&hook), guard, golden[i]), inj.site_flips())
        }
        FaultTarget::Weights => {
            let records = inject_weights(net, &spec);
            let outcome = classify(net, &inputs[i], None, guard, golden[i]);
            repair_weights(net, &records);
            let mut by_site: BTreeMap<usize, usize> = BTreeMap::new();
            for r in &records {
                *by_site.entry(r.site).or_insert(0) += 1;
            }
            (outcome, by_site.into_iter().collect())
        }
    }
}

/// The fault-free prediction for every input, after checking the
/// arguments both runners share.
fn golden(net: &mut Network, inputs: &[Tensor], cfg: &CampaignConfig) -> Vec<usize> {
    assert!(!inputs.is_empty(), "campaign needs at least one input");
    assert!(*cfg.bits.end() < 32, "bit range extends past bit 31");
    inputs.iter().map(|x| argmax(net.forward(x, false).data())).collect()
}

/// Runs each `(config, trial range)` shard as one `pool` job on its own
/// clone of `net`, trials in order, and returns every trial's result.
fn run_shards(
    net: &Network,
    inputs: &[Tensor],
    golden: &[usize],
    pool: &WorkerPool,
    shards: impl Iterator<Item = (CampaignConfig, Range<usize>)>,
) -> Vec<TrialResult> {
    let jobs: Vec<_> = shards
        .map(|(cfg, range)| {
            let mut net = net.clone();
            move || range.map(|t| trial(&mut net, inputs, &cfg, golden, t)).collect::<Vec<_>>()
        })
        .collect();
    pool.run(jobs).into_iter().flatten().collect()
}

/// Folds trial results into a report, in any order — the counters
/// commute and the per-site map is keyed (not ordered), so sharded runs
/// sum to exactly the sequential report. Every site in `swept` gets an
/// entry, even one where no flip landed. Mirrors the totals into the
/// `faults.*` counters on the global [`pgmr_obs`] registry.
fn tally(trials: usize, swept: &[usize], results: Vec<TrialResult>) -> CampaignReport {
    let mut report = CampaignReport {
        trials,
        masked: 0,
        sdc: 0,
        detected: 0,
        injected: 0,
        per_site: Vec::new(),
    };
    let mut per_site: BTreeMap<usize, SiteTally> =
        swept.iter().map(|&s| (s, SiteTally::empty(s))).collect();
    for (outcome, flips) in results {
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

/// Runs `cfg.trials` fault trials against `net`, cycling through
/// `inputs`, with the trials sharded across `pool`. Each trial compares
/// its prediction to the fault-free one on the same input; a guard
/// violation counts as [`TrialOutcome::Detected`]. `net` computes the
/// fault-free predictions; the trials run on clones of it.
///
/// Weight trials inject persistent flips and repair them after the
/// forward. The ABFT checksums are derived from the corrupted weights and
/// stay consistent, so under a guard weight faults still surface as
/// [`TrialOutcome::Sdc`] as long as the arithmetic stays finite (flips
/// violent enough to overflow into `inf`/`NaN` do trip verification) —
/// the experimental evidence that weight corruption needs ensemble-level
/// quarantine rather than checksums.
///
/// # Panics
///
/// Panics if `inputs` is empty or `cfg.bits` reaches past bit 31.
pub fn run_campaign(
    net: &mut Network,
    inputs: &[Tensor],
    cfg: &CampaignConfig,
    pool: &WorkerPool,
) -> CampaignReport {
    let golden = golden(net, inputs, cfg);
    let shards = shard_ranges(cfg.trials, pool.threads()).map(|range| (cfg.clone(), range));
    tally(cfg.trials, &[], run_shards(net, inputs, &golden, pool, shards))
}

/// An MRFI-style per-site resolution sweep: each site listed in
/// `cfg.sites` gets `cfg.trials` trials of its own, confined to that site
/// and seeded from `(cfg.seed, site)`, so every site's SDC contribution is
/// measured with equal statistical weight, whatever its element count.
/// Each site is one `pool` job on its own network clone. The report
/// carries a [`SiteTally`] for every swept site; its aggregates sum over
/// all sites.
///
/// # Panics
///
/// Panics if `inputs` is empty, `cfg.sites` is [`SiteFilter::All`] or an
/// empty list, or `cfg.bits` reaches past bit 31.
pub fn run_site_sweep(
    net: &mut Network,
    inputs: &[Tensor],
    cfg: &CampaignConfig,
    pool: &WorkerPool,
) -> CampaignReport {
    let sites = match &cfg.sites {
        SiteFilter::Only(sites) if !sites.is_empty() => sites,
        _ => panic!("site sweep needs a non-empty list of sites"),
    };
    let golden = golden(net, inputs, cfg);
    let shards = sites.iter().map(|&site| {
        let seed = site_seed(cfg.seed, site);
        (CampaignConfig { seed, sites: SiteFilter::Only(vec![site]), ..cfg.clone() }, 0..cfg.trials)
    });
    tally(cfg.trials * sites.len(), sites, run_shards(net, inputs, &golden, pool, shards))
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

    fn weights(cfg: &CampaignConfig) -> CampaignConfig {
        CampaignConfig { target: FaultTarget::Weights, ..cfg.clone() }
    }

    #[test]
    fn campaigns_are_deterministic_across_runs() {
        let (mut net, inputs) = net_and_inputs();
        let pool = WorkerPool::new(1);
        let cfg = CampaignConfig { trials: 40, seed: 123, rate: 5e-3, ..Default::default() };
        let a = run_campaign(&mut net, &inputs, &cfg, &pool);
        let b = run_campaign(&mut net, &inputs, &cfg, &pool);
        assert_eq!(a, b);
        let c = run_campaign(&mut net, &inputs, &weights(&cfg), &pool);
        let d = run_campaign(&mut net, &inputs, &weights(&cfg), &pool);
        assert_eq!(c, d);
    }

    #[test]
    fn campaigns_are_bit_identical_across_pool_widths() {
        let (mut net, inputs) = net_and_inputs();
        let cfg = CampaignConfig { trials: 37, seed: 99, rate: 5e-3, ..Default::default() };
        let solo = WorkerPool::new(1);
        let seq_act = run_campaign(&mut net, &inputs, &cfg, &solo);
        let seq_wt = run_campaign(&mut net, &inputs, &weights(&cfg), &solo);
        for width in [2, 4] {
            let pool = WorkerPool::new(width);
            assert_eq!(
                run_campaign(&mut net, &inputs, &cfg, &pool),
                seq_act,
                "activation campaign diverged at width {width}"
            );
            assert_eq!(
                run_campaign(&mut net, &inputs, &weights(&cfg), &pool),
                seq_wt,
                "weight campaign diverged at width {width}"
            );
        }
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
        let report = run_campaign(&mut net, &inputs, &cfg, &WorkerPool::new(1));
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
        let pool = WorkerPool::new(1);
        let base = CampaignConfig {
            trials: 150,
            seed: 21,
            rate: 5e-3,
            bits: EXPONENT_BITS,
            sites: SiteFilter::Only(guarded_sites(&net)),
            ..Default::default()
        };
        let guarded = run_campaign(&mut net, &inputs, &base, &pool);
        let unguarded = run_campaign(
            &mut net,
            &inputs,
            &CampaignConfig { guard: CampaignGuard::Off, ..base },
            &pool,
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
            target: FaultTarget::Weights,
            ..Default::default()
        };
        let report = run_campaign(&mut net, &inputs, &cfg, &WorkerPool::new(1));
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
        let report = run_campaign(&mut net, &inputs, &cfg, &WorkerPool::new(1));
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
        let (mut net, inputs) = net_and_inputs();
        let cfg = CampaignConfig {
            trials: 41,
            seed: 17,
            rate: 5e-3,
            bits: EXPONENT_BITS,
            ..Default::default()
        };
        let solo = WorkerPool::new(1);
        let seq = run_campaign(&mut net, &inputs, &cfg, &solo);
        assert!(seq.per_site.len() > 1, "multi-site run should resolve several sites");
        for width in [2, 4] {
            let pool = WorkerPool::new(width);
            // Full-report Eq covers the per-site vectors too.
            assert_eq!(run_campaign(&mut net, &inputs, &cfg, &pool), seq);
        }
        let wt_seq = run_campaign(&mut net, &inputs, &weights(&cfg), &solo);
        assert!(!wt_seq.per_site.is_empty());
        let pool = WorkerPool::new(3);
        assert_eq!(run_campaign(&mut net, &inputs, &weights(&cfg), &pool), wt_seq);
    }

    #[test]
    fn site_sweep_measures_every_site_at_every_pool_width() {
        let (mut net, inputs) = net_and_inputs();
        let sites = guarded_sites(&net);
        let cfg = CampaignConfig {
            trials: 25,
            seed: 29,
            rate: 2e-3,
            bits: EXPONENT_BITS,
            sites: SiteFilter::Only(sites.clone()),
            guard: CampaignGuard::Off,
            ..Default::default()
        };
        let seq = run_site_sweep(&mut net, &inputs, &cfg, &WorkerPool::new(1));
        assert_eq!(seq.trials, cfg.trials * sites.len());
        // Every swept site has an entry, in sorted order.
        let swept: Vec<usize> = seq.per_site.iter().map(|t| t.site).collect();
        assert_eq!(swept, sites, "one tally per swept site, site-sorted");
        for width in [2, 4] {
            let pool = WorkerPool::new(width);
            let par = run_site_sweep(&mut net, &inputs, &cfg, &pool);
            assert_eq!(par, seq, "site-sharded sweep diverged at width {width}");
        }
    }

    #[test]
    fn site_sweep_needs_listed_sites() {
        let (mut net, inputs) = net_and_inputs();
        let pool = WorkerPool::new(1);
        for sites in [SiteFilter::All, SiteFilter::Only(Vec::new())] {
            let cfg = CampaignConfig { sites, ..Default::default() };
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_site_sweep(&mut net, &inputs, &cfg, &pool)
            }));
            assert!(r.is_err(), "a sweep over {:?} must panic", cfg.sites);
        }
    }

    #[test]
    fn plan_aware_campaign_detects_less_when_checks_are_off() {
        let (mut net, inputs) = net_and_inputs();
        let pool = WorkerPool::new(1);
        let base = CampaignConfig {
            trials: 120,
            seed: 7,
            rate: 2e-3,
            bits: EXPONENT_BITS,
            sites: SiteFilter::Only(guarded_sites(&net)),
            ..Default::default()
        };
        let tol = pgmr_tensor::checksum::DEFAULT_TOLERANCE;
        let full_plan = CampaignConfig {
            guard: CampaignGuard::Plan(CheckPlan::full(net.num_layers()), tol),
            ..base.clone()
        };
        // A full plan is the uniformly-checked forward: identical report.
        let uniform = run_campaign(&mut net, &inputs, &base, &pool);
        let planned = run_campaign(&mut net, &inputs, &full_plan, &pool);
        assert_eq!(uniform, planned);
        // An empty plan verifies nothing: no trial can end in Detected.
        let off_plan = CampaignConfig {
            guard: CampaignGuard::Plan(CheckPlan::off(net.num_layers()), tol),
            ..base
        };
        let off = run_campaign(&mut net, &inputs, &off_plan, &pool);
        assert_eq!(off.detected, 0, "nothing is checked, nothing can be detected");
        assert!(uniform.detected > 0);
    }
}
