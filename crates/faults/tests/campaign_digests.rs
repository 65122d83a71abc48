//! Bit-exact FNV-1a digests of fault campaigns, site sweeps and a
//! measured vulnerability profile.
//!
//! The table was recorded from the crate's earlier sequential runners
//! (one function per fault target, and a separate per-site sweep type)
//! before they were folded into [`run_campaign`] and [`run_site_sweep`].
//! Each digest covers every integer field of the case's
//! [`CampaignReport`], its per-site tallies included, and the case's
//! deltas of the five `faults.*` counters; the profile case digests the
//! encoded `.pgvp` bytes instead of a report. Every case must match at
//! pool widths 1, 2 and 4. Never regenerate the table to make a change
//! pass — a mismatch means trial seeding, the trial→input mapping, site
//! attribution or the counter totals changed.
//!
//! This file is its own test binary with a single test, so the global
//! `faults.*` counters move for this test alone.

use pgmr_faults::{
    guarded_sites, run_campaign, run_site_sweep, CampaignConfig, CampaignGuard, CampaignReport,
    FaultTarget, ProfileConfig, SiteFilter, VulnerabilityProfile, ANY_BIT, EXPONENT_BITS,
};
use pgmr_nn::layer::Layer;
use pgmr_nn::layers::{Conv2d, Dense, Flatten, Relu};
use pgmr_nn::serialize::fnv1a;
use pgmr_nn::zoo::{self, ArchSpec};
use pgmr_nn::{CheckPlan, Network, WorkerPool};
use pgmr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per network and case, in [`nets`] × [`cases`] order.
#[rustfmt::skip]
const DIGESTS: [(&str, u64); 27] = [
    ("conv-dense act-all", 0x9a6d757f89acbba4),
    ("conv-dense act-off", 0xbed219936984f767),
    ("conv-dense act-plan-one", 0x96271d44d2e86a7e),
    ("conv-dense act-plan-none", 0x904ef58a7b46a35e),
    ("conv-dense wt-all", 0x81fe88e6ca6dbec6),
    ("conv-dense wt-off", 0x81fe88e6ca6dbec6),
    ("conv-dense act-sweep", 0xcb738db88f1ee602),
    ("conv-dense wt-sweep", 0xa70ab1e5fb527061),
    ("conv-dense profile", 0xae7c6096ad188bfe),
    ("lenet5 act-all", 0x5f75136ab4cd90b7),
    ("lenet5 act-off", 0x995a7a81051da28f),
    ("lenet5 act-plan-one", 0x5f68939cc9fab84b),
    ("lenet5 act-plan-none", 0x3f34462d2122072a),
    ("lenet5 wt-all", 0xbfbe4266737a5d64),
    ("lenet5 wt-off", 0xbfbe4266737a5d64),
    ("lenet5 act-sweep", 0x5074cc87df00014c),
    ("lenet5 wt-sweep", 0x8ff1753b9ef42777),
    ("lenet5 profile", 0xaa5089f63333bd74),
    ("resnet20-mini act-all", 0xac59d5ea54cf805a),
    ("resnet20-mini act-off", 0x4bd54855f9ccbf0c),
    ("resnet20-mini act-plan-one", 0x0125df699ddeefbe),
    ("resnet20-mini act-plan-none", 0x745c3419d44dbe7f),
    ("resnet20-mini wt-all", 0x2a58b3f50b0fa1a7),
    ("resnet20-mini wt-off", 0x152e6f151c6a2a83),
    ("resnet20-mini act-sweep", 0xa9272675560e57da),
    ("resnet20-mini wt-sweep", 0x701a38b1c4ff67e5),
    ("resnet20-mini profile", 0x669fb1c94510ed76),
];

const COUNTERS: [&str; 5] = [
    "faults.trials_total",
    "faults.masked_total",
    "faults.sdc_total",
    "faults.detected_total",
    "faults.flips_total",
];

/// Which runner a case drives.
enum Runner {
    Campaign,
    Sweep,
    Profile,
}

/// The conv/dense network of the campaign unit tests, with its four inputs.
fn conv_dense_net() -> (Network, Vec<Tensor>) {
    let mut rng = StdRng::seed_from_u64(5);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(1, 4, 8, 8, 3, 1, 1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(4 * 8 * 8, 6, &mut rng)),
    ];
    let net = Network::new(layers, "campaign-net", 6);
    let inputs = (0..4).map(|_| Tensor::uniform(vec![1, 1, 8, 8], -1.0, 1.0, &mut rng)).collect();
    (net, inputs)
}

/// An untrained zoo network with three inputs.
fn zoo_net(spec: &ArchSpec, seed: u64) -> (Network, Vec<Tensor>) {
    let net = zoo::build(spec, seed);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let inputs = (0..3).map(|_| Tensor::uniform(vec![1, 1, 16, 16], -1.0, 1.0, &mut rng)).collect();
    (net, inputs)
}

fn nets() -> Vec<(&'static str, Network, Vec<Tensor>)> {
    let (a, ai) = conv_dense_net();
    let (b, bi) = zoo_net(&ArchSpec::lenet5(1, 16, 16, 10), 41);
    let (c, ci) = zoo_net(&ArchSpec::resnet20_mini(1, 16, 16, 10), 42);
    vec![("conv-dense", a, ai), ("lenet5", b, bi), ("resnet20-mini", c, ci)]
}

fn cases(net: &Network) -> Vec<(&'static str, Runner, CampaignConfig)> {
    let tol = pgmr_tensor::checksum::DEFAULT_TOLERANCE;
    let guarded = guarded_sites(net);
    let n = net.num_layers();
    let mut first_only = vec![false; n];
    first_only[guarded[0] - 1] = true;
    let act = |sites: SiteFilter, guard| CampaignConfig {
        trials: 25,
        seed: 101,
        rate: 2e-3,
        bits: EXPONENT_BITS,
        sites,
        target: FaultTarget::Activations,
        guard,
    };
    let wt = |guard| CampaignConfig {
        trials: 25,
        seed: 202,
        rate: 2e-4,
        bits: EXPONENT_BITS,
        sites: SiteFilter::All,
        target: FaultTarget::Weights,
        guard,
    };
    let only_guarded = SiteFilter::Only(guarded);
    vec![
        ("act-all", Runner::Campaign, act(SiteFilter::All, CampaignGuard::All(tol))),
        ("act-off", Runner::Campaign, act(SiteFilter::All, CampaignGuard::Off)),
        (
            "act-plan-one",
            Runner::Campaign,
            act(only_guarded.clone(), CampaignGuard::Plan(CheckPlan::new(first_only, None), tol)),
        ),
        (
            "act-plan-none",
            Runner::Campaign,
            act(only_guarded.clone(), CampaignGuard::Plan(CheckPlan::off(n), tol)),
        ),
        ("wt-all", Runner::Campaign, wt(CampaignGuard::All(tol))),
        ("wt-off", Runner::Campaign, wt(CampaignGuard::Off)),
        (
            "act-sweep",
            Runner::Sweep,
            CampaignConfig {
                trials: 8,
                seed: 303,
                rate: 2e-3,
                bits: EXPONENT_BITS,
                sites: only_guarded.clone(),
                target: FaultTarget::Activations,
                guard: CampaignGuard::All(tol),
            },
        ),
        (
            "wt-sweep",
            Runner::Sweep,
            CampaignConfig {
                trials: 8,
                seed: 404,
                rate: 2e-3,
                bits: ANY_BIT,
                sites: SiteFilter::Only(vec![0, 1, 2]),
                target: FaultTarget::Weights,
                guard: CampaignGuard::All(tol),
            },
        ),
        (
            // Only trials, seed, rate and bits reach the profile config.
            "profile",
            Runner::Profile,
            CampaignConfig {
                trials: 6,
                seed: 505,
                rate: 2e-3,
                bits: EXPONENT_BITS,
                sites: only_guarded,
                target: FaultTarget::Activations,
                guard: CampaignGuard::Off,
            },
        ),
    ]
}

fn counters() -> [u64; 5] {
    COUNTERS.map(|c| pgmr_obs::global().counter(c).get())
}

fn push(bytes: &mut Vec<u8>, v: usize) {
    bytes.extend_from_slice(&(v as u64).to_le_bytes());
}

fn report_bytes(r: &CampaignReport) -> Vec<u8> {
    let mut b = Vec::new();
    for v in [r.trials, r.masked, r.sdc, r.detected, r.injected, r.per_site.len()] {
        push(&mut b, v);
    }
    for t in &r.per_site {
        for v in [t.site, t.masked, t.sdc, t.detected, t.injected] {
            push(&mut b, v);
        }
    }
    b
}

fn run(
    net: &mut Network,
    inputs: &[Tensor],
    runner: &Runner,
    cfg: &CampaignConfig,
    pool: &WorkerPool,
) -> Vec<u8> {
    match runner {
        Runner::Campaign => report_bytes(&run_campaign(net, inputs, cfg, pool)),
        Runner::Sweep => report_bytes(&run_site_sweep(net, inputs, cfg, pool)),
        Runner::Profile => {
            let profile_cfg = ProfileConfig {
                trials_per_site: cfg.trials,
                seed: cfg.seed,
                rate: cfg.rate,
                bits: cfg.bits.clone(),
            };
            VulnerabilityProfile::measure(net, inputs, &profile_cfg, pool).encode()
        }
    }
}

#[test]
fn campaigns_match_digests_recorded_from_the_sequential_runners() {
    let mut mismatches = Vec::new();
    for width in [1, 2, 4] {
        let pool = WorkerPool::new(width);
        let mut rows = DIGESTS.iter();
        for (name, mut net, inputs) in nets() {
            for (label, runner, cfg) in cases(&net) {
                let &(want_label, want) = rows.next().expect("one row per case");
                assert_eq!(want_label, format!("{name} {label}"), "table order");
                let before = counters();
                let mut bytes = run(&mut net, &inputs, &runner, &cfg, &pool);
                for (after, before) in counters().into_iter().zip(before) {
                    push(&mut bytes, (after - before) as usize);
                }
                let got = fnv1a(&bytes);
                if got != want {
                    mismatches.push(format!(
                        "{want_label} at width {width}: got {got:#018x}, want {want:#018x}"
                    ));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "campaign digests changed:\n{}", mismatches.join("\n"));
}
