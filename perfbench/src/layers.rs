//! Per-layer measurements of the traced run, taken by timing the
//! harness's own calls into each layer's public functions: a replay of
//! sampled requests through `StagedEngine::decide_with` (or the guarded
//! member call) split into `Preprocessor::apply` and `Network::forward`,
//! and interleaved forward-pass probes for the precision hook and ABFT.

use pgmr_tensor::checksum::DEFAULT_TOLERANCE;
use pgmr_tensor::Tensor;
use polygraph_mr::rade::{StagedDecision, StagedEngine};
use polygraph_mr::Member;
use std::hint::black_box;
use std::time::Instant;

use crate::trace::{root_id, Trace};
use crate::{clock, stats, systems};

/// What replaying a sample of requests measured.
#[derive(Default)]
pub struct Replay {
    /// (request, replayed compute in ns): the member calls a request made.
    pub compute_ns: Vec<(usize, u64)>,
    /// Durations of every replayed member call, ns.
    pub member_ns: Vec<f64>,
    /// Durations of `Preprocessor::apply` per member call, ns.
    pub apply_ns: Vec<f64>,
    /// Durations of `Network::forward` per member call, ns.
    pub forward_ns: Vec<f64>,
    /// Multiply-accumulates of the replayed forwards.
    pub macs: f64,
    /// Every member's probabilities per replayed request, for the
    /// decision probe.
    pub probs: Vec<Vec<Vec<f32>>>,
    /// Replayed decisions that differ from what the workload returned.
    pub mismatches: usize,
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

fn macs_per_image(member: &Member) -> f64 {
    member.network().cost_profile().iter().map(|c| c.macs as f64).sum()
}

impl Replay {
    /// Splits one recorded member call (`parent` span) into its
    /// preprocessing and forward pass, timed separately.
    fn split(
        &mut self,
        member: &mut Member,
        image: &Tensor,
        parent: u64,
        request: u64,
        trace: &mut Trace,
    ) {
        let t0 = clock::now();
        let x = member.preprocessor().apply(image);
        let t1 = clock::now();
        black_box(member.network_mut().forward(&x, false));
        let t2 = clock::now();
        trace.child("preprocess.apply", parent, request, t0, t1);
        trace.child("nn.forward", parent, request, t1, t2);
        self.apply_ns.push(ns(t0, t1) as f64);
        self.forward_ns.push(ns(t1, t2) as f64);
        self.macs += macs_per_image(member);
    }

    /// Replays `requests` (request index, image, the decision the
    /// workload returned) through `engine.decide_with` with a timed
    /// `Member::predict` provider, or — without an engine — one timed
    /// `predict` per member, as the always-full ensemble runs.
    pub fn staged(
        members: &mut [Member],
        engine: Option<&StagedEngine>,
        thresholds: polygraph_mr::Thresholds,
        requests: &[(usize, &Tensor, StagedDecision)],
        trace: &mut Trace,
    ) -> Replay {
        let mut out = Replay::default();
        for &(request, image, served) in requests {
            let r = request as u64;
            let mut calls: Vec<(usize, Instant, Instant)> = Vec::with_capacity(members.len());
            let n = members.len();
            let start = clock::now();
            let decision = {
                let mut provider = |m: usize| {
                    let t0 = clock::now();
                    let p = members[m].predict(image);
                    calls.push((m, t0, clock::now()));
                    p
                };
                match engine {
                    Some(engine) => engine.decide_with(&mut provider, n),
                    None => {
                        let probs: Vec<Vec<f32>> = (0..n).map(&mut provider).collect();
                        let verdict = polygraph_mr::DecisionEngine::new(thresholds).decide(&probs);
                        StagedDecision { verdict, activated: probs.len() }
                    }
                }
            };
            let name = if engine.is_some() { "rade.decide_with" } else { "decision.decide" };
            let decide = trace.child(name, root_id(r), r, start, clock::now());
            out.mismatches += usize::from(decision != served);
            let mut compute = 0;
            for &(m, t0, t1) in &calls {
                let span = trace.child("member.predict", decide, r, t0, t1);
                compute += ns(t0, t1);
                out.member_ns.push(ns(t0, t1) as f64);
                out.split(&mut members[m], image, span, r, trace);
            }
            out.compute_ns.push((request, compute));
            out.probs.push(members.iter_mut().map(|m| m.predict(image)).collect());
        }
        out
    }

    /// Replays sampled items of the guarded batch: every member's
    /// `Member::predict_checked`, split like [`Replay::staged`]. Spans
    /// belong to the item's `chunk`-sized `infer_batch` call. Returns the
    /// replay and the checksum faults it raised.
    pub fn guarded(
        members: &mut [Member],
        items: &[(usize, &Tensor)],
        chunk: usize,
        trace: &mut Trace,
    ) -> (Replay, usize) {
        let mut out = Replay::default();
        let mut faults = 0;
        for &(item, image) in items {
            let r = (item / chunk) as u64;
            let parent = root_id(r);
            let mut probs = Vec::with_capacity(members.len());
            for member in members.iter_mut() {
                let t0 = clock::now();
                let p = member.predict_checked(image, DEFAULT_TOLERANCE);
                let t1 = clock::now();
                let span = trace.child("member.predict_checked", parent, r, t0, t1);
                out.member_ns.push(ns(t0, t1) as f64);
                faults += usize::from(p.is_err());
                probs.push(p.unwrap_or_else(|_| member.predict(image)));
                out.split(member, image, span, r, trace);
            }
            out.probs.push(probs);
        }
        (out, faults)
    }

    /// Mean of `Member::predict` time spent outside `Network::forward`.
    pub fn member_overhead_frac(&self) -> f64 {
        let member: f64 = self.member_ns.iter().sum();
        let forward: f64 = self.forward_ns.iter().sum();
        stats::ratio(member - forward, member)
    }

    /// Achieved GMAC/s of the replayed forwards.
    pub fn gmacs(&self) -> f64 {
        stats::ratio(self.macs, self.forward_ns.iter().sum())
    }
}

/// Mean microseconds of `StagedEngine::decide` on precomputed
/// probabilities, looped until at least 50 ms have been timed.
pub fn decide_us(engine: &StagedEngine, probs: &[Vec<Vec<f32>>]) -> f64 {
    if probs.is_empty() {
        return 0.0;
    }
    let mut calls = 0u64;
    let start = clock::now();
    let mut elapsed = 0;
    while elapsed < 50_000_000 {
        for p in probs {
            black_box(engine.decide(black_box(p)));
        }
        calls += probs.len() as u64;
        elapsed = ns(start, clock::now());
    }
    elapsed as f64 / 1e3 / calls as f64
}

/// Forward-pass probe results.
pub struct ForwardProbe {
    /// `forward_with_hook` ÷ `Network::forward` − 1 (14-bit hook).
    pub hook_overhead_frac: f64,
    /// `forward_checked` ÷ `forward_with_hook` − 1, same hook.
    pub abft_overhead_frac: f64,
    /// Allocation events per forward over plain, hooked and checked.
    pub allocs_per_forward: f64,
    /// Checksum faults the checked forwards raised.
    pub faults: usize,
}

/// Times plain, 14-bit-hooked and ABFT-checked forwards of each member
/// over `images`, interleaved in `rounds` so host drift hits all three
/// alike, and counts their allocation events.
pub fn forward_probe(members: &[Member], images: &[&Tensor], rounds: usize) -> ForwardProbe {
    let precision = systems::ramr_precision();
    let hook = |d: &mut [f32]| precision.quantize_slice(d);
    let mut time_ns = [0u64; 3];
    let mut allocs = 0u64;
    let mut forwards = 0u64;
    let mut faults = 0;
    for member in members {
        let mut m = member.clone();
        m.set_precision(precision);
        let tol = m.abft_tolerance(DEFAULT_TOLERANCE);
        let inputs: Vec<Tensor> = images.iter().map(|img| m.preprocessor().apply(img)).collect();
        let net = m.network_mut();
        for round in 0..=rounds {
            for (kind, total_ns) in time_ns.iter_mut().enumerate() {
                let a0 = pgmr_bench::alloc_counter::alloc_events();
                let t0 = clock::now();
                for x in &inputs {
                    match kind {
                        0 => drop(black_box(net.forward(x, false))),
                        1 => drop(black_box(net.forward_with_hook(x, false, &hook))),
                        _ => {
                            faults += usize::from(
                                black_box(net.forward_checked(x, false, Some(&hook), tol)).is_err(),
                            )
                        }
                    }
                }
                let t1 = clock::now();
                // Round 0 warms workspaces and caches and is not counted.
                if round > 0 {
                    *total_ns += ns(t0, t1);
                    allocs += pgmr_bench::alloc_counter::alloc_events() - a0;
                    forwards += inputs.len() as u64;
                }
            }
        }
    }
    let [plain, hooked, checked] = time_ns.map(|t| t as f64);
    ForwardProbe {
        hook_overhead_frac: stats::ratio(hooked, plain) - 1.0,
        abft_overhead_frac: stats::ratio(checked, hooked) - 1.0,
        allocs_per_forward: stats::ratio(allocs as f64, forwards as f64),
        faults,
    }
}
