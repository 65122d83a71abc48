//! Sequential network container and its forward driver.

use crate::layer::{Layer, LayerCost, ParamSlot};
use crate::protect::CheckPlan;
use crate::workspace::{with_thread_workspace, Workspace};
use pgmr_tensor::checksum::{ChecksumFault, ChecksumKind};
use pgmr_tensor::{softmax, Tensor};

/// An activation hook: runs on the network input and on every layer
/// output, receiving the activation's raw row-major data — the simulated
/// load/store boundary for precision truncation and fault injection.
pub type ActivationHook<'a> = &'a dyn Fn(&mut [f32]);

/// What a [`Network::run`] verifies, each variant with its tolerance.
#[derive(Debug, Clone, Copy, Default)]
pub enum Guard<'a> {
    /// Nothing: no checksums, no duplication, no protection accounting.
    #[default]
    Off,
    /// Every guarded (top-level dense / convolution) layer, at the given
    /// tolerance.
    All(f32),
    /// The layers a selective-protection [`CheckPlan`] checks, plus its
    /// duplicated layer, at the given tolerance.
    Plan(&'a CheckPlan, f32),
}

impl Guard<'_> {
    fn checks(self, layer: usize) -> bool {
        match self {
            Guard::Off => false,
            Guard::All(_) => true,
            Guard::Plan(plan, _) => plan.checks(layer),
        }
    }

    fn duplicates(self, layer: usize) -> bool {
        matches!(self, Guard::Plan(plan, _) if plan.duplicates(layer))
    }

    fn tolerance(self) -> f32 {
        match self {
            Guard::Off => 0.0,
            Guard::All(t) | Guard::Plan(_, t) => t,
        }
    }
}

/// How one [`Network::run`] executes. `RunPlan::default()` is the plain
/// inference forward.
#[derive(Clone, Copy, Default)]
pub struct RunPlan<'a> {
    /// Runs on the network input and on every layer output.
    pub hook: Option<ActivationHook<'a>>,
    /// Training mode: layers use batch statistics and dropout masks and
    /// record the caches [`Network::backward`] consumes.
    pub train: bool,
    /// What the run verifies.
    pub guard: Guard<'a>,
}

/// A feed-forward network: an ordered stack of [`Layer`]s ending in a
/// logit-producing head.
///
/// Besides the usual forward/backward API, `Network` supports an
/// *activation hook* — a function applied to the activations after every
/// layer. This is the mechanism `pgmr-precision` uses to reproduce the
/// paper's variable-precision CUDA kernels: the hook quantizes every value
/// at the simulated load/store boundary (§IV-A "truncating values of load
/// and store instructions").
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    arch_id: String,
    num_classes: usize,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            layers: self.layers.clone(),
            arch_id: self.arch_id.clone(),
            num_classes: self.num_classes,
        }
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Network")
            .field("arch_id", &self.arch_id)
            .field("num_classes", &self.num_classes)
            .field("layers", &names)
            .finish()
    }
}

impl Network {
    /// Creates a network from its layers.
    ///
    /// `arch_id` is a stable identifier used by the serializer to verify a
    /// parameter file matches the architecture it is loaded into.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or `num_classes < 2`.
    pub fn new(
        layers: Vec<Box<dyn Layer>>,
        arch_id: impl Into<String>,
        num_classes: usize,
    ) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        assert!(num_classes >= 2, "need at least two classes");
        Network { layers, arch_id: arch_id.into(), num_classes }
    }

    /// Stable architecture identifier.
    pub fn arch_id(&self) -> &str {
        &self.arch_id
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The forward driver: every forward pass — plain, hooked, guarded,
    /// duplicated, training — is one call here. The input is copied into
    /// an arena buffer and ping-ponged through every layer's
    /// [`Layer::forward_into`]; the `[n, num_classes]` logits land in
    /// `logits` (cleared and refilled, so a caller-reused vector reaches a
    /// steady state with no heap traffic).
    ///
    /// The plan's `hook` runs on the input and after every layer — the
    /// reduced-precision load/store simulation and fault-injection point —
    /// *before* that layer's output is verified, which is exactly where a
    /// transient fault lands between a GEMM and its consumer. A hook that
    /// merely perturbs values within the tolerance (rounding at a matching
    /// tolerance) passes.
    ///
    /// The plan's [`Guard`] picks what is verified. Checked layers derive
    /// Huang–Abraham checksums inside their own GEMM and verify them;
    /// unchecked layers pay no checksum derivation. Only top-level dense
    /// and convolution layers are guarded: convolutions nested inside a
    /// residual, dense or parallel block run unverified. At most one layer
    /// may additionally be *duplicated*: it is recomputed from a pristine
    /// copy of its input in inference mode, with no hook (so injector site
    /// counters advance identically with or without duplication), and
    /// compared element-wise under the checksum verifier's
    /// relative-plus-absolute bound; a disagreement is a
    /// [`ChecksumKind::Recompute`] fault. The first fault is returned
    /// instead of logits.
    ///
    /// Guarded runs flush the number of guarded layers verified / skipped
    /// and duplicate executions to the `abft.checked_total`,
    /// `abft.skipped_total` and `dup.exec_total` counters once per pass
    /// (also on the early-fault path); unguarded runs do no protection
    /// accounting.
    ///
    /// Inference reuses this thread's workspace arena. Training uses a
    /// workspace of its own, so threads that train keep no training-sized
    /// buffers and `infer.workspace_bytes` keeps meaning inference.
    ///
    /// # Panics
    ///
    /// Panics if `train` is combined with a guard, if a check plan's layer
    /// count disagrees with the network's, or if the head produces the
    /// wrong class count.
    pub fn run(
        &mut self,
        input: &Tensor,
        plan: &RunPlan<'_>,
        logits: &mut Vec<f32>,
    ) -> Result<(), ChecksumFault> {
        if plan.train {
            assert!(matches!(plan.guard, Guard::Off), "guarded training is not supported");
            return self.run_in(input, plan, &mut Workspace::new(), logits);
        }
        with_thread_workspace(|ws| {
            let verdict = self.run_in(input, plan, ws, logits);
            ws.report_peak();
            verdict
        })
    }

    /// [`Network::run`] on a caller's workspace, with no peak reporting,
    /// for forwards that must not touch this thread's inference arena
    /// (training, [`crate::train::accuracy`]).
    pub(crate) fn run_in(
        &mut self,
        input: &Tensor,
        plan: &RunPlan<'_>,
        ws: &mut Workspace,
        logits: &mut Vec<f32>,
    ) -> Result<(), ChecksumFault> {
        let guard = plan.guard;
        let guarded = !matches!(guard, Guard::Off);
        if let Guard::Plan(check_plan, _) = guard {
            self.assert_plan(check_plan);
        }
        let mut tally = ProtectTally::default();
        let mut x = ws.acquire_copy(input);
        if let Some(h) = plan.hook {
            h(x.data_mut());
        }
        let mut verdict = Ok(());
        for (i, layer) in self.layers.iter_mut().enumerate() {
            if guarded {
                tally.record(layer.as_ref(), guard, i);
            }
            let checked = guard.checks(i);
            let copy = guard.duplicates(i).then(|| ws.acquire_copy(&x));
            let mut y = layer.forward_into(x, ws, plan.train, checked);
            if let Some(h) = plan.hook {
                h(y.data_mut());
            }
            if let Some(c) = copy {
                // Unchecked, so the pending expectations stay intact.
                let y2 = layer.forward_into(c, ws, false, false);
                verdict = compare_duplicate(y.data(), y2.data(), guard.tolerance());
                ws.release(y2);
            }
            if checked && verdict.is_ok() {
                verdict = layer.verify_output(y.data(), guard.tolerance());
            }
            x = y;
            if verdict.is_err() {
                break;
            }
        }
        if verdict.is_ok() {
            let classes = x.shape().dims().last();
            assert_eq!(classes, Some(&self.num_classes), "head produced wrong class count");
            logits.clear();
            logits.extend_from_slice(x.data());
        }
        ws.release(x);
        if guarded {
            tally.flush();
        }
        verdict
    }

    /// Runs the forward pass, producing `[n, num_classes]` logits: one
    /// unguarded, hook-free [`Network::run`]. With `train`, layers record
    /// the caches [`Network::backward`] consumes.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut logits = Vec::new();
        let plan = RunPlan { train, ..RunPlan::default() };
        self.run(input, &plan, &mut logits).expect("an unguarded run cannot fault");
        self.logits_tensor(logits)
    }

    /// [`Network::forward`] with an activation hook on the input and on
    /// the output of every layer (see [`RunPlan::hook`]).
    pub fn forward_with_hook(
        &mut self,
        input: &Tensor,
        train: bool,
        hook: &dyn Fn(&mut [f32]),
    ) -> Tensor {
        let mut logits = Vec::new();
        let plan = RunPlan { hook: Some(hook), train, guard: Guard::Off };
        self.run(input, &plan, &mut logits).expect("an unguarded run cannot fault");
        self.logits_tensor(logits)
    }

    /// ABFT-guarded forward pass verifying every top-level dense and
    /// convolution layer ([`Guard::All`]); returns the first checksum
    /// violation instead of logits.
    ///
    /// # Panics
    ///
    /// Panics if `train` is set: guarded training is not supported.
    pub fn forward_checked(
        &mut self,
        input: &Tensor,
        train: bool,
        hook: Option<ActivationHook<'_>>,
        tolerance: f32,
    ) -> Result<Tensor, ChecksumFault> {
        let mut logits = Vec::new();
        let plan = RunPlan { hook, train, guard: Guard::All(tolerance) };
        self.run(input, &plan, &mut logits)?;
        Ok(self.logits_tensor(logits))
    }

    fn logits_tensor(&self, logits: Vec<f32>) -> Tensor {
        Tensor::from_vec([logits.len() / self.num_classes, self.num_classes], logits)
    }

    fn assert_plan(&self, plan: &CheckPlan) {
        assert_eq!(
            plan.num_layers(),
            self.layers.len(),
            "check plan covers {} layers, network {} has {}",
            plan.num_layers(),
            self.arch_id,
            self.layers.len()
        );
    }

    /// Runs the backward pass from the loss gradient w.r.t. the logits.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let mut g = grad_logits.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Softmax class probabilities for a batch, one row per image
    /// (inference mode).
    pub fn predict_proba(&mut self, input: &Tensor) -> Vec<Vec<f32>> {
        let logits = self.forward(input, false);
        logits.data().chunks(self.num_classes).map(softmax).collect()
    }

    /// Raw logits for a batch in inference mode (used by calibration, which
    /// must rescale logits before the softmax).
    pub fn predict_logits(&mut self, input: &Tensor) -> Vec<Vec<f32>> {
        let logits = self.forward(input, false);
        logits.data().chunks(self.num_classes).map(|c| c.to_vec()).collect()
    }

    /// Visits every parameter slot in a stable order. Guarded layers drop
    /// their ABFT weight sums and derive them afresh on their next guarded
    /// forward: the visitor may change the weights.
    pub fn visit_slots(&mut self, f: &mut dyn FnMut(&mut ParamSlot)) {
        for layer in &mut self.layers {
            layer.visit_slots(f);
        }
    }

    /// Visits every parameter slot read-only, in the order of
    /// [`Network::visit_slots`], keeping every layer's ABFT weight sums.
    pub fn read_slots(&self, f: &mut dyn FnMut(&ParamSlot)) {
        for layer in &self.layers {
            layer.read_slots(f);
        }
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grads(&mut self) {
        self.visit_slots(&mut |slot| slot.zero_grad());
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        let mut count = 0;
        self.read_slots(&mut |slot| count += slot.value.len());
        count
    }

    /// Applies `f` to every parameter value (used by RAMR weight
    /// quantization).
    pub fn map_params(&mut self, f: impl Fn(f32) -> f32) {
        self.visit_slots(&mut |slot| slot.value.map_in_place(&f));
    }

    /// Snapshots all parameter values in visiting order. Arena-shared
    /// values stay shared (an `Arc` bump, no weight copy): copy-on-write
    /// keeps the snapshot intact whatever later mutates the slot.
    pub fn state_dict(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.read_slots(&mut |slot| out.push(slot.value.clone()));
        out
    }

    /// Restores parameter values from a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the tensor count or any shape disagrees with the network.
    pub fn load_state(&mut self, state: &[Tensor]) {
        let mut i = 0;
        self.visit_slots(&mut |slot| {
            assert!(i < state.len(), "state dict too short");
            assert_eq!(slot.value.shape(), state[i].shape(), "state tensor {i} shape mismatch");
            slot.value = state[i].clone();
            i += 1;
        });
        assert_eq!(i, state.len(), "state dict has {} extra tensors", state.len() - i);
    }

    /// Per-layer cost profile for the analytical performance model.
    pub fn cost_profile(&self) -> Vec<LayerCost> {
        self.layers.iter().map(|l| l.cost()).collect()
    }

    /// Switches Monte-Carlo dropout mode for every dropout layer in the
    /// network (the MC-dropout uncertainty baseline keeps masks active at
    /// inference and samples several stochastic passes).
    pub fn set_mc_dropout(&mut self, on: bool) {
        for layer in &mut self.layers {
            layer.set_mc_dropout(on);
        }
    }

    /// Visits every non-trainable state buffer (batch-norm running
    /// statistics) in a stable order. Buffers are part of the serialized
    /// model state: inference depends on them even though optimizers never
    /// update them.
    pub fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }
}

/// Per-pass selective-protection accounting, flushed to the global
/// observability registry once per guarded forward (including the
/// early-fault path) so counter traffic stays off the per-layer hot path.
/// Only nonzero counts are flushed, keeping unrelated snapshots free of
/// spurious zero-valued series.
#[derive(Default)]
struct ProtectTally {
    checked: u64,
    skipped: u64,
    duplicated: u64,
}

impl ProtectTally {
    fn record(&mut self, layer: &dyn Layer, guard: Guard<'_>, i: usize) {
        let kind = layer.name();
        if kind == "dense" || kind == "conv2d" {
            if guard.checks(i) {
                self.checked += 1;
            } else {
                self.skipped += 1;
            }
        }
        if guard.duplicates(i) {
            self.duplicated += 1;
        }
    }

    fn flush(&self) {
        let obs = pgmr_obs::global();
        if self.checked > 0 {
            obs.counter("abft.checked_total").add(self.checked);
        }
        if self.skipped > 0 {
            obs.counter("abft.skipped_total").add(self.skipped);
        }
        if self.duplicated > 0 {
            obs.counter("dup.exec_total").add(self.duplicated);
        }
    }
}

/// Element-wise comparison of a canonical layer output against its
/// independent recomputation, under the same relative-plus-absolute bound
/// the checksum verifier applies: `|a − b| ≤ tolerance·|b| + tolerance`.
/// A NaN deviation (NaN in either copy, or Inf in both) faults too.
fn compare_duplicate(
    canonical: &[f32],
    recomputed: &[f32],
    tolerance: f32,
) -> Result<(), ChecksumFault> {
    debug_assert_eq!(canonical.len(), recomputed.len());
    for (j, (&a, &b)) in canonical.iter().zip(recomputed.iter()).enumerate() {
        let bound = tolerance * b.abs() + tolerance;
        let deviation = (a - b).abs();
        if deviation.is_nan() || deviation > bound {
            return Err(ChecksumFault {
                kind: ChecksumKind::Recompute,
                index: j,
                deviation,
                bound,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(rng: &mut StdRng) -> Network {
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Flatten::new()),
            Box::new(Dense::new(8, 6, rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(6, 3, rng)),
        ];
        Network::new(layers, "tiny", 3)
    }

    #[test]
    fn forward_shape_and_proba_simplex() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::uniform(vec![4, 1, 2, 4], -1.0, 1.0, &mut rng);
        let probs = net.predict_proba(&x);
        assert_eq!(probs.len(), 4);
        for row in &probs {
            assert_eq!(row.len(), 3);
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn state_dict_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = tiny_net(&mut rng);
        let state = net.state_dict();
        let mut net2 = tiny_net(&mut rng); // different weights
        net2.load_state(&state);
        let x = Tensor::uniform(vec![2, 1, 2, 4], -1.0, 1.0, &mut rng);
        assert_eq!(net.predict_proba(&x), net2.predict_proba(&x));
    }

    #[test]
    fn hook_is_applied_between_layers() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::uniform(vec![1, 1, 2, 4], -1.0, 1.0, &mut rng);
        // Zeroing hook wipes the input, so the output depends only on biases
        // (all zero at init) — logits must be exactly zero.
        let out = net.forward_with_hook(&x, false, &|d: &mut [f32]| d.fill(0.0));
        assert_eq!(out.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn forward_checked_passes_clean_and_matches_forward() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::uniform(vec![3, 1, 2, 4], -1.0, 1.0, &mut rng);
        let plain = net.forward(&x, false);
        let checked =
            net.forward_checked(&x, false, None, 1e-4).expect("clean forward must verify");
        assert_eq!(plain.data(), checked.data());
    }

    #[test]
    fn forward_checked_catches_hook_injected_flip() {
        use std::cell::Cell;
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::uniform(vec![2, 1, 2, 4], -1.0, 1.0, &mut rng);
        // Flip an exponent bit in the first dense output (hook call #2:
        // input, then flatten, then dense — flatten/input are unguarded, so
        // target the third invocation).
        let calls = Cell::new(0usize);
        let hook = |d: &mut [f32]| {
            let c = calls.get();
            calls.set(c + 1);
            if c == 2 {
                d[1] = f32::from_bits(d[1].to_bits() ^ (1 << 30));
            }
        };
        let err = net.forward_checked(&x, false, Some(&hook), 1e-4);
        assert!(err.is_err(), "exponent flip on a dense output must be caught");
    }

    #[test]
    fn run_refills_a_reused_logits_buffer() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::uniform(vec![5, 1, 2, 4], -1.0, 1.0, &mut rng);
        let want = net.forward(&x, false);
        assert_eq!(want.shape().dims(), &[5, 3]);
        let mut logits = vec![7.0; 40];
        for _ in 0..2 {
            net.run(&x, &RunPlan::default(), &mut logits).unwrap();
            assert_eq!(logits.as_slice(), want.data());
        }
    }

    #[test]
    #[should_panic(expected = "guarded training is not supported")]
    fn guarded_training_is_rejected() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::uniform(vec![2, 1, 2, 4], -1.0, 1.0, &mut rng);
        let plan = RunPlan { train: true, guard: Guard::All(1e-4), ..RunPlan::default() };
        let _ = net.run(&x, &plan, &mut Vec::new());
    }

    #[test]
    fn param_count_counts_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = tiny_net(&mut rng);
        assert_eq!(net.param_count(), 8 * 6 + 6 + 6 * 3 + 3);
    }

    #[test]
    fn zero_grads_zeroes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::uniform(vec![2, 1, 2, 4], -1.0, 1.0, &mut rng);
        let y = net.forward(&x, true);
        net.backward(&Tensor::ones(*y.shape()));
        let mut grad_norm = 0.0;
        net.visit_slots(&mut |s| grad_norm += s.grad().iter().map(|g| g * g).sum::<f32>());
        assert!(grad_norm > 0.0);
        net.zero_grads();
        grad_norm = 0.0;
        net.visit_slots(&mut |s| grad_norm += s.grad().iter().map(|g| g * g).sum::<f32>());
        assert_eq!(grad_norm, 0.0);
    }
}
