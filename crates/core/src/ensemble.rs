//! Layers 1 and 2: preprocessor-paired networks and the heterogeneous MR
//! ensemble.
//!
//! A [`Member`] owns the buffers of its pass: the preprocessed input and
//! the probability vector. Every pass (preprocess, [`Network::run`], the
//! in-place softmax) writes into them, so a warmed pass allocates
//! nothing. The system casts votes from them as top-1 `(class,
//! confidence)` pairs; [`Member::predict`] and [`Member::predict_checked`]
//! return a copy of the probabilities, their one allocation.

use crate::decision::top_vote;
use pgmr_datasets::Dataset;
use pgmr_faults::ActivationInjector;
use pgmr_nn::network::{ActivationHook, Guard, RunPlan};
use pgmr_nn::zoo::{build, ArchSpec};
use pgmr_nn::{CheckPlan, Network, TrainConfig, TrainReport, Trainer};
use pgmr_precision::Precision;
use pgmr_preprocess::Preprocessor;
use pgmr_tensor::checksum::ChecksumFault;
use pgmr_tensor::Tensor;

/// One Layer-1 + Layer-2 slot: a preprocessor feeding a CNN trained on the
/// preprocessor's view of the data.
///
/// The member optionally runs at reduced precision ([`Member::set_precision`]),
/// which quantizes the weights once and every activation during inference —
/// the RAMR execution mode.
#[derive(Clone)]
pub struct Member {
    preprocessor: Preprocessor,
    network: Network,
    precision: Precision,
    fault: Option<ActivationInjector>,
    protection: Option<CheckPlan>,
    /// The preprocessed input of the latest pass, reused while the image
    /// shape stays the same.
    input: Tensor,
    /// The softmax probabilities of the latest pass, reused.
    probs: Vec<f32>,
}

impl Member {
    /// Wraps an already-trained network.
    pub fn new(preprocessor: Preprocessor, network: Network) -> Self {
        Member {
            preprocessor,
            network,
            precision: Precision::FULL,
            fault: None,
            protection: None,
            input: Tensor::default(),
            probs: Vec::new(),
        }
    }

    /// Builds a fresh network from `spec` with `seed` and trains it on the
    /// preprocessed view of `data`.
    pub fn train(
        preprocessor: Preprocessor,
        spec: &ArchSpec,
        data: &Dataset,
        config: &TrainConfig,
        seed: u64,
    ) -> (Self, TrainReport) {
        let mut network = build(spec, seed);
        let view = data.map_images(|img| preprocessor.apply(img));
        let report = Trainer::new(config.clone()).fit(&mut network, view.images(), view.labels());
        (Member::new(preprocessor, network), report)
    }

    /// The member's preprocessor.
    pub fn preprocessor(&self) -> Preprocessor {
        self.preprocessor
    }

    /// The member's current inference precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Switches the member to reduced-precision inference, quantizing its
    /// weights in place. Lowering precision is one-way: re-raising the
    /// setting cannot restore the already-rounded weights, so calls with a
    /// wider format than the current one only change the activation
    /// rounding.
    pub fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
        self.network.map_params(|v| precision.quantize(v));
    }

    /// The wrapped network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the wrapped network (calibration, inspection).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Attaches (or clears) a seeded activation fault injector. When set,
    /// every forward pass ([`Member::predict`] and
    /// [`Member::predict_checked`]) runs the injector hook on the network
    /// input and on each layer output — the soft-error simulation point.
    pub fn set_fault_injector(&mut self, injector: Option<ActivationInjector>) {
        self.fault = injector;
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&ActivationInjector> {
        self.fault.as_ref()
    }

    /// Attaches (or clears) a selective-protection plan. When set,
    /// [`Member::predict_checked`] verifies only the layers the plan
    /// selects (and optionally duplicates the most critical one) instead
    /// of checking every guarded layer. `None` — the default — is the
    /// uniform full-ABFT behavior.
    ///
    /// # Panics
    ///
    /// Panics if the plan's layer count disagrees with this member's
    /// network.
    pub fn set_protection(&mut self, plan: Option<CheckPlan>) {
        if let Some(p) = &plan {
            assert_eq!(
                p.num_layers(),
                self.network.num_layers(),
                "protection plan covers {} layers, network has {}",
                p.num_layers(),
                self.network.num_layers()
            );
        }
        self.protection = plan;
    }

    /// The active selective-protection plan, if any.
    pub fn protection(&self) -> Option<&CheckPlan> {
        self.protection.as_ref()
    }

    /// Widens an ABFT base tolerance to absorb this member's quantization
    /// noise: reduced-precision rounding perturbs each checksummed output
    /// by at most a `2^-(m+1)` relative error (`m` mantissa bits), so the
    /// scaled verification bound needs at least `2^-m` to avoid false
    /// alarms while staying far below any exponent-bit corruption.
    pub fn abft_tolerance(&self, base: f32) -> f32 {
        if self.precision == Precision::FULL {
            base
        } else {
            base.max(2f32.powi(-(self.precision.mantissa_bits() as i32)))
        }
    }

    /// Softmax probabilities for one raw image: the preprocessor is applied
    /// first, then the (possibly quantized, possibly fault-injected)
    /// forward pass.
    pub fn predict(&mut self, image: &Tensor) -> Vec<f32> {
        self.pass(image, None).expect("an unguarded run cannot fault");
        self.probs.clone()
    }

    /// ABFT-guarded prediction: like [`Member::predict`] but every dense
    /// and convolution output the protection plan selects (every one
    /// without a plan) is verified against row/column checksums after the
    /// fault/precision hook runs, so transient corruption of a guarded
    /// activation returns a [`ChecksumFault`] instead of silently
    /// propagating. `tolerance` is widened via [`Member::abft_tolerance`]
    /// when the member runs at reduced precision.
    pub fn predict_checked(
        &mut self,
        image: &Tensor,
        tolerance: f32,
    ) -> Result<Vec<f32>, ChecksumFault> {
        self.pass(image, Some(self.abft_tolerance(tolerance)))?;
        Ok(self.probs.clone())
    }

    /// The member's top-1 vote on one raw image, `(class, confidence)`:
    /// the pass of [`Member::predict`] (`tolerance: None`) or of
    /// [`Member::predict_checked`], without copying the probabilities
    /// out. A warmed vote allocates nothing.
    pub(crate) fn vote(
        &mut self,
        image: &Tensor,
        tolerance: Option<f32>,
    ) -> Result<(usize, f32), ChecksumFault> {
        self.pass(image, tolerance.map(|t| self.abft_tolerance(t)))?;
        Ok(top_vote(&self.probs))
    }

    /// The one member pass: preprocess into the member's input buffer,
    /// then [`Network::run`] into its probability buffer with the
    /// fault/precision hook (omitted entirely when neither is active) and,
    /// given a tolerance, the member's guard; softmax in place over the
    /// logits.
    fn pass(&mut self, image: &Tensor, tolerance: Option<f32>) -> Result<(), ChecksumFault> {
        if self.input.shape() != image.shape() {
            self.input = input_buffer(image);
        }
        self.preprocessor.apply_into(image, self.input.data_mut());
        let p = self.precision;
        let fault = self.fault.as_ref();
        if let Some(inj) = fault {
            inj.begin_forward();
        }
        let hook = |d: &mut [f32]| {
            if let Some(inj) = fault {
                inj.apply(d);
            }
            if p != Precision::FULL {
                p.quantize_slice(d);
            }
        };
        let hook: ActivationHook<'_> = &hook;
        let guard = match (tolerance, &self.protection) {
            (None, _) => Guard::Off,
            (Some(tol), Some(plan)) => Guard::Plan(plan, tol),
            (Some(tol), None) => Guard::All(tol),
        };
        let needs_hook = fault.is_some() || p != Precision::FULL;
        let plan = RunPlan { hook: needs_hook.then_some(hook), guard, ..RunPlan::default() };
        self.network.run(&self.input, &plan, &mut self.probs)?;
        debug_assert_eq!(self.probs.len(), self.network.num_classes());
        pgmr_tensor::softmax_in_place(&mut self.probs);
        Ok(())
    }

    /// Probabilities for a set of raw images, one vector per image.
    pub fn predict_all(&mut self, images: &[Tensor]) -> Vec<Vec<f32>> {
        images.iter().map(|img| self.predict(img)).collect()
    }

    /// Accuracy of this member alone over a raw-image dataset.
    pub fn accuracy(&mut self, data: &Dataset) -> f64 {
        let mut correct = 0usize;
        for (img, &label) in data.images().iter().zip(data.labels()) {
            let probs = self.predict(img);
            if pgmr_tensor::argmax(&probs) == label {
                correct += 1;
            }
        }
        correct as f64 / data.len() as f64
    }
}

/// A member input buffer of `image`'s shape.
// pgmr-lint: boundary(hot-path-alloc): a member sizes its input buffer on its first pass and again only when the image shape changes
fn input_buffer(image: &Tensor) -> Tensor {
    Tensor::zeros(*image.shape())
}

/// The Layer-2 heterogeneous MR ensemble: an ordered list of members.
#[derive(Clone)]
pub struct Ensemble {
    members: Vec<Member>,
}

impl Ensemble {
    /// Creates an ensemble from its members.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<Member>) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        Ensemble { members }
    }

    /// Number of member networks (the MR degree).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ensemble has no members (never constructible).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members, in priority order.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// Mutable access to the members.
    pub fn members_mut(&mut self) -> &mut [Member] {
        &mut self.members
    }

    /// Switches every member to the given precision (RAMR).
    pub fn set_precision(&mut self, precision: Precision) {
        for m in &mut self.members {
            m.set_precision(precision);
        }
    }

    /// The preprocessor configuration, in member order (Table III rows).
    pub fn configuration(&self) -> Vec<Preprocessor> {
        self.members.iter().map(|m| m.preprocessor()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmr_datasets::{families, Split};

    fn tiny_training_setup() -> (Dataset, ArchSpec, TrainConfig) {
        let cfg = families::synth_digits(0);
        let data = cfg.generate(Split::Train, 120);
        let spec = ArchSpec::convnet(1, 16, 16, 10);
        let train = TrainConfig { epochs: 3, batch_size: 16, lr: 0.08, ..TrainConfig::default() };
        (data, spec, train)
    }

    #[test]
    fn trained_member_beats_chance() {
        let (data, spec, train) = tiny_training_setup();
        let (mut member, report) = Member::train(Preprocessor::Identity, &spec, &data, &train, 1);
        assert!(report.final_train_accuracy > 0.3, "train acc {}", report.final_train_accuracy);
        let cfg = families::synth_digits(0);
        let test = cfg.generate(Split::Test, 100);
        let acc = member.accuracy(&test);
        assert!(acc > 0.2, "test acc {acc} not above chance (0.1)");
    }

    #[test]
    fn member_applies_its_preprocessor() {
        let (data, spec, train) = tiny_training_setup();
        let (mut org, _) = Member::train(Preprocessor::Identity, &spec, &data, &train, 1);
        let (mut flip, _) = Member::train(Preprocessor::FlipX, &spec, &data, &train, 1);
        // Identical seeds and data stream, but the flipped member sees
        // flipped images during both training and inference, so raw-image
        // predictions differ.
        let img = &data.images()[0];
        assert_ne!(org.predict(img), flip.predict(img));
    }

    #[test]
    fn prediction_vectors_are_distributions() {
        let (data, spec, train) = tiny_training_setup();
        let (mut member, _) = Member::train(Preprocessor::Gamma(2.0), &spec, &data, &train, 5);
        for probs in member.predict_all(&data.images()[..10]) {
            assert_eq!(probs.len(), 10);
            assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn reduced_precision_changes_predictions_slightly() {
        let (data, spec, train) = tiny_training_setup();
        let (mut member, _) = Member::train(Preprocessor::Identity, &spec, &data, &train, 2);
        let img = &data.images()[0];
        let before = member.predict(img);
        member.set_precision(Precision::new(12));
        let after = member.predict(img);
        assert_ne!(before, after);
        // But the distribution property holds.
        assert!((after.iter().sum::<f32>() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn ensemble_predict_shapes() {
        let spec = ArchSpec::convnet(1, 16, 16, 10);
        let a = Member::new(Preprocessor::Identity, build(&spec, 1));
        let b = Member::new(Preprocessor::FlipX, build(&spec, 2));
        let ens = Ensemble::new(vec![a, b]);
        assert_eq!(ens.len(), 2);
        assert_eq!(ens.configuration(), vec![Preprocessor::Identity, Preprocessor::FlipX]);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_rejected() {
        Ensemble::new(Vec::new());
    }
}
