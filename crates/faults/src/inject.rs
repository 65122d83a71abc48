//! The bit-flip injection engine: fault specifications, the activation-hook
//! injector, and persistent weight corruption/repair.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use pgmr_nn::Network;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 8 exponent bits of an IEEE-754 single — flips here rescale the value
/// by a power of two and are the high-consequence faults ABFT must catch.
pub const EXPONENT_BITS: RangeInclusive<u8> = 23..=30;
/// The 23 mantissa bits — flips here perturb the value by at most a factor
/// of two and are frequently masked.
pub const MANTISSA_BITS: RangeInclusive<u8> = 0..=22;
/// The sign bit.
pub const SIGN_BIT: RangeInclusive<u8> = 31..=31;
/// Any of the 32 bits, uniformly.
pub const ANY_BIT: RangeInclusive<u8> = 0..=31;

/// Flips bit `bit` (0 = LSB of the mantissa, 31 = sign) of `v`.
///
/// # Panics
///
/// Panics if `bit > 31`.
pub fn flip_bit(v: f32, bit: u8) -> f32 {
    assert!(bit < 32, "bit index {bit} out of range");
    f32::from_bits(v.to_bits() ^ (1u32 << bit))
}

/// What state the fault corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Stored parameters — the flip persists until repaired.
    Weights,
    /// Inter-layer activations — the flip lives for one forward pass.
    Activations,
}

/// Restricts injection to a subset of sites.
///
/// For activation faults a *site* is a hook invocation index in
/// [`Network::forward_checked`] order: site 0 is the network input, site
/// `i` is the output of layer `i - 1`. For weight faults a site is a
/// [`pgmr_nn::ParamSlot`] index in [`Network::visit_slots`] order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteFilter {
    /// Every site is eligible.
    All,
    /// Only the listed site indices are eligible.
    Only(Vec<usize>),
}

impl SiteFilter {
    /// True when `site` is eligible for injection.
    pub fn admits(&self, site: usize) -> bool {
        match self {
            SiteFilter::All => true,
            SiteFilter::Only(sites) => sites.contains(&site),
        }
    }
}

/// A complete, seeded description of a fault-injection experiment.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// RNG seed; identical specs inject identical faults.
    pub seed: u64,
    /// Per-element flip probability.
    pub rate: f64,
    /// What state is corrupted, which also says whether the flip
    /// persists (weights) or lives for one forward pass (activations).
    pub target: FaultTarget,
    /// Which bit positions may be flipped (inclusive).
    pub bits: RangeInclusive<u8>,
    /// Which sites (hook indices or parameter slots) are eligible.
    pub sites: SiteFilter,
}

impl FaultSpec {
    /// Transient single-bit flips in inter-layer activations — the ABFT
    /// detection target. Defaults to uniform bit choice over all 32 bits.
    pub fn transient_activations(seed: u64, rate: f64) -> Self {
        FaultSpec {
            seed,
            rate,
            target: FaultTarget::Activations,
            bits: ANY_BIT,
            sites: SiteFilter::All,
        }
    }

    /// Persistent single-bit flips in stored weights — the quarantine
    /// target (ABFT-consistent, hence undetectable by checksums).
    pub fn persistent_weights(seed: u64, rate: f64) -> Self {
        FaultSpec {
            seed,
            rate,
            target: FaultTarget::Weights,
            bits: ANY_BIT,
            sites: SiteFilter::All,
        }
    }

    /// Restricts flips to the given bit positions.
    pub fn with_bits(mut self, bits: RangeInclusive<u8>) -> Self {
        assert!(*bits.end() < 32, "bit range extends past bit 31");
        self.bits = bits;
        self
    }

    /// Restricts injection to the given sites.
    pub fn with_sites(mut self, sites: SiteFilter) -> Self {
        self.sites = sites;
        self
    }
}

/// One injected flip, recorded with enough context to undo it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Site index (hook invocation or parameter slot, per [`SiteFilter`]).
    pub site: usize,
    /// Flat element index within the site's buffer.
    pub elem: usize,
    /// Flipped bit position.
    pub bit: u8,
    /// Value before the flip.
    pub before: f32,
    /// Value after the flip.
    pub after: f32,
}

/// Hook-sites of a network whose outputs carry ABFT checksums (dense and
/// convolution layers), in [`Network::forward_checked`] hook order.
///
/// Useful for campaigns that measure checksum coverage in isolation:
/// faults on unguarded sites (inputs, activation functions, reshapes) are
/// *consistently absorbed* into the next layer's checksums — they
/// propagate as if they were legitimate inputs — so they dilute the
/// detection-rate denominator without exercising the guard.
pub fn guarded_sites(net: &Network) -> Vec<usize> {
    net.cost_profile()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind == "dense" || c.kind == "conv2d")
        .map(|(i, _)| i + 1) // hook site i+1 is the output of layer i
        .collect()
}

/// Seeded bit-flip injector usable as a [`Network::forward_with_hook`] /
/// [`Network::forward_checked`] activation hook.
///
/// The hook signature is `&dyn Fn(&mut [f32])`
/// ([`pgmr_nn::network::ActivationHook`]), so the injector keeps its RNG
/// and site counter behind interior mutability. Call
/// [`ActivationInjector::begin_forward`] before every forward pass to
/// reset the site counter; the RNG deliberately keeps advancing so
/// repeated passes (retries) sample fresh faults, while reconstructing the
/// injector from the same spec replays the exact sequence.
#[derive(Debug)]
pub struct ActivationInjector {
    rng: RefCell<StdRng>,
    rate: f64,
    bits: RangeInclusive<u8>,
    sites: SiteFilter,
    site: Cell<usize>,
    injected: Cell<usize>,
    site_flips: RefCell<BTreeMap<usize, usize>>,
}

impl ActivationInjector {
    /// Builds an injector from a spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not target activations.
    pub fn new(spec: &FaultSpec) -> Self {
        assert_eq!(
            spec.target,
            FaultTarget::Activations,
            "ActivationInjector needs an activation-targeted spec"
        );
        ActivationInjector {
            rng: RefCell::new(StdRng::seed_from_u64(spec.seed)),
            rate: spec.rate,
            bits: spec.bits.clone(),
            sites: spec.sites.clone(),
            site: Cell::new(0),
            injected: Cell::new(0),
            site_flips: RefCell::new(BTreeMap::new()),
        }
    }

    /// Resets the site counter; call before each forward pass.
    pub fn begin_forward(&self) {
        self.site.set(0);
    }

    /// The activation hook body: flips each element with the spec's
    /// probability when the current site is eligible, then advances the
    /// site counter. Takes the activation's raw row-major data, matching
    /// the `pgmr_nn::Network` hook signature.
    pub fn apply(&self, data: &mut [f32]) {
        let site = self.site.get();
        self.site.set(site + 1);
        if !self.sites.admits(site) {
            return;
        }
        let mut rng = self.rng.borrow_mut();
        let (lo, hi) = (*self.bits.start(), *self.bits.end());
        let mut flipped = 0usize;
        for v in data {
            if rng.gen_bool(self.rate) {
                let bit = rng.gen_range(lo..=hi);
                *v = flip_bit(*v, bit);
                flipped += 1;
            }
        }
        if flipped > 0 {
            self.injected.set(self.injected.get() + flipped);
            *self.site_flips.borrow_mut().entry(site).or_insert(0) += flipped;
        }
    }

    /// Total flips injected since construction.
    pub fn injected(&self) -> usize {
        self.injected.get()
    }

    /// Flips injected since construction, resolved per site: sorted
    /// `(site, count)` pairs, sites that never flipped omitted. This is
    /// the per-site attribution campaigns use to turn trial outcomes into
    /// a vulnerability ranking.
    pub fn site_flips(&self) -> Vec<(usize, usize)> {
        self.site_flips.borrow().iter().map(|(&s, &n)| (s, n)).collect()
    }
}

impl Clone for ActivationInjector {
    fn clone(&self) -> Self {
        ActivationInjector {
            rng: RefCell::new(self.rng.borrow().clone()),
            rate: self.rate,
            bits: self.bits.clone(),
            sites: self.sites.clone(),
            site: Cell::new(self.site.get()),
            injected: Cell::new(self.injected.get()),
            site_flips: RefCell::new(self.site_flips.borrow().clone()),
        }
    }
}

/// Injects persistent bit flips into a network's parameters, returning a
/// record per flip (in slot-visit order) so [`repair_weights`] can undo
/// them exactly.
pub fn inject_weights(net: &mut Network, spec: &FaultSpec) -> Vec<FaultRecord> {
    assert_eq!(spec.target, FaultTarget::Weights, "inject_weights needs a weight-targeted spec");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let (lo, hi) = (*spec.bits.start(), *spec.bits.end());
    let mut records = Vec::new();
    let mut slot_idx = 0usize;
    net.visit_slots(&mut |slot| {
        if spec.sites.admits(slot_idx) {
            for (elem, v) in slot.value.data_mut().iter_mut().enumerate() {
                if rng.gen_bool(spec.rate) {
                    let bit = rng.gen_range(lo..=hi);
                    let before = *v;
                    *v = flip_bit(*v, bit);
                    records.push(FaultRecord { site: slot_idx, elem, bit, before, after: *v });
                }
            }
        }
        slot_idx += 1;
    });
    records
}

/// Restores every recorded weight flip to its pre-fault value.
pub fn repair_weights(net: &mut Network, records: &[FaultRecord]) {
    let mut slot_idx = 0usize;
    net.visit_slots(&mut |slot| {
        for r in records.iter().filter(|r| r.site == slot_idx) {
            slot.value.data_mut()[r.elem] = r.before;
        }
        slot_idx += 1;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmr_nn::layer::Layer;
    use pgmr_nn::layers::{Conv2d, Dense, Flatten, Relu};
    use pgmr_tensor::Tensor;

    fn small_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(1, 4, 6, 6, 3, 1, 1, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(4 * 6 * 6, 5, &mut rng)),
        ];
        Network::new(layers, "small", 5)
    }

    #[test]
    fn flip_bit_is_involutive() {
        for bit in 0..32u8 {
            let v = -3.75f32;
            assert_eq!(flip_bit(flip_bit(v, bit), bit), v);
        }
    }

    #[test]
    fn guarded_sites_are_conv_and_dense_outputs() {
        let net = small_net(0);
        // Layers: conv2d(0) relu(1) flatten(2) dense(3) → sites 1 and 4.
        assert_eq!(guarded_sites(&net), vec![1, 4]);
    }

    #[test]
    fn weight_injection_is_seed_deterministic_and_repairable() {
        let mut net = small_net(1);
        let pristine = net.state_dict();
        let spec = FaultSpec::persistent_weights(99, 0.05);
        let a = inject_weights(&mut net, &spec);
        assert!(!a.is_empty(), "5% rate on >100 params should flip something");
        repair_weights(&mut net, &a);
        let restored = net.state_dict();
        for (p, r) in pristine.iter().zip(&restored) {
            assert_eq!(p.data(), r.data(), "repair must restore weights exactly");
        }
        // Same spec on the repaired net replays the identical fault list.
        let b = inject_weights(&mut net, &spec);
        assert_eq!(a, b);
        repair_weights(&mut net, &b);
    }

    #[test]
    fn activation_injector_respects_site_filter() {
        let spec = FaultSpec::transient_activations(7, 1.0).with_sites(SiteFilter::Only(vec![1]));
        let inj = ActivationInjector::new(&spec);
        inj.begin_forward();
        let mut t = Tensor::ones(vec![4]);
        inj.apply(t.data_mut()); // site 0: filtered out
        assert_eq!(t.data(), &[1.0; 4]);
        assert_eq!(inj.injected(), 0);
        inj.apply(t.data_mut()); // site 1: rate 1.0 flips every element
        assert_eq!(inj.injected(), 4);
        // pgmr-lint: allow(float-eq): a flipped bit can never leave the exact 1.0 seed value bit-identical
        assert!(t.data().iter().all(|&v| v != 1.0));
    }

    #[test]
    fn injector_hook_composes_with_forward_checked() {
        let mut net = small_net(2);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::uniform(vec![1, 1, 6, 6], -1.0, 1.0, &mut rng);
        // Exponent flips on guarded outputs only: the checksum must fire.
        let spec = FaultSpec::transient_activations(11, 0.05)
            .with_bits(EXPONENT_BITS)
            .with_sites(SiteFilter::Only(guarded_sites(&net)));
        let inj = ActivationInjector::new(&spec);
        let mut caught = 0;
        for _ in 0..20 {
            inj.begin_forward();
            let before = inj.injected();
            let hook = |d: &mut [f32]| inj.apply(d);
            let r = net.forward_checked(&x, false, Some(&hook), 1e-4);
            if inj.injected() > before {
                if r.is_err() {
                    caught += 1;
                }
            } else {
                assert!(r.is_ok(), "no injection must verify cleanly");
            }
        }
        assert!(caught > 0, "some injected trials must be detected");
    }
}
