//! # pgmr-precision
//!
//! Reduced-precision inference simulation — the substrate of the paper's
//! **RAMR** (resource-aware MR) optimization (§III-D).
//!
//! The paper modifies Caffe with custom CUDA kernels that truncate values at
//! load and store instructions to a chosen bit width, with "a unified
//! precision throughout the network and for all layers". This crate
//! reproduces those semantics in software:
//!
//! * [`Precision`] — a floating-point format with 1 sign bit, the full
//!   8-bit IEEE-754 exponent, and a narrowed mantissa; `total_bits = 9 +
//!   mantissa_bits`. The paper's 17-bit setting is `Precision::new(17)`
//!   (8 mantissa bits) and its 14-bit setting keeps 5 mantissa bits.
//! * [`Precision::quantize`] — round-to-nearest-even mantissa rounding of
//!   an `f32`, exactly idempotent.
//! * [`QuantizedNetwork`] — wraps a trained [`pgmr_nn::Network`],
//!   quantizing the weights once and every inter-layer activation via the
//!   network's activation hook (the simulated load/store boundary).
//!
//! ## Example
//!
//! ```
//! use pgmr_precision::Precision;
//!
//! let p = Precision::new(14); // 5 mantissa bits
//! let q = p.quantize(0.123456789);
//! assert_eq!(p.quantize(q), q); // idempotent
//! assert!((q - 0.123456789f32).abs() < 0.123456789 * 0.02);
//! ```

use pgmr_nn::network::RunPlan;
use pgmr_nn::Network;
use pgmr_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An invalid [`Precision`] width, reported by [`Precision::try_new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidPrecision {
    /// The rejected total width.
    pub total_bits: u32,
}

impl fmt::Display for InvalidPrecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total bits must be in 10..=32 (1 sign + 8 exponent + at least 1 mantissa bit), got {}",
            self.total_bits
        )
    }
}

impl std::error::Error for InvalidPrecision {}

/// A narrowed floating-point format: 1 sign bit + 8 exponent bits +
/// `total_bits - 9` mantissa bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Precision {
    total_bits: u32,
}

impl Precision {
    /// Full IEEE-754 single precision (32 bits, 23 mantissa bits).
    pub const FULL: Precision = Precision { total_bits: 32 };

    /// Creates a format with the given total width.
    ///
    /// # Panics
    ///
    /// Panics unless `10 <= total_bits <= 32` (at least one mantissa bit).
    /// Fallible callers (sweeps over externally supplied widths) use
    /// [`Precision::try_new`].
    pub fn new(total_bits: u32) -> Self {
        match Precision::try_new(total_bits) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: rejects widths outside `10..=32` with a
    /// descriptive error instead of panicking. Validating here is what
    /// makes [`Precision::mantissa_bits`]'s `total_bits - 9` safe — a
    /// sub-9-bit width would underflow the subtraction.
    pub fn try_new(total_bits: u32) -> Result<Self, InvalidPrecision> {
        if (10..=32).contains(&total_bits) {
            Ok(Precision { total_bits })
        } else {
            Err(InvalidPrecision { total_bits })
        }
    }

    /// Total bit width.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Mantissa bits retained. Cannot underflow: construction rejects
    /// widths below 10 (see [`Precision::try_new`]).
    pub fn mantissa_bits(&self) -> u32 {
        debug_assert!(self.total_bits >= 10, "unvalidated Precision width {}", self.total_bits);
        self.total_bits - 9
    }

    /// Number of values of this format that pack into the space of one
    /// `f32` during memory transfers (fractional; 14-bit values pack
    /// 32/14 ≈ 2.29×). This drives the memory-traffic reduction in the
    /// `pgmr-perf` model.
    pub fn packing_factor(&self) -> f64 {
        32.0 / self.total_bits as f64
    }

    /// Quantizes a value to this format with round-to-nearest-even.
    ///
    /// Non-finite inputs pass through unchanged; zero stays exactly zero;
    /// the operation is idempotent and sign-symmetric. Finite inputs stay
    /// finite: a round-up that would carry past the largest finite
    /// exponent saturates to the format's maximum finite value instead of
    /// overflowing to infinity (finite in, non-finite out would trip
    /// ABFT's finiteness scan on legitimate data).
    pub fn quantize(&self, v: f32) -> f32 {
        let m = self.mantissa_bits();
        // pgmr-lint: allow(float-eq): exact-zero early-out — quantizing ±0.0 must return it bit-identically
        if m >= 23 || !v.is_finite() || v == 0.0 {
            return v;
        }
        let bits = v.to_bits();
        let shift = 23 - m;
        let mask = (1u32 << shift) - 1;
        let rem = bits & mask;
        let half = 1u32 << (shift - 1);
        let mut out = bits & !mask;
        if rem > half || (rem == half && (bits >> shift) & 1 == 1) {
            // Carry may propagate into the exponent, which is exactly the
            // IEEE round-up behavior — except at the very top of the range,
            // where e.g. f32::MAX (mantissa all ones) would carry exponent
            // 254 → 255 and turn finite data into +Inf. Saturate there.
            out = out.wrapping_add(1 << shift);
            if !f32::from_bits(out).is_finite() {
                out = (bits & 0x8000_0000) | self.max_finite_magnitude_bits();
            }
        }
        f32::from_bits(out)
    }

    /// Bit pattern of the format's largest finite magnitude: exponent 254
    /// with the retained mantissa bits all ones.
    fn max_finite_magnitude_bits(&self) -> u32 {
        let m = self.mantissa_bits().min(23);
        (254u32 << 23) | (((1u32 << m) - 1) << (23 - m))
    }

    /// The format's largest representable finite value ([`Self::quantize`]
    /// saturates to ±this at the top of the range).
    pub fn max_finite(&self) -> f32 {
        f32::from_bits(self.max_finite_magnitude_bits())
    }

    /// Quantizes every element of a tensor in place.
    pub fn quantize_tensor(&self, t: &mut Tensor) {
        if self.mantissa_bits() >= 23 {
            return;
        }
        t.map_in_place(|v| self.quantize(v));
    }

    /// Quantizes a raw activation slice in place — the [`pgmr_nn::Network`]
    /// hook form of [`Precision::quantize_tensor`].
    pub fn quantize_slice(&self, data: &mut [f32]) {
        if self.mantissa_bits() >= 23 {
            return;
        }
        for v in data {
            *v = self.quantize(*v);
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b", self.total_bits)
    }
}

/// A trained network executing at reduced precision.
///
/// Construction quantizes all weights once (they live in narrow storage);
/// every forward pass quantizes the input and each layer's output, exactly
/// as the paper's modified kernels truncate loads and stores.
pub struct QuantizedNetwork {
    net: Network,
    precision: Precision,
}

impl QuantizedNetwork {
    /// Wraps `net`, quantizing its parameters to `precision`.
    pub fn new(mut net: Network, precision: Precision) -> Self {
        net.map_params(|v| precision.quantize(v));
        QuantizedNetwork { net, precision }
    }

    /// The format this network runs at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The wrapped network's architecture id.
    pub fn arch_id(&self) -> &str {
        self.net.arch_id()
    }

    /// Softmax probabilities for a `[n, c, h, w]` batch with all
    /// activations quantized at layer boundaries.
    pub fn predict_proba(&mut self, batch: &Tensor) -> Vec<Vec<f32>> {
        let precision = self.precision;
        let hook = |d: &mut [f32]| precision.quantize_slice(d);
        let mut logits = Vec::new();
        self.net
            .run(batch, &RunPlan { hook: Some(&hook), ..RunPlan::default() }, &mut logits)
            .expect("an unguarded run cannot fault");
        logits.chunks(self.net.num_classes()).map(pgmr_tensor::softmax).collect()
    }

    /// Consumes the wrapper and returns the (quantized-weight) network.
    pub fn into_inner(self) -> Network {
        self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn full_precision_is_identity() {
        let p = Precision::FULL;
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let v: f32 = rng.gen_range(-1e6..1e6);
            assert_eq!(p.quantize(v), v);
        }
    }

    #[test]
    fn quantization_is_idempotent() {
        let mut rng = StdRng::seed_from_u64(1);
        for bits in 10..=31 {
            let p = Precision::new(bits);
            for _ in 0..50 {
                let v: f32 = rng.gen_range(-100.0..100.0);
                let q = p.quantize(v);
                assert_eq!(p.quantize(q), q, "{bits} bits on {v}");
            }
        }
    }

    #[test]
    fn quantization_is_sign_symmetric() {
        let p = Precision::new(12);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let v: f32 = rng.gen_range(0.0..10.0);
            assert_eq!(p.quantize(-v), -p.quantize(v));
        }
    }

    #[test]
    fn zero_and_specials_pass_through() {
        let p = Precision::new(10);
        assert_eq!(p.quantize(0.0), 0.0);
        assert_eq!(p.quantize(-0.0), -0.0);
        assert!(p.quantize(f32::NAN).is_nan());
        assert_eq!(p.quantize(f32::INFINITY), f32::INFINITY);
    }

    #[test]
    fn error_shrinks_with_more_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<f32> = (0..1000).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let mut prev_err = f64::INFINITY;
        for bits in [10u32, 14, 18, 22, 26] {
            let p = Precision::new(bits);
            let err: f64 = values
                .iter()
                .map(|&v| ((p.quantize(v) - v).abs() / v.abs().max(1e-6)) as f64)
                .sum();
            assert!(err < prev_err, "error should shrink: {bits} bits err {err} >= {prev_err}");
            prev_err = err;
        }
    }

    #[test]
    fn relative_error_bounded_by_half_ulp() {
        let p = Precision::new(14); // 5 mantissa bits → rel err ≤ 2^-6
        let bound = 2.0f32.powi(-6);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            let v: f32 = rng.gen_range(0.001..1000.0);
            let rel = (p.quantize(v) - v).abs() / v;
            assert!(rel <= bound * 1.001, "rel err {rel} at {v}");
        }
    }

    #[test]
    fn round_to_nearest_even_at_ties() {
        // 5 mantissa bits: 1.0 + 2^-6 is exactly halfway between
        // representable 1.0 and 1.0 + 2^-5 → rounds to even (1.0).
        let p = Precision::new(14);
        let tie = 1.0 + 2.0f32.powi(-6);
        assert_eq!(p.quantize(tie), 1.0);
        // The next odd boundary rounds up: 1.0 + 3*2^-6 is halfway between
        // 1.0 + 2^-5 (odd mantissa) and 1.0 + 2^-4... check monotonicity
        // instead at a simpler point.
        let above = 1.0 + 2.0f32.powi(-6) + 2.0f32.powi(-10);
        assert_eq!(p.quantize(above), 1.0 + 2.0f32.powi(-5));
    }

    #[test]
    fn packing_factor_matches_paper_settings() {
        assert!((Precision::new(16).packing_factor() - 2.0).abs() < 1e-9);
        assert!(Precision::new(14).packing_factor() > 2.0);
        assert_eq!(Precision::FULL.packing_factor(), 1.0);
    }

    #[test]
    fn quantized_network_stays_close_at_high_bits() {
        use pgmr_nn::zoo::{build, ArchSpec};
        let spec = ArchSpec::convnet(1, 8, 8, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::uniform(vec![4, 1, 8, 8], 0.0, 1.0, &mut rng);
        let mut full = build(&spec, 3);
        let base = full.predict_proba(&x);
        let mut quant = QuantizedNetwork::new(build(&spec, 3), Precision::new(24));
        let q = quant.predict_proba(&x);
        for (br, qr) in base.iter().zip(&q) {
            for (b, qv) in br.iter().zip(qr) {
                assert!((b - qv).abs() < 1e-2, "24-bit inference drifted: {b} vs {qv}");
            }
        }
    }

    #[test]
    fn aggressive_quantization_changes_outputs() {
        use pgmr_nn::zoo::{build, ArchSpec};
        let spec = ArchSpec::convnet(1, 8, 8, 4);
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::uniform(vec![4, 1, 8, 8], 0.0, 1.0, &mut rng);
        let mut full = build(&spec, 3);
        let base = full.predict_proba(&x);
        let mut quant = QuantizedNetwork::new(build(&spec, 3), Precision::new(10));
        let q = quant.predict_proba(&x);
        let max_diff: f32 = base
            .iter()
            .flatten()
            .zip(q.iter().flatten())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(max_diff > 1e-4, "10-bit inference should differ measurably");
    }

    #[test]
    #[should_panic(expected = "total bits")]
    fn rejects_too_few_bits() {
        Precision::new(9);
    }

    #[test]
    fn try_new_validates_width_range() {
        // Regression: widths below 9 used to reach `total_bits - 9` on u32
        // (panic in debug, wrap to a huge mantissa count in release). The
        // constructor must reject them with a descriptive error instead.
        for bad in [0u32, 5, 8, 9, 33, 64] {
            let err = Precision::try_new(bad).expect_err("width must be rejected");
            assert_eq!(err.total_bits, bad);
            let msg = err.to_string();
            assert!(msg.contains("10..=32"), "error must name the valid range: {msg}");
            assert!(msg.contains(&bad.to_string()), "error must echo the width: {msg}");
        }
        for good in 10u32..=32 {
            let p = Precision::try_new(good).expect("valid width");
            assert_eq!(p.total_bits(), good);
            assert!(p.mantissa_bits() >= 1, "every valid format keeps a mantissa bit");
            assert_eq!(p.mantissa_bits(), good - 9);
        }
    }

    #[test]
    fn quantize_saturates_instead_of_overflowing_to_inf() {
        // Regression: f32::MAX has an all-ones mantissa, so truncating
        // formats see a remainder past the halfway point and round up —
        // which used to carry exponent 254 → 255 and produce +Inf from
        // finite input.
        for bits in 10u32..32 {
            let p = Precision::new(bits);
            for v in [f32::MAX, -f32::MAX] {
                let q = p.quantize(v);
                assert!(q.is_finite(), "{bits}-bit quantize({v}) must stay finite, got {q}");
                assert_eq!(q.abs(), p.max_finite(), "{bits}-bit saturation value");
                assert_eq!(q.signum(), v.signum(), "{bits}-bit saturation sign");
                assert_eq!(p.quantize(q), q, "{bits}-bit saturation must be idempotent");
            }
        }
        // True non-finite inputs still pass through unchanged.
        let p = Precision::new(14);
        assert_eq!(p.quantize(f32::INFINITY), f32::INFINITY);
        assert_eq!(p.quantize(f32::NEG_INFINITY), f32::NEG_INFINITY);
        // Values the format can represent exactly at the top stay put, and
        // values just under the saturation point round *down* to it.
        assert_eq!(p.quantize(p.max_finite()), p.max_finite());
    }
}
