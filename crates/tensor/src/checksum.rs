//! ABFT (algorithm-based fault tolerance) checksums for GEMM results.
//!
//! Huang–Abraham style guards: before (or while) computing `C = A·B`, the
//! verifier derives the *expected* row sums `A·(B·e)` and column sums
//! `(e·A)·B` of the result in `O(mk + kn)` time — asymptotically free next
//! to the `O(mkn)` multiply. After the product (and any hostile corruption
//! of it), the actual row/column sums of `C` are compared against the
//! expectations. A single flipped element perturbs exactly one row sum and
//! one column sum by the same amount, so any corruption whose magnitude
//! exceeds the floating-point noise floor is caught.
//!
//! Tolerances are *scaled*: alongside each expected sum the verifier carries
//! the corresponding absolute-value sum (`|A|·(|B|·e)` etc.), which bounds
//! the attainable round-off. A deviation counts as a fault only when it
//! exceeds `tolerance × scale + tolerance`, making the guard robust across
//! layers with wildly different activation magnitudes.

/// Which checksum direction caught a deviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChecksumKind {
    /// A row sum of the result disagreed with `A·(B·e)`.
    Row,
    /// A column sum of the result disagreed with `(e·A)·B`.
    Col,
    /// A GEMM input (operand or folded bias) was NaN/Inf at derivation
    /// time. The kernels are uniformly non-skipping, so `0 × NaN/Inf`
    /// propagates into the output per IEEE semantics — but a NaN-poisoned
    /// output makes *every* row/column comparison NaN-vs-NaN and therefore
    /// unverifiable, so the explicit input scan is still what turns such
    /// corruption into a crisp, attributable fault.
    NonFinite,
    /// Duplicated execution (compute-twice-compare) disagreed: an element
    /// of a layer's canonical output deviated from an independent
    /// recomputation by more than the scaled tolerance. Unlike row/column
    /// checksums this guard covers layers without a GEMM core, at the
    /// price of running the layer twice.
    Recompute,
}

/// A detected checksum violation in a guarded GEMM output.
#[derive(Debug, Clone, PartialEq)]
pub struct ChecksumFault {
    /// Direction of the failing checksum.
    pub kind: ChecksumKind,
    /// Row or column index (per [`ChecksumFault::kind`]) that failed.
    pub index: usize,
    /// Absolute deviation between the actual and expected sum.
    pub deviation: f32,
    /// The tolerance bound the deviation exceeded.
    pub bound: f32,
}

impl std::fmt::Display for ChecksumFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dir = match self.kind {
            ChecksumKind::Row => "row",
            ChecksumKind::Col => "col",
            ChecksumKind::NonFinite => {
                return write!(f, "ABFT checksum fault: non-finite GEMM input");
            }
            ChecksumKind::Recompute => {
                return write!(
                    f,
                    "duplicate-execution fault: element {} deviates by {:.3e} (bound {:.3e})",
                    self.index, self.deviation, self.bound
                );
            }
        };
        write!(
            f,
            "ABFT checksum fault: {dir} {} deviates by {:.3e} (bound {:.3e})",
            self.index, self.deviation, self.bound
        )
    }
}

impl std::error::Error for ChecksumFault {}

/// Expected row/column sums (plus round-off scales) for one `m×n` GEMM
/// result.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmChecksums {
    m: usize,
    n: usize,
    /// Expected row sums: `row_sum[i] = Σ_j C[i,j]`.
    row_sum: Vec<f32>,
    /// Expected column sums: `col_sum[j] = Σ_i C[i,j]`.
    col_sum: Vec<f32>,
    /// Absolute-magnitude row sums bounding round-off per row.
    row_scale: Vec<f32>,
    /// Absolute-magnitude column sums bounding round-off per column.
    col_scale: Vec<f32>,
    /// False when any input operand (or folded bias) was NaN/Inf at
    /// derivation time — see [`ChecksumKind::NonFinite`].
    inputs_finite: bool,
}

impl GemmChecksums {
    /// Derives checksums for `C = A·B` with `A: m×k`, `B: k×n` (both
    /// row-major).
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with its stated dimensions.
    // pgmr-lint: boundary(hot-path-alloc): checksum derivation allocates its O(m+n+k) sum vectors once per *guarded* layer invocation — the ABFT tier trades that for fault coverage, and the unguarded serving path never enters it
    pub fn for_ab(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Self {
        assert_eq!(a.len(), m * k, "a must be {m}x{k}");
        assert_eq!(b.len(), k * n, "b must be {k}x{n}");
        let mut inputs_finite = true;
        // b_row_sum[p] = Σ_j B[p,j]; b_abs_row_sum likewise on |B|.
        let mut b_row_sum = vec![0.0f32; k];
        let mut b_abs_row_sum = vec![0.0f32; k];
        for p in 0..k {
            for &v in &b[p * n..(p + 1) * n] {
                inputs_finite &= v.is_finite();
                b_row_sum[p] += v;
                b_abs_row_sum[p] += v.abs();
            }
        }
        // e·A: column sums of A (and of |A|).
        let mut a_col_sum = vec![0.0f32; k];
        let mut a_abs_col_sum = vec![0.0f32; k];
        let mut row_sum = vec![0.0f32; m];
        let mut row_scale = vec![0.0f32; m];
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let mut acc = 0.0f32;
            let mut acc_abs = 0.0f32;
            for (p, &v) in a_row.iter().enumerate() {
                inputs_finite &= v.is_finite();
                acc += v * b_row_sum[p];
                acc_abs += v.abs() * b_abs_row_sum[p];
                a_col_sum[p] += v;
                a_abs_col_sum[p] += v.abs();
            }
            row_sum[i] = acc;
            row_scale[i] = acc_abs;
        }
        let mut col_sum = vec![0.0f32; n];
        let mut col_scale = vec![0.0f32; n];
        for p in 0..k {
            let b_row = &b[p * n..(p + 1) * n];
            let (s, sa) = (a_col_sum[p], a_abs_col_sum[p]);
            for (j, &v) in b_row.iter().enumerate() {
                col_sum[j] += s * v;
                col_scale[j] += sa * v.abs();
            }
        }
        GemmChecksums { m, n, row_sum, col_sum, row_scale, col_scale, inputs_finite }
    }

    /// Derives checksums for `C = A·Bᵀ` with `A: m×k`, `B: n×k` — the
    /// dense-layer orientation (`y = x·Wᵀ`).
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with its stated dimensions.
    // pgmr-lint: boundary(hot-path-alloc): checksum derivation allocates its O(m+n+k) sum vectors once per *guarded* layer invocation — the ABFT tier trades that for fault coverage, and the unguarded serving path never enters it
    pub fn for_a_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Self {
        assert_eq!(a.len(), m * k, "a must be {m}x{k}");
        assert_eq!(b.len(), n * k, "b must be {n}x{k}");
        let mut inputs_finite = true;
        // (Bᵀ·e)[p] = Σ_j B[j,p]: column sums of B.
        let mut bt_row_sum = vec![0.0f32; k];
        let mut bt_abs_row_sum = vec![0.0f32; k];
        for j in 0..n {
            for (p, &v) in b[j * k..(j + 1) * k].iter().enumerate() {
                inputs_finite &= v.is_finite();
                bt_row_sum[p] += v;
                bt_abs_row_sum[p] += v.abs();
            }
        }
        // e·A and e·|A| as the two rows of one 2×k matrix.
        let mut a_col_sums = vec![0.0f32; 2 * k];
        let (a_col_sum, a_abs_col_sum) = a_col_sums.split_at_mut(k);
        let mut row_sum = vec![0.0f32; m];
        let mut row_scale = vec![0.0f32; m];
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let mut acc = 0.0f32;
            let mut acc_abs = 0.0f32;
            for (p, &v) in a_row.iter().enumerate() {
                inputs_finite &= v.is_finite();
                acc += v * bt_row_sum[p];
                acc_abs += v.abs() * bt_abs_row_sum[p];
                a_col_sum[p] += v;
                a_abs_col_sum[p] += v.abs();
            }
            row_sum[i] = acc;
            row_scale[i] = acc_abs;
        }
        // (e·A)·Bᵀ and (e·|A|)·|B|ᵀ in one pass of the tiled dot kernel:
        // each tile of B serves both rows. A sum that starts from +0.0 is
        // never -0.0, so adding it to the zeroed output stores it bit for
        // bit.
        let mut col_sum = vec![0.0f32; 2 * n];
        crate::gemm::dot_a_bt(2, k, n, &a_col_sums, b, &mut col_sum, |row, v| {
            if row == 0 {
                v
            } else {
                v.abs()
            }
        });
        let col_scale = col_sum.split_off(n);
        GemmChecksums { m, n, row_sum, col_sum, row_scale, col_scale, inputs_finite }
    }

    /// Folds a bias that the producer added to every *row* of the result
    /// (dense layers: `y = x·Wᵀ + bias`, `bias.len() == n`).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != n`.
    pub fn add_broadcast_row(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.n, "bias must have length {}", self.n);
        self.inputs_finite &= bias.iter().all(|v| v.is_finite());
        let total: f32 = bias.iter().sum();
        let total_abs: f32 = bias.iter().map(|v| v.abs()).sum();
        for (s, sc) in self.row_sum.iter_mut().zip(&mut self.row_scale) {
            *s += total;
            *sc += total_abs;
        }
        for (j, (&b, s)) in bias.iter().zip(&mut self.col_sum).enumerate() {
            *s += self.m as f32 * b;
            self.col_scale[j] += self.m as f32 * b.abs();
        }
    }

    /// Folds a bias the producer added to every *column* of row `i`
    /// (convolution: every spatial position of channel `i` starts at
    /// `bias[i]`, `bias.len() == m`).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != m`.
    pub fn add_broadcast_col(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.m, "bias must have length {}", self.m);
        self.inputs_finite &= bias.iter().all(|v| v.is_finite());
        for (i, (&b, s)) in bias.iter().zip(&mut self.row_sum).enumerate() {
            *s += self.n as f32 * b;
            self.row_scale[i] += self.n as f32 * b.abs();
        }
        let total: f32 = bias.iter().sum();
        let total_abs: f32 = bias.iter().map(|v| v.abs()).sum();
        for (s, sc) in self.col_sum.iter_mut().zip(&mut self.col_scale) {
            *s += total;
            *sc += total_abs;
        }
    }

    /// Result rows.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Result columns.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Verifies an `m×n` row-major result against the expectations.
    ///
    /// `tolerance` is relative: a sum may deviate by up to
    /// `tolerance × scale + tolerance` where `scale` is the matching
    /// absolute-magnitude sum. Returns the first violated checksum. If any
    /// input was NaN/Inf at derivation time the result is rejected
    /// outright ([`ChecksumKind::NonFinite`]) — a NaN-poisoned output
    /// would otherwise make every sum comparison NaN-vs-NaN and the
    /// deviation test vacuous.
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != m·n`.
    // pgmr-lint: boundary(hot-path-alloc): verification allocates one O(n) column-sum vector per *guarded* layer invocation — the ABFT tier trades that for fault coverage, and the unguarded serving path never enters it
    pub fn verify(&self, c: &[f32], tolerance: f32) -> Result<(), ChecksumFault> {
        assert_eq!(c.len(), self.m * self.n, "c must be {}x{}", self.m, self.n);
        // Non-finite inputs fault unconditionally: NaN expected sums would
        // make the deviation test vacuous, and an Inf expected sum likewise
        // (`Inf > Inf` is false) — scan verdicts beat undefined comparisons.
        if !self.inputs_finite {
            return Err(ChecksumFault {
                kind: ChecksumKind::NonFinite,
                index: 0,
                deviation: f32::NAN,
                bound: 0.0,
            });
        }
        let mut col_actual = vec![0.0f32; self.n];
        for (i, row) in c.chunks(self.n).enumerate() {
            let actual: f32 = row.iter().sum();
            let deviation = (actual - self.row_sum[i]).abs();
            let bound = tolerance * self.row_scale[i] + tolerance;
            // A NaN deviation (Inf/NaN in the sums) must fault too.
            if deviation.is_nan() || deviation > bound {
                return Err(ChecksumFault { kind: ChecksumKind::Row, index: i, deviation, bound });
            }
            for (acc, &v) in col_actual.iter_mut().zip(row) {
                *acc += v;
            }
        }
        for (j, &actual) in col_actual.iter().enumerate() {
            let deviation = (actual - self.col_sum[j]).abs();
            let bound = tolerance * self.col_scale[j] + tolerance;
            if deviation.is_nan() || deviation > bound {
                return Err(ChecksumFault { kind: ChecksumKind::Col, index: j, deviation, bound });
            }
        }
        Ok(())
    }
}

/// Default relative tolerance for guarded inference: generous against f32
/// round-off over the reduction lengths this project uses, yet orders of
/// magnitude below the perturbation of an exponent-bit flip.
pub const DEFAULT_TOLERANCE: f32 = 1e-4;

/// Computes `c += a·b` (exactly like [`crate::gemm::gemm`]) and verifies
/// the result against ABFT checksums derived before the multiply.
///
/// Note: `c` must arrive zeroed (or the checksums would not describe the
/// final content); use [`GemmChecksums`] directly for accumulate-into or
/// bias-initialized workflows.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions or `c`
/// is not all zero.
pub fn checked_gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    tolerance: f32,
) -> Result<(), ChecksumFault> {
    // pgmr-lint: allow(float-eq): the precondition is an exactly zeroed output buffer, not an approximately small one
    assert!(c.iter().all(|&v| v == 0.0), "checked_gemm requires a zeroed output");
    let sums = GemmChecksums::for_ab(m, k, n, a, b);
    crate::gemm::gemm(m, k, n, a, b, c);
    sums.verify(c, tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::tests::{same_bits, special_operands, tile_straddling_dims};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// The `for_a_bt` that ran its column sums as serial dot loops, kept
    /// as the oracle of the tiled pass.
    fn for_a_bt_serial(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> GemmChecksums {
        let mut inputs_finite = true;
        let mut bt_row_sum = vec![0.0f32; k];
        let mut bt_abs_row_sum = vec![0.0f32; k];
        for j in 0..n {
            for (p, &v) in b[j * k..(j + 1) * k].iter().enumerate() {
                inputs_finite &= v.is_finite();
                bt_row_sum[p] += v;
                bt_abs_row_sum[p] += v.abs();
            }
        }
        let mut a_col_sum = vec![0.0f32; k];
        let mut a_abs_col_sum = vec![0.0f32; k];
        let mut row_sum = vec![0.0f32; m];
        let mut row_scale = vec![0.0f32; m];
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let mut acc = 0.0f32;
            let mut acc_abs = 0.0f32;
            for (p, &v) in a_row.iter().enumerate() {
                inputs_finite &= v.is_finite();
                acc += v * bt_row_sum[p];
                acc_abs += v.abs() * bt_abs_row_sum[p];
                a_col_sum[p] += v;
                a_abs_col_sum[p] += v.abs();
            }
            row_sum[i] = acc;
            row_scale[i] = acc_abs;
        }
        let mut col_sum = vec![0.0f32; n];
        let mut col_scale = vec![0.0f32; n];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            let mut acc_abs = 0.0f32;
            for (p, &v) in b_row.iter().enumerate() {
                acc += a_col_sum[p] * v;
                acc_abs += a_abs_col_sum[p] * v.abs();
            }
            col_sum[j] = acc;
            col_scale[j] = acc_abs;
        }
        GemmChecksums { m, n, row_sum, col_sum, row_scale, col_scale, inputs_finite }
    }

    #[test]
    fn a_bt_checksums_are_bit_identical_to_the_serial_loops() {
        // The GEMM oracle's shapes and operands: every row and column sum
        // and scale must match the serial loops bit for bit.
        for m in [1, 2, 3, 11] {
            for &n in tile_straddling_dims() {
                for &k in tile_straddling_dims() {
                    let (a, b) = special_operands(m, k, n);
                    let got = GemmChecksums::for_a_bt(m, k, n, &a, &b);
                    let want = for_a_bt_serial(m, k, n, &a, &b);
                    assert_eq!(got.inputs_finite, want.inputs_finite);
                    for (name, x, y) in [
                        ("row_sum", &got.row_sum, &want.row_sum),
                        ("row_scale", &got.row_scale, &want.row_scale),
                        ("col_sum", &got.col_sum, &want.col_sum),
                        ("col_scale", &got.col_scale, &want.col_scale),
                    ] {
                        assert_eq!(x.len(), y.len(), "({m},{k},{n}) {name} length");
                        let differs = x.iter().zip(y).position(|(&u, &v)| !same_bits(u, v));
                        assert!(differs.is_none(), "({m},{k},{n}) {name} differs at {differs:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn clean_gemm_passes() {
        let mut rng = StdRng::seed_from_u64(0);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (32, 64, 16), (33, 100, 9)] {
            let a = random(m * k, &mut rng);
            let b = random(k * n, &mut rng);
            let mut c = vec![0.0; m * n];
            checked_gemm(m, k, n, &a, &b, &mut c, DEFAULT_TOLERANCE)
                .unwrap_or_else(|f| panic!("false positive at ({m},{k},{n}): {f}"));
        }
    }

    #[test]
    fn exponent_flip_is_caught_in_both_directions() {
        let mut rng = StdRng::seed_from_u64(1);
        let (m, k, n) = (8, 32, 12);
        let a = random(m * k, &mut rng);
        let b = random(k * n, &mut rng);
        let sums = GemmChecksums::for_ab(m, k, n, &a, &b);
        let mut c = vec![0.0; m * n];
        crate::gemm::gemm(m, k, n, &a, &b, &mut c);
        sums.verify(&c, DEFAULT_TOLERANCE).expect("clean result verifies");

        // Flip the top exponent bit of one element.
        let victim = 3 * n + 7;
        let corrupted = f32::from_bits(c[victim].to_bits() ^ (1 << 30));
        let mut bad = c.clone();
        bad[victim] = corrupted;
        let fault = sums.verify(&bad, DEFAULT_TOLERANCE).unwrap_err();
        assert_eq!(fault.kind, ChecksumKind::Row);
        assert_eq!(fault.index, 3);
    }

    #[test]
    fn a_bt_matches_explicit_product() {
        let mut rng = StdRng::seed_from_u64(2);
        let (m, k, n) = (5, 9, 4);
        let a = random(m * k, &mut rng);
        let b = random(n * k, &mut rng); // n×k, used transposed
        let mut c = vec![0.0; m * n];
        crate::gemm::gemm_a_bt(m, k, n, &a, &b, &mut c);
        let sums = GemmChecksums::for_a_bt(m, k, n, &a, &b);
        sums.verify(&c, DEFAULT_TOLERANCE).expect("clean A·Bᵀ verifies");
        let mut bad = c;
        bad[2 * n + 1] += 10.0;
        assert!(sums.verify(&bad, DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn row_bias_broadcast_is_folded() {
        let mut rng = StdRng::seed_from_u64(3);
        let (m, k, n) = (6, 8, 5);
        let a = random(m * k, &mut rng);
        let b = random(n * k, &mut rng);
        let bias = random(n, &mut rng);
        let mut c = vec![0.0; m * n];
        for row in c.chunks_mut(n) {
            row.copy_from_slice(&bias);
        }
        crate::gemm::gemm_a_bt(m, k, n, &a, &b, &mut c);
        let mut sums = GemmChecksums::for_a_bt(m, k, n, &a, &b);
        sums.add_broadcast_row(&bias);
        sums.verify(&c, DEFAULT_TOLERANCE).expect("bias-aware checksums verify");
    }

    #[test]
    fn col_bias_broadcast_is_folded() {
        let mut rng = StdRng::seed_from_u64(4);
        let (m, k, n) = (4, 6, 10);
        let a = random(m * k, &mut rng);
        let b = random(k * n, &mut rng);
        let bias = random(m, &mut rng);
        let mut c = vec![0.0; m * n];
        for (i, row) in c.chunks_mut(n).enumerate() {
            row.fill(bias[i]);
        }
        crate::gemm::gemm(m, k, n, &a, &b, &mut c);
        let mut sums = GemmChecksums::for_ab(m, k, n, &a, &b);
        sums.add_broadcast_col(&bias);
        sums.verify(&c, DEFAULT_TOLERANCE).expect("bias-aware checksums verify");
    }

    #[test]
    fn detects_overwhelming_majority_of_exponent_flips() {
        // The acceptance bar for the fault-tolerance PR: ≥99% of injected
        // exponent-bit flips in a GEMM output must be caught.
        let mut rng = StdRng::seed_from_u64(5);
        let (m, k, n) = (16, 48, 16);
        let a = random(m * k, &mut rng);
        let b = random(k * n, &mut rng);
        let sums = GemmChecksums::for_ab(m, k, n, &a, &b);
        let mut c = vec![0.0; m * n];
        crate::gemm::gemm(m, k, n, &a, &b, &mut c);

        let mut detected = 0;
        let mut injected = 0;
        for trial in 0..1000 {
            let elem = rng.gen_range(0..c.len());
            let bit = 23 + (trial % 8) as u32; // exponent bits of f32
            let flipped = f32::from_bits(c[elem].to_bits() ^ (1 << bit));
            if flipped == c[elem] {
                continue; // flip was a no-op (zero exponent field corner)
            }
            let mut bad = c.clone();
            bad[elem] = flipped;
            injected += 1;
            if sums.verify(&bad, DEFAULT_TOLERANCE).is_err() {
                detected += 1;
            }
        }
        let rate = detected as f64 / injected as f64;
        assert!(rate >= 0.99, "detection rate {rate:.4} ({detected}/{injected})");
    }

    #[test]
    fn nonfinite_weight_behind_zero_activation_is_detected() {
        // The kernels are non-skipping, so `0 × NaN` poisons the affected
        // output column per IEEE semantics; the input scan must still be
        // what reports the fault (NaN-vs-NaN sums verify nothing).
        let mut rng = StdRng::seed_from_u64(6);
        let (m, k, n) = (4, 6, 5);
        let mut a = random(m * k, &mut rng);
        let mut b = random(k * n, &mut rng);
        // Poison one row of B and make it reachable *only* through zero
        // activations by zeroing the activation column that feeds it.
        b[3 * n + 1] = f32::NAN;
        for i in 0..m {
            a[i * k + 3] = 0.0;
        }
        let mut c = vec![0.0; m * n];
        crate::gemm::gemm(m, k, n, &a, &b, &mut c);
        assert!(
            c.iter().any(|v| v.is_nan()),
            "non-skipping kernels must propagate 0×NaN into the output"
        );
        let fault = GemmChecksums::for_ab(m, k, n, &a, &b)
            .verify(&c, DEFAULT_TOLERANCE)
            .expect_err("NaN weight must be detected by the input scan");
        assert_eq!(fault.kind, ChecksumKind::NonFinite);

        // Same story in the dense-layer A·Bᵀ orientation, with Inf.
        let a2 = vec![0.0f32; m * k];
        let mut b2 = random(n * k, &mut rng);
        b2[k + 2] = f32::INFINITY;
        let mut c2 = vec![0.0; m * n];
        crate::gemm::gemm_a_bt(m, k, n, &a2, &b2, &mut c2);
        let fault = GemmChecksums::for_a_bt(m, k, n, &a2, &b2)
            .verify(&c2, DEFAULT_TOLERANCE)
            .expect_err("Inf weight behind zero activations must be detected");
        assert_eq!(fault.kind, ChecksumKind::NonFinite);

        // checked_gemm surfaces the same fault end to end.
        let mut c3 = vec![0.0; m * n];
        let fault = checked_gemm(m, k, n, &a, &b, &mut c3, DEFAULT_TOLERANCE).unwrap_err();
        assert_eq!(fault.kind, ChecksumKind::NonFinite);
    }

    #[test]
    fn nonfinite_bias_is_detected() {
        let mut rng = StdRng::seed_from_u64(7);
        let (m, k, n) = (3, 4, 6);
        let a = random(m * k, &mut rng);
        let b = random(n * k, &mut rng);
        let mut bias = random(n, &mut rng);
        bias[2] = f32::NAN;
        let mut sums = GemmChecksums::for_a_bt(m, k, n, &a, &b);
        sums.add_broadcast_row(&bias);
        let fault = sums.verify(&vec![0.0; m * n], DEFAULT_TOLERANCE).unwrap_err();
        assert_eq!(fault.kind, ChecksumKind::NonFinite);
    }

    #[test]
    fn checked_gemm_rejects_dirty_output() {
        let a = [1.0f32];
        let b = [1.0f32];
        let mut c = [5.0f32];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = checked_gemm(1, 1, 1, &a, &b, &mut c, 1e-4);
        }));
        assert!(r.is_err(), "non-zero c must be rejected");
    }
}
