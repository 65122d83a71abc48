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
//!
//! ## Weight side and activation side
//!
//! A guarded layer multiplies a fixed weight by a fresh activation on
//! every forward. The terms that depend on the parameters alone — the
//! weight's column sums `eᵀW` and `eᵀ|W|`, whether the weight and bias are
//! finite, and the bias totals — are a [`WeightSums`], which the layer
//! derives once per weight version (`pgmr_nn` drops it whenever the layer
//! lends its parameter slots out). Each forward then derives only the
//! activation-side terms, into the buffers of a [`GemmChecksums`] the
//! layer reuses, so a warmed guarded forward allocates nothing:
//! [`GemmChecksums::derive_ab`] for a convolution (`W·B`, the weight on
//! the left) and [`GemmChecksums::gemm_a_bt`] for a dense layer
//! (`x·Wᵀ`), which also computes the product — at batch 1 in the same
//! pass of the dot kernel as its column checksums.
//!
//! ## Kernels and numerics
//!
//! Every sum is one chain in the order of the serial loop it replaced: it
//! starts where that loop started (+0.0, or -0.0 for `verify`'s row sums,
//! as `Iterator::sum` does) and adds its terms in ascending index order;
//! the kernels only keep several chains in flight. Row sums (`B·e`,
//! `|B|·e` and the actual row sums in [`GemmChecksums::verify`]) run
//! eight rows at once; matrix–vector terms (`W·(B·e)`, `x·(Wᵀe)`, the dense column
//! checksums) run through the tiled dot kernel of [`mod@crate::gemm`], eight
//! outputs per transposed tile; column sums run as vectorized axpy
//! passes. The finiteness scan reads the magnitude sums: a finite sum of
//! magnitudes bounds every term, so only a non-finite one (a non-finite
//! input, or an overflow) needs the element scan. The loops these replaced
//! are kept as `#[cfg(test)]` oracles, and every expected sum, scale,
//! finiteness flag and fault must match them bit for bit.

use crate::gemm::GemmScratch;

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

/// The weight-side terms of a guarded GEMM whose weight is a row-major
/// `rows×k` matrix with an optional bias: the weight's column sums `eᵀW`
/// and `eᵀ|W|`, whether the weight and the bias are all finite, and the
/// bias totals `Σ b` and `Σ |b|`.
///
/// They depend on the parameters alone, so a layer derives them once per
/// weight version and hands them to every derivation
/// ([`GemmChecksums::derive_ab`], [`GemmChecksums::gemm_a_bt`]) until its
/// weights change.
#[derive(Debug, Clone)]
pub struct WeightSums {
    rows: usize,
    k: usize,
    bias_len: usize,
    /// `[eᵀW | eᵀ|W|]`, `k` each, every column summed in ascending row
    /// order from +0.0.
    col: Vec<f32>,
    /// Every weight and bias entry is finite.
    finite: bool,
    /// `Σ b` and `Σ |b|` as iterator sums (empty bias: no bias).
    bias_total: f32,
    bias_abs_total: f32,
}

impl WeightSums {
    /// Derives the weight-side terms of `weight: rows×k` (row-major) and
    /// `bias` (empty for a GEMM without one).
    ///
    /// # Panics
    ///
    /// Panics if `weight.len() != rows·k`.
    // pgmr-lint: boundary(hot-path-alloc): derived once per weight version — a layer's first guarded forward after its slots were lent out — never per forward
    pub fn derive(rows: usize, k: usize, weight: &[f32], bias: &[f32]) -> Self {
        assert_eq!(weight.len(), rows * k, "weight must be {rows}x{k}");
        let mut col = vec![0.0f32; 2 * k];
        add_col_sums(weight, k, &mut col);
        WeightSums {
            rows,
            k,
            bias_len: bias.len(),
            col,
            finite: weight.iter().chain(bias).all(|v| v.is_finite()),
            bias_total: bias.iter().sum(),
            bias_abs_total: bias.iter().map(|v| v.abs()).sum(),
        }
    }
}

/// Adds the column sums of a row-major `?×k` matrix to `out[..k]` and
/// those of its magnitudes to `out[k..2k]`, rows in ascending order.
fn add_col_sums(matrix: &[f32], k: usize, out: &mut [f32]) {
    let (sum, abs) = out.split_at_mut(k);
    for row in matrix.chunks_exact(k.max(1)) {
        for ((s, a), &v) in sum.iter_mut().zip(abs.iter_mut()).zip(row) {
            *s += v;
            *a += v.abs();
        }
    }
}

/// Whether every element of `data` is finite, given the sums of its
/// magnitudes: a finite sum of magnitudes bounds each of its terms, so
/// only a non-finite one (a non-finite element, or an overflow) needs the
/// element scan.
fn all_finite(abs_sums: &[f32], data: &[f32]) -> bool {
    abs_sums.iter().all(|v| v.is_finite()) || data.iter().all(|v| v.is_finite())
}

/// Folds a bias into `[sums | scales]` expectations: each entry of `each`
/// (the direction the bias runs along) gains `count · b` of its own bias
/// value, and every entry of `every` the bias totals. An empty bias adds
/// nothing.
fn fold_bias(bias: &[f32], count: usize, each: &mut [f32], every: &mut [f32], w: &WeightSums) {
    if bias.is_empty() {
        return;
    }
    let c = count as f32;
    let (sums, scales) = each.split_at_mut(bias.len());
    for ((s, sa), &b) in sums.iter_mut().zip(scales.iter_mut()).zip(bias) {
        *s += c * b;
        *sa += c * b.abs();
    }
    let (sums, scales) = every.split_at_mut(every.len() / 2);
    for (s, sa) in sums.iter_mut().zip(scales.iter_mut()) {
        *s += w.bias_total;
        *sa += w.bias_abs_total;
    }
}

/// Independent chains the row-sum kernel keeps in flight.
const CHAINS: usize = 8;

/// Columns [`GemmChecksums::verify`] sums down the rows at once, in a
/// stack buffer.
const COL_BLOCK: usize = 64;

/// Sums each `n`-long row of `data` into `sums` and, with `ABS`, the
/// magnitudes of each row into `abs_sums`: every sum starts from `start`
/// and adds its row in ascending order, the serial loop's order. Eight
/// rows are in flight at once, so their chains overlap where one chain
/// per row would wait on every add; in a block of fewer than eight rows
/// the spare lanes repeat its last row and are discarded.
#[inline(always)]
fn row_sums<const ABS: bool>(
    data: &[f32],
    n: usize,
    start: f32,
    sums: &mut [f32],
    abs_sums: &mut [f32],
) {
    debug_assert_eq!(data.len(), sums.len() * n);
    if n == 0 {
        sums.fill(start);
        abs_sums.fill(start);
        return;
    }
    for (b, (block, out)) in data.chunks(CHAINS * n).zip(sums.chunks_mut(CHAINS)).enumerate() {
        let last = out.len() - 1;
        let rows: [&[f32]; CHAINS] = std::array::from_fn(|r| &block[r.min(last) * n..][..n]);
        let mut acc = [start; CHAINS];
        let mut acc_abs = [start; CHAINS];
        for j in 0..n {
            for ((s, sa), row) in acc.iter_mut().zip(acc_abs.iter_mut()).zip(&rows) {
                let v = row[j];
                *s += v;
                if ABS {
                    *sa += v.abs();
                }
            }
        }
        out.copy_from_slice(&acc[..out.len()]);
        if ABS {
            abs_sums[b * CHAINS..][..out.len()].copy_from_slice(&acc_abs[..out.len()]);
        }
    }
}

/// The dot kernel's transform for a two-row `[sums | magnitude sums]`
/// operand: the second row reads `|x|`.
fn abs_on_row_1(row: usize, v: f32) -> f32 {
    if row == 1 {
        v.abs()
    } else {
        v
    }
}

/// Expected row/column sums (plus round-off scales) for one `m×n` GEMM
/// result, in buffers each derivation refills: a guarded layer keeps one
/// per GEMM and reuses it from forward to forward without allocating.
#[derive(Debug, Clone, Default)]
pub struct GemmChecksums {
    m: usize,
    n: usize,
    /// `[row sums | row scales]`, `m` each: `Σ_j C[i,j]` expected, and the
    /// absolute-magnitude sum bounding its round-off.
    rows: Vec<f32>,
    /// `[col sums | col scales]`, `n` each; a batch-1 dense derivation
    /// appends the product row it computed in the same pass.
    cols: Vec<f32>,
    /// False when any input operand (or bias) was NaN/Inf at derivation
    /// time — see [`ChecksumKind::NonFinite`].
    inputs_finite: bool,
    /// The activation-side sums of the latest derivation.
    act: Vec<f32>,
}

impl GemmChecksums {
    /// One-shot checksums for `C = A·B` with `A: m×k`, `B: k×n` (both
    /// row-major) and no bias: derives `A`'s weight-side sums on the spot.
    /// Guarded layers keep their [`WeightSums`] and call
    /// [`GemmChecksums::derive_ab`] instead.
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with its stated dimensions.
    pub fn for_ab(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Self {
        let mut sums = GemmChecksums::default();
        sums.derive_ab(m, k, n, a, b, &[], &WeightSums::derive(m, k, a, &[]));
        sums
    }

    /// Derives the checksums of `C = W·B + bias·eᵀ` — the convolution
    /// orientation, every column of row `i` starting at `bias[i]` — with
    /// `W: m×k` the weight `w` was derived from, `B: k×n` and `bias` of
    /// length `m` (or empty).
    ///
    /// The activation-side terms `B·e` and `|B|·e` run through the
    /// eight-chain row-sum kernel, and `W·(B·e)` and `|W|·(|B|·e)` through
    /// the dot kernel's transposed tile, eight rows of `W` at a time.
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with its stated dimensions or
    /// `w` describes another shape.
    #[allow(clippy::too_many_arguments)] // GEMM dims + operands + weight sums
    pub fn derive_ab(
        &mut self,
        m: usize,
        k: usize,
        n: usize,
        weight: &[f32],
        b: &[f32],
        bias: &[f32],
        w: &WeightSums,
    ) {
        assert_eq!(weight.len(), m * k, "weight must be {m}x{k}");
        assert_eq!(b.len(), k * n, "b must be {k}x{n}");
        assert!(bias.is_empty() || bias.len() == m, "bias must have length {m}");
        assert_eq!((w.rows, w.k, w.bias_len), (m, k, bias.len()), "weight sums of another shape");
        (self.m, self.n) = (m, n);
        // B·e and |B|·e.
        self.act.clear();
        self.act.resize(2 * k, 0.0);
        let (be, abe) = self.act.split_at_mut(k);
        row_sums::<true>(b, n, 0.0, be, abe);
        self.inputs_finite = w.finite && all_finite(abe, b);
        // W·(B·e) and |W|·(|B|·e): each sum from +0.0 in ascending k.
        self.rows.clear();
        self.rows.resize(2 * m, 0.0);
        crate::gemm::dot_a_bt(2, k, m, &self.act, weight, &mut self.rows, abs_on_row_1);
        // (eᵀW)·B and (eᵀ|W|)·|B|, one row of B at a time.
        self.cols.clear();
        self.cols.resize(2 * n, 0.0);
        let (cs, cabs) = self.cols.split_at_mut(n);
        for (p, b_row) in b.chunks_exact(n.max(1)).enumerate() {
            let (s, sa) = (w.col[p], w.col[k + p]);
            for ((c, ca), &v) in cs.iter_mut().zip(cabs.iter_mut()).zip(b_row) {
                *c += s * v;
                *ca += sa * v.abs();
            }
        }
        fold_bias(bias, n, &mut self.rows, &mut self.cols, w);
    }

    /// Computes `c += a·wᵀ` — bit for bit as
    /// [`crate::gemm::gemm_a_bt_into`] — and derives the checksums of the
    /// result, `c` having held `bias` (length `n`, or empty for none) in
    /// every row: the dense orientation, `y = x·Wᵀ + bias`, with `a: m×k`
    /// and `weight: n×k` the weight `w` was derived from.
    ///
    /// At `m = 1` (every serving dense layer) the product row and the two
    /// column-checksum rows `(eᵀa)·Wᵀ` and `(eᵀ|a|)·|W|ᵀ` share one pass of
    /// the dot kernel's transposed tile; each sum keeps its order, so the
    /// product and every checksum are bit-identical to separate passes.
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with its stated dimensions or
    /// `w` describes another shape.
    #[allow(clippy::too_many_arguments)] // GEMM dims + operands + weight sums + scratch
    pub fn gemm_a_bt(
        &mut self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        weight: &[f32],
        bias: &[f32],
        w: &WeightSums,
        c: &mut [f32],
        scratch: &mut GemmScratch,
    ) {
        assert_eq!(a.len(), m * k, "a must be {m}x{k}");
        assert_eq!(weight.len(), n * k, "weight must be {n}x{k}");
        assert_eq!(c.len(), m * n, "c must be {m}x{n}");
        assert!(bias.is_empty() || bias.len() == n, "bias must have length {n}");
        assert_eq!((w.rows, w.k, w.bias_len), (n, k, bias.len()), "weight sums of another shape");
        (self.m, self.n) = (m, n);
        // eᵀa and eᵀ|a|, rows added in ascending order from +0.0; at m = 1
        // the product's own operand row follows them.
        self.act.clear();
        self.act.resize(2 * k, 0.0);
        add_col_sums(a, k, &mut self.act);
        self.inputs_finite = w.finite && all_finite(&self.act[k..], a);
        self.cols.clear();
        if m == 1 {
            // [col sums | col scales | product], each from +0.0; the
            // product is then added to the bias in `c` as the GEMM adds
            // its sums.
            self.act.extend_from_slice(a);
            self.cols.resize(3 * n, 0.0);
            crate::gemm::dot_a_bt(3, k, n, &self.act, weight, &mut self.cols, abs_on_row_1);
            for (out, &s) in c.iter_mut().zip(&self.cols[2 * n..]) {
                *out += s;
            }
        } else {
            crate::gemm::gemm_a_bt_into(m, k, n, a, weight, c, scratch);
            self.cols.resize(2 * n, 0.0);
            crate::gemm::dot_a_bt(2, k, n, &self.act, weight, &mut self.cols, abs_on_row_1);
        }
        // a·(Wᵀe) and |a|·(|W|ᵀe): eight rows of a at a time.
        self.rows.clear();
        self.rows.resize(2 * m, 0.0);
        crate::gemm::dot_a_bt(2, k, m, &w.col, a, &mut self.rows, abs_on_row_1);
        fold_bias(bias, m, &mut self.cols[..2 * n], &mut self.rows, w);
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
    /// absolute-magnitude sum. Returns the first violated checksum: rows
    /// first, in ascending order, then columns. If any input was NaN/Inf
    /// at derivation time the result is rejected outright
    /// ([`ChecksumKind::NonFinite`]) — a NaN-poisoned output would
    /// otherwise make every sum comparison NaN-vs-NaN and the deviation
    /// test vacuous.
    ///
    /// The row sums run eight rows at a time, each from -0.0 in ascending
    /// order as `Iterator::sum` adds, and the column sums in blocks of
    /// columns summed down the rows into a stack buffer, so verification
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != m·n`.
    pub fn verify(&self, c: &[f32], tolerance: f32) -> Result<(), ChecksumFault> {
        let (m, n) = (self.m, self.n);
        assert_eq!(c.len(), m * n, "c must be {m}x{n}");
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
        // A NaN deviation (Inf/NaN in the sums) must fault too.
        let check = |kind, index, actual: f32, expected: f32, scale: f32| {
            let deviation = (actual - expected).abs();
            let bound = tolerance * scale + tolerance;
            if deviation.is_nan() || deviation > bound {
                Err(ChecksumFault { kind, index, deviation, bound })
            } else {
                Ok(())
            }
        };
        let mut sums = [0.0f32; CHAINS];
        for (b, block) in c.chunks(CHAINS * n.max(1)).enumerate() {
            let sums = &mut sums[..block.len() / n.max(1)];
            row_sums::<false>(block, n, -0.0, sums, &mut []);
            for (r, &actual) in sums.iter().enumerate() {
                let i = b * CHAINS + r;
                check(ChecksumKind::Row, i, actual, self.rows[i], self.rows[m + i])?;
            }
        }
        let mut acc = [0.0f32; COL_BLOCK];
        for j0 in (0..n).step_by(COL_BLOCK) {
            let acc = &mut acc[..COL_BLOCK.min(n - j0)];
            acc.fill(0.0);
            for row in c.chunks_exact(n) {
                for (s, &v) in acc.iter_mut().zip(&row[j0..]) {
                    *s += v;
                }
            }
            for (jj, &actual) in acc.iter().enumerate() {
                let j = j0 + jj;
                check(ChecksumKind::Col, j, actual, self.cols[j], self.cols[n + j])?;
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
    use crate::gemm::{gemm_a_bt_into, gemm_into};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// Checksums of `c = bias + a·wᵀ` (dense orientation) and `c` itself.
    fn dense(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        w: &[f32],
        bias: &[f32],
    ) -> (GemmChecksums, Vec<f32>) {
        let mut c = vec![0.0; m * n];
        if !bias.is_empty() {
            for row in c.chunks_mut(n) {
                row.copy_from_slice(bias);
            }
        }
        let mut sums = GemmChecksums::default();
        let ws = WeightSums::derive(n, k, w, bias);
        sums.gemm_a_bt(m, k, n, a, w, bias, &ws, &mut c, &mut GemmScratch::new());
        (sums, c)
    }

    /// The expectations as the serial loops computed them.
    struct Oracle {
        row_sum: Vec<f32>,
        col_sum: Vec<f32>,
        row_scale: Vec<f32>,
        col_scale: Vec<f32>,
        inputs_finite: bool,
    }

    /// The `for_ab` loops the eight-chain kernels and the weight-side
    /// sums replaced, kept as their oracle.
    fn for_ab_serial(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Oracle {
        let mut inputs_finite = true;
        let mut b_row_sum = vec![0.0f32; k];
        let mut b_abs_row_sum = vec![0.0f32; k];
        for p in 0..k {
            for &v in &b[p * n..(p + 1) * n] {
                inputs_finite &= v.is_finite();
                b_row_sum[p] += v;
                b_abs_row_sum[p] += v.abs();
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
        Oracle { row_sum, col_sum, row_scale, col_scale, inputs_finite }
    }

    /// The `for_a_bt` loops (its column sums as serial dot loops), kept as
    /// the oracle of the weight-side sums and the shared dot pass.
    fn for_a_bt_serial(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Oracle {
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
        Oracle { row_sum, col_sum, row_scale, col_scale, inputs_finite }
    }

    impl Oracle {
        /// The old `add_broadcast_row`: a bias added to every row.
        fn add_broadcast_row(&mut self, m: usize, bias: &[f32]) {
            self.inputs_finite &= bias.iter().all(|v| v.is_finite());
            let total: f32 = bias.iter().sum();
            let total_abs: f32 = bias.iter().map(|v| v.abs()).sum();
            for (s, sc) in self.row_sum.iter_mut().zip(&mut self.row_scale) {
                *s += total;
                *sc += total_abs;
            }
            for (j, (&b, s)) in bias.iter().zip(&mut self.col_sum).enumerate() {
                *s += m as f32 * b;
                self.col_scale[j] += m as f32 * b.abs();
            }
        }

        /// The old `add_broadcast_col`: a bias added to every column.
        fn add_broadcast_col(&mut self, n: usize, bias: &[f32]) {
            self.inputs_finite &= bias.iter().all(|v| v.is_finite());
            for (i, (&b, s)) in bias.iter().zip(&mut self.row_sum).enumerate() {
                *s += n as f32 * b;
                self.row_scale[i] += n as f32 * b.abs();
            }
            let total: f32 = bias.iter().sum();
            let total_abs: f32 = bias.iter().map(|v| v.abs()).sum();
            for (s, sc) in self.col_sum.iter_mut().zip(&mut self.col_scale) {
                *s += total;
                *sc += total_abs;
            }
        }

        /// The old `verify` loop: serial row sums, one column vector.
        fn verify(&self, c: &[f32], tolerance: f32) -> Result<(), ChecksumFault> {
            let n = self.col_sum.len();
            if !self.inputs_finite {
                return Err(ChecksumFault {
                    kind: ChecksumKind::NonFinite,
                    index: 0,
                    deviation: f32::NAN,
                    bound: 0.0,
                });
            }
            let mut col_actual = vec![0.0f32; n];
            for (i, row) in c.chunks(n).enumerate() {
                let actual: f32 = row.iter().sum();
                let deviation = (actual - self.row_sum[i]).abs();
                let bound = tolerance * self.row_scale[i] + tolerance;
                if deviation.is_nan() || deviation > bound {
                    return Err(ChecksumFault {
                        kind: ChecksumKind::Row,
                        index: i,
                        deviation,
                        bound,
                    });
                }
                for (acc, &v) in col_actual.iter_mut().zip(row) {
                    *acc += v;
                }
            }
            for (j, &actual) in col_actual.iter().enumerate() {
                let deviation = (actual - self.col_sum[j]).abs();
                let bound = tolerance * self.col_scale[j] + tolerance;
                if deviation.is_nan() || deviation > bound {
                    return Err(ChecksumFault {
                        kind: ChecksumKind::Col,
                        index: j,
                        deviation,
                        bound,
                    });
                }
            }
            Ok(())
        }

        fn assert_matches(&self, got: &GemmChecksums, label: &str) {
            let (m, n) = (got.m, got.n);
            assert_eq!(got.inputs_finite, self.inputs_finite, "{label} finiteness");
            for (name, x, y) in [
                ("row_sum", &got.rows[..m], &self.row_sum[..]),
                ("row_scale", &got.rows[m..2 * m], &self.row_scale[..]),
                ("col_sum", &got.cols[..n], &self.col_sum[..]),
                ("col_scale", &got.cols[n..2 * n], &self.col_scale[..]),
            ] {
                assert_eq!(x.len(), y.len(), "{label} {name} length");
                let differs = x.iter().zip(y).position(|(&u, &v)| !same_bits(u, v));
                assert!(differs.is_none(), "{label} {name} differs at {differs:?}");
            }
        }
    }

    fn assert_same_verdict(got: &GemmChecksums, want: &Oracle, c: &[f32], label: &str) {
        for tol in [DEFAULT_TOLERANCE, 1e-6] {
            match (got.verify(c, tol), want.verify(c, tol)) {
                (Ok(()), Ok(())) => {}
                (Err(x), Err(y)) => {
                    assert_eq!((x.kind, x.index), (y.kind, y.index), "{label} fault");
                    assert!(same_bits(x.deviation, y.deviation), "{label} deviation {x} vs {y}");
                    assert!(same_bits(x.bound, y.bound), "{label} bound {x} vs {y}");
                }
                (x, y) => panic!("{label}: verdict {x:?}, oracle {y:?}"),
            }
        }
    }

    /// `c` as it arrives at `verify`, clean and then corrupted: one
    /// element pushed far off (a row fault), the last element pushed past
    /// its column's bound but, where the row's bound is wider, not past
    /// its row's (a fault in the last column only), two pairs moved by ±d
    /// inside the last row (only column sums move: the first and last
    /// columns, then the last two), and a NaN.
    fn corruptions(c: &[f32], n: usize, want: &Oracle) -> Vec<Vec<f32>> {
        let mut out = vec![c.to_vec()];
        let last = c.len() - 1;
        let mut col_only = c.to_vec();
        col_only[last] += 1.5 * (DEFAULT_TOLERANCE * want.col_scale[n - 1] + DEFAULT_TOLERANCE);
        out.push(col_only);
        let mut far = c.to_vec();
        far[last / 2] += 1e3;
        out.push(far);
        if n > 1 {
            for first in [last + 1 - n, last - 1] {
                let mut pair = c.to_vec();
                pair[first] += 0.5;
                pair[last] -= 0.5;
                out.push(pair);
            }
        }
        let mut nan = c.to_vec();
        nan[last] = f32::NAN;
        out.push(nan);
        out
    }

    /// A bias for the oracle tests: seeded, with -0.0 first.
    fn special_bias(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bias = random(len, &mut rng);
        bias[0] = -0.0;
        bias
    }

    #[test]
    fn derivations_and_verify_are_bit_identical_to_the_serial_loops() {
        // Every expected sum and scale, the finiteness flag, the product
        // and every fault of the serial loops, bit for bit: both
        // orientations with and without a bias, over the GEMM oracle's
        // operands (±0, NaN, ±Inf) and a finite copy of them, through the
        // eight-row blocks of the row-sum kernels.
        for m in [1, 2, 3, 8, 11, 24, 48] {
            for &n in tile_straddling_dims() {
                for &k in tile_straddling_dims() {
                    let (a, w) = special_operands(m, k, n);
                    let finite = |v: &Vec<f32>| -> Vec<f32> {
                        v.iter().map(|&x| if x.is_finite() { x } else { 0.5 }).collect()
                    };
                    for (a, w) in [(a.clone(), w.clone()), (finite(&a), finite(&w))] {
                        let label = format!("({m},{k},{n})");
                        // Convolution orientation: weight a (m×k), B (k×n).
                        let b = &w;
                        for bias in [vec![], special_bias(m, (m + k) as u64)] {
                            let mut got = GemmChecksums::default();
                            let ws = WeightSums::derive(m, k, &a, &bias);
                            got.derive_ab(m, k, n, &a, b, &bias, &ws);
                            let mut want = for_ab_serial(m, k, n, &a, b);
                            let mut c = vec![0.0; m * n];
                            if !bias.is_empty() {
                                want.add_broadcast_col(n, &bias);
                                for (row, &bv) in c.chunks_mut(n).zip(&bias) {
                                    row.fill(bv);
                                }
                            }
                            gemm_into(m, k, n, &a, b, &mut c, &mut GemmScratch::new());
                            want.assert_matches(&got, &format!("ab {label}"));
                            for c in corruptions(&c, n, &want) {
                                assert_same_verdict(&got, &want, &c, &format!("ab {label}"));
                            }
                        }
                        // Dense orientation: a (m×k), weight w (n×k).
                        for bias in [vec![], special_bias(n, (n + k) as u64)] {
                            let (got, c) = dense(m, k, n, &a, &w, &bias);
                            let mut want = for_a_bt_serial(m, k, n, &a, &w);
                            let mut product = vec![0.0; m * n];
                            if !bias.is_empty() {
                                want.add_broadcast_row(m, &bias);
                                for row in product.chunks_mut(n) {
                                    row.copy_from_slice(&bias);
                                }
                            }
                            gemm_a_bt_into(m, k, n, &a, &w, &mut product, &mut GemmScratch::new());
                            let differs =
                                c.iter().zip(&product).position(|(&x, &y)| !same_bits(x, y));
                            assert!(
                                differs.is_none(),
                                "a_bt {label} product differs at {differs:?}"
                            );
                            want.assert_matches(&got, &format!("a_bt {label}"));
                            for c in corruptions(&c, n, &want) {
                                assert_same_verdict(&got, &want, &c, &format!("a_bt {label}"));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reused_checksums_match_fresh_ones() {
        // A layer refills one `GemmChecksums` across shapes and batches.
        let mut rng = StdRng::seed_from_u64(8);
        let mut reused = GemmChecksums::default();
        for &(m, k, n) in &[(1, 40, 9), (5, 7, 30), (1, 3, 2), (12, 64, 17)] {
            let a = random(m * k, &mut rng);
            let w = random(n * k, &mut rng);
            let bias = random(n, &mut rng);
            let (fresh, c) = dense(m, k, n, &a, &w, &bias);
            let mut c2 = vec![0.0; m * n];
            for row in c2.chunks_mut(n) {
                row.copy_from_slice(&bias);
            }
            let ws = WeightSums::derive(n, k, &w, &bias);
            reused.gemm_a_bt(m, k, n, &a, &w, &bias, &ws, &mut c2, &mut GemmScratch::new());
            assert_eq!(c, c2);
            let mut want = for_a_bt_serial(m, k, n, &a, &w);
            want.add_broadcast_row(m, &bias);
            want.assert_matches(&fresh, "fresh");
            want.assert_matches(&reused, "reused");
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
        let (sums, c) = dense(m, k, n, &a, &b, &[]);
        let mut want = vec![0.0; m * n];
        crate::gemm::gemm_a_bt(m, k, n, &a, &b, &mut want);
        assert_eq!(c, want);
        sums.verify(&c, DEFAULT_TOLERANCE).expect("clean A·Bᵀ verifies");
        let mut bad = c;
        bad[2 * n + 1] += 10.0;
        assert!(sums.verify(&bad, DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn row_bias_broadcast_is_folded() {
        let mut rng = StdRng::seed_from_u64(3);
        for m in [1, 6] {
            let (k, n) = (8, 5);
            let a = random(m * k, &mut rng);
            let b = random(n * k, &mut rng);
            let bias = random(n, &mut rng);
            let (sums, c) = dense(m, k, n, &a, &b, &bias);
            sums.verify(&c, DEFAULT_TOLERANCE).expect("bias-aware checksums verify");
        }
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
        let mut sums = GemmChecksums::default();
        sums.derive_ab(m, k, n, &a, &b, &bias, &WeightSums::derive(m, k, &a, &bias));
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
        let (sums, c2) = dense(m, k, n, &a2, &b2, &[]);
        let fault = sums
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
        let (sums, _) = dense(m, k, n, &a, &b, &bias);
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
