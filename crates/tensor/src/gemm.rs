//! Register-tiled matrix multiplication — the computational core of the
//! CNN substrate.
//!
//! Convolutions are lowered to GEMM via im2col (see [`crate::conv`]) and
//! fully-connected layers call GEMM directly, so every forward pass funnels
//! through this module. Callers on the zero-allocation inference path pass
//! their own [`GemmScratch`] ([`gemm_into`] / [`gemm_a_bt_into`]); the
//! plain entry points allocate a transient scratch and are used by
//! backward passes and tests.
//!
//! `A·B` — every convolution, one image at a time, in inference and
//! training, and a dense layer's input gradient — runs one register tile
//! over its operands in place: `AB_R` rows of `A` against `AB_W` columns
//! of `B`, seeded from `c` and stored back once, so `c` is touched once per
//! tile rather than once per `k`-step. Nothing is packed. Column tails run
//! narrower tiles in place, and a remainder narrower than the narrowest
//! tile is copied into a zero-padded panel of the caller's scratch.
//!
//! `A·Bᵀ` — the dense-layer orientation — packs both operands into
//! `MR × NR` panels once a product with at least `MR` rows is large enough
//! to pay for packing. Below that (every dense layer at batch 1) a dot
//! kernel transposes `DOT_N × DOT_K` blocks of `B` into a stack tile and
//! runs eight output chains at once, so they vectorize. The ABFT guard
//! ([`crate::checksum`]) runs its matrix–vector terms through the same dot
//! kernel: a guarded batch-1 dense layer computes its product and its
//! column-checksum rows from one tile
//! ([`crate::checksum::GemmChecksums::gemm_a_bt`]), and a convolution's
//! expected row sums `W·(B·e)` take eight rows of `W` per tile.
//!
//! ## Numerics
//!
//! Every kernel accumulates each output element in ascending-`k` order —
//! exactly the order of the textbook loop it replaced — so no result
//! depends on a tile shape, a panel boundary or the target's vector width.
//! `A·B` adds each product straight into its output, as the axpy loop
//! `c += a·b` does; `A·Bᵀ` sums from +0.0 and adds the sum to `c` once, as
//! the dot loop does. There is **no** data-dependent zero-skip fast path:
//! earlier revisions skipped `a == 0` multiplicands, which was hostile to
//! vectorization and silently masked `0 × NaN/Inf` (and did so
//! *inconsistently* across the forward/backward kernels). Non-finite
//! operands now poison the output exactly as IEEE arithmetic dictates, and
//! ABFT catches them via the explicit input scan
//! ([`crate::checksum::ChecksumKind::NonFinite`]).

/// Rows of the `A·B` register tile; row tails run the same tile at 2 and
/// at 1 row.
const AB_R: usize = 4;
/// Columns of the `A·B` register tile. The tile's accumulators, a row of
/// `B` and a broadcast of `A` must fit the vector register file: AVX-512's
/// 32 registers hold a 4 × 32 tile as 16 eight-lane accumulators, AVX2's
/// 16 registers a 4 × 16 tile as 8. The width changes speed only, never a
/// result.
const AB_W: usize = if cfg!(target_feature = "avx512f") { 32 } else { 16 };
/// The narrowest `A·B` tile. A column remainder narrower than it runs
/// through a zero-padded panel of this width.
const AB_MIN_W: usize = 8;
/// Lanes of one accumulator chunk of the `A·B` tile, the eight-lane
/// vectors the tile is held in. Every tile width is a whole number of
/// chunks.
const LANES: usize = 8;

/// Rows of the packed `A·Bᵀ` register tile: each microkernel call
/// produces an `MR × NR` block of the output held entirely in registers.
const MR: usize = 2;
/// Columns of the packed `A·Bᵀ` register tile.
const NR: usize = 16;
/// Rows of `A` the packed `A·Bᵀ` path packs at once (L2-resident).
const MC: usize = 64;
/// Rows of `B` (output columns) the packed `A·Bᵀ` path packs at once.
const NC: usize = 512;

/// Below this many multiply-accumulates the packing overhead of `A·Bᵀ`
/// outweighs the register-tile payoff and the dot kernel runs instead
/// (identical numerics, see the module docs).
const SMALL_MACS: usize = 200_000;

/// Outputs the dot kernel computes at once: the width of its transposed
/// tile, one vector of independent chains.
const DOT_N: usize = 8;
/// Reduction steps per transposed tile. A `DOT_K × DOT_N` tile is 4 KiB,
/// well inside L1, and a deep tile amortizes building it: at m = 1 on an
/// AVX-512 Xeon, 8-step tiles ran no faster than the serial dot loop and
/// 128-step tiles 2–3.4× faster.
const DOT_K: usize = 128;
/// Rows of `a` each transposed tile is applied to before the next tile is
/// built.
const DOT_M: usize = 8;

/// Reusable panels: the packed `A·Bᵀ` path's operand panels, and the
/// zero-padded column-tail panel of `A·B`.
///
/// Capacities only grow, so a scratch owned by a long-lived workspace (see
/// `pgmr_nn::workspace`) reaches a steady state after the first pass over a
/// network and the hot path performs no heap allocation.
#[derive(Debug, Default)]
pub struct GemmScratch {
    pack_a: Vec<f32>,
    pack_b: Vec<f32>,
    grows: u64,
}

impl GemmScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        GemmScratch::default()
    }

    /// Total bytes currently reserved across all panels.
    pub fn bytes(&self) -> usize {
        self.pack_a.capacity() * 4 + self.pack_b.capacity() * 4
    }

    /// Capacity-growth events (stops advancing once a workload's shapes
    /// have all been seen — the steady-state regression signal).
    pub fn grows(&self) -> u64 {
        self.grows
    }

    fn ensure_f32(&mut self, a_len: usize, b_len: usize) -> (&mut [f32], &mut [f32]) {
        if self.pack_a.capacity() < a_len || self.pack_b.capacity() < b_len {
            self.grows += 1;
        }
        if self.pack_a.len() < a_len {
            self.pack_a.resize(a_len, 0.0);
        }
        if self.pack_b.len() < b_len {
            self.pack_b.resize(b_len, 0.0);
        }
        (&mut self.pack_a[..a_len], &mut self.pack_b[..b_len])
    }
}

/// One `A·B` register tile: adds `a[r, p] · b[p, j]` into an
/// `R × (C · LANES)` block of `c`, in ascending `p`. `a` starts at the
/// tile's first row (row stride `k`), `b` at its first column (row stride
/// `ldb`) and `c` at its origin (row stride `ldc`). The accumulators are
/// seeded from `c` and stored back once, so each element sees exactly the
/// axpy loop's operations. Every length the tile touches is a constant,
/// which keeps the accumulators in registers, and the accumulators and
/// each row of `B` are split into explicit `LANES`-wide chunks, one
/// vector each, so no chunk straddles two vectors.
#[inline(always)]
fn ab_tile<const R: usize, const C: usize>(
    k: usize,
    a: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[[0.0f32; LANES]; C]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        for (q, chunk) in row.iter_mut().enumerate() {
            chunk.copy_from_slice(&c[r * ldc + q * LANES..][..LANES]);
        }
    }
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..][..k]);
    for p in 0..k {
        let b_row = &b[p * ldb..][..C * LANES];
        let b_chunks: [[f32; LANES]; C] = std::array::from_fn(|q| {
            b_row[q * LANES..][..LANES].try_into().expect("a chunk is LANES wide")
        });
        for (row, a_row) in acc.iter_mut().zip(a_rows) {
            let av = a_row[p];
            for (chunk, b_chunk) in row.iter_mut().zip(&b_chunks) {
                for (s, &bv) in chunk.iter_mut().zip(b_chunk) {
                    *s += av * bv;
                }
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (q, chunk) in row.iter().enumerate() {
            c[r * ldc + q * LANES..][..LANES].copy_from_slice(chunk);
        }
    }
}

/// Runs [`ab_tile`] of `C` chunks down all `m` rows of one column block:
/// `AB_R` rows at a time, then a tail of 2 rows and of 1.
#[inline(always)]
fn ab_column<const C: usize>(
    m: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let mut i = 0;
    while m - i >= AB_R {
        ab_tile::<AB_R, C>(k, &a[i * k..], b, ldb, &mut c[i * ldc..], ldc);
        i += AB_R;
    }
    if m - i >= 2 {
        ab_tile::<2, C>(k, &a[i * k..], b, ldb, &mut c[i * ldc..], ldc);
        i += 2;
    }
    if m > i {
        ab_tile::<1, C>(k, &a[i * k..], b, ldb, &mut c[i * ldc..], ldc);
    }
}

/// Packs rows `i0..i0 + mb` of row-major `a: m×k` into `MR`-row, `k`-major
/// panels, zero-padding the tail panel.
fn pack_a_f32(a: &[f32], k: usize, i0: usize, mb: usize, pa: &mut [f32]) {
    for (pi, panel) in pa.chunks_mut(MR * k).enumerate().take(mb.div_ceil(MR)) {
        let rows = (mb - pi * MR).min(MR);
        for p in 0..k {
            let col = &mut panel[p * MR..p * MR + MR];
            for (r, slot) in col.iter_mut().enumerate() {
                *slot = if r < rows { a[(i0 + pi * MR + r) * k + p] } else { 0.0 };
            }
        }
    }
}

/// Packs rows `j0..j0 + nb` of row-major `b: n×k` — columns of `Bᵀ` — into
/// `NR`-column, `k`-major panels, zero-padding the tail panel. Only the f32
/// kernel needs this orientation: quantized weights are stored
/// pre-transposed by `pgmr-precision`.
fn pack_bt_f32(b: &[f32], k: usize, j0: usize, nb: usize, pb: &mut [f32]) {
    for (pj, panel) in pb.chunks_mut(NR * k).enumerate().take(nb.div_ceil(NR)) {
        let cols = (nb - pj * NR).min(NR);
        for jr in 0..NR {
            if jr < cols {
                let row = &b[(j0 + pj * NR + jr) * k..][..k];
                for (p, &v) in row.iter().enumerate() {
                    panel[p * NR + jr] = v;
                }
            } else {
                for p in 0..k {
                    panel[p * NR + jr] = 0.0;
                }
            }
        }
    }
}

/// The packed `A·Bᵀ` microkernel: sums `kb` steps of the packed panels
/// into an `MR × NR` block from +0.0 and adds it to the output tile at `c`
/// (row stride `ldc`, `mi × nj` valid) — the dot loop's `c += Σ` order.
#[inline(always)]
fn micro_f32(kb: usize, pa: &[f32], pb: &[f32], c: &mut [f32], ldc: usize, mi: usize, nj: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kb {
        let a_col = &pa[p * MR..p * MR + MR];
        let b_row = &pb[p * NR..p * NR + NR];
        for i in 0..MR {
            let av = a_col[i];
            for j in 0..NR {
                acc[i][j] += av * b_row[j];
            }
        }
    }
    for i in 0..mi {
        for (out, add) in c[i * ldc..i * ldc + nj].iter_mut().zip(&acc[i][..nj]) {
            *out += *add;
        }
    }
}

fn assert_ab_dims(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &[f32]) {
    assert_eq!(a.len(), m * k, "a must be {m}x{k}");
    assert_eq!(b.len(), k * n, "b must be {k}x{n}");
    assert_eq!(c.len(), m * n, "c must be {m}x{n}");
}

/// Computes `c += a * b` where `a` is `m×k`, `b` is `k×n`, and `c` is `m×n`,
/// all row-major.
///
/// Allocates a transient [`GemmScratch`]; hot-path callers use
/// [`gemm_into`] with a long-lived scratch instead. Unlike earlier
/// revisions there is **no** zero-skip fast path: `0 × NaN/Inf` follows
/// IEEE semantics and poisons the output, so non-finite operands are
/// visible both here and to the ABFT input scan
/// ([`crate::checksum::GemmChecksums`]).
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
///
/// # Example
///
/// ```
/// use pgmr_tensor::gemm;
///
/// let a = [1., 2., 3., 4.]; // 2x2
/// let b = [5., 6., 7., 8.]; // 2x2
/// let mut c = [0.0f32; 4];
/// gemm(2, 2, 2, &a, &b, &mut c);
/// assert_eq!(c, [19., 22., 43., 50.]);
/// ```
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_into(m, k, n, a, b, c, &mut GemmScratch::new());
}

/// [`gemm`] with a caller-provided scratch for the column-tail panels.
///
/// Column blocks of the register tile's full width run first, then one
/// block each of the narrower widths down to `AB_MIN_W` that still fit,
/// all on `b` and `c` in place. A remainder narrower than `AB_MIN_W` has
/// its columns of `b` and `c` copied into zero-padded panels of `scratch`,
/// runs through the same tile, and only its valid columns are stored.
/// Each column block runs down every row, so its rows of `b` stay in cache
/// across the row tiles.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    scratch: &mut GemmScratch,
) {
    assert_ab_dims(m, k, n, a, b, c);
    let mut j = 0;
    while n - j >= AB_W {
        ab_column::<{ AB_W / LANES }>(m, k, a, &b[j..], n, &mut c[j..], n);
        j += AB_W;
    }
    if AB_W > 16 && n - j >= 16 {
        ab_column::<{ 16 / LANES }>(m, k, a, &b[j..], n, &mut c[j..], n);
        j += 16;
    }
    if n - j >= AB_MIN_W {
        ab_column::<{ AB_MIN_W / LANES }>(m, k, a, &b[j..], n, &mut c[j..], n);
        j += AB_MIN_W;
    }
    let rest = n - j;
    if rest > 0 {
        let (c_panel, b_panel) = scratch.ensure_f32(m * AB_MIN_W, k * AB_MIN_W);
        // Element by element: a copy of `rest` floats per row would be a
        // `memcpy` call per row.
        let pad = |dst: &mut [f32], src: &[f32]| {
            let src = &src[..rest];
            for (jj, d) in dst.iter_mut().enumerate() {
                *d = src.get(jj).copied().unwrap_or(0.0);
            }
        };
        for (dst, src) in b_panel.chunks_exact_mut(AB_MIN_W).zip(b[j..].chunks(n)) {
            pad(dst, src);
        }
        for (dst, src) in c_panel.chunks_exact_mut(AB_MIN_W).zip(c[j..].chunks(n)) {
            pad(dst, src);
        }
        ab_column::<{ AB_MIN_W / LANES }>(m, k, a, b_panel, AB_MIN_W, c_panel, AB_MIN_W);
        for (src, dst) in c_panel.chunks_exact(AB_MIN_W).zip(c[j..].chunks_mut(n)) {
            dst[..rest].copy_from_slice(&src[..rest]);
        }
    }
}

/// Computes `c += a^T * b` where `a` is `k×m` (so `a^T` is `m×k`), `b` is
/// `k×n`, and `c` is `m×n`. Used by backward passes to form weight
/// gradients without materializing the transpose.
///
/// Like every kernel in this module it is uniformly non-skipping: zero
/// multiplicands are multiplied through, so NaN/Inf in either operand
/// propagates to the output identically across all four kernels.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_at_b(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "a must be {k}x{m}");
    assert_eq!(b.len(), k * n, "b must be {k}x{n}");
    assert_eq!(c.len(), m * n, "c must be {m}x{n}");
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &a_pi) in a_row.iter().enumerate() {
            let c_row = &mut c[i * n..(i + 1) * n];
            for (c_val, &b_val) in c_row.iter_mut().zip(b_row) {
                *c_val += a_pi * b_val;
            }
        }
    }
}

/// Computes `c += a * b^T` where `a` is `m×k`, `b` is `n×k` (so `b^T` is
/// `k×n`), and `c` is `m×n` — the dense-layer orientation (`y = x·Wᵀ`).
/// Allocates a transient scratch; the hot path uses [`gemm_a_bt_into`].
///
/// Each output element is formed as `c += Σ_k a·b` with the inner sum
/// accumulated separately in ascending `k` (the historical dot-product
/// order), so results are bit-identical to the unpacked loop.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_a_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_a_bt_into(m, k, n, a, b, c, &mut GemmScratch::new());
}

/// [`gemm_a_bt`] with caller-provided packing buffers.
///
/// The packed path packs the full reduction depth at once (panels of
/// `k × NR`), which keeps the separate-sum accumulation order exact, and
/// walks `NC` output columns by `MC` rows at a time. For tile-starved
/// shapes (`m < MR` — e.g. single-image dense layers — or tiny products)
/// it runs the tiled dot kernel instead, with identical numerics and
/// without touching `scratch`.
pub fn gemm_a_bt_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    scratch: &mut GemmScratch,
) {
    assert_eq!(a.len(), m * k, "a must be {m}x{k}");
    assert_eq!(b.len(), n * k, "b must be {n}x{k}");
    assert_eq!(c.len(), m * n, "c must be {m}x{n}");
    if m < MR || m * k * n < SMALL_MACS {
        dot_a_bt(m, k, n, a, b, c, |_, v| v);
        return;
    }
    // Full-depth panels: the separate-sum store order admits no depth
    // blocking without perturbing the historical accumulation order.
    let pa_len = MC.min(m).next_multiple_of(MR) * k;
    let pb_len = NC.min(n).next_multiple_of(NR) * k;
    let (pa, pb) = scratch.ensure_f32(pa_len, pb_len);
    for j0 in (0..n).step_by(NC) {
        let nb = NC.min(n - j0);
        pack_bt_f32(b, k, j0, nb, pb);
        for i0 in (0..m).step_by(MC) {
            let mb = MC.min(m - i0);
            pack_a_f32(a, k, i0, mb, pa);
            for jp in 0..nb.div_ceil(NR) {
                let nj = NR.min(nb - jp * NR);
                let pb_panel = &pb[jp * NR * k..(jp + 1) * NR * k];
                for ip in 0..mb.div_ceil(MR) {
                    let mi = MR.min(mb - ip * MR);
                    let pa_panel = &pa[ip * MR * k..(ip + 1) * MR * k];
                    let c_off = (i0 + ip * MR) * n + j0 + jp * NR;
                    micro_f32(k, pa_panel, pb_panel, &mut c[c_off..], n, mi, nj);
                }
            }
        }
    }
}

/// The dot kernel behind every `A·Bᵀ` product too small to pack, and
/// behind the matrix–vector terms of the ABFT guard. For `a: m×k` and
/// `b: n×k`, both row-major, it adds `Σ_p a[i,p] · f(i, b[j,p])` to
/// `c[i·n + j]`. Each sum starts from +0.0 and runs in ascending `p` before
/// it is added to `c` — the order of the textbook dot loop, so the result
/// is bit-identical to it. `f` lets a row read a transform of `b` (a
/// checksum's `|B|` row); the GEMM passes `b` through.
///
/// A `DOT_N × DOT_K` block of `b` is transposed into a stack tile once per
/// group of `DOT_M` rows, and each tile row then feeds `DOT_N` independent
/// chains, which vectorize where one serial chain per output could not.
/// In a block of fewer than `DOT_N` outputs the spare lanes repeat the
/// block's last row of `b` and are discarded; the last tile runs only the
/// steps left in `k`.
#[inline(always)]
pub(crate) fn dot_a_bt(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    f: impl Fn(usize, f32) -> f32,
) {
    debug_assert!(a.len() == m * k && b.len() == n * k && c.len() == m * n);
    let mut tile = [[0.0f32; DOT_N]; DOT_K];
    for j0 in (0..n).step_by(DOT_N) {
        let nj = DOT_N.min(n - j0);
        for i0 in (0..m).step_by(DOT_M) {
            let mi = DOT_M.min(m - i0);
            let mut acc = [[0.0f32; DOT_N]; DOT_M];
            for p0 in (0..k).step_by(DOT_K) {
                let kp = DOT_K.min(k - p0);
                let runs: [&[f32]; DOT_N] =
                    std::array::from_fn(|jj| &b[(j0 + jj.min(nj - 1)) * k + p0..][..kp]);
                for (pp, row) in tile[..kp].iter_mut().enumerate() {
                    *row = std::array::from_fn(|jj| runs[jj][pp]);
                }
                for (r, chains) in acc[..mi].iter_mut().enumerate() {
                    let a_run = &a[(i0 + r) * k + p0..][..kp];
                    let mut lanes = *chains;
                    for (row, &av) in tile.iter().zip(a_run) {
                        for (s, &bv) in lanes.iter_mut().zip(row) {
                            *s += av * f(i0 + r, bv);
                        }
                    }
                    *chains = lanes;
                }
            }
            for (r, chains) in acc[..mi].iter().enumerate() {
                let c_run = &mut c[(i0 + r) * n + j0..][..nj];
                for (out, &s) in c_run.iter_mut().zip(chains) {
                    *out += s;
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// f64 oracle: each output element accumulated in f64, bounding the
    /// f32 kernels' round-off independently of their blocking.
    fn naive_f64(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f64> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] as f64 * b[p * n + j] as f64;
                }
            }
        }
        c
    }

    /// Relative-error check against the f64 oracle: the deviation of each
    /// element is bounded by `k · ε` times the magnitude sum of its inner
    /// products — the standard forward-error bound for recursive summation,
    /// valid for any blocking of the same products.
    fn assert_close_to_oracle(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &[f32],
        label: &str,
    ) {
        let oracle = naive_f64(m, k, n, a, b);
        for i in 0..m {
            for j in 0..n {
                let mut mag = 0.0f64;
                for p in 0..k {
                    mag += (a[i * k + p] as f64 * b[p * n + j] as f64).abs();
                }
                let bound = (k.max(2) as f64) * f32::EPSILON as f64 * mag + 1e-12;
                let got = c[i * n + j] as f64;
                let want = oracle[i * n + j];
                assert!(
                    (got - want).abs() <= bound,
                    "{label} ({m},{k},{n}) at ({i},{j}): {got} vs oracle {want} (bound {bound:e})"
                );
            }
        }
    }

    /// The serial dot loop the tiled kernel replaced, kept as its oracle:
    /// each output sums from +0.0 in ascending `k`, then adds to `c`.
    fn a_bt_dot_loop(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (j, c_val) in c_row.iter_mut().enumerate() {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&a_v, &b_v) in a_row.iter().zip(b_row) {
                    acc += a_v * b_v;
                }
                *c_val += acc;
            }
        }
    }

    /// Reduction and output sizes that straddle the dot kernel's tiles:
    /// one, one short of, at and one past a `DOT_N` block, two blocks plus
    /// one, a run shorter than `DOT_K`, one short of, at and one past a
    /// `DOT_K` tile, and two tiles plus one. Miri gets the short ones.
    pub(crate) fn tile_straddling_dims() -> &'static [usize] {
        if cfg!(miri) {
            &[1, 7, 8, 9]
        } else {
            &[1, 7, 8, 9, 17, 64, 127, 128, 129, 257]
        }
    }

    /// `len` seeded values in [-1, 1).
    fn seeded(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// `a: m×k` and `b: n×k` operands for the oracle tests, seeded with the
    /// values that expose a changed order or a stray term: -0.0 in every
    /// fifth column of `a`, +Inf ending `a`'s third row, a `b` row of -0.0
    /// only, a NaN in the middle of `b`'s third row, -Inf opening its
    /// fourth and +Inf ending its last.
    pub(crate) fn special_operands(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        let mut a = seeded(m * k, (m * 1000 + k) as u64);
        let mut b = seeded(n * k, (n * 1000 + k + 7) as u64);
        for (i, row) in a.chunks_mut(k).enumerate() {
            for v in row.iter_mut().step_by(5) {
                *v = -0.0;
            }
            if i == 2 {
                row[k - 1] = f32::INFINITY;
            }
        }
        for (j, row) in b.chunks_mut(k).enumerate() {
            match j {
                1 => row.fill(-0.0),
                2 => row[k / 2] = f32::NAN,
                3 => row[0] = f32::NEG_INFINITY,
                _ => {}
            }
        }
        if n > 4 {
            b[n * k - 1] = f32::INFINITY;
        }
        (a, b)
    }

    /// Bitwise equality, except that any two NaNs match: which NaN an
    /// add of two NaNs returns follows the operand order the compiler
    /// picks, not the kernel's arithmetic.
    pub(crate) fn same_bits(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// The axpy loop the register tile replaced, kept as its oracle: each
    /// output starts from `c` and adds `a[i,p]·b[p,j]` in ascending `p`.
    fn ab_axpy_loop(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                let b_row = &b[p * n..(p + 1) * n];
                for (c_val, &b_val) in c_row.iter_mut().zip(b_row) {
                    *c_val += a_ip * b_val;
                }
            }
        }
    }

    /// Row counts and output widths for the `A·B` oracle: every row tail
    /// of the 4-row tile, and widths one short of, at and one past each
    /// tile width, the two column tails of the zoo (144 = 4·32 + 16,
    /// 36 = 32 + 4) and the straddling dims. Miri gets short ones that
    /// still reach every tile and row tail at either tile width: 5 and 3
    /// rows end in 1- and 2-row tiles, 27 = 16 + 8 + 3 columns, 33 and 36
    /// a full tile and a padded remainder.
    fn ab_dims() -> (&'static [usize], &'static [usize]) {
        if cfg!(miri) {
            (&[1, 2, 3, 5], &[1, 9, 27, 33, 36])
        } else {
            (
                &[1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 24, 48],
                &[1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 36, 64, 127, 128, 129, 144, 257],
            )
        }
    }

    /// Row-major `rows × cols` matrix transposed to `cols × rows`.
    fn transposed(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0; x.len()];
        for (r, row) in x.chunks(cols).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                t[c * rows + r] = v;
            }
        }
        t
    }

    #[test]
    fn identity_multiplication() {
        let a = vec![1., 0., 0., 1.];
        let b = vec![3., 4., 5., 6.];
        let mut c = vec![0.0; 4];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn matches_oracle_on_tile_straddling_shapes() {
        // Odd/prime shapes straddle every tile boundary: below one tile,
        // one past a tile, prime strides, row and column tails.
        let mut rng = StdRng::seed_from_u64(42);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 9),
            (7, 13, 11),
            (33, 65, 17),
            (64, 64, 64),
            (70, 1, 70),
            (31, 257, 37),
            (13, 300, 127),
            (65, 129, 63),
        ] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut c = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            assert_close_to_oracle(m, k, n, &a, &b, &c, "gemm");
        }
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let a = vec![1., 2.];
        let b = vec![3., 4.];
        let mut c = vec![10.0; 1];
        gemm(1, 2, 1, &a, &b, &mut c);
        assert_eq!(c[0], 10.0 + 11.0);
    }

    #[test]
    fn ab_is_bit_identical_to_the_axpy_loop() {
        // Every row tail (m mod 4 = 0..3, with 2- and 1-row tiles), every
        // column tail (the full tile, in-place 16- and 8-wide tiles and a
        // padded remainder, at either tile width), every straddling k;
        // non-finite and signed-zero operands; a seeded `c` with -0.0 in
        // its second and last columns; a fresh scratch and one reused
        // across shapes, whose stale tail panel must not leak in.
        let (rows, cols) = ab_dims();
        let mut reused = GemmScratch::new();
        for &m in rows {
            for &n in cols {
                for &k in tile_straddling_dims() {
                    let (a, bt) = special_operands(m, k, n);
                    let b = transposed(&bt, n, k);
                    let mut init = seeded(m * n, (m * 7 + n + k) as u64);
                    for row in init.chunks_mut(n) {
                        row[n.min(2) - 1] = -0.0;
                        row[n - 1] = -0.0;
                    }
                    let mut want = init.clone();
                    ab_axpy_loop(m, k, n, &a, &b, &mut want);
                    for scratch in [&mut reused, &mut GemmScratch::new()] {
                        let mut got = init.clone();
                        gemm_into(m, k, n, &a, &b, &mut got, scratch);
                        let differs = got.iter().zip(&want).position(|(&x, &y)| !same_bits(x, y));
                        assert!(differs.is_none(), "({m},{k},{n}) differs at {differs:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn nonfinite_operands_poison_the_output() {
        // No kernel skips zero multiplicands: 0 × NaN = NaN uniformly.
        let a = vec![0.0f32; 4]; // 2x2 zeros
        let mut b = vec![1.0f32; 4];
        b[1] = f32::NAN;
        let mut c = vec![0.0f32; 4];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert!(c[1].is_nan() && c[3].is_nan(), "0×NaN must propagate: {c:?}");

        let mut c2 = vec![0.0f32; 4];
        gemm_at_b(2, 2, 2, &a, &b, &mut c2);
        assert!(c2.iter().any(|v| v.is_nan()), "gemm_at_b must propagate NaN: {c2:?}");

        let mut c3 = vec![0.0f32; 4];
        gemm_a_bt(2, 2, 2, &a, &b, &mut c3);
        assert!(c3.iter().any(|v| v.is_nan()), "gemm_a_bt must propagate NaN: {c3:?}");
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(m, k, n) in &[(5, 7, 3), (17, 33, 9)] {
            let a: Vec<f32> = (0..k * m).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            // a_t[i*k+p] = a[p*m+i]
            let mut a_t = vec![0.0; m * k];
            for p in 0..k {
                for i in 0..m {
                    a_t[i * k + p] = a[p * m + i];
                }
            }
            let mut c1 = vec![0.0; m * n];
            gemm_at_b(m, k, n, &a, &b, &mut c1);
            assert_close_to_oracle(m, k, n, &a_t, &b, &c1, "gemm_at_b");
        }
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        // Straddles the m >= MR packed path and the small fallback.
        for &(m, k, n) in &[(1, 6, 5), (3, 9, 4), (4, 60, 40), (13, 157, 29), (64, 256, 64)] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut b_t = vec![0.0; k * n];
            for j in 0..n {
                for p in 0..k {
                    b_t[p * n + j] = b[j * k + p];
                }
            }
            let mut c1 = vec![0.0; m * n];
            gemm_a_bt(m, k, n, &a, &b, &mut c1);
            assert_close_to_oracle(m, k, n, &a, &b_t, &c1, "gemm_a_bt");
        }
    }

    #[test]
    fn a_bt_is_bit_identical_to_the_dot_loop() {
        // Rows 1–3 (below MR, one tile group) and 11 (above MR and past a
        // DOT_M group; packed once the product reaches SMALL_MACS), every
        // straddling n and k, non-finite and signed-zero operands, and a
        // `c` that already holds values (with -0.0 in column 1, which an
        // all-zero sum must turn into +0.0).
        let dims = tile_straddling_dims();
        let mut scratch = GemmScratch::new();
        for m in [1, 2, 3, 11] {
            for &n in dims {
                for &k in dims {
                    let (a, b) = special_operands(m, k, n);
                    let mut init = seeded(m * n, (m + n + k) as u64);
                    if n > 1 {
                        for row in init.chunks_mut(n) {
                            row[1] = -0.0;
                        }
                    }
                    let mut want = init.clone();
                    a_bt_dot_loop(m, k, n, &a, &b, &mut want);
                    let mut got = init;
                    gemm_a_bt_into(m, k, n, &a, &b, &mut got, &mut scratch);
                    let differs = got.iter().zip(&want).position(|(&x, &y)| !same_bits(x, y));
                    assert!(differs.is_none(), "({m},{k},{n}) differs at {differs:?}");
                }
            }
        }
    }

    #[test]
    fn a_bt_packed_matches_row_dot_loop_exactly() {
        let mut rng = StdRng::seed_from_u64(3);
        let (m, k, n) = (32, 113, 64); // above SMALL_MACS: packed path
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let init: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut reference = init.clone();
        a_bt_dot_loop(m, k, n, &a, &b, &mut reference);
        let mut c = init;
        gemm_a_bt(m, k, n, &a, &b, &mut c);
        assert_eq!(c, reference, "packed a_bt diverged from the dot loop");
    }

    #[test]
    fn scratch_reaches_steady_state() {
        let mut rng = StdRng::seed_from_u64(6);
        // n = 36 leaves a ragged column tail at either tile width (32 + 4
        // or 2·16 + 4), which runs through the scratch's padded panel.
        let (m, k, n) = (12, 64, 36);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut scratch = GemmScratch::new();
        let mut c = vec![0.0f32; m * n];
        gemm_into(m, k, n, &a, &b, &mut c, &mut scratch);
        let grows = scratch.grows();
        assert!(scratch.bytes() > 0, "a ragged column tail must take its panel from the scratch");
        for _ in 0..3 {
            c.fill(0.0);
            gemm_into(m, k, n, &a, &b, &mut c, &mut scratch);
            // A shallower product fits the panel already there.
            gemm_into(m, k / 2, n, &a[..m * k / 2], &b[..k / 2 * n], &mut c, &mut scratch);
        }
        assert_eq!(scratch.grows(), grows, "repeat calls at one shape must not regrow");
    }
}
