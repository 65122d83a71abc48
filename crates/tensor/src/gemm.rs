//! Packed, cache-blocked matrix multiplication — the computational core of
//! the CNN substrate.
//!
//! Convolutions are lowered to GEMM via im2col (see [`crate::conv`]) and
//! fully-connected layers call GEMM directly, so every forward pass funnels
//! through this module. The implementation is a BLIS-style microkernel:
//! operand panels are packed into contiguous, tile-aligned buffers
//! ([`GemmScratch`]), and an `MR×NR` register tile accumulates along `k` so
//! the output is touched once per `k`-block instead of once per `k`-step.
//! Callers on the zero-allocation inference path pass their own scratch
//! ([`gemm_into`] / [`gemm_a_bt_into`]); the plain entry points allocate a
//! transient scratch and are used by backward passes and tests.
//!
//! ## Numerics
//!
//! Every kernel accumulates each output element in ascending-`k` order —
//! exactly the order of the textbook triple loop — so the packed path is
//! bit-identical to the naive reference for finite inputs regardless of the
//! blocking configuration ([`GemmTuning`]). There is **no** data-dependent
//! zero-skip fast path: earlier revisions skipped `a == 0` multiplicands,
//! which was hostile to vectorization and silently masked `0 × NaN/Inf`
//! (and did so *inconsistently* across the forward/backward kernels).
//! Non-finite operands now poison the output exactly as IEEE arithmetic
//! dictates, and ABFT catches them via the explicit input scan
//! ([`crate::checksum::ChecksumKind::NonFinite`]).

/// Rows of the register tile: each microkernel call produces an
/// `MR × NR` block of the output held entirely in registers.
const MR: usize = 2;
/// Columns of the register tile.
const NR: usize = 16;

/// Below this many multiply-accumulates the packing overhead outweighs the
/// register-tile payoff and the kernels fall through to the unpacked loops
/// (identical numerics, see the module docs). The threshold is measured:
/// per-image conv products (≤ ~154k MACs on the LeNet zoo) run faster
/// through the vectorized unpacked loops, while packing wins from ~256k
/// MACs up and widens to ~2× at batch-sized products.
const SMALL_MACS: usize = 200_000;

/// Cache-blocking configuration for the packed kernels.
///
/// `kc` bounds the packed-panel depth (one `kc × NR` B-panel plus one
/// `MR × kc` A-panel should fit in L1), `mc` bounds the packed A block
/// (L2-resident), and `nc` bounds the packed B block. Results are
/// bit-identical across tunings — blocking changes *when* panels are
/// packed, never the per-element accumulation order — so tuning is purely
/// a throughput knob. The default is the best configuration measured by
/// the `throughput` bench's autotune sweep (recorded in
/// `BENCH_throughput.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmTuning {
    /// Row-block size of packed A (multiple of `MR` recommended).
    pub mc: usize,
    /// Depth-block size of packed panels.
    pub kc: usize,
    /// Column-block size of packed B (multiple of `NR` recommended).
    pub nc: usize,
}

/// Default blocking, sized for a ~32 KiB L1d: the `kc × NR` B-panel is
/// 8 KiB and the `mc × kc` A-block is L2-resident.
pub const DEFAULT_TUNING: GemmTuning = GemmTuning { mc: 64, kc: 256, nc: 512 };

impl Default for GemmTuning {
    fn default() -> Self {
        DEFAULT_TUNING
    }
}

/// Reusable packing buffers for the blocked kernels.
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

    /// Total bytes currently reserved across all packing buffers.
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

/// Packs the `mb × kb` block of row-major `a` (full width `k`) at origin
/// `(i0, p0)` into `MR`-row, `k`-major panels, zero-padding the tail panel.
fn pack_a_f32(a: &[f32], k: usize, i0: usize, mb: usize, p0: usize, kb: usize, pa: &mut [f32]) {
    for (pi, panel) in pa.chunks_mut(MR * kb).enumerate().take(mb.div_ceil(MR)) {
        let rows = (mb - pi * MR).min(MR);
        for p in 0..kb {
            let col = &mut panel[p * MR..p * MR + MR];
            for (r, slot) in col.iter_mut().enumerate() {
                *slot = if r < rows { a[(i0 + pi * MR + r) * k + p0 + p] } else { 0.0 };
            }
        }
    }
}

/// Packs the `kb × nb` block of row-major `b` (full width `n`) at origin
/// `(p0, j0)` into `NR`-column, `k`-major panels.
fn pack_b_f32(b: &[f32], n: usize, p0: usize, kb: usize, j0: usize, nb: usize, pb: &mut [f32]) {
    for (pj, panel) in pb.chunks_mut(NR * kb).enumerate().take(nb.div_ceil(NR)) {
        let cols = (nb - pj * NR).min(NR);
        for p in 0..kb {
            let src = &b[(p0 + p) * n + j0 + pj * NR..];
            let dst = &mut panel[p * NR..p * NR + NR];
            for (j, slot) in dst.iter_mut().enumerate() {
                *slot = if j < cols { src[j] } else { 0.0 };
            }
        }
    }
}

/// The register-tile microkernel: accumulates `kb` steps of the packed
/// panels into an `MR × NR` accumulator block and merges it with the
/// output tile at `c` (row stride `ldc`, `mi × nj` valid).
///
/// `FROM_C = true` seeds the accumulators from the existing output
/// (progressive `c += a·b`, matching the axpy loop's per-element order);
/// `FROM_C = false` sums the panel product separately and adds it once at
/// the end (matching the dot-product loop's `c += Σ` order). The two modes
/// preserve the exact accumulation orders of the historical kernels they
/// replaced.
#[inline(always)]
fn micro_f32<const FROM_C: bool>(
    kb: usize,
    pa: &[f32],
    pb: &[f32],
    c: &mut [f32],
    ldc: usize,
    mi: usize,
    nj: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if FROM_C {
        for i in 0..mi {
            acc[i][..nj].copy_from_slice(&c[i * ldc..i * ldc + nj]);
        }
    }
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
        let row = &mut c[i * ldc..i * ldc + nj];
        if FROM_C {
            row.copy_from_slice(&acc[i][..nj]);
        } else {
            for (out, add) in row.iter_mut().zip(&acc[i][..nj]) {
                *out += *add;
            }
        }
    }
}

/// Packs the transposed view of row-major `b: n×k` (i.e. `Bᵀ: k×n`) at
/// origin `(p0, j0)` into the same `NR`-column panel layout as
/// [`pack_b_f32`], so the A·Bᵀ kernel shares the microkernel. Only the f32
/// kernel needs this orientation: quantized weights are stored
/// pre-transposed by `pgmr-precision`.
fn pack_bt_f32(b: &[f32], k: usize, p0: usize, kb: usize, j0: usize, nb: usize, pb: &mut [f32]) {
    for (pj, panel) in pb.chunks_mut(NR * kb).enumerate().take(nb.div_ceil(NR)) {
        let cols = (nb - pj * NR).min(NR);
        for jr in 0..NR {
            if jr < cols {
                let row = &b[(j0 + pj * NR + jr) * k + p0..][..kb];
                for (p, &v) in row.iter().enumerate() {
                    panel[p * NR + jr] = v;
                }
            } else {
                for p in 0..kb {
                    panel[p * NR + jr] = 0.0;
                }
            }
        }
    }
}

/// Blocked driver shared by the packed kernels: `jc → pc → ic` loop nest
/// with B packed per `(jc, pc)` block and A per `(ic, pc)` block.
macro_rules! blocked_driver {
    ($m:expr, $k:expr, $n:expr, $a:expr, $b:expr, $c:expr, $tuning:expr,
     $ensure:ident, $scratch:expr, $pack_a:ident, $pack_b:expr, $micro:ident, $from_c:literal) => {{
        let (m, k, n) = ($m, $k, $n);
        let t = $tuning;
        let mc = t.mc.max(MR);
        let kc = t.kc.max(1);
        let nc = t.nc.max(NR);
        let pa_len = mc.min(m).next_multiple_of(MR) * kc.min(k);
        let pb_len = nc.min(n).next_multiple_of(NR) * kc.min(k);
        let (pa, pb) = $scratch.$ensure(pa_len, pb_len);
        for j0 in (0..n).step_by(nc) {
            let nb = nc.min(n - j0);
            for p0 in (0..k).step_by(kc) {
                let kb = kc.min(k - p0);
                ($pack_b)($b, p0, kb, j0, nb, pb);
                for i0 in (0..m).step_by(mc) {
                    let mb = mc.min(m - i0);
                    $pack_a($a, k, i0, mb, p0, kb, pa);
                    for jp in 0..nb.div_ceil(NR) {
                        let nj = NR.min(nb - jp * NR);
                        let pb_panel = &pb[jp * NR * kb..(jp + 1) * NR * kb];
                        for ip in 0..mb.div_ceil(MR) {
                            let mi = MR.min(mb - ip * MR);
                            let pa_panel = &pa[ip * MR * kb..(ip + 1) * MR * kb];
                            let c_off = (i0 + ip * MR) * n + j0 + jp * NR;
                            $micro::<$from_c>(kb, pa_panel, pb_panel, &mut $c[c_off..], n, mi, nj);
                        }
                    }
                }
            }
        }
    }};
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

/// [`gemm`] with caller-provided packing buffers and the default blocking.
pub fn gemm_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    scratch: &mut GemmScratch,
) {
    gemm_into_tuned(m, k, n, a, b, c, scratch, DEFAULT_TUNING);
}

/// [`gemm`] with caller-provided packing buffers and explicit blocking.
/// Results are bit-identical across tunings (see [`GemmTuning`]).
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS gemm signature plus scratch
pub fn gemm_into_tuned(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    scratch: &mut GemmScratch,
    tuning: GemmTuning,
) {
    assert_ab_dims(m, k, n, a, b, c);
    if m * k * n < SMALL_MACS {
        // Unpacked axpy loop: identical per-element accumulation order.
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
        return;
    }
    blocked_driver!(
        m,
        k,
        n,
        a,
        b,
        c,
        tuning,
        ensure_f32,
        scratch,
        pack_a_f32,
        |b: &[f32], p0, kb, j0, nb, pb: &mut [f32]| pack_b_f32(b, n, p0, kb, j0, nb, pb),
        micro_f32,
        true
    );
}

/// Computes `c = a * b + bias_broadcast` where `bias` has length `n` and is
/// added to every row of the `m×n` result. `c` is overwritten.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated dimensions.
pub fn gemm_bias(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], bias: &[f32], c: &mut [f32]) {
    assert_eq!(bias.len(), n, "bias must have length {n}");
    assert_eq!(c.len(), m * n, "c must be {m}x{n}");
    for i in 0..m {
        c[i * n..(i + 1) * n].copy_from_slice(bias);
    }
    gemm(m, k, n, a, b, c);
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
/// `k × NR`), which keeps the separate-sum accumulation order exact; for
/// tile-starved shapes (`m < MR` — e.g. single-image dense layers — or
/// tiny products) it falls through to the unpacked dot loop with identical
/// numerics.
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
        return;
    }
    // Full-depth panels (kc = k): the separate-sum store order admits no
    // depth blocking without perturbing the historical accumulation order.
    let tuning = GemmTuning { kc: k, ..DEFAULT_TUNING };
    blocked_driver!(
        m,
        k,
        n,
        a,
        b,
        c,
        tuning,
        ensure_f32,
        scratch,
        pack_a_f32,
        |b: &[f32], p0, kb, j0, nb, pb: &mut [f32]| pack_bt_f32(b, k, p0, kb, j0, nb, pb),
        micro_f32,
        false
    );
}

#[cfg(test)]
mod tests {
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
        // Odd/prime shapes straddle every MR/NR/kc boundary: below one
        // tile, one-past a tile, prime strides, and shapes large enough to
        // exercise multiple cache blocks.
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
    fn packed_path_is_bit_identical_to_unpacked_and_tuning_independent() {
        // The blocked kernel must reproduce the axpy loop exactly — the
        // accumulation order per element is ascending-k in both — and the
        // result must not depend on the blocking configuration.
        let mut rng = StdRng::seed_from_u64(7);
        let (m, k, n) = (37, 211, 53); // above SMALL_MACS, prime-ish
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut reference = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a_ip = a[i * k + p];
                for j in 0..n {
                    reference[i * n + j] += a_ip * b[p * n + j];
                }
            }
        }
        let mut scratch = GemmScratch::new();
        for tuning in [
            DEFAULT_TUNING,
            GemmTuning { mc: 8, kc: 16, nc: 16 },
            GemmTuning { mc: 32, kc: 64, nc: 24 },
            GemmTuning { mc: 256, kc: 512, nc: 1024 },
        ] {
            let mut c = vec![0.0f32; m * n];
            gemm_into_tuned(m, k, n, &a, &b, &mut c, &mut scratch, tuning);
            assert_eq!(c, reference, "tuning {tuning:?} diverged from the unpacked loop");
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
    fn packed_accumulate_seeds_from_existing_c() {
        let mut rng = StdRng::seed_from_u64(11);
        let (m, k, n) = (32, 128, 64); // above SMALL_MACS: packed path
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let init: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut c = init.clone();
        gemm(m, k, n, &a, &b, &mut c);
        let mut expect = init;
        for i in 0..m {
            for p in 0..k {
                let a_ip = a[i * k + p];
                for j in 0..n {
                    expect[i * n + j] += a_ip * b[p * n + j];
                }
            }
        }
        assert_eq!(c, expect);
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
    fn gemm_bias_broadcasts_rows() {
        let a = vec![1., 0., 0., 1.]; // identity
        let b = vec![1., 2., 3., 4.];
        let bias = vec![10., 20.];
        let mut c = vec![0.0; 4];
        gemm_bias(2, 2, 2, &a, &b, &bias, &mut c);
        assert_eq!(c, vec![11., 22., 13., 24.]);
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
    fn a_bt_packed_matches_row_dot_loop_exactly() {
        let mut rng = StdRng::seed_from_u64(3);
        let (m, k, n) = (32, 113, 64); // above SMALL_MACS: packed path
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let init: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut reference = init.clone();
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[j * k + p];
                }
                reference[i * n + j] += acc;
            }
        }
        let mut c = init;
        gemm_a_bt(m, k, n, &a, &b, &mut c);
        assert_eq!(c, reference, "packed a_bt diverged from the dot loop");
    }

    #[test]
    fn scratch_reaches_steady_state() {
        let mut rng = StdRng::seed_from_u64(6);
        // Above SMALL_MACS so the packed path (and its scratch) engages.
        let (m, k, n) = (64, 64, 64);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut scratch = GemmScratch::new();
        let mut c = vec![0.0f32; m * n];
        gemm_into(m, k, n, &a, &b, &mut c, &mut scratch);
        let grows = scratch.grows();
        assert!(scratch.bytes() > 0, "packed path must reserve panels");
        for _ in 0..3 {
            c.fill(0.0);
            gemm_into(m, k, n, &a, &b, &mut c, &mut scratch);
        }
        assert_eq!(scratch.grows(), grows, "repeat calls at one shape must not regrow");
    }
}
