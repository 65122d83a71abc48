//! GEMM oracle parity: every kernel against an f64 naive reference with
//! *relative* error bounds.
//!
//! A fixed absolute tolerance (the old `1e-4`) silently loosens as `k`
//! grows and outputs scale up; the forward-error bound for recursive
//! summation — `|Δc| ≤ k·ε·Σ|a·b|` — stays meaningful at every shape, so
//! that is what these tests enforce, over a proptest-style sweep of
//! odd/prime shapes chosen to straddle the register tiles, their row and
//! column tails and the dot kernel's tiles and row groups.

use pgmr_tensor::gemm::{gemm, gemm_a_bt, gemm_at_b, gemm_into, GemmScratch};
use proptest::prelude::*;

/// f64-accumulated naive product of row-major `a: m×k` and `b: k×n`.
fn oracle_f64(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f64> {
    let mut c = vec![0.0f64; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p] as f64;
            for j in 0..n {
                c[i * n + j] += av * b[p * n + j] as f64;
            }
        }
    }
    c
}

/// Asserts `c ≈ oracle` element-wise under the recursive-summation bound
/// `k·ε·Σ_p |a_ip·b_pj|` (plus a tiny absolute floor for all-zero sums).
fn assert_relative_parity(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &[f32]) {
    let oracle = oracle_f64(m, k, n, a, b);
    for i in 0..m {
        for j in 0..n {
            let mut mag = 0.0f64;
            for p in 0..k {
                mag += (a[i * k + p] as f64 * b[p * n + j] as f64).abs();
            }
            let bound = k.max(2) as f64 * f32::EPSILON as f64 * mag + 1e-12;
            let got = c[i * n + j] as f64;
            let want = oracle[i * n + j];
            assert!(
                (got - want).abs() <= bound,
                "({m},{k},{n}) element ({i},{j}): {got} vs {want}, bound {bound:e}"
            );
        }
    }
}

/// Deterministic pseudo-random fill in [-1, 1) from a shape-derived seed.
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// Odd/prime values that straddle the register tiles (4 × 16 or 4 × 32
/// for `A·B`), the dot kernel's `A·Bᵀ` tiles (8 outputs × 128 steps) and
/// its row groups (4 rows per loop body, 16 per tile) rather than landing
/// on friendly multiples: below one tile, one past a tile, primes, one
/// past a group.
const STRADDLING: [usize; 10] = [1, 2, 3, 5, 9, 13, 31, 65, 127, 257];

fn straddling_dim() -> impl Strategy<Value = usize> {
    (0usize..STRADDLING.len()).prop_map(|i| STRADDLING[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `gemm` (A·B) tracks the f64 oracle at every straddling shape.
    #[test]
    fn gemm_matches_oracle(m in straddling_dim(), k in straddling_dim(), n in straddling_dim()) {
        let a = fill(m as u64 ^ (k as u64) << 20, m * k);
        let b = fill(k as u64 ^ (n as u64) << 20, k * n);
        let mut c = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut c);
        assert_relative_parity(m, k, n, &a, &b, &c);
    }

    /// Results do not depend on the scratch: a fresh one and one left
    /// holding a deeper product's column-tail panels give the same bits.
    #[test]
    fn gemm_is_scratch_independent(
        m in straddling_dim(),
        k in straddling_dim(),
        n in straddling_dim(),
    ) {
        let a = fill((m * 31 + k) as u64, m * k);
        let b = fill((k * 31 + n) as u64, k * n);
        let mut fresh = vec![0.0f32; m * n];
        gemm_into(m, k, n, &a, &b, &mut fresh, &mut GemmScratch::new());
        let mut reused = GemmScratch::new();
        let (dm, dk, dn) = (5, 300, 3);
        gemm_into(dm, dk, dn, &fill(1, dm * dk), &fill(2, dk * dn), &mut vec![1.0; dm * dn], &mut reused);
        let mut c = vec![0.0f32; m * n];
        gemm_into(m, k, n, &a, &b, &mut c, &mut reused);
        prop_assert_eq!(c, fresh);
    }

    /// `gemm_at_b` (c += AᵀB) tracks the oracle via an explicit transpose.
    #[test]
    fn gemm_at_b_matches_oracle(m in straddling_dim(), k in straddling_dim(), n in straddling_dim()) {
        let a = fill((m + k * 1000) as u64, k * m); // k×m
        let b = fill((k + n * 1000) as u64, k * n);
        let mut a_t = vec![0.0f32; m * k];
        for p in 0..k {
            for i in 0..m {
                a_t[i * k + p] = a[p * m + i];
            }
        }
        let mut c = vec![0.0f32; m * n];
        gemm_at_b(m, k, n, &a, &b, &mut c);
        assert_relative_parity(m, k, n, &a_t, &b, &c);
    }

    /// `gemm_a_bt` (c += A·Bᵀ, the dense orientation) tracks the oracle
    /// at every row count: one dot kernel runs every `m`.
    #[test]
    fn gemm_a_bt_matches_oracle(m in straddling_dim(), k in straddling_dim(), n in straddling_dim()) {
        let a = fill((m * 7 + k) as u64, m * k);
        let b = fill((n * 7 + k) as u64, n * k); // n×k
        let mut b_t = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b_t[p * n + j] = b[j * k + p];
            }
        }
        let mut c = vec![0.0f32; m * n];
        gemm_a_bt(m, k, n, &a, &b, &mut c);
        assert_relative_parity(m, k, n, &a, &b_t, &c);
    }
}
