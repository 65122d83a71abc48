//! Elementwise and reduction kernels shared by the network layers.

use crate::tensor::Tensor;

/// Backward pass of ReLU: passes `grad` where the forward input was
/// positive, zero elsewhere.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn relu_backward(input: &Tensor, grad: &Tensor) -> Tensor {
    input.zip_with(grad, |x, g| if x > 0.0 { g } else { 0.0 })
}

/// Numerically stable softmax over a probability-vector slice.
///
/// Subtracts the running maximum before exponentiation so that large logits
/// cannot overflow. The output always sums to 1 (up to rounding) and every
/// entry is finite and non-negative.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut out = logits.to_vec();
    softmax_in_place(&mut out);
    out
}

/// In-place variant of [`softmax`].
pub fn softmax_in_place(logits: &mut [f32]) {
    if logits.is_empty() {
        return;
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in logits.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    // `sum >= 1` because the max logit contributes exp(0) = 1.
    for v in logits.iter_mut() {
        *v /= sum;
    }
}

/// Numerically stable log-softmax over a logit slice.
pub fn log_softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = logits.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
    logits.iter().map(|&v| v - max - log_sum).collect()
}

/// Index of the largest element; ties break toward the lower index.
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn argmax(values: &[f32]) -> usize {
    assert!(!values.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_backward_masks_gradient() {
        let x = Tensor::from_vec(vec![3], vec![-1., 2., 0.]);
        let g = Tensor::from_vec(vec![3], vec![10., 10., 10.]);
        assert_eq!(relu_backward(&x, &g).data(), &[0., 10., 0.]);
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let p = softmax(&[1000.0, 1001.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[1] > p[0]);
    }

    #[test]
    fn softmax_uniform_for_equal_logits() {
        let p = softmax(&[5.0; 4]);
        for v in p {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let logits = [0.2, -1.3, 2.5, 0.0];
        let ls = log_softmax(&logits);
        let p = softmax(&logits);
        for (a, b) in ls.iter().zip(&p) {
            assert!((a - b.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[7.0]), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn argmax_rejects_empty() {
        argmax(&[]);
    }
}
