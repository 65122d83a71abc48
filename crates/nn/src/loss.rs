//! Loss functions.

use pgmr_tensor::{log_softmax, softmax, Tensor};

/// Softmax cross-entropy over a `[n, classes]` logit batch.
///
/// Returns the mean loss and the gradient w.r.t. the logits, which is the
/// standard `(softmax - onehot) / n`.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or any label is out
/// of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.shape().rank(), 2, "logits must be [n, classes]");
    let n = logits.shape().dim(0);
    let classes = logits.shape().dim(1);
    assert_eq!(labels.len(), n, "label count mismatch");

    let mut loss = 0.0f32;
    let mut grad = vec![0.0f32; n * classes];
    for (i, row) in logits.data().chunks(classes).enumerate() {
        let label = labels[i];
        assert!(label < classes, "label {label} out of range for {classes} classes");
        let ls = log_softmax(row);
        loss -= ls[label];
        let p = softmax(row);
        let g = &mut grad[i * classes..(i + 1) * classes];
        for (j, gj) in g.iter_mut().enumerate() {
            *gj = (p[j] - if j == label { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    (loss / n as f32, Tensor::from_vec([n, classes], grad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_has_low_loss() {
        let logits = Tensor::from_vec(vec![1, 3], vec![10.0, -10.0, -10.0]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-4);
    }

    #[test]
    fn uniform_prediction_loss_is_log_classes() {
        let logits = Tensor::zeros(vec![1, 4]);
        let (loss, _) = softmax_cross_entropy(&logits, &[2]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.3, -0.7, 1.1, 0.0, 0.5, -0.2]);
        let labels = [2usize, 1];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for flat in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[flat] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[flat] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &labels);
            let (fm, _) = softmax_cross_entropy(&lm, &labels);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[flat]).abs() < 1e-3,
                "grad[{flat}] numeric {numeric} vs {}",
                grad.data()[flat]
            );
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![1, 3], vec![1.0, 2.0, 3.0]);
        let (_, grad) = softmax_cross_entropy(&logits, &[0]);
        let sum: f32 = grad.data().iter().sum();
        assert!(sum.abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_label() {
        let logits = Tensor::zeros(vec![1, 3]);
        softmax_cross_entropy(&logits, &[3]);
    }
}
