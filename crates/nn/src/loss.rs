//! Loss functions and classification metrics.

use crate::with_arena;
use spatl_tensor::Tensor;

/// Softmax cross-entropy loss over `[batch, classes]` logits.
///
/// `forward` returns the mean negative log-likelihood; `backward` returns
/// the gradient with respect to the logits, `(softmax − onehot) / batch`.
/// The probabilities, and the gradient made from them in place, are a
/// buffer of the thread's arena: a training loop hands the gradient back
/// with [`Network::recycle`](crate::Network::recycle) once consumed.
#[derive(Debug, Clone, Default)]
pub struct CrossEntropyLoss {
    probs: Option<Tensor>,
    labels: Vec<usize>,
}

impl CrossEntropyLoss {
    /// Create the loss.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean cross-entropy of `logits: [batch, classes]` against integer
    /// class labels.
    pub fn forward(&mut self, logits: &Tensor, labels: &[usize]) -> f32 {
        let (b, c) = (logits.dims()[0], logits.dims()[1]);
        assert_eq!(b, labels.len(), "batch/label count mismatch");
        let probs = with_arena(|ws| {
            if let Some(stale) = self.probs.take() {
                ws.recycle(stale);
            }
            let mut probs = ws.take_tensor([b, c]);
            logits.softmax_rows_into(&mut probs);
            probs
        });
        let mut loss = 0.0f32;
        for (i, &y) in labels.iter().enumerate() {
            assert!(y < c, "label {y} out of range for {c} classes");
            loss -= probs.data()[i * c + y].max(1e-12).ln();
        }
        self.probs = Some(probs);
        self.labels.clear();
        self.labels.extend_from_slice(labels);
        loss / b as f32
    }

    /// Gradient of the mean loss with respect to the logits.
    pub fn backward(&mut self) -> Tensor {
        let mut grad = self.probs.take().expect("loss backward without forward");
        let (b, c) = (grad.dims()[0], grad.dims()[1]);
        let inv_b = 1.0 / b as f32;
        let g = grad.data_mut();
        for (i, &y) in self.labels.iter().enumerate() {
            g[i * c + y] -= 1.0;
        }
        for v in g.iter_mut() {
            *v *= inv_b;
        }
        grad
    }
}

/// Mean squared error loss over arbitrary-shape tensors.
#[derive(Debug, Clone, Default)]
pub struct MseLoss {
    diff: Option<Tensor>,
}

impl MseLoss {
    /// Create the loss.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean of squared element-wise differences.
    pub fn forward(&mut self, pred: &Tensor, target: &Tensor) -> f32 {
        let diff = pred.sub(target).expect("mse shape mismatch");
        let loss = diff.norm_sq() / diff.numel() as f32;
        self.diff = Some(diff);
        loss
    }

    /// Gradient with respect to the prediction.
    pub fn backward(&mut self) -> Tensor {
        let diff = self.diff.take().expect("mse backward without forward");
        let scale = 2.0 / diff.numel() as f32;
        diff.scaled(scale)
    }
}

/// Top-1 accuracy of `logits: [batch, classes]` against integer labels.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    let (b, c) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(b, labels.len(), "batch/label count mismatch");
    if b == 0 {
        return 0.0;
    }
    let mut correct = 0usize;
    for (i, &y) in labels.iter().enumerate() {
        let row = &logits.data()[i * c..(i + 1) * c];
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (j, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = j;
            }
        }
        if best == y {
            correct += 1;
        }
    }
    correct as f32 / b as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c() {
        let mut loss = CrossEntropyLoss::new();
        let logits = Tensor::zeros([4, 10]);
        let l = loss.forward(&logits, &[0, 3, 7, 9]);
        assert!((l - (10f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut loss = CrossEntropyLoss::new();
        let mut logits = Tensor::zeros([1, 3]);
        logits.data_mut()[1] = 20.0;
        let l = loss.forward(&logits, &[1]);
        assert!(l < 1e-4, "loss {l}");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Tensor::from_vec([2, 3], vec![0.5, -1.0, 2.0, 0.0, 0.3, -0.7]).unwrap();
        let labels = [2usize, 1usize];
        let mut loss = CrossEntropyLoss::new();
        loss.forward(&logits, &labels);
        let g = loss.backward();
        let eps = 1e-3;
        for i in 0..logits.numel() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let mut l1 = CrossEntropyLoss::new();
            let mut l2 = CrossEntropyLoss::new();
            let fd = (l1.forward(&lp, &labels) - l2.forward(&lm, &labels)) / (2.0 * eps);
            assert!(
                (fd - g.data()[i]).abs() < 1e-3,
                "i={i}: {fd} vs {}",
                g.data()[i]
            );
        }
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        // Softmax-CE gradient per row sums to zero (probabilities sum to 1).
        let logits = Tensor::from_vec([2, 4], vec![1., 2., 3., 4., -1., 0., 1., 2.]).unwrap();
        let mut loss = CrossEntropyLoss::new();
        loss.forward(&logits, &[0, 3]);
        let g = loss.backward();
        for i in 0..2 {
            let s: f32 = g.data()[i * 4..(i + 1) * 4].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn mse_basics() {
        let mut mse = MseLoss::new();
        let pred = Tensor::from_slice(&[1.0, 2.0]);
        let target = Tensor::from_slice(&[0.0, 0.0]);
        let l = mse.forward(&pred, &target);
        assert!((l - 2.5).abs() < 1e-6);
        let g = mse.backward();
        assert_eq!(g.data(), &[1.0, 2.0]);
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Tensor::from_vec([3, 2], vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]).unwrap();
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
    }
}
