//! Element-wise operations, reductions and the vector algebra used by the
//! optimisers and federated-learning aggregation rules.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Element-wise sum producing a new tensor.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "add")?;
        let mut out = self.clone();
        out.add_assign(other)?;
        Ok(out)
    }

    /// Element-wise `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "add_assign")?;
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
        Ok(())
    }

    /// Element-wise difference producing a new tensor.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "sub")?;
        let mut out = self.clone();
        for (a, b) in out.data_mut().iter_mut().zip(other.data()) {
            *a -= b;
        }
        Ok(out)
    }

    /// `self += alpha * other` — the BLAS `axpy` primitive that every FL
    /// aggregation rule in this project reduces to.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "axpy")?;
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiply every element by a scalar, in place.
    pub fn scale(&mut self, alpha: f32) {
        for a in self.data_mut() {
            *a *= alpha;
        }
    }

    /// New tensor with every element multiplied by a scalar.
    pub fn scaled(&self, alpha: f32) -> Tensor {
        let mut out = self.clone();
        out.scale(alpha);
        out
    }

    /// Apply `f` to every element, in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for a in self.data_mut() {
            *a = f(*a);
        }
    }

    /// New tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.clone();
        out.map_in_place(f);
        out
    }

    /// Dot product over the flattened buffers.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other, "dot")?;
        Ok(self
            .data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Maximum element (negative infinity for empty tensors).
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element of a rank-1 tensor (first on ties).
    pub fn argmax(&self) -> usize {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data().iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Squared L2 norm of the flattened buffer.
    pub fn norm_sq(&self) -> f32 {
        self.data().iter().map(|v| v * v).sum()
    }

    /// L2 norm of the flattened buffer.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Zero the buffer, keeping the allocation.
    pub fn fill(&mut self, value: f32) {
        for a in self.data_mut() {
            *a = value;
        }
    }

    /// Row-wise softmax of a rank-2 tensor `[batch, classes]`, numerically
    /// stabilised by subtracting the row maximum.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        self.softmax_rows_into(&mut out);
        out
    }

    /// [`Tensor::softmax_rows`] written into `out`, a tensor of the same
    /// shape whose contents are overwritten (a workspace buffer).
    pub fn softmax_rows_into(&self, out: &mut Tensor) {
        assert_eq!(self.shape().rank(), 2, "softmax_rows requires rank 2");
        assert_eq!(self.dims(), out.dims(), "softmax_rows_into shape mismatch");
        let c = self.dims()[1];
        out.data_mut().copy_from_slice(self.data());
        for row in out.data_mut().chunks_exact_mut(c.max(1)) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                denom += *v;
            }
            let inv = 1.0 / denom;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    #[test]
    fn add_sub_mul() {
        let a = t(&[1., 2., 3.]);
        let b = t(&[4., 5., 6.]);
        assert_eq!(a.add(&b).unwrap().data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3., 3., 3.]);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = t(&[1., 2.]);
        let b = t(&[1., 2., 3.]);
        assert!(a.add(&b).is_err());
        assert!(a.dot(&b).is_err());
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = t(&[1., 2.]);
        a.axpy(0.5, &t(&[4., 8.])).unwrap();
        assert_eq!(a.data(), &[3., 6.]);
    }

    #[test]
    fn reductions() {
        let a = t(&[1., -2., 3.]);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.mean(), 2.0 / 3.0);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.argmax(), 2);
        assert!((a.norm() - 14f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order() {
        let x = Tensor::from_vec([2, 3], vec![1., 2., 3., 0., 0., 0.]).unwrap();
        let s = x.softmax_rows();
        for i in 0..2 {
            let row = &s.data()[i * 3..(i + 1) * 3];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Larger logits get larger probability.
        assert!(s.data()[2] > s.data()[1] && s.data()[1] > s.data()[0]);
        // Uniform logits give uniform probabilities.
        assert!((s.data()[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let x = Tensor::from_vec([1, 2], vec![1000.0, 1001.0]).unwrap();
        let s = x.softmax_rows();
        assert!(s.data().iter().all(|v| v.is_finite()));
        assert!((s.data().iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clamp_and_fill() {
        let mut a = t(&[-5., 0.5, 5.]);
        a.fill(0.0);
        assert_eq!(a.data(), &[0., 0., 0.]);
    }
}
