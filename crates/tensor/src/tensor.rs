//! The core dense tensor type.

use crate::{Result, Shape, TensorError};
use serde::{Deserialize, Serialize};

/// A dense, row-major, contiguous f32 tensor.
///
/// `Tensor` is the single numeric container used throughout SPATL: layer
/// weights, activations, gradients, control variates and uploaded parameter
/// deltas are all `Tensor`s (or flat views thereof). It is deliberately
/// simple — owned storage, no views — because federated-learning bookkeeping
/// constantly serialises, slices and re-assembles parameters, and owning the
/// buffer keeps those operations obviously correct.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor of zeros with the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Create a tensor of ones with the given shape.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Create a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Create a tensor from raw data, validating the element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(TensorError::BadReshape {
                from: data.len(),
                to: shape.dims().to_vec(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Create a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::from([data.len()]),
            data: data.to_vec(),
        }
    }

    /// Scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(Vec::new()),
            data: vec![value],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Borrow the underlying buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor and return its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-dimensional index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Reinterpret the tensor with a new shape of equal element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if shape.numel() != self.data.len() {
            return Err(TensorError::BadReshape {
                from: self.data.len(),
                to: shape.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Copy of row `i` of a rank-2 tensor (or the `i`-th slab of the leading
    /// dimension for higher ranks).
    pub fn slab(&self, i: usize) -> Result<Tensor> {
        let d0 = self.shape.dim(0);
        if i >= d0 {
            return Err(TensorError::OutOfBounds { index: i, len: d0 });
        }
        let slab = self.numel() / d0;
        let rest: Vec<usize> = self.shape.dims()[1..].to_vec();
        Tensor::from_vec(rest, self.data[i * slab..(i + 1) * slab].to_vec())
    }

    /// Write `src` into the `i`-th slab of the leading dimension.
    pub fn set_slab(&mut self, i: usize, src: &Tensor) -> Result<()> {
        let d0 = self.shape.dim(0);
        if i >= d0 {
            return Err(TensorError::OutOfBounds { index: i, len: d0 });
        }
        let slab = self.numel() / d0;
        if src.numel() != slab {
            return Err(TensorError::ShapeMismatch {
                op: "set_slab",
                lhs: self.shape.dims().to_vec(),
                rhs: src.shape.dims().to_vec(),
            });
        }
        self.data[i * slab..(i + 1) * slab].copy_from_slice(src.data());
        Ok(())
    }

    /// Stack rank-(k) tensors of identical shape into one rank-(k+1) tensor.
    pub fn stack(items: &[Tensor]) -> Result<Tensor> {
        assert!(!items.is_empty(), "cannot stack zero tensors");
        let inner = items[0].shape.clone();
        let mut data = Vec::with_capacity(items.len() * inner.numel());
        for t in items {
            if t.shape != inner {
                return Err(TensorError::ShapeMismatch {
                    op: "stack",
                    lhs: inner.dims().to_vec(),
                    rhs: t.shape.dims().to_vec(),
                });
            }
            data.extend_from_slice(t.data());
        }
        let mut dims = vec![items.len()];
        dims.extend_from_slice(inner.dims());
        Tensor::from_vec(dims, data)
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Transpose a rank-2 tensor.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose2 requires rank-2 tensor");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: Shape::from([n, m]),
            data: out,
        }
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} (", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|v| format!("{v:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let f = Tensor::full([2], 3.5);
        assert_eq!(f.data(), &[3.5, 3.5]);
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(Tensor::from_vec([2, 2], vec![1.0; 4]).is_ok());
        assert!(Tensor::from_vec([2, 2], vec![1.0; 5]).is_err());
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros([2, 3]);
        *t.at_mut(&[1, 2]) = 7.0;
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.data()[5], 7.0);
    }

    #[test]
    fn reshape_checks_count() {
        let t = Tensor::zeros([2, 3]);
        assert!(t.reshape([3, 2]).is_ok());
        assert!(t.reshape([4, 2]).is_err());
    }

    #[test]
    fn slab_extracts_rows() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r1 = t.slab(1).unwrap();
        assert_eq!(r1.data(), &[4., 5., 6.]);
        assert_eq!(r1.dims(), &[3]);
        assert!(t.slab(2).is_err());
    }

    #[test]
    fn stack_and_set_slab() {
        let a = Tensor::from_slice(&[1., 2.]);
        let b = Tensor::from_slice(&[3., 4.]);
        let s = Tensor::stack(&[a.clone(), b]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.data(), &[1., 2., 3., 4.]);
        let mut s2 = s.clone();
        s2.set_slab(0, &Tensor::from_slice(&[9., 9.])).unwrap();
        assert_eq!(s2.data(), &[9., 9., 3., 4.]);
    }

    #[test]
    fn transpose2_swaps() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let tt = t.transpose2();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.data(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros([3]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }
}
