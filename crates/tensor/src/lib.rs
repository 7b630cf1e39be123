//! Dense f32 tensor primitives for the SPATL federated learning stack.
//!
//! This crate provides the numeric substrate for everything above it: a
//! row-major contiguous [`Tensor`] with the element-wise operations,
//! reductions, matrix multiplication, and `im2col`/`col2im` transforms that
//! the neural-network layers in `spatl-nn` are built from.
//!
//! Design notes:
//! * All tensors are owned, contiguous, row-major `Vec<f32>` buffers. The
//!   models in this project are small enough that views/strides would buy
//!   complexity, not speed; convolution goes through explicit `im2col`.
//! * Matrix multiplication is a packed, register-tiled, rayon-parallel
//!   kernel (see `matmul` module docs), which is where essentially all
//!   training time is spent. Hot paths use the `_into` kernel variants plus
//!   a [`Workspace`] scratch arena so steady-state training performs zero
//!   heap allocation; freshly allocated outputs are written exactly once.
//! * Random initialisation is deterministic given a seed (ChaCha8), so every
//!   experiment in the benchmark harness is reproducible.

#![deny(missing_docs)]

mod im2col;
mod init;
mod kernel;
mod matmul;
mod ops;
mod shape;
mod tensor;
mod workspace;

pub use im2col::{
    col2im, col2im_into, col2im_live_into, im2col, im2col_into, im2col_live_into, Conv2dGeometry,
};
pub use init::TensorRng;
pub use kernel::{active_kernel, force_scalar};
pub use matmul::{
    matmul, matmul_blocks_into, matmul_into, matmul_nt, matmul_nt_into, matmul_tn, matmul_tn_into,
    KC, MC, MR, NC, NR,
};
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::{Workspace, WorkspaceStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Errors raised by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that were required to match did not.
    ShapeMismatch {
        /// Context string identifying the operation.
        op: &'static str,
        /// Left-hand shape.
        lhs: Vec<usize>,
        /// Right-hand shape.
        rhs: Vec<usize>,
    },
    /// A reshape was requested whose element count differs from the source.
    BadReshape {
        /// Source element count.
        from: usize,
        /// Requested shape.
        to: Vec<usize>,
    },
    /// An index was out of bounds for the tensor.
    OutOfBounds {
        /// Offending index.
        index: usize,
        /// Length of the dimension indexed.
        len: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: {lhs:?} vs {rhs:?}")
            }
            TensorError::BadReshape { from, to } => {
                write!(f, "cannot reshape {from} elements into {to:?}")
            }
            TensorError::OutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
        }
    }
}

impl std::error::Error for TensorError {}
