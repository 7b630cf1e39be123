//! Neural-network layers, losses and optimisers for the SPATL stack.
//!
//! This crate implements a small but complete deep-learning substrate with
//! hand-written forward/backward passes:
//!
//! * [`Node`] — an enum of layers (convolution, batch-norm, linear, ReLU,
//!   pooling, dropout, residual blocks) so networks are plain data: they can
//!   be cloned, serialised and sent between federated clients without trait
//!   objects.
//! * [`Network`] — an ordered list of nodes with forward/backward, named
//!   parameter traversal and flat-vector export/import (the representation
//!   the federated-learning algorithms aggregate).
//! * [`CrossEntropyLoss`] / [`MseLoss`] — losses with analytic gradients.
//! * [`Sgd`] — momentum SGD over a network's parameter list.
//!
//! The design goal is *transparent parameters*: every federated-learning
//! algorithm in `spatl-fl` manipulates parameters as flat `Vec<f32>`s with a
//! stable layout described by [`Network::param_specs`], which is also what
//! the salient-parameter selection agent indexes into.

#![deny(missing_docs)]

mod activation;
mod arena;
mod batchnorm;
mod conv;
mod dropout;
mod flatten;
mod linear;
mod loss;
mod network;
mod node;
mod optim;
mod param;
mod pool;
mod residual;

pub use activation::Relu;
pub use arena::{arena_pooled, arena_stats, with_arena};
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use linear::Linear;
pub use loss::{accuracy, CrossEntropyLoss, MseLoss};
pub use network::{Network, ParamSpec};
pub use node::Node;
pub use optim::{Optimizer, Sgd};
pub use param::Param;
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};
pub use residual::BasicBlock;
