//! The layer enum — networks as plain data.

use crate::{
    AvgPool2d, BasicBlock, BatchNorm2d, Conv2d, Dropout, Flatten, GlobalAvgPool, Linear, MaxPool2d,
    Param, Relu,
};
use serde::{Deserialize, Serialize};
use spatl_tensor::{Tensor, Workspace};

/// A network layer.
///
/// Using an enum instead of trait objects keeps networks `Clone +
/// Serialize`, which federated learning relies on constantly (clients clone
/// the global model, the server serialises encoders, the RL agent snapshots
/// candidate sub-models).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Node {
    /// 2-D convolution.
    Conv(Conv2d),
    /// Batch normalisation.
    BatchNorm(BatchNorm2d),
    /// Fully-connected layer.
    Linear(Linear),
    /// ReLU activation.
    Relu(Relu),
    /// Max pooling.
    MaxPool(MaxPool2d),
    /// Average pooling.
    AvgPool(AvgPool2d),
    /// Global average pooling.
    GlobalAvgPool(GlobalAvgPool),
    /// Flatten to `[batch, features]`.
    Flatten(Flatten),
    /// Inverted dropout.
    Dropout(Dropout),
    /// Residual basic block.
    Residual(Box<BasicBlock>),
}

impl Node {
    /// Forward pass drawing all temporaries from `ws`.
    pub fn forward_ws(&mut self, input: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        match self {
            Node::Conv(l) => l.forward_ws(input, train, ws),
            Node::BatchNorm(l) => l.forward_ws(input, train, ws),
            Node::Linear(l) => l.forward_ws(input, train, ws),
            Node::Relu(l) => l.forward_ws(input, train, ws),
            Node::MaxPool(l) => l.forward_ws(input, train, ws),
            Node::AvgPool(l) => l.forward_ws(input, train, ws),
            Node::GlobalAvgPool(l) => l.forward_ws(input, train, ws),
            Node::Flatten(l) => l.forward_ws(input, train, ws),
            Node::Dropout(l) => l.forward_ws(input, train, ws),
            Node::Residual(l) => l.forward_ws(input, train, ws),
        }
    }

    /// Backward pass drawing all temporaries from `ws`.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        match self {
            Node::Conv(l) => l.backward_ws(grad_out, ws),
            Node::BatchNorm(l) => l.backward_ws(grad_out, ws),
            Node::Linear(l) => l.backward_ws(grad_out, ws),
            Node::Relu(l) => l.backward_ws(grad_out, ws),
            Node::MaxPool(l) => l.backward_ws(grad_out, ws),
            Node::AvgPool(l) => l.backward_ws(grad_out, ws),
            Node::GlobalAvgPool(l) => l.backward_ws(grad_out, ws),
            Node::Flatten(l) => l.backward_ws(grad_out, ws),
            Node::Dropout(l) => l.backward_ws(grad_out, ws),
            Node::Residual(l) => l.backward_ws(grad_out, ws),
        }
    }

    /// [`Node::backward_ws`] for a network's first layer, whose input
    /// gradient nobody reads: convolutions and dense layers accumulate
    /// their parameter gradients only; any other layer runs its full
    /// backward and drops the result.
    pub fn backward_params_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        match self {
            Node::Conv(l) => l.backward_params_ws(grad_out, ws),
            Node::Linear(l) => l.backward_params_ws(grad_out, ws),
            other => {
                let gx = other.backward_ws(grad_out, ws);
                ws.recycle(gx);
            }
        }
    }

    /// Visit trainable parameters in a stable order, with dotted name paths.
    pub fn visit_params<'a>(&'a self, prefix: &str, f: &mut impl FnMut(String, &'a Param)) {
        match self {
            Node::Conv(l) => {
                f(format!("{prefix}.w"), &l.weight);
                f(format!("{prefix}.b"), &l.bias);
            }
            Node::BatchNorm(l) => {
                f(format!("{prefix}.gamma"), &l.gamma);
                f(format!("{prefix}.beta"), &l.beta);
            }
            Node::Linear(l) => {
                f(format!("{prefix}.w"), &l.weight);
                f(format!("{prefix}.b"), &l.bias);
            }
            Node::Residual(l) => {
                l.conv1.visit_into(&format!("{prefix}.conv1"), f);
                l.bn1.visit_into(&format!("{prefix}.bn1"), f);
                l.conv2.visit_into(&format!("{prefix}.conv2"), f);
                l.bn2.visit_into(&format!("{prefix}.bn2"), f);
                if let Some(dc) = &l.down_conv {
                    dc.visit_into(&format!("{prefix}.down_conv"), f);
                }
                if let Some(db) = &l.down_bn {
                    db.visit_into(&format!("{prefix}.down_bn"), f);
                }
            }
            _ => {}
        }
    }

    /// Visit trainable parameters mutably, same order as [`Node::visit_params`].
    pub fn visit_params_mut(&mut self, prefix: &str, f: &mut impl FnMut(String, &mut Param)) {
        match self {
            Node::Conv(l) => {
                f(format!("{prefix}.w"), &mut l.weight);
                f(format!("{prefix}.b"), &mut l.bias);
            }
            Node::BatchNorm(l) => {
                f(format!("{prefix}.gamma"), &mut l.gamma);
                f(format!("{prefix}.beta"), &mut l.beta);
            }
            Node::Linear(l) => {
                f(format!("{prefix}.w"), &mut l.weight);
                f(format!("{prefix}.b"), &mut l.bias);
            }
            Node::Residual(l) => {
                l.conv1.visit_into_mut(&format!("{prefix}.conv1"), f);
                l.bn1.visit_into_mut(&format!("{prefix}.bn1"), f);
                l.conv2.visit_into_mut(&format!("{prefix}.conv2"), f);
                l.bn2.visit_into_mut(&format!("{prefix}.bn2"), f);
                if let Some(dc) = &mut l.down_conv {
                    dc.visit_into_mut(&format!("{prefix}.down_conv"), f);
                }
                if let Some(db) = &mut l.down_bn {
                    db.visit_into_mut(&format!("{prefix}.down_bn"), f);
                }
            }
            _ => {}
        }
    }

    /// Visit non-trainable buffers (batch-norm running statistics).
    pub fn visit_buffers_mut(&mut self, f: &mut impl FnMut(&mut Tensor)) {
        match self {
            Node::BatchNorm(l) => {
                f(&mut l.running_mean);
                f(&mut l.running_var);
            }
            Node::Residual(l) => {
                f(&mut l.bn1.running_mean);
                f(&mut l.bn1.running_var);
                f(&mut l.bn2.running_mean);
                f(&mut l.bn2.running_var);
                if let Some(db) = &mut l.down_bn {
                    f(&mut db.running_mean);
                    f(&mut db.running_var);
                }
            }
            _ => {}
        }
    }

    /// Return cached activations to `ws` and drop the rest of the
    /// per-batch state.
    pub fn clear_cache(&mut self, ws: &mut Workspace) {
        match self {
            Node::Conv(l) => l.clear_cache(ws),
            Node::BatchNorm(l) => l.clear_cache(ws),
            Node::Linear(l) => l.clear_cache(ws),
            Node::Relu(l) => l.clear_cache(ws),
            Node::MaxPool(l) => l.clear_cache(ws),
            Node::AvgPool(l) => l.clear_cache(),
            Node::GlobalAvgPool(l) => l.clear_cache(),
            Node::Flatten(l) => l.clear_cache(),
            Node::Dropout(l) => l.clear_cache(ws),
            Node::Residual(l) => l.clear_cache(ws),
        }
    }
}

// Helper trait-like impls for the leaf layer types used inside residual
// blocks, keeping visitation logic in one place per type.
impl Conv2d {
    pub(crate) fn visit_into<'a>(&'a self, prefix: &str, f: &mut impl FnMut(String, &'a Param)) {
        f(format!("{prefix}.w"), &self.weight);
        f(format!("{prefix}.b"), &self.bias);
    }

    pub(crate) fn visit_into_mut(&mut self, prefix: &str, f: &mut impl FnMut(String, &mut Param)) {
        f(format!("{prefix}.w"), &mut self.weight);
        f(format!("{prefix}.b"), &mut self.bias);
    }
}

impl BatchNorm2d {
    pub(crate) fn visit_into<'a>(&'a self, prefix: &str, f: &mut impl FnMut(String, &'a Param)) {
        f(format!("{prefix}.gamma"), &self.gamma);
        f(format!("{prefix}.beta"), &self.beta);
    }

    pub(crate) fn visit_into_mut(&mut self, prefix: &str, f: &mut impl FnMut(String, &mut Param)) {
        f(format!("{prefix}.gamma"), &mut self.gamma);
        f(format!("{prefix}.beta"), &mut self.beta);
    }
}
