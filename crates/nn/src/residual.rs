//! Residual basic block (CIFAR-style ResNet).

use crate::{BatchNorm2d, Conv2d, Relu};
use serde::{Deserialize, Serialize};
use spatl_tensor::{Tensor, TensorRng, Workspace};

/// A ResNet "basic block": two 3×3 convolutions with batch-norm, a ReLU in
/// between, an (optionally projected) shortcut connection, and a final ReLU.
///
/// When `stride > 1` or the channel count changes, the shortcut is a 1×1
/// strided convolution + batch-norm (projection shortcut, option B of the
/// ResNet paper); otherwise it is the identity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BasicBlock {
    /// First 3×3 convolution (may be strided).
    pub conv1: Conv2d,
    /// Batch norm after `conv1`.
    pub bn1: BatchNorm2d,
    relu1: Relu,
    /// Second 3×3 convolution (stride 1).
    pub conv2: Conv2d,
    /// Batch norm after `conv2`.
    pub bn2: BatchNorm2d,
    /// Projection shortcut convolution, if the block changes shape.
    pub down_conv: Option<Conv2d>,
    /// Batch norm of the projection shortcut.
    pub down_bn: Option<BatchNorm2d>,
    relu_out: Relu,
}

impl BasicBlock {
    /// Create a basic block mapping `in_c` channels to `out_c` channels with
    /// the given stride on the first convolution.
    pub fn new(in_c: usize, out_c: usize, stride: usize, rng: &mut TensorRng) -> Self {
        let needs_projection = stride != 1 || in_c != out_c;
        BasicBlock {
            conv1: Conv2d::new(in_c, out_c, 3, stride, 1, rng),
            bn1: BatchNorm2d::new(out_c),
            relu1: Relu::new(),
            conv2: Conv2d::new(out_c, out_c, 3, 1, 1, rng),
            bn2: BatchNorm2d::new(out_c),
            down_conv: needs_projection.then(|| Conv2d::new(in_c, out_c, 1, stride, 0, rng)),
            down_bn: needs_projection.then(|| BatchNorm2d::new(out_c)),
            relu_out: Relu::new(),
        }
    }

    /// Forward pass drawing all temporaries from `ws`: intermediate
    /// activations are recycled as soon as the next layer has consumed them,
    /// and the identity shortcut adds `input` directly instead of cloning it.
    pub fn forward_ws(&mut self, input: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let m1 = self.conv1.forward_ws(input, train, ws);
        let m2 = self.bn1.forward_ws(&m1, train, ws);
        ws.recycle(m1);
        let m3 = self.relu1.forward_ws(&m2, train, ws);
        ws.recycle(m2);
        let m4 = self.conv2.forward_ws(&m3, train, ws);
        ws.recycle(m3);
        let mut m = self.bn2.forward_ws(&m4, train, ws);
        ws.recycle(m4);
        match (&mut self.down_conv, &mut self.down_bn) {
            (Some(dc), Some(db)) => {
                let t = dc.forward_ws(input, train, ws);
                let s = db.forward_ws(&t, train, ws);
                ws.recycle(t);
                m.add_assign(&s).expect("residual add shape");
                ws.recycle(s);
            }
            _ => m.add_assign(input).expect("residual add shape"),
        }
        let out = self.relu_out.forward_ws(&m, train, ws);
        ws.recycle(m);
        out
    }

    /// Backward pass drawing all temporaries from `ws`.
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let g = self.relu_out.backward_ws(grad_out, ws);
        // Main path.
        let gm1 = self.bn2.backward_ws(&g, ws);
        let gm2 = self.conv2.backward_ws(&gm1, ws);
        ws.recycle(gm1);
        let gm3 = self.relu1.backward_ws(&gm2, ws);
        ws.recycle(gm2);
        let gm4 = self.bn1.backward_ws(&gm3, ws);
        ws.recycle(gm3);
        let mut gx = self.conv1.backward_ws(&gm4, ws);
        ws.recycle(gm4);
        // Shortcut path.
        match (&mut self.down_conv, &mut self.down_bn) {
            (Some(dc), Some(db)) => {
                let t = db.backward_ws(&g, ws);
                ws.recycle(g);
                let gs = dc.backward_ws(&t, ws);
                ws.recycle(t);
                gx.add_assign(&gs).expect("residual grad shape");
                ws.recycle(gs);
            }
            _ => {
                gx.add_assign(&g).expect("residual grad shape");
                ws.recycle(g);
            }
        }
        gx
    }

    /// Return every sub-layer's cached activations to `ws`.
    pub fn clear_cache(&mut self, ws: &mut Workspace) {
        self.conv1.clear_cache(ws);
        self.bn1.clear_cache(ws);
        self.relu1.clear_cache(ws);
        self.conv2.clear_cache(ws);
        self.bn2.clear_cache(ws);
        if let Some(dc) = &mut self.down_conv {
            dc.clear_cache(ws);
        }
        if let Some(db) = &mut self.down_bn {
            db.clear_cache(ws);
        }
        self.relu_out.clear_cache(ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_block_preserves_shape() {
        let mut rng = TensorRng::seed_from(1);
        let mut blk = BasicBlock::new(4, 4, 1, &mut rng);
        assert!(blk.down_conv.is_none());
        let x = rng.normal_tensor([2, 4, 8, 8], 0.0, 1.0);
        let mut ws = Workspace::new();
        let y = blk.forward_ws(&x, true, &mut ws);
        assert_eq!(y.dims(), x.dims());
        let g = blk.backward_ws(&Tensor::ones(y.dims().to_vec()), &mut ws);
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn strided_block_halves_spatial_dims() {
        let mut rng = TensorRng::seed_from(2);
        let mut blk = BasicBlock::new(4, 8, 2, &mut rng);
        assert!(blk.down_conv.is_some());
        let x = rng.normal_tensor([1, 4, 8, 8], 0.0, 1.0);
        let mut ws = Workspace::new();
        let y = blk.forward_ws(&x, true, &mut ws);
        assert_eq!(y.dims(), &[1, 8, 4, 4]);
        let g = blk.backward_ws(&Tensor::ones(y.dims().to_vec()), &mut ws);
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn gradient_flows_through_both_paths() {
        // With an identity shortcut and weighted loss, the input gradient
        // should differ from the pure shortcut gradient (main path active)
        // and be non-zero (shortcut active).
        let mut rng = TensorRng::seed_from(3);
        let mut blk = BasicBlock::new(2, 2, 1, &mut rng);
        let x = rng.normal_tensor([1, 2, 4, 4], 0.0, 1.0);
        let mut ws = Workspace::new();
        let y = blk.forward_ws(&x, true, &mut ws);
        let gy = rng.normal_tensor(y.dims().to_vec(), 0.0, 1.0);
        let gx = blk.backward_ws(&gy, &mut ws);
        assert!(gx.norm() > 0.0);
    }
}
