//! Sequential network container with flat-parameter export/import.

use crate::{with_arena, Node, Param};
use serde::{Deserialize, Serialize};
use spatl_tensor::{Tensor, Workspace};

/// Description of one parameter tensor inside a network's flat layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamSpec {
    /// Dotted name path, e.g. `"node3.conv1.w"`.
    pub name: String,
    /// Tensor dimensions.
    pub dims: Vec<usize>,
    /// Offset into the flat vector.
    pub offset: usize,
    /// Element count.
    pub numel: usize,
}

/// An ordered sequence of layers.
///
/// `Network` is the unit that federated learning exchanges: it can export
/// its trainable parameters as a single flat `Vec<f32>` (layout described by
/// [`Network::param_specs`]) and re-import them, which is what every
/// aggregation rule, control variate and salient-parameter index operates
/// on. It owns no scratch: every call draws its temporaries from the
/// thread's arena ([`with_arena`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    /// Layers in execution order.
    pub nodes: Vec<Node>,
}

/// Backward through `nodes` in reverse: the gradient with respect to the
/// first one's input, or `None` when there are no nodes.
fn backward_through(nodes: &mut [Node], grad_out: &Tensor, ws: &mut Workspace) -> Option<Tensor> {
    let mut g: Option<Tensor> = None;
    for node in nodes.iter_mut().rev() {
        let y = node.backward_ws(g.as_ref().unwrap_or(grad_out), ws);
        if let Some(prev) = g.replace(y) {
            ws.recycle(prev);
        }
    }
    g
}

/// An arena-made copy of `t` — what an empty network passes through, so
/// the caller can recycle it like any other output.
fn arena_copy(t: &Tensor, ws: &mut Workspace) -> Tensor {
    let mut out = ws.take_tensor(t.dims().to_vec());
    out.data_mut().copy_from_slice(t.data());
    out
}

impl Network {
    /// Create a network from layers.
    pub fn new(nodes: Vec<Node>) -> Self {
        Network { nodes }
    }

    /// Empty network (identity function).
    pub fn empty() -> Self {
        Network::new(Vec::new())
    }

    /// Forward pass through all layers.
    ///
    /// All intermediate activations come from (and return to) the thread's
    /// arena, so after a warm-up step the forward pass performs no heap
    /// allocation. The returned output tensor is the caller's; hand it back
    /// via [`Network::recycle`] once consumed to keep the loop allocation
    /// free. A training forward leaves caches in the layers until the next
    /// forward or [`Network::clear_caches`].
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        with_arena(|ws| {
            let mut x: Option<Tensor> = None;
            for node in self.nodes.iter_mut() {
                let y = node.forward_ws(x.as_ref().unwrap_or(input), train, ws);
                if let Some(prev) = x.replace(y) {
                    ws.recycle(prev);
                }
            }
            x.unwrap_or_else(|| arena_copy(input, ws))
        })
    }

    /// Backward pass through all layers in reverse, accumulating parameter
    /// gradients; returns the gradient with respect to the network input
    /// (recyclable via [`Network::recycle`]).
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        with_arena(|ws| {
            backward_through(&mut self.nodes, grad_out, ws)
                .unwrap_or_else(|| arena_copy(grad_out, ws))
        })
    }

    /// [`Network::backward`] for a caller that does not read the input
    /// gradient (a training step): the first layer accumulates its
    /// parameter gradients only ([`Node::backward_params_ws`]). Every
    /// parameter gradient is the same bits as under `backward`.
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.nodes.split_first_mut() else {
            return;
        };
        with_arena(|ws| {
            let g = backward_through(rest, grad_out, ws);
            first.backward_params_ws(g.as_ref().unwrap_or(grad_out), ws);
            if let Some(g) = g {
                ws.recycle(g);
            }
        });
    }

    /// Return a tensor produced by [`Network::forward`] /
    /// [`Network::backward`] (or a loss gradient) to the thread's arena
    /// once it has been consumed.
    pub fn recycle(&mut self, t: Tensor) {
        with_arena(|ws| ws.recycle(t));
    }

    /// Visit all trainable parameters in stable (layer, declaration) order.
    pub fn visit_params<'a>(&'a self, f: &mut impl FnMut(String, &'a Param)) {
        for (i, node) in self.nodes.iter().enumerate() {
            node.visit_params(&format!("node{i}"), f);
        }
    }

    /// Visit all trainable parameters mutably.
    pub fn visit_params_mut(&mut self, f: &mut impl FnMut(String, &mut Param)) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.visit_params_mut(&format!("node{i}"), f);
        }
    }

    /// Collect mutable references to all parameters, in the same stable
    /// order as [`Network::visit_params`].
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        fn push_block<'a>(b: &'a mut crate::BasicBlock, out: &mut Vec<&'a mut Param>) {
            out.push(&mut b.conv1.weight);
            out.push(&mut b.conv1.bias);
            out.push(&mut b.bn1.gamma);
            out.push(&mut b.bn1.beta);
            out.push(&mut b.conv2.weight);
            out.push(&mut b.conv2.bias);
            out.push(&mut b.bn2.gamma);
            out.push(&mut b.bn2.beta);
            if let Some(dc) = &mut b.down_conv {
                out.push(&mut dc.weight);
                out.push(&mut dc.bias);
            }
            if let Some(db) = &mut b.down_bn {
                out.push(&mut db.gamma);
                out.push(&mut db.beta);
            }
        }
        for node in self.nodes.iter_mut() {
            match node {
                Node::Conv(l) => {
                    out.push(&mut l.weight);
                    out.push(&mut l.bias);
                }
                Node::BatchNorm(l) => {
                    out.push(&mut l.gamma);
                    out.push(&mut l.beta);
                }
                Node::Linear(l) => {
                    out.push(&mut l.weight);
                    out.push(&mut l.bias);
                }
                Node::Residual(l) => push_block(l, &mut out),
                _ => {}
            }
        }
        out
    }

    /// Zero all parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of trainable scalar parameters.
    pub fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |_, p| n += p.numel());
        n
    }

    /// Layout of the flat parameter vector.
    pub fn param_specs(&self) -> Vec<ParamSpec> {
        let mut specs = Vec::new();
        let mut offset = 0usize;
        self.visit_params(&mut |name, p| {
            specs.push(ParamSpec {
                name,
                dims: p.value.dims().to_vec(),
                offset,
                numel: p.numel(),
            });
            offset += p.numel();
        });
        specs
    }

    /// Export trainable parameters as one flat vector.
    pub fn to_flat(&self) -> Vec<f32> {
        let mut flat = Vec::with_capacity(self.num_params());
        self.visit_params(&mut |_, p| flat.extend_from_slice(p.value.data()));
        flat
    }

    /// Import trainable parameters from a flat vector produced by
    /// [`Network::to_flat`] on an identically-shaped network.
    ///
    /// Panics if the length does not match the network's parameter count —
    /// an upload with mismatched dimensions must never be silently applied.
    pub fn from_flat(&mut self, flat: &[f32]) {
        let expected = self.num_params();
        assert_eq!(
            flat.len(),
            expected,
            "flat parameter length {} does not match network parameter count {}",
            flat.len(),
            expected
        );
        let mut offset = 0usize;
        for p in self.params_mut() {
            let n = p.numel();
            p.value
                .data_mut()
                .copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        }
    }

    /// Export accumulated gradients as one flat vector (same layout as
    /// [`Network::to_flat`]).
    pub fn grads_flat(&self) -> Vec<f32> {
        let mut flat = Vec::with_capacity(self.num_params());
        self.visit_params(&mut |_, p| flat.extend_from_slice(p.grad.data()));
        flat
    }

    /// Add `delta` to every gradient entry (flat layout). Used by the
    /// gradient-control correction `−cᵢ + c` of SCAFFOLD/SPATL.
    pub fn add_to_grads(&mut self, delta: &[f32]) {
        let expected = self.num_params();
        assert_eq!(delta.len(), expected, "gradient delta length mismatch");
        let mut offset = 0usize;
        for p in self.params_mut() {
            let n = p.numel();
            for (g, d) in p.grad.data_mut().iter_mut().zip(&delta[offset..offset + n]) {
                *g += d;
            }
            offset += n;
        }
    }

    /// Export non-trainable buffers (batch-norm running statistics) as a
    /// flat vector, so federated encoders carry consistent statistics.
    pub fn buffers_flat(&mut self) -> Vec<f32> {
        let mut flat = Vec::new();
        for node in self.nodes.iter_mut() {
            node.visit_buffers_mut(&mut |t| flat.extend_from_slice(t.data()));
        }
        flat
    }

    /// Import buffers exported by [`Network::buffers_flat`].
    pub fn set_buffers_flat(&mut self, flat: &[f32]) {
        let mut offset = 0usize;
        for node in self.nodes.iter_mut() {
            node.visit_buffers_mut(&mut |t| {
                let n = t.numel();
                t.data_mut().copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            });
        }
        assert_eq!(offset, flat.len(), "buffer flat length mismatch");
    }

    /// Visit every batch-norm layer mutably (including those inside
    /// residual blocks) — used for AdaBN-style recalibration.
    pub fn for_each_batchnorm_mut(&mut self, f: &mut impl FnMut(&mut crate::BatchNorm2d)) {
        for node in self.nodes.iter_mut() {
            match node {
                Node::BatchNorm(bn) => f(bn),
                Node::Residual(b) => {
                    f(&mut b.bn1);
                    f(&mut b.bn2);
                    if let Some(db) = &mut b.down_bn {
                        f(db);
                    }
                }
                _ => {}
            }
        }
    }

    /// Return every layer's cached activations to the thread's arena: a
    /// model between training calls holds parameters, gradients and
    /// batch-norm statistics, and nothing sized by batch × activations.
    pub fn clear_caches(&mut self) {
        with_arena(|ws| {
            for node in &mut self.nodes {
                node.clear_cache(ws);
            }
        });
    }

    /// True if any parameter or gradient contains NaN/Inf — used by the FL
    /// server to reject diverged client updates.
    pub fn has_non_finite(&self) -> bool {
        let mut bad = false;
        self.visit_params(&mut |_, p| {
            if p.value.has_non_finite() || p.grad.has_non_finite() {
                bad = true;
            }
        });
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Flatten, GlobalAvgPool, Linear, Relu};
    use spatl_tensor::TensorRng;

    fn tiny_net(rng: &mut TensorRng) -> Network {
        Network::new(vec![
            Node::Conv(Conv2d::new(1, 4, 3, 1, 1, rng)),
            Node::Relu(Relu::new()),
            Node::GlobalAvgPool(GlobalAvgPool::new()),
            Node::Linear(Linear::new(4, 3, rng)),
        ])
    }

    #[test]
    fn forward_backward_shapes() {
        let mut rng = TensorRng::seed_from(1);
        let mut net = tiny_net(&mut rng);
        let x = rng.normal_tensor([2, 1, 6, 6], 0.0, 1.0);
        let y = net.forward(&x, true);
        assert_eq!(y.dims(), &[2, 3]);
        let gx = net.backward(&Tensor::ones([2, 3]));
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn flat_round_trip_preserves_params() {
        let mut rng = TensorRng::seed_from(2);
        let net = tiny_net(&mut rng);
        let flat = net.to_flat();
        assert_eq!(flat.len(), net.num_params());
        let mut net2 = tiny_net(&mut rng); // different weights
        assert_ne!(net2.to_flat(), flat);
        net2.from_flat(&flat);
        assert_eq!(net2.to_flat(), flat);
    }

    #[test]
    fn param_specs_cover_flat_layout_exactly() {
        let mut rng = TensorRng::seed_from(3);
        let net = tiny_net(&mut rng);
        let specs = net.param_specs();
        let mut expected_offset = 0;
        for s in &specs {
            assert_eq!(s.offset, expected_offset);
            assert_eq!(s.numel, s.dims.iter().product::<usize>());
            expected_offset += s.numel;
        }
        assert_eq!(expected_offset, net.num_params());
        // Names are unique.
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len());
    }

    #[test]
    #[should_panic(expected = "does not match network parameter count")]
    fn from_flat_rejects_wrong_length() {
        let mut rng = TensorRng::seed_from(4);
        let mut net = tiny_net(&mut rng);
        let flat = vec![0.0; net.num_params() + 1];
        net.from_flat(&flat);
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut rng = TensorRng::seed_from(5);
        let mut net = tiny_net(&mut rng);
        let x = rng.normal_tensor([1, 1, 6, 6], 0.0, 1.0);
        let y = net.forward(&x, true);
        net.backward(&Tensor::ones(y.dims().to_vec()));
        assert!(net.grads_flat().iter().any(|&g| g != 0.0));
        net.zero_grad();
        assert!(net.grads_flat().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn add_to_grads_applies_flat_delta() {
        let mut rng = TensorRng::seed_from(6);
        let mut net = tiny_net(&mut rng);
        let n = net.num_params();
        net.add_to_grads(&vec![0.5; n]);
        assert!(net.grads_flat().iter().all(|&g| (g - 0.5).abs() < 1e-7));
    }

    #[test]
    fn visit_orders_match_params_mut_order() {
        // to_flat (visitor) and from_flat (params_mut) must use the same
        // ordering or federated aggregation would silently permute tensors.
        let mut rng = TensorRng::seed_from(7);
        let mut net = Network::new(vec![
            Node::Conv(Conv2d::new(1, 2, 3, 1, 1, &mut rng)),
            Node::Residual(Box::new(crate::BasicBlock::new(2, 4, 2, &mut rng))),
            Node::Flatten(Flatten::new()),
        ]);
        let flat = net.to_flat();
        net.from_flat(&flat);
        assert_eq!(net.to_flat(), flat);

        // Mutating through params_mut shows up at the right spec offset.
        let specs = net.param_specs();
        {
            let mut ps = net.params_mut();
            ps[3].value.data_mut()[0] = 1234.5;
        }
        let flat2 = net.to_flat();
        assert_eq!(flat2[specs[3].offset], 1234.5);
    }

    #[test]
    fn buffers_round_trip() {
        let mut rng = TensorRng::seed_from(8);
        let mut net = Network::new(vec![Node::Residual(Box::new(crate::BasicBlock::new(
            1, 2, 2, &mut rng,
        )))]);
        let x = rng.normal_tensor([2, 1, 4, 4], 0.0, 1.0);
        net.forward(&x, true); // update running stats
        let bufs = net.buffers_flat();
        assert!(!bufs.is_empty());
        let mut net2 = Network::new(vec![Node::Residual(Box::new(crate::BasicBlock::new(
            1, 2, 2, &mut rng,
        )))]);
        net2.set_buffers_flat(&bufs);
        assert_eq!(net2.buffers_flat(), bufs);
    }
}
