//! Encoder/predictor split models.

use crate::{cnn, config::ModelKind, resnet, vgg, ModelConfig};
use serde::{Deserialize, Serialize};
use spatl_nn::{accuracy, Conv2d, Network, Node};
use spatl_tensor::Tensor;

/// Reference to a prunable convolution inside the encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerRef {
    /// `encoder.nodes[i]` is a plain [`Node::Conv`].
    Seq(usize),
    /// `encoder.nodes[i]` is a residual block; the reference targets its
    /// internal `conv1` (the standard channel-pruning point of a basic
    /// block — pruning it never changes the block's output shape).
    ResConv1(usize),
}

/// A point where the salient-parameter-selection agent may apply a
/// structured channel mask.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrunePoint {
    /// Human-readable layer name.
    pub name: String,
    /// Location inside the encoder.
    pub layer: LayerRef,
    /// Output channel count of the targeted convolution.
    pub out_channels: usize,
}

/// A model split into a shared encoder and a private predictor head.
///
/// Federated learning (`spatl-fl`) aggregates **only the encoder**; each
/// client keeps its own predictor, which is how SPATL transfers the shared
/// representation to heterogeneous local data (§IV-A).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SplitModel {
    /// Shared feature extractor.
    pub encoder: Network,
    /// Private output head.
    pub predictor: Network,
    /// Build configuration.
    pub config: ModelConfig,
    /// Channel-mask points exposed to the selection agent.
    pub prune_points: Vec<PrunePoint>,
}

pub(crate) fn build_model(config: &ModelConfig) -> SplitModel {
    let (encoder, predictor, prune_points) = match config.kind {
        ModelKind::ResNet20 => resnet::build_cifar_resnet(config, 3),
        ModelKind::ResNet32 => resnet::build_cifar_resnet(config, 5),
        ModelKind::ResNet56 => resnet::build_cifar_resnet(config, 9),
        ModelKind::ResNet18 => resnet::build_resnet18(config),
        ModelKind::Vgg11 => vgg::build_vgg11(config),
        ModelKind::Cnn2 => cnn::build_cnn2(config),
    };
    SplitModel {
        encoder,
        predictor,
        config: *config,
        prune_points,
    }
}

impl SplitModel {
    /// Full forward pass: encoder then predictor.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let emb = self.encoder.forward(input, train);
        let out = self.predictor.forward(&emb, train);
        self.encoder.recycle(emb);
        out
    }

    /// Full backward pass; returns the gradient w.r.t. the input, which
    /// is encoder-sized (recyclable via the encoder's [`Network::recycle`]).
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.predictor.backward(grad_out);
        let gx = self.encoder.backward(&g);
        self.predictor.recycle(g);
        gx
    }

    /// [`SplitModel::backward`] for a training step, which reads no input
    /// gradient: the encoder's first layer computes its parameter
    /// gradients only ([`Network::backward_params`]).
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        let g = self.predictor.backward(grad_out);
        self.encoder.backward_params(&g);
        self.predictor.recycle(g);
    }

    /// Return the logits of [`SplitModel::forward`], or the loss gradient
    /// made from them, to the thread's arena once consumed, where the
    /// next step checks them out again.
    pub fn recycle(&mut self, t: Tensor) {
        self.predictor.recycle(t);
    }

    /// Zero gradients in both parts.
    pub fn zero_grad(&mut self) {
        self.encoder.zero_grad();
        self.predictor.zero_grad();
    }

    /// Total trainable parameters (encoder + predictor).
    pub fn num_params(&self) -> usize {
        self.encoder.num_params() + self.predictor.num_params()
    }

    /// Top-1 accuracy on a batch, in evaluation mode.
    pub fn evaluate(&mut self, input: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.forward(input, false);
        let acc = accuracy(&logits, labels);
        self.recycle(logits);
        acc
    }

    /// Borrow the convolution a [`LayerRef`] points at.
    pub fn conv_at(&self, layer: LayerRef) -> &Conv2d {
        match layer {
            LayerRef::Seq(i) => match &self.encoder.nodes[i] {
                Node::Conv(c) => c,
                other => panic!("LayerRef::Seq({i}) is not a Conv: {other:?}"),
            },
            LayerRef::ResConv1(i) => match &self.encoder.nodes[i] {
                Node::Residual(b) => &b.conv1,
                other => panic!("LayerRef::ResConv1({i}) is not a Residual: {other:?}"),
            },
        }
    }

    /// Mutably borrow the convolution a [`LayerRef`] points at.
    pub fn conv_at_mut(&mut self, layer: LayerRef) -> &mut Conv2d {
        match layer {
            LayerRef::Seq(i) => match &mut self.encoder.nodes[i] {
                Node::Conv(c) => c,
                other => panic!("LayerRef::Seq({i}) is not a Conv: {other:?}"),
            },
            LayerRef::ResConv1(i) => match &mut self.encoder.nodes[i] {
                Node::Residual(b) => &mut b.conv1,
                other => panic!("LayerRef::ResConv1({i}) is not a Residual: {other:?}"),
            },
        }
    }

    /// Apply a channel mask at prune point `idx`.
    ///
    /// The mask is also installed on the convolution's downstream
    /// batch-norm (when present) so a pruned channel is exactly zero after
    /// normalisation — the behaviour of physically removing the channel.
    pub fn set_mask(&mut self, idx: usize, mask: Vec<f32>) {
        let layer = self.prune_points[idx].layer;
        self.conv_at_mut(layer).set_mask(mask.clone());
        if let Some(bn) = self.bn_after_mut(layer) {
            bn.set_mask(mask);
        }
    }

    /// Remove all masks (keep every channel).
    pub fn clear_masks(&mut self) {
        for i in 0..self.prune_points.len() {
            let layer = self.prune_points[i].layer;
            self.conv_at_mut(layer).clear_mask();
            if let Some(bn) = self.bn_after_mut(layer) {
                bn.clear_mask();
            }
        }
    }

    /// The batch-norm immediately consuming a prunable convolution's
    /// output, if any (VGG/ResNet convs have one; the plain CNN does not).
    fn bn_after_mut(&mut self, layer: LayerRef) -> Option<&mut spatl_nn::BatchNorm2d> {
        match layer {
            LayerRef::Seq(i) => match self.encoder.nodes.get_mut(i + 1) {
                Some(Node::BatchNorm(bn)) => Some(bn),
                _ => None,
            },
            LayerRef::ResConv1(i) => match &mut self.encoder.nodes[i] {
                Node::Residual(b) => Some(&mut b.bn1),
                _ => None,
            },
        }
    }

    /// Current per-prune-point keep ratios (`active / total`).
    pub fn keep_ratios(&self) -> Vec<f32> {
        self.prune_points
            .iter()
            .map(|p| {
                let c = self.conv_at(p.layer);
                c.active_channels() as f32 / c.out_channels as f32
            })
            .collect()
    }

    /// Return both parts' cached activations to the thread's arena.
    pub fn clear_caches(&mut self) {
        self.encoder.clear_caches();
        self.predictor.clear_caches();
    }

    /// Dense FLOPs of one forward pass at the configured input size: every
    /// prune point unmasked ([`SplitModel::clear_masks`]).
    pub fn flops_dense(&self) -> u64 {
        let full: Vec<usize> = self.prune_points.iter().map(|p| p.out_channels).collect();
        self.flops_with_kept(&full)
    }

    /// FLOPs of one forward pass with `kept[i]` output channels active at
    /// prune point `i` (one count per prune point): what
    /// [`SplitModel::flops`] reports once masks keeping that many channels
    /// are set, computed from the counts without masking anything.
    pub fn flops_with_kept(&self, kept: &[usize]) -> u64 {
        crate::flops::flops_with_kept(self, kept)
    }

    /// Mask-aware FLOPs of one forward pass.
    pub fn flops(&self) -> u64 {
        crate::flops::profile(self).iter().map(|l| l.flops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatl_tensor::TensorRng;

    fn check_model(cfg: ModelConfig, batch: usize) {
        let mut model = cfg.build();
        let mut rng = TensorRng::seed_from(1);
        let x = rng.normal_tensor(
            [batch, cfg.in_channels, cfg.input_hw, cfg.input_hw],
            0.0,
            1.0,
        );
        let y = model.forward(&x, true);
        assert_eq!(y.dims(), &[batch, cfg.num_classes], "{:?}", cfg.kind);
        let gx = model.backward(&Tensor::ones(y.dims().to_vec()));
        assert_eq!(gx.dims(), x.dims());
        assert!(!model.encoder.has_non_finite());
        assert!(!model.predictor.has_non_finite());
        assert!(
            !model.prune_points.is_empty(),
            "{:?} has no prune points",
            cfg.kind
        );
        // Every prune point resolves to a conv with the declared channels.
        for p in &model.prune_points {
            assert_eq!(model.conv_at(p.layer).out_channels, p.out_channels);
        }
    }

    #[test]
    fn resnet20_builds_and_runs() {
        check_model(ModelConfig::cifar(ModelKind::ResNet20), 2);
    }

    #[test]
    fn resnet32_builds_and_runs() {
        check_model(ModelConfig::cifar(ModelKind::ResNet32), 1);
    }

    #[test]
    fn resnet18_builds_and_runs() {
        check_model(ModelConfig::cifar(ModelKind::ResNet18), 1);
    }

    #[test]
    fn vgg11_builds_and_runs() {
        check_model(ModelConfig::cifar(ModelKind::Vgg11), 1);
    }

    #[test]
    fn cnn2_builds_and_runs() {
        check_model(ModelConfig::femnist(), 2);
    }

    #[test]
    fn resnet_depth_ordering() {
        // Parameter counts must increase with depth at fixed width.
        let p20 = ModelConfig::cifar(ModelKind::ResNet20).build().num_params();
        let p32 = ModelConfig::cifar(ModelKind::ResNet32).build().num_params();
        let p56 = ModelConfig::cifar(ModelKind::ResNet56).build().num_params();
        assert!(p20 < p32 && p32 < p56, "{p20} {p32} {p56}");
    }

    #[test]
    fn vgg_is_much_bigger_than_resnet20() {
        // The paper's Table I has VGG-11 at 42MB vs ResNet-20 at 2.1MB
        // (20×); our scaled versions must preserve the ordering.
        let vgg = ModelConfig::cifar(ModelKind::Vgg11).build().num_params();
        let r20 = ModelConfig::cifar(ModelKind::ResNet20).build().num_params();
        assert!(vgg > 5 * r20, "vgg={vgg} r20={r20}");
    }

    #[test]
    fn masks_reduce_flops() {
        let mut m = ModelConfig::cifar(ModelKind::ResNet20).build();
        let dense = m.flops();
        let ch = m.prune_points[0].out_channels;
        let mut mask = vec![1.0; ch];
        for v in mask.iter_mut().take(ch / 2) {
            *v = 0.0;
        }
        m.set_mask(0, mask);
        let pruned = m.flops();
        assert!(pruned < dense, "pruned={pruned} dense={dense}");
        m.clear_masks();
        assert_eq!(m.flops(), dense);
    }

    #[test]
    fn same_seed_same_weights() {
        let a = ModelConfig::cifar(ModelKind::ResNet20).with_seed(5).build();
        let b = ModelConfig::cifar(ModelKind::ResNet20).with_seed(5).build();
        assert_eq!(a.encoder.to_flat(), b.encoder.to_flat());
        let c = ModelConfig::cifar(ModelKind::ResNet20).with_seed(6).build();
        assert_ne!(c.encoder.to_flat(), a.encoder.to_flat());
    }

    #[test]
    fn keep_ratios_track_masks() {
        let mut m = ModelConfig::cifar(ModelKind::ResNet20).build();
        assert!(m.keep_ratios().iter().all(|&r| (r - 1.0).abs() < 1e-6));
        let ch = m.prune_points[1].out_channels;
        let mut mask = vec![0.0; ch];
        mask[0] = 1.0;
        m.set_mask(1, mask);
        let ratios = m.keep_ratios();
        assert!((ratios[1] - 1.0 / ch as f32).abs() < 1e-6);
    }
}

#[cfg(test)]
mod bn_mask_tests {
    use super::*;
    use spatl_tensor::{TensorRng, Workspace};

    #[test]
    fn masked_channels_are_dead_after_batchnorm_in_eval() {
        // Regression: without masking the downstream BN, a pruned conv
        // channel re-emerges as a non-zero constant (−γμ/σ + β) and wrecks
        // deployed accuracy.
        let mut rng = TensorRng::seed_from(1);
        let mut m = ModelConfig::cifar(ModelKind::ResNet20).build();
        // Shift BN stats away from zero so the bug would show.
        let x = rng.normal_tensor([4, 3, 16, 16], 1.0, 1.0);
        m.forward(&x, true);

        let idx = 0;
        let ch = m.prune_points[idx].out_channels;
        let mut mask = vec![1.0; ch];
        mask[0] = 0.0;
        mask[1] = 0.0;
        m.set_mask(idx, mask);

        // Probe the block's bn1 output by running the sub-path manually.
        let node_i = match m.prune_points[idx].layer {
            LayerRef::ResConv1(i) => i,
            _ => panic!("resnet prune point must be ResConv1"),
        };
        let probe = rng.normal_tensor([2, 3, 16, 16], 1.0, 1.0);
        // Run stem (nodes before the block) in eval mode.
        let mut ws = Workspace::new();
        let mut cur = probe;
        for n in m.encoder.nodes[..node_i].iter_mut() {
            cur = n.forward_ws(&cur, false, &mut ws);
        }
        if let Node::Residual(b) = &mut m.encoder.nodes[node_i] {
            let t = b.conv1.forward_ws(&cur, false, &mut ws);
            let t = b.bn1.forward_ws(&t, false, &mut ws);
            let spatial = t.dims()[2] * t.dims()[3];
            for img in 0..t.dims()[0] {
                for dead in 0..2 {
                    let base = (img * t.dims()[1] + dead) * spatial;
                    assert!(
                        t.data()[base..base + spatial].iter().all(|&v| v == 0.0),
                        "masked channel {dead} leaks through batch-norm"
                    );
                }
            }
        } else {
            panic!("expected residual block");
        }
    }

    #[test]
    fn clear_masks_revives_bn_channels() {
        let mut m = ModelConfig::cifar(ModelKind::ResNet20).build();
        let ch = m.prune_points[0].out_channels;
        m.set_mask(
            0,
            vec![0.0; ch]
                .into_iter()
                .enumerate()
                .map(|(i, _)| if i == 0 { 1.0 } else { 0.0 })
                .collect(),
        );
        m.clear_masks();
        let mut rng = TensorRng::seed_from(2);
        let x = rng.normal_tensor([1, 3, 16, 16], 0.0, 1.0);
        let y = m.forward(&x, false);
        assert!(!y.has_non_finite());
        assert_eq!(m.flops(), m.flops_dense());
    }
}
