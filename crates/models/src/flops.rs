//! Mask-aware FLOPs and parameter accounting.
//!
//! The paper evaluates inference acceleration in FLOPs ("for a fair
//! evaluation ... we calculated the FLOPs", §V-D). This module walks a
//! [`SplitModel`] symbolically, tracking spatial extents and the number of
//! channels that remain *active* under the current channel masks, and
//! reports per-layer FLOPs as if masked channels were physically removed —
//! which is what structured pruning achieves at deployment time.

use crate::{LayerRef, SplitModel};
use serde::{Deserialize, Serialize};
use spatl_nn::{Conv2d, Node};

/// Per-layer cost summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerProfile {
    /// Layer name (position-derived).
    pub name: String,
    /// Multiply-accumulate-counted floating point operations (2·MACs for
    /// conv/linear; element counts for cheap ops).
    pub flops: u64,
    /// Total trainable parameters of the layer.
    pub params_total: u64,
    /// Parameters remaining if masked channels were physically removed.
    pub params_active: u64,
}

#[derive(Debug, Clone, Copy)]
enum Sig {
    /// NCHW activations: (total channels, active channels, height, width).
    Spatial(usize, usize, usize, usize),
    /// Flat feature vector of the given length.
    Vector(usize),
}

/// One layer's costs as the walk meets it: `part` of node `node`.
struct Row {
    node: usize,
    part: &'static str,
    flops: u64,
    params_total: u64,
    params_active: u64,
}

fn row(node: usize, part: &'static str, flops: usize, total: usize, active: usize) -> Row {
    Row {
        node,
        part,
        flops: flops as u64,
        params_total: total as u64,
        params_active: active as u64,
    }
}

/// The costs of `c` with `in_active` input and `active_out` output
/// channels on an `h`×`w` input, and the signature it leaves.
fn conv_row(
    c: &Conv2d,
    node: usize,
    part: &'static str,
    (in_active, active_out): (usize, usize),
    h: usize,
    w: usize,
) -> (Row, Sig) {
    let g = spatl_tensor::Conv2dGeometry {
        in_channels: c.in_channels,
        in_h: h,
        in_w: w,
        kernel: c.kernel,
        stride: c.stride,
        padding: c.padding,
    };
    let (oh, ow) = (g.out_h(), g.out_w());
    let k2 = c.kernel * c.kernel;
    let flops = 2 * k2 * in_active * active_out * oh * ow;
    let params_total = (c.in_channels * k2 + 1) * c.out_channels;
    let params_active = (in_active * k2 + 1) * active_out;
    (
        row(node, part, flops, params_total, params_active),
        Sig::Spatial(c.out_channels, active_out, oh, ow),
    )
}

/// Walk `nodes` from input signature `sig`, emitting one [`Row`] per
/// costed layer. `kept[i]`, where given, overrides the active output
/// channels of node `i`'s prunable conv (a plain conv, or a residual
/// block's `conv1`); every other conv counts its mask.
fn walk(nodes: &[Node], mut sig: Sig, kept: &[Option<usize>], emit: &mut impl FnMut(Row)) -> Sig {
    for (i, node) in nodes.iter().enumerate() {
        let kept = kept.get(i).copied().flatten();
        match node {
            Node::Conv(c) => {
                let (ca, h, w) = match sig {
                    Sig::Spatial(_, ca, h, w) => (ca, h, w),
                    Sig::Vector(_) => panic!("conv after flatten"),
                };
                let active = kept.unwrap_or_else(|| c.active_channels());
                let (r, next) = conv_row(c, i, "conv", (ca, active), h, w);
                emit(r);
                sig = next;
            }
            Node::BatchNorm(b) => {
                if let Sig::Spatial(ct, ca, h, w) = sig {
                    debug_assert_eq!(ct, b.channels);
                    emit(row(i, "bn", 2 * ca * h * w, 2 * b.channels, 2 * ca));
                }
            }
            Node::Relu(_) => {
                let n = match sig {
                    Sig::Spatial(_, ca, h, w) => ca * h * w,
                    Sig::Vector(n) => n,
                };
                emit(row(i, "relu", n, 0, 0));
            }
            Node::MaxPool(p) => {
                if let Sig::Spatial(ct, ca, h, w) = sig {
                    let oh = (h - p.kernel) / p.stride + 1;
                    let ow = (w - p.kernel) / p.stride + 1;
                    emit(row(i, "maxpool", ca * oh * ow * p.kernel * p.kernel, 0, 0));
                    sig = Sig::Spatial(ct, ca, oh, ow);
                }
            }
            Node::AvgPool(p) => {
                if let Sig::Spatial(ct, ca, h, w) = sig {
                    let oh = (h - p.kernel) / p.stride + 1;
                    let ow = (w - p.kernel) / p.stride + 1;
                    emit(row(i, "avgpool", ca * oh * ow * p.kernel * p.kernel, 0, 0));
                    sig = Sig::Spatial(ct, ca, oh, ow);
                }
            }
            Node::GlobalAvgPool(_) => {
                if let Sig::Spatial(ct, ca, h, w) = sig {
                    emit(row(i, "gap", ca * h * w, 0, 0));
                    sig = Sig::Vector(ct);
                }
            }
            Node::Flatten(_) => {
                if let Sig::Spatial(ct, _, h, w) = sig {
                    sig = Sig::Vector(ct * h * w);
                }
            }
            Node::Dropout(_) => {}
            Node::Linear(l) => {
                let n_in = match sig {
                    Sig::Vector(n) => n,
                    Sig::Spatial(..) => panic!("linear on spatial input"),
                };
                debug_assert_eq!(n_in, l.in_features);
                let params = (l.in_features + 1) * l.out_features;
                emit(row(
                    i,
                    "linear",
                    2 * l.in_features * l.out_features,
                    params,
                    params,
                ));
                sig = Sig::Vector(l.out_features);
            }
            Node::Residual(b) => {
                let (entry_active, h, w) = match sig {
                    Sig::Spatial(_, ca, h, w) => (ca, h, w),
                    Sig::Vector(_) => panic!("residual after flatten"),
                };
                // conv1 (prunable) -> bn1 -> relu -> conv2 (dense out).
                let active = kept.unwrap_or_else(|| b.conv1.active_channels());
                let (r1, s1) = conv_row(&b.conv1, i, "conv1", (entry_active, active), h, w);
                emit(r1);
                let (c1_active, oh, ow) = match s1 {
                    Sig::Spatial(_, ca, oh, ow) => (ca, oh, ow),
                    _ => unreachable!(),
                };
                let plane = oh * ow;
                emit(row(
                    i,
                    "bn1",
                    2 * c1_active * plane,
                    2 * b.bn1.channels,
                    2 * c1_active,
                ));
                emit(row(i, "relu1", c1_active * plane, 0, 0));
                let active = b.conv2.active_channels();
                let (r2, s2) = conv_row(&b.conv2, i, "conv2", (c1_active, active), oh, ow);
                emit(r2);
                let (out_total, out_active) = match s2 {
                    Sig::Spatial(ct, ca, ..) => (ct, ca),
                    _ => unreachable!(),
                };
                emit(row(
                    i,
                    "bn2",
                    2 * out_active * plane,
                    2 * b.bn2.channels,
                    2 * out_active,
                ));
                if let (Some(dc), Some(db)) = (&b.down_conv, &b.down_bn) {
                    let active = dc.active_channels();
                    let (rd, _) = conv_row(dc, i, "down_conv", (entry_active, active), h, w);
                    emit(rd);
                    emit(row(
                        i,
                        "down_bn",
                        2 * active * plane,
                        2 * db.channels,
                        2 * active,
                    ));
                }
                // Residual add + output ReLU.
                emit(row(i, "add_relu", 2 * out_total * plane, 0, 0));
                // The shortcut re-injects all channels, so the block output
                // is fully active regardless of internal masks.
                sig = Sig::Spatial(out_total, out_total, oh, ow);
            }
        }
    }
    sig
}

/// Walk encoder then predictor at the configured input size.
fn walk_model(model: &SplitModel, kept: &[Option<usize>], emit: &mut impl FnMut(&str, Row)) {
    let cfg = &model.config;
    let sig = Sig::Spatial(cfg.in_channels, cfg.in_channels, cfg.input_hw, cfg.input_hw);
    let sig = walk(&model.encoder.nodes, sig, kept, &mut |r| emit("enc", r));
    walk(&model.predictor.nodes, sig, &[], &mut |r| emit("pred", r));
}

/// Profile every layer of a split model at its configured input size.
pub fn profile(model: &SplitModel) -> Vec<LayerProfile> {
    let mut out = Vec::new();
    walk_model(model, &[], &mut |prefix, r| {
        out.push(LayerProfile {
            name: format!("{prefix}{}.{}", r.node, r.part),
            flops: r.flops,
            params_total: r.params_total,
            params_active: r.params_active,
        })
    });
    out
}

/// FLOPs of one forward pass with `kept[i]` output channels active at
/// prune point `i` and every other conv as masked: what
/// [`SplitModel::flops`] reports after masks with those counts are set,
/// read off the counts alone, without masking anything.
pub(crate) fn flops_with_kept(model: &SplitModel, kept: &[usize]) -> u64 {
    assert_eq!(
        kept.len(),
        model.prune_points.len(),
        "one count per prune point"
    );
    let mut at_node = vec![None; model.encoder.nodes.len()];
    for (p, &k) in model.prune_points.iter().zip(kept) {
        let (LayerRef::Seq(i) | LayerRef::ResConv1(i)) = p.layer;
        at_node[i] = Some(k);
    }
    let mut flops = 0;
    walk_model(model, &at_node, &mut |_, r| flops += r.flops);
    flops
}

#[cfg(test)]
mod tests {
    use crate::{ModelConfig, ModelKind};

    #[test]
    fn profile_params_match_network_count() {
        for kind in [ModelKind::ResNet20, ModelKind::Vgg11] {
            let m = ModelConfig::cifar(kind).build();
            let prof = crate::profile(&m);
            let total: u64 = prof.iter().map(|l| l.params_total).sum();
            assert_eq!(total, m.num_params() as u64, "{kind:?}");
        }
    }

    #[test]
    fn dense_profile_has_equal_active_and_total_params() {
        let m = ModelConfig::cifar(ModelKind::ResNet20).build();
        for l in crate::profile(&m) {
            assert_eq!(l.params_total, l.params_active, "{}", l.name);
        }
    }

    #[test]
    fn masking_half_of_one_layer_cuts_its_flops() {
        let mut m = ModelConfig::cifar(ModelKind::Vgg11).build();
        let before: u64 = crate::profile(&m).iter().map(|l| l.flops).sum();
        let ch = m.prune_points[2].out_channels;
        let mut mask = vec![1.0; ch];
        for v in mask.iter_mut().take(ch / 2) {
            *v = 0.0;
        }
        m.set_mask(2, mask);
        let after: u64 = crate::profile(&m).iter().map(|l| l.flops).sum();
        assert!(after < before);
        // Reduction is bounded by that layer's share of the total.
        assert!(after > before / 2);
    }

    #[test]
    fn conv_flops_formula_spot_check() {
        // Single conv 3->8, k=3, 16x16 with padding 1: 2·9·3·8·256.
        let m = ModelConfig::cifar(ModelKind::ResNet20).build();
        let prof = crate::profile(&m);
        let stem = &prof[0];
        let w16 = crate::scaled(16, m.config.width_mult);
        assert_eq!(stem.flops, 2 * 9 * 3 * w16 as u64 * 256);
    }

    #[test]
    fn deeper_models_cost_more_flops() {
        let f20 = ModelConfig::cifar(ModelKind::ResNet20).build().flops();
        let f32_ = ModelConfig::cifar(ModelKind::ResNet32).build().flops();
        let f56 = ModelConfig::cifar(ModelKind::ResNet56).build().flops();
        assert!(f20 < f32_ && f32_ < f56);
    }
}
