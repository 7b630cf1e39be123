//! Per-channel saliency and mask construction.

use serde::{Deserialize, Serialize};
use spatl_models::SplitModel;
use spatl_nn::Conv2d;
use spatl_tensor::TensorRng;

/// How to score the importance of each output channel of a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Criterion {
    /// L1 norm of the channel's filter (He et al., SFP-style).
    L1,
    /// L2 norm of the channel's filter.
    L2,
    /// Distance from the geometric median of the layer's filters (FPGM):
    /// filters near the median are redundant and pruned first.
    Fpgm,
    /// Random scores (ablation control).
    Random(u64),
}

/// Score every output channel of `conv`; higher = more salient (kept
/// longer).
pub fn channel_saliency(conv: &Conv2d, criterion: Criterion) -> Vec<f32> {
    let out_c = conv.out_channels;
    let patch = conv.weight.value.numel() / out_c;
    let w = conv.weight.value.data();
    match criterion {
        Criterion::L1 => (0..out_c)
            .map(|c| w[c * patch..(c + 1) * patch].iter().map(|v| v.abs()).sum())
            .collect(),
        Criterion::L2 => (0..out_c)
            .map(|c| {
                w[c * patch..(c + 1) * patch]
                    .iter()
                    .map(|v| v * v)
                    .sum::<f32>()
                    .sqrt()
            })
            .collect(),
        Criterion::Fpgm => {
            // Sum of pairwise L2 distances to all other filters — a robust
            // proxy for distance from the geometric median: the filter
            // minimising total distance *is* (close to) the median.
            let mut scores = vec![0.0f32; out_c];
            for a in 0..out_c {
                let fa = &w[a * patch..(a + 1) * patch];
                for b in (a + 1)..out_c {
                    let fb = &w[b * patch..(b + 1) * patch];
                    let d: f32 = fa
                        .iter()
                        .zip(fb)
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum::<f32>()
                        .sqrt();
                    scores[a] += d;
                    scores[b] += d;
                }
            }
            scores
        }
        Criterion::Random(seed) => {
            let mut rng = TensorRng::seed_from(seed);
            (0..out_c).map(|_| rng.uniform(0.0, 1.0)).collect()
        }
    }
}

/// How many of `n > 0` channels survive `sparsity`: `⌊n·s⌋` are pruned,
/// with `s` clamped to `[0, 1]` and at most `n − 1` pruned, so at least one
/// channel always survives; a NaN sparsity prunes nothing. The count
/// [`mask_from_sparsity`] keeps, whatever the saliencies.
fn kept_channels(n: usize, sparsity: f32) -> usize {
    let n_prune = ((n as f32 * sparsity.clamp(0.0, 1.0)).floor() as usize).min(n - 1);
    n - n_prune
}

/// The channels each prune point keeps once [`apply_sparsities`] applies
/// `sparsities` (one per prune point), whichever criterion picks them.
pub fn kept_counts(model: &SplitModel, sparsities: &[f32]) -> Vec<usize> {
    assert_eq!(
        sparsities.len(),
        model.prune_points.len(),
        "one sparsity per prune point required"
    );
    let points = model.prune_points.iter().zip(sparsities);
    points
        .map(|(p, &s)| kept_channels(p.out_channels, s))
        .collect()
}

/// Build a keep-mask that prunes the `sparsity` fraction of channels with
/// the lowest saliency. At least one channel always survives.
pub fn mask_from_sparsity(saliency: &[f32], sparsity: f32) -> Vec<f32> {
    let n = saliency.len();
    assert!(n > 0, "empty saliency");
    let n_prune = n - kept_channels(n, sparsity);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| saliency[a].total_cmp(&saliency[b]));
    let mut mask = vec![1.0; n];
    for &c in order.iter().take(n_prune) {
        mask[c] = 0.0;
    }
    mask
}

/// Apply one sparsity ratio per prune point (the RL agent's action vector)
/// using the given saliency criterion.
pub fn apply_sparsities(model: &mut SplitModel, sparsities: &[f32], criterion: Criterion) {
    assert_eq!(
        sparsities.len(),
        model.prune_points.len(),
        "one sparsity per prune point required"
    );
    for (idx, &s) in sparsities.iter().enumerate() {
        let layer = model.prune_points[idx].layer;
        let sal = channel_saliency(model.conv_at(layer), criterion);
        let mask = mask_from_sparsity(&sal, s);
        model.set_mask(idx, mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatl_models::{ModelConfig, ModelKind};
    use spatl_tensor::TensorRng;

    fn test_conv() -> Conv2d {
        let mut rng = TensorRng::seed_from(1);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        // Make channel norms strictly increasing: 0 < 1 < 2 < 3.
        let patch = 18;
        for c in 0..4 {
            for j in 0..patch {
                conv.weight.value.data_mut()[c * patch + j] = (c as f32 + 0.5) / 4.0;
            }
        }
        conv
    }

    #[test]
    fn l1_orders_by_magnitude() {
        let conv = test_conv();
        let s = channel_saliency(&conv, Criterion::L1);
        assert!(s[0] < s[1] && s[1] < s[2] && s[2] < s[3]);
    }

    #[test]
    fn mask_prunes_lowest_saliency() {
        let s = vec![3.0, 1.0, 2.0, 4.0];
        let m = mask_from_sparsity(&s, 0.5);
        assert_eq!(m, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn mask_never_prunes_everything() {
        let s = vec![1.0, 2.0];
        let m = mask_from_sparsity(&s, 1.0);
        assert_eq!(m.iter().filter(|&&v| v == 1.0).count(), 1);
    }

    #[test]
    fn zero_sparsity_keeps_all() {
        let s = vec![1.0, 2.0, 3.0];
        assert_eq!(mask_from_sparsity(&s, 0.0), vec![1.0; 3]);
    }

    #[test]
    fn fpgm_scores_outlier_highest() {
        let mut conv = test_conv();
        let patch = 18;
        // Channels 0..3 identical, channel 3 far away.
        for c in 0..3 {
            for j in 0..patch {
                conv.weight.value.data_mut()[c * patch + j] = 1.0;
            }
        }
        for j in 0..patch {
            conv.weight.value.data_mut()[3 * patch + j] = 10.0;
        }
        let s = channel_saliency(&conv, Criterion::Fpgm);
        assert!(s[3] > s[0] && s[3] > s[1] && s[3] > s[2]);
        // Identical filters share the same (lowest) score.
        assert!((s[0] - s[1]).abs() < 1e-4);
    }

    #[test]
    fn apply_sparsities_sets_expected_keep_ratios() {
        let mut m = ModelConfig::cifar(ModelKind::ResNet20).build();
        let n = m.prune_points.len();
        let sparsities = vec![0.5; n];
        apply_sparsities(&mut m, &sparsities, Criterion::L1);
        for (i, r) in m.keep_ratios().iter().enumerate() {
            let ch = m.prune_points[i].out_channels as f32;
            let expect = (ch - (ch * 0.5).floor()) / ch;
            assert!((r - expect).abs() < 1e-6, "point {i}: {r} vs {expect}");
        }
        assert!(m.flops() < m.flops_dense());
    }

    #[test]
    fn random_criterion_is_seeded() {
        let conv = test_conv();
        let a = channel_saliency(&conv, Criterion::Random(7));
        let b = channel_saliency(&conv, Criterion::Random(7));
        assert_eq!(a, b);
        let c = channel_saliency(&conv, Criterion::Random(8));
        assert_ne!(a, c);
    }
}
