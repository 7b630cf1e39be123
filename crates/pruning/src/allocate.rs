//! Per-layer sparsity allocation under a global FLOPs budget.

use crate::{apply_sparsities, kept_counts, Criterion};
use spatl_data::Dataset;
use spatl_models::SplitModel;

/// Uniform allocation: the same sparsity at every prune point.
pub fn uniform_sparsities(model: &SplitModel, sparsity: f32) -> Vec<f32> {
    vec![sparsity.clamp(0.0, 0.95); model.prune_points.len()]
}

/// The fraction of `dense`, the model's dense FLOPs, that remains once
/// [`apply_sparsities`] applies `sparsities`. Callers compute `dense`
/// once: it costs as much as the ratio.
fn flops_ratio(model: &SplitModel, sparsities: &[f32], dense: f32) -> f32 {
    model.flops_with_kept(&kept_counts(model, sparsities)) as f32 / dense
}

/// Scale sparsities up (towards `s=0.95`) until the masked model meets the
/// FLOPs budget. If the raw action already satisfies it, it is returned
/// unchanged. Uses bisection on a blend factor, at most 9 probes.
///
/// A probe's FLOPs depend only on how many channels each prune point keeps
/// ([`kept_counts`]), not on which, so every probe is arithmetic on those
/// counts ([`SplitModel::flops_with_kept`]): nothing is cloned or masked,
/// and no criterion enters.
pub fn project_to_budget(
    model: &SplitModel,
    sparsities: &[f32],
    target_flops_ratio: f32,
) -> Vec<f32> {
    let dense = model.flops_dense() as f32;
    if flops_ratio(model, sparsities, dense) <= target_flops_ratio {
        return sparsities.to_vec();
    }
    // Blend towards the max-sparsity action: s(t) = (1−t)·s + t·0.95.
    let blend = |t: f32| -> Vec<f32> {
        sparsities
            .iter()
            .map(|&s| (1.0 - t) * s + t * 0.95)
            .collect()
    };
    let (mut lo, mut hi) = (0.0f32, 1.0f32);
    for _ in 0..8 {
        let mid = 0.5 * (lo + hi);
        if flops_ratio(model, &blend(mid), dense) <= target_flops_ratio {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    blend(hi)
}

/// Simplified DSA-style (differentiable sparsity allocation) budgeted
/// search: find per-layer sparsities meeting `target_flops_ratio` while
/// minimising validation-accuracy loss.
///
/// The original DSA relaxes the allocation with differentiable masks; this
/// reproduction uses the same objective but optimises it with coordinate
/// descent over layers, measuring accuracy on a held-out batch — adequate
/// at the model scales of the harness and entirely deterministic.
pub fn dsa_allocate(
    model: &SplitModel,
    target_flops_ratio: f32,
    val: &Dataset,
    criterion: Criterion,
    iterations: usize,
) -> Vec<f32> {
    let n = model.prune_points.len();
    let dense = model.flops_dense() as f32;
    assert!(n > 0, "model has no prune points");

    let accuracy = |sparsities: &[f32]| -> f32 {
        let mut m = model.clone();
        apply_sparsities(&mut m, sparsities, criterion);
        let batch = val.as_batch();
        m.evaluate(&batch.images, &batch.labels)
    };

    // Start from the least uniform sparsity that meets the budget.
    let mut sparsities = project_to_budget(model, &vec![0.0; n], target_flops_ratio);
    let mut best_acc = accuracy(&sparsities);

    // Coordinate descent: try shifting sparsity between layer pairs,
    // keeping moves that stay within the budget and improve accuracy.
    let step = 0.15f32;
    for it in 0..iterations {
        let i = it % n;
        let j = (it + 1 + it / n) % n;
        if i == j {
            continue;
        }
        let mut cand = sparsities.clone();
        cand[i] = (cand[i] - step).clamp(0.0, 0.95);
        cand[j] = (cand[j] + step).clamp(0.0, 0.95);
        if flops_ratio(model, &cand, dense) > target_flops_ratio {
            continue;
        }
        let acc = accuracy(&cand);
        if acc >= best_acc {
            sparsities = cand;
            best_acc = acc;
        }
    }
    sparsities
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatl_data::{synth_cifar10, SynthConfig};
    use spatl_models::{ModelConfig, ModelKind};

    #[test]
    fn uniform_matches_prune_point_count() {
        let m = ModelConfig::cifar(ModelKind::ResNet20).build();
        let s = uniform_sparsities(&m, 0.4);
        assert_eq!(s.len(), m.prune_points.len());
        assert!(s.iter().all(|&v| (v - 0.4).abs() < 1e-6));
    }

    #[test]
    fn uniform_clamps_extremes() {
        let m = ModelConfig::cifar(ModelKind::ResNet20).build();
        assert!(uniform_sparsities(&m, 2.0).iter().all(|&v| v <= 0.95));
    }

    #[test]
    fn dsa_meets_flops_budget() {
        let m = ModelConfig::cifar(ModelKind::ResNet20).build();
        let cfg = SynthConfig::cifar10_like();
        let val = synth_cifar10(&cfg, 40, 1);
        let s = dsa_allocate(&m, 0.6, &val, Criterion::L2, 6);
        let mut pruned = m.clone();
        apply_sparsities(&mut pruned, &s, Criterion::L2);
        let ratio = pruned.flops() as f32 / m.flops_dense() as f32;
        assert!(ratio <= 0.6, "ratio {ratio}");
    }
}
