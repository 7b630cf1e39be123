//! The network-pruning RL environment (Algorithm 1 of the paper).

use serde::{Deserialize, Serialize};
use spatl_data::Dataset;
use spatl_graph::{extract, CompGraph};
use spatl_models::SplitModel;
use spatl_pruning::{apply_sparsities, Criterion};

/// Outcome of applying an action in the pruning environment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnvOutcome {
    /// Reward: validation accuracy of the masked sub-network (Eq. 7).
    pub reward: f32,
    /// FLOPs of the sub-network relative to the dense model.
    pub flops_ratio: f32,
    /// The sparsities actually applied (after budget projection).
    pub applied: Vec<f32>,
}

/// RL environment: state is the encoder's computational graph, actions are
/// per-layer sparsities, reward is masked validation accuracy subject to a
/// FLOPs constraint.
///
/// Algorithm 1 loops "while size(E') does not satisfy constraints" —
/// [`project_to_budget`] realises that loop by scaling the action up until
/// the constraint holds, so every evaluated sub-network is feasible.
#[derive(Debug, Clone)]
pub struct PruningEnv {
    /// The model being pruned (weights matter: reward is its accuracy).
    pub model: SplitModel,
    /// Validation set used for the reward.
    pub val: Dataset,
    /// Maximum allowed `flops / flops_dense`.
    pub target_flops_ratio: f32,
    /// Saliency criterion used to turn ratios into channel masks.
    pub criterion: Criterion,
}

impl PruningEnv {
    /// Create an environment.
    pub fn new(model: SplitModel, val: Dataset, target_flops_ratio: f32) -> Self {
        PruningEnv {
            model,
            val,
            target_flops_ratio,
            criterion: Criterion::L2,
        }
    }

    /// The environment state: the encoder's simplified computational graph.
    pub fn graph(&self) -> CompGraph {
        extract(&self.model)
    }

    /// Apply an action (per-layer sparsities), projecting it onto the FLOPs
    /// budget first, and return the reward.
    pub fn step(&self, sparsities: &[f32]) -> EnvOutcome {
        let applied =
            spatl_pruning::project_to_budget(&self.model, sparsities, self.target_flops_ratio);
        let mut candidate = self.model.clone();
        apply_sparsities(&mut candidate, &applied, self.criterion);
        let flops_ratio = candidate.flops() as f32 / self.model.flops_dense() as f32;
        let batch = self.val.as_batch();
        let reward = candidate.evaluate(&batch.images, &batch.labels);
        EnvOutcome {
            reward,
            flops_ratio,
            applied,
        }
    }

    /// Apply an action *to the stored model* (after the search picks the
    /// best action, SPATL keeps the masks for upload selection).
    pub fn commit(&mut self, sparsities: &[f32]) -> EnvOutcome {
        let out = self.step(sparsities);
        apply_sparsities(&mut self.model, &out.applied, self.criterion);
        out
    }
}

/// [`spatl_pruning::project_to_budget`] for callers that name the
/// criterion that will apply the result: it picks which channels go, never
/// how many, so it does not enter.
pub fn project_to_budget(
    model: &SplitModel,
    sparsities: &[f32],
    target_flops_ratio: f32,
    _criterion: Criterion,
) -> Vec<f32> {
    spatl_pruning::project_to_budget(model, sparsities, target_flops_ratio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatl_data::{synth_cifar10, SynthConfig};
    use spatl_models::{ModelConfig, ModelKind};
    use spatl_pruning::kept_counts;

    fn env() -> PruningEnv {
        let model = ModelConfig::cifar(ModelKind::ResNet20).build();
        let val = synth_cifar10(&SynthConfig::cifar10_like(), 30, 1);
        PruningEnv::new(model, val, 0.6)
    }

    #[test]
    fn step_meets_budget() {
        let e = env();
        let k = e.model.prune_points.len();
        let out = e.step(&vec![0.0; k]);
        assert!(out.flops_ratio <= 0.62, "ratio {}", out.flops_ratio);
        assert!((0.0..=1.0).contains(&out.reward));
    }

    #[test]
    fn feasible_action_unchanged() {
        let e = env();
        let k = e.model.prune_points.len();
        let action = vec![0.9f32; k];
        let projected = project_to_budget(&e.model, &action, 0.9, Criterion::L2);
        assert_eq!(projected, action);
    }

    #[test]
    fn commit_applies_masks_to_model() {
        let mut e = env();
        let k = e.model.prune_points.len();
        e.commit(&vec![0.5; k]);
        assert!(e.model.flops() < e.model.flops_dense());
    }

    /// The projection before the scratch copy: a fresh clone per probe.
    fn project_by_cloning(
        model: &SplitModel,
        sparsities: &[f32],
        target: f32,
        criterion: Criterion,
    ) -> Vec<f32> {
        let dense = model.flops_dense() as f32;
        let ratio_of = |s: &[f32]| -> f32 {
            let mut m = model.clone();
            apply_sparsities(&mut m, s, criterion);
            m.flops() as f32 / dense
        };
        if ratio_of(sparsities) <= target {
            return sparsities.to_vec();
        }
        let blend = |t: f32| -> Vec<f32> {
            sparsities
                .iter()
                .map(|&s| (1.0 - t) * s + t * 0.95)
                .collect()
        };
        let (mut lo, mut hi) = (0.0f32, 1.0f32);
        for _ in 0..8 {
            let mid = 0.5 * (lo + hi);
            if ratio_of(&blend(mid)) <= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        blend(hi)
    }

    #[test]
    fn scratch_projection_matches_per_probe_clones() {
        for kind in [ModelKind::ResNet20, ModelKind::Vgg11] {
            let mut model = ModelConfig::cifar(kind).build();
            let k = model.prune_points.len();
            // Start from a masked model, as a SPATL client's is.
            apply_sparsities(&mut model, &vec![0.3; k], Criterion::L2);
            let ramp: Vec<f32> = (0..k).map(|i| i as f32 / k as f32).collect();
            let zigzag: Vec<f32> = (0..k).map(|i| [0.1, 0.8, 0.0][i % 3]).collect();
            for action in [vec![0.0; k], vec![0.5; k], vec![0.9; k], ramp, zigzag] {
                for target in [0.3, 0.6, 0.9] {
                    for criterion in [Criterion::L1, Criterion::L2, Criterion::Fpgm] {
                        assert_eq!(
                            project_to_budget(&model, &action, target, criterion),
                            project_by_cloning(&model, &action, target, criterion),
                            "{kind:?} {action:?} target {target} {criterion:?}"
                        );
                    }
                }
            }
        }
    }

    /// Actions with every edge the count rule has: 0, 0.95, 1, NaN, and
    /// seeded draws from [-0.1, 1.1].
    fn actions(k: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = spatl_tensor::TensorRng::seed_from(seed);
        let ramp: Vec<f32> = (0..k).map(|i| i as f32 / k as f32).collect();
        let zigzag: Vec<f32> = (0..k).map(|i| [0.1, 0.8, 0.0][i % 3]).collect();
        let edges: Vec<f32> = (0..k).map(|i| [0.0, 0.95, 1.0, f32::NAN][i % 4]).collect();
        let mut out = vec![vec![0.0; k], vec![0.5; k], vec![0.95; k], vec![1.0; k]];
        out.extend([vec![f32::NAN; k], ramp, zigzag, edges]);
        out.extend((0..3).map(|_| (0..k).map(|_| rng.uniform(-0.1, 1.1)).collect()));
        out
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}");
    }

    #[test]
    fn projection_matches_masking_oracle() {
        let kinds = [
            ModelConfig::cifar(ModelKind::ResNet20),
            ModelConfig::cifar(ModelKind::ResNet32),
            ModelConfig::cifar(ModelKind::ResNet56),
            ModelConfig::cifar(ModelKind::Vgg11),
            ModelConfig::femnist(),
        ];
        for (i, cfg) in kinds.iter().enumerate() {
            let mut model = cfg.build();
            let k = model.prune_points.len();
            // Start from a masked model, as a SPATL client's is.
            apply_sparsities(&mut model, &vec![0.3; k], Criterion::L2);
            for action in actions(k, i as u64) {
                for target in [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
                    let what = format!("{:?} {action:?} target {target}", cfg.kind);
                    assert_same_bits(
                        &project_to_budget(&model, &action, target, Criterion::L2),
                        &project_by_cloning(&model, &action, target, Criterion::L2),
                        &what,
                    );
                }
            }
        }
        // The criterion picks channels, never their number.
        let model = ModelConfig::cifar(ModelKind::Vgg11).build();
        let k = model.prune_points.len();
        for criterion in [Criterion::L1, Criterion::Fpgm, Criterion::Random(3)] {
            for action in actions(k, 9) {
                assert_same_bits(
                    &project_to_budget(&model, &action, 0.6, criterion),
                    &project_by_cloning(&model, &action, 0.6, criterion),
                    &format!("{criterion:?} {action:?}"),
                );
            }
        }
    }

    #[test]
    fn count_driven_flops_match_masked_flops() {
        let kinds = [
            ModelConfig::cifar(ModelKind::ResNet20),
            ModelConfig::cifar(ModelKind::ResNet32),
            ModelConfig::cifar(ModelKind::ResNet56),
            ModelConfig::cifar(ModelKind::Vgg11),
            ModelConfig::femnist(),
        ];
        for (i, cfg) in kinds.iter().enumerate() {
            let mut model = cfg.build();
            for action in actions(model.prune_points.len(), 100 + i as u64) {
                let kept = kept_counts(&model, &action);
                apply_sparsities(&mut model, &action, Criterion::L2);
                let active: Vec<usize> = (model.prune_points.iter())
                    .map(|p| model.conv_at(p.layer).active_channels())
                    .collect();
                assert_eq!(kept, active, "{:?} {action:?}", cfg.kind);
                assert_eq!(
                    model.flops_with_kept(&kept),
                    model.flops(),
                    "{:?} {action:?}",
                    cfg.kind
                );
            }
            model.clear_masks();
            assert_eq!(model.flops_dense(), model.flops(), "{:?}", cfg.kind);
        }
    }

    #[test]
    fn selection_graph_matches_env_graph_of_a_clone() {
        // A client extracts its graph from its own model — masked, with
        // training caches — where an environment would hold a cache-free
        // clone.
        let mut model = ModelConfig::cifar(ModelKind::Vgg11).build();
        let k = model.prune_points.len();
        apply_sparsities(&mut model, &vec![0.4; k], Criterion::L2);
        let cfg = model.config;
        let x = spatl_tensor::TensorRng::seed_from(5).normal_tensor(
            [2, cfg.in_channels, cfg.input_hw, cfg.input_hw],
            0.0,
            1.0,
        );
        let y = model.forward(&x, true);
        model.recycle(y);
        let mut env_model = model.clone();
        env_model.clear_caches();
        let val = synth_cifar10(&SynthConfig::cifar10_like(), 4, 1);
        let want = PruningEnv::new(env_model, val, 0.7).graph();
        let got = extract(&model);
        assert_eq!(got.features, want.features);
        assert_eq!(got.adj.indptr, want.adj.indptr);
        assert_eq!(got.adj.indices, want.adj.indices);
        assert_same_bits(&got.adj.weights, &want.adj.weights, "adjacency weights");
        assert_eq!(got.adj.n, want.adj.n);
        assert_eq!(got.prune_nodes, want.prune_nodes);
        assert_eq!(got.ops, want.ops);
    }

    #[test]
    fn graph_matches_prune_points() {
        let e = env();
        let g = e.graph();
        assert_eq!(g.prune_nodes.len(), e.model.prune_points.len());
    }
}
