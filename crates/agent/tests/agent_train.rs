//! Integration tests for agent pre-training and fine-tuning (Fig. 6 logic).

use spatl_agent::{finetune_agent, pretrain_agent, ActorCritic, AgentConfig, PruningEnv};
use spatl_data::{synth_cifar10, SynthConfig};
use spatl_models::{ModelConfig, ModelKind, Part, Trainer};
use spatl_tensor::TensorRng;

/// Briefly train a model so pruning decisions actually affect accuracy.
fn trained_model(kind: ModelKind, seed: u64) -> spatl_models::SplitModel {
    let cfg = SynthConfig {
        noise_std: 0.4,
        ..SynthConfig::cifar10_like()
    };
    let train = synth_cifar10(&cfg, 160, seed);
    let mut model = ModelConfig::cifar(kind).with_seed(seed).build();
    let mut trainer = Trainer::new(0.05);
    let mut rng = TensorRng::seed_from(seed);
    for _ in 0..3 {
        for batch in train.batches(32, &mut rng) {
            trainer.step(&mut model, &batch.images, &batch.labels, Part::Joint);
        }
    }
    model
}

#[test]
fn pretraining_produces_valid_log_and_learns_signal() {
    let model = trained_model(ModelKind::ResNet20, 1);
    let val = synth_cifar10(&SynthConfig::cifar10_like(), 60, 99);
    let env = PruningEnv::new(model, val, 0.7);
    let mut agent = ActorCritic::new(AgentConfig::default(), 1);
    let mut rng = TensorRng::seed_from(2);
    let log = pretrain_agent(&mut agent, &env, 8, 4, 3, &mut rng);
    assert_eq!(log.rewards.len(), 8);
    assert_eq!(log.stats.len(), 8);
    assert!(log.rewards.iter().all(|&r| (0.0..=1.0).contains(&r)));
    assert!(log
        .stats
        .iter()
        .all(|s| s.policy_loss.is_finite() && s.value_loss.is_finite()));
}

#[test]
fn finetune_freezes_gnn_and_moves_heads() {
    let model = trained_model(ModelKind::ResNet20, 3);
    let val = synth_cifar10(&SynthConfig::cifar10_like(), 40, 98);
    let env = PruningEnv::new(model, val, 0.7);
    let mut agent = ActorCritic::new(AgentConfig::default(), 5);
    let gnn_before: Vec<Vec<f32>> = agent.params()[..4]
        .iter()
        .map(|t| t.data().to_vec())
        .collect();
    let heads_before: Vec<Vec<f32>> = agent.params()[4..]
        .iter()
        .map(|t| t.data().to_vec())
        .collect();
    let mut rng = TensorRng::seed_from(6);
    finetune_agent(&mut agent, &env, 3, 3, 2, &mut rng);
    for (a, b) in agent.params()[..4].iter().zip(&gnn_before) {
        assert_eq!(a.data(), &b[..], "GNN weights moved during fine-tune");
    }
    let heads_moved = agent.params()[4..]
        .iter()
        .zip(&heads_before)
        .any(|(a, b)| a.data() != &b[..]);
    assert!(heads_moved, "heads did not move during fine-tune");
}

#[test]
fn critic_value_tracks_reward_scale_after_training() {
    let model = trained_model(ModelKind::ResNet20, 7);
    let val = synth_cifar10(&SynthConfig::cifar10_like(), 40, 97);
    let env = PruningEnv::new(model, val, 0.7);
    let mut agent = ActorCritic::new(AgentConfig::default(), 8);
    let mut rng = TensorRng::seed_from(9);
    let log = pretrain_agent(&mut agent, &env, 10, 4, 4, &mut rng);
    let mean_reward: f32 = log.rewards.iter().sum::<f32>() / log.rewards.len() as f32;
    let v = agent.evaluate(&env.graph()).value;
    // The critic should be in the right ballpark of observed rewards.
    assert!(
        (v - mean_reward).abs() < 0.5,
        "value {v}, mean reward {mean_reward}"
    );
}

#[test]
fn agent_transfers_between_architectures() {
    // Pre-train on ResNet-20's graph, then evaluate on ResNet-18's graph —
    // the GNN must handle a different topology without retraining (the
    // premise of the paper's agent-transfer experiment).
    let m20 = trained_model(ModelKind::ResNet20, 11);
    let val = synth_cifar10(&SynthConfig::cifar10_like(), 40, 96);
    let env20 = PruningEnv::new(m20, val.clone(), 0.7);
    let mut agent = ActorCritic::new(AgentConfig::default(), 12);
    let mut rng = TensorRng::seed_from(13);
    pretrain_agent(&mut agent, &env20, 4, 3, 2, &mut rng);

    let m18 = ModelConfig::cifar(ModelKind::ResNet18).build();
    let env18 = PruningEnv::new(m18, val, 0.7);
    let g18 = env18.graph();
    let eval = agent.evaluate(&g18);
    assert_eq!(eval.mu.len(), g18.prune_nodes.len());
    assert!(eval.mu.iter().all(|m| m.is_finite()));
}
