//! FIG-RL — reward curves of agent pre-training and cross-architecture
//! fine-tuning (paper Fig. 6, §V-F4).
//!
//! Pre-train the selection agent on a ResNet-56 pruning task, transfer it
//! to ResNet-18 and fine-tune only the MLP head; the fine-tuned agent must
//! approach comparable rewards within a few tens of updates.

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{col, Fmt, Scale, Section};

fn train_model(kind: ModelKind, data: &Dataset, epochs: usize, seed: u64) -> SplitModel {
    let mut model = ModelConfig::cifar(kind).with_seed(seed).build();
    super::table4_pruning::train(&mut model, data, epochs, seed);
    model
}

pub fn run(scale: Scale) -> Vec<Section> {
    let synth = SynthConfig {
        noise_std: 1.0,
        ..SynthConfig::cifar10_like()
    };
    let train_set = synth_cifar10(&synth, scale.pick(160, 300), 1);
    let val_set = synth_cifar10(&synth, scale.pick(60, 150), 2);
    let rounds = scale.pick(10, 25);

    eprintln!("pre-training task: ResNet-56 pruning (budget 70% FLOPs)");
    let m56 = train_model(ModelKind::ResNet56, &train_set, scale.pick(2, 5), 3);
    let env56 = PruningEnv::new(m56, val_set.clone(), 0.7);
    let mut agent = ActorCritic::new(AgentConfig::default(), 4);
    let mut rng = TensorRng::seed_from(5);
    let pre = pretrain_agent(&mut agent, &env56, rounds, 4, 4, &mut rng);

    eprintln!("fine-tuning task: ResNet-18 pruning (MLP head only)");
    let m18 = train_model(ModelKind::ResNet18, &train_set, scale.pick(2, 5), 6);
    let env18 = PruningEnv::new(m18, val_set, 0.7);
    let fine = finetune_agent(&mut agent, &env18, rounds, 4, 4, &mut rng);

    let avg = |xs: &[f32]| xs.iter().sum::<f32>() / xs.len().max(1) as f32;
    let head = |xs: &[f32], k: usize| avg(&xs[..k.min(xs.len())]);
    let tail = |xs: &[f32], k: usize| avg(&xs[xs.len().saturating_sub(k)..]);

    let mut rewards = Section::new(
        format!("agent reward over {rounds} updates"),
        vec![
            col("phase", "phase", Fmt::Text),
            col("first rewards", "first_rewards", Fmt::Fixed3),
            col("last rewards", "last_rewards", Fmt::Fixed3),
            col("best", "best", Fmt::Fixed3),
            col("reward per update", "rewards", Fmt::Series),
        ],
    );
    for (name, log) in [
        ("pre-train ResNet-56", &pre),
        ("fine-tune ResNet-18", &fine),
    ] {
        rewards.push(json!({
            "phase": name,
            "first_rewards": head(&log.rewards, 3),
            "last_rewards": tail(&log.rewards, 3),
            "best": log.rewards.iter().copied().fold(0.0f32, f32::max),
            "rewards": log.rewards,
        }));
    }
    let mut size = Section::new(
        "agent size (paper reports ~26 KB)",
        vec![
            col("params", "params", Fmt::Text),
            col("KB", "kib", Fmt::Text),
        ],
    );
    size.push(json!({
        "params": agent.num_params(),
        "bytes": agent.param_bytes(),
        "kib": agent.param_bytes() / 1024,
    }));
    vec![rewards, size]
}
