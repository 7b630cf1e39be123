//! TAB-4 — pruning comparison: RL agent vs. SFP / FPGM / DSA (paper
//! Table IV, §V-F1).
//!
//! Trains a ResNet-56-style model, then prunes it to a common FLOPs budget
//! with each method and reports accuracy drop and FLOPs reduction.

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{col, Fmt, Scale, Section};

/// Momentum-SGD epochs over `data` (also the agent experiment's model
/// training).
pub fn train(model: &mut SplitModel, data: &Dataset, epochs: usize, seed: u64) {
    let mut trainer = Trainer::new(0.05);
    let mut rng = TensorRng::seed_from(seed);
    for _ in 0..epochs {
        for batch in data.batches(32, &mut rng) {
            trainer.step(model, &batch.images, &batch.labels, Part::Joint);
        }
    }
}

fn eval(model: &mut SplitModel, val: &Dataset) -> f32 {
    let b = val.as_batch();
    model.evaluate(&b.images, &b.labels)
}

pub fn run(scale: Scale) -> Vec<Section> {
    let budget = 0.6f32;
    let synth = SynthConfig {
        noise_std: 1.0,
        ..SynthConfig::cifar10_like()
    };
    let train_set = synth_cifar10(&synth, scale.pick(200, 400), 1);
    let val_set = synth_cifar10(&synth, scale.pick(80, 200), 2);

    eprintln!("training ResNet-56 (scaled) baseline…");
    let mut model = ModelConfig::cifar(ModelKind::ResNet56).with_seed(4).build();
    train(&mut model, &train_set, scale.pick(3, 6), 5);
    let dense_acc = eval(&mut model.clone(), &val_set);

    let mut section = Section::new(
        format!("pruning ResNet-56 to a {:.0}% FLOPs budget", budget * 100.0),
        vec![
            col("method", "method", Fmt::Text),
            col("acc", "acc", Fmt::Pct),
            col("Δacc", "delta_acc", Fmt::Pp),
            col("FLOPs kept", "flops_ratio", Fmt::Pct),
            col("FLOPs ↓", "flops_reduction", Fmt::Pct),
        ],
    );
    let mut report = |name: &str, m: &mut SplitModel| {
        let acc = eval(m, &val_set);
        let ratio = m.flops() as f32 / m.flops_dense() as f32;
        section.push(json!({
            "method": name,
            "acc": acc,
            "delta_acc": acc - dense_acc,
            "flops_ratio": ratio,
            "flops_reduction": 1.0 - ratio,
        }));
    };
    report("dense", &mut model.clone());

    // Standard pruning protocol: every method gets the same brief recovery
    // fine-tune after masking (masked channels stay dead — conv and BN
    // masks gate both forward and gradients).
    let recovery_epochs = scale.pick(1, 2);

    // RL agent (SPATL's selector), pre-trained on this pruning task.
    {
        let env = PruningEnv::new(model.clone(), val_set.clone(), budget);
        let mut agent = ActorCritic::new(AgentConfig::default(), 9);
        let mut rng = TensorRng::seed_from(10);
        pretrain_agent(&mut agent, &env, scale.pick(6, 15), 4, 4, &mut rng);
        let action = agent.evaluate(&env.graph()).mu;
        let mut m = model.clone();
        let applied = spatl::pruning::project_to_budget(&m, &action, budget);
        apply_sparsities(&mut m, &applied, Criterion::L2);
        train(&mut m, &train_set, recovery_epochs, 60);
        report("RL agent (ours)", &mut m);
    }

    // Every uniform method prunes at the sparsity that meets the budget:
    // `SoftFilterPruner` takes a channel sparsity, not a FLOPs ratio.
    let uniform =
        spatl::pruning::project_to_budget(&model, &vec![0.0; model.prune_points.len()], budget);

    // SFP: soft filter pruning schedule + brief recovery training.
    {
        let mut m = model.clone();
        let sfp = SoftFilterPruner::new(uniform[0]);
        for _ in 0..scale.pick(2, 4) {
            sfp.soft_step(&mut m);
            train(&mut m, &train_set, 1, 6);
        }
        sfp.harden(&mut m);
        train(&mut m, &train_set, recovery_epochs, 61);
        report("SFP", &mut m);
    }

    // FPGM at a uniform budget-projected sparsity.
    {
        let mut m = model.clone();
        apply_sparsities(&mut m, &uniform, Criterion::Fpgm);
        train(&mut m, &train_set, recovery_epochs, 62);
        report("FPGM", &mut m);
    }

    // DSA-style allocation.
    {
        let mut m = model.clone();
        let alloc = dsa_allocate(&m, budget, &val_set, Criterion::L2, scale.pick(6, 16));
        apply_sparsities(&mut m, &alloc, Criterion::L2);
        train(&mut m, &train_set, recovery_epochs, 63);
        report("DSA", &mut m);
    }

    // Uniform L1 and random controls.
    {
        let mut m = model.clone();
        apply_sparsities(&mut m, &uniform, Criterion::L1);
        train(&mut m, &train_set, recovery_epochs, 64);
        report("uniform L1", &mut m);
    }
    {
        let mut m = model.clone();
        apply_sparsities(&mut m, &uniform, Criterion::Random(42));
        train(&mut m, &train_set, recovery_epochs, 65);
        report("random", &mut m);
    }

    vec![section]
}
