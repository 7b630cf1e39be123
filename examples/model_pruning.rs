//! Network pruning with the RL selection agent vs. classic criteria.
//!
//! Run with: `cargo run --release --example model_pruning`
//!
//! Pre-trains the GNN+PPO agent on a ResNet-56-style pruning task (the
//! paper's pre-training setup), then compares the sub-networks it finds
//! against uniform L1/FPGM/random pruning at the same FLOPs budget —
//! the Table IV comparison in miniature.

use spatl::prelude::*;

/// Train a model briefly so pruning decisions have accuracy consequences.
fn train_model(kind: ModelKind, data: &Dataset, epochs: usize, seed: u64) -> SplitModel {
    let mut model = ModelConfig::cifar(kind).with_seed(seed).build();
    let mut trainer = Trainer::new(0.05);
    let mut rng = TensorRng::seed_from(seed);
    for _ in 0..epochs {
        for batch in data.batches(32, &mut rng) {
            trainer.step(&mut model, &batch.images, &batch.labels, Part::Joint);
        }
    }
    model
}

fn eval(model: &mut SplitModel, val: &Dataset) -> f32 {
    let b = val.as_batch();
    model.evaluate(&b.images, &b.labels)
}

fn main() {
    let synth = SynthConfig {
        noise_std: 0.35,
        ..SynthConfig::cifar10_like()
    };
    let train = synth_cifar10(&synth, 300, 1);
    let val = synth_cifar10(&synth, 100, 2);
    let budget = 0.6; // keep ≤ 60% of dense FLOPs

    println!("training ResNet-56 (scaled) on the synthetic task…");
    let model = train_model(ModelKind::ResNet56, &train, 6, 3);
    let mut dense = model.clone();
    let dense_acc = eval(&mut dense, &val);
    println!(
        "dense accuracy: {:.1}%  (FLOPs budget: {:.0}%)\n",
        dense_acc * 100.0,
        budget * 100.0
    );

    // RL agent: pre-train on the pruning environment, then act greedily.
    let env = PruningEnv::new(model.clone(), val.clone(), budget);
    let mut agent = ActorCritic::new(AgentConfig::default(), 9);
    let mut rng = TensorRng::seed_from(10);
    let log = pretrain_agent(&mut agent, &env, 12, 4, 4, &mut rng);
    println!(
        "agent pre-training rewards: first={:.3} best={:.3} last={:.3}",
        log.rewards.first().unwrap(),
        log.rewards.iter().copied().fold(0.0f32, f32::max),
        log.rewards.last().unwrap()
    );
    let action = agent.evaluate(&env.graph()).mu;

    println!("\n{:<22} {:>9} {:>12}", "method", "accuracy", "FLOPs kept");
    let report = |name: &str, m: &mut SplitModel| {
        let acc = eval(m, &val);
        let ratio = m.flops() as f32 / m.flops_dense() as f32;
        println!("{name:<22} {:>8.1}% {:>11.1}%", acc * 100.0, ratio * 100.0);
    };

    // RL agent selection.
    let mut rl = model.clone();
    let applied = spatl::pruning::project_to_budget(&rl, &action, budget);
    apply_sparsities(&mut rl, &applied, Criterion::L2);
    report("RL agent (SPATL)", &mut rl);

    // The uniform methods prune every layer at the sparsity that meets
    // the budget.
    let uni =
        spatl::pruning::project_to_budget(&model, &vec![0.0; model.prune_points.len()], budget);

    // Uniform L1 at the same budget.
    let mut l1 = model.clone();
    apply_sparsities(&mut l1, &uni, Criterion::L1);
    report("uniform L1", &mut l1);

    // FPGM at the same budget.
    let mut fpgm = model.clone();
    apply_sparsities(&mut fpgm, &uni, Criterion::Fpgm);
    report("FPGM", &mut fpgm);

    // DSA-style allocation.
    let mut dsa = model.clone();
    let alloc = dsa_allocate(&dsa, budget, &val, Criterion::L2, 8);
    apply_sparsities(&mut dsa, &alloc, Criterion::L2);
    report("DSA allocation", &mut dsa);

    // Random control.
    let mut rnd = model.clone();
    apply_sparsities(&mut rnd, &uni, Criterion::Random(5));
    report("random channels", &mut rnd);

    println!(
        "\nagent inference cost: {} parameters ({} KB)",
        agent.num_params(),
        agent.param_bytes() / 1024
    );
}
