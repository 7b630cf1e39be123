//! Full-pipeline integration: data synthesis → partition → agent →
//! federated training → transfer, spanning every crate.

use spatl::prelude::*;

#[test]
fn spatl_full_pipeline_end_to_end() {
    let mut sim = ExperimentBuilder::new(Algorithm::Spatl(SpatlOptions::default()))
        .model(ModelKind::ResNet20)
        .clients(4)
        .samples_per_client(60)
        .noise_std(1.0)
        .rounds(5)
        .local_epochs(2)
        .seed(100)
        .build();
    let result = sim.run();

    // Learns above chance on a 10-class task.
    assert!(result.best_acc() > 0.25, "best acc {}", result.best_acc());
    // Selection happened and reduced both uploads and FLOPs.
    let last = result.history.last().unwrap();
    assert!(last.mean_keep_ratio < 1.0);
    assert!(last.mean_flops_ratio < 1.0);
    // Communication is strictly increasing and accounted per round.
    assert!(result.total_bytes() > 0);

    // Every client's deployed model meets (approximately) the FLOPs budget.
    for c in &sim.clients {
        if c.participations > 0 {
            let ratio = c.model.flops() as f32 / c.model.flops_dense() as f32;
            assert!(ratio <= 0.75 + 0.05, "client {} ratio {}", c.id, ratio);
        }
    }
}

#[test]
fn spatl_beats_or_matches_fedavg_on_skewed_data() {
    // The headline qualitative claim (§V-B): under heterogeneity SPATL's
    // mean accuracy is at least on par with FedAvg at the same budget of
    // rounds — run both with the same seed/partition.
    let run = |alg: Algorithm| {
        ExperimentBuilder::new(alg)
            .model(ModelKind::ResNet20)
            .clients(6)
            .samples_per_client(60)
            .beta(0.3)
            .rounds(8)
            .local_epochs(2)
            .seed(200)
            .run()
    };
    let spatl = run(Algorithm::Spatl(SpatlOptions::default()));
    let fedavg = run(Algorithm::FedAvg);
    assert!(
        spatl.best_acc() >= fedavg.best_acc() - 0.02,
        "SPATL {} worse than FedAvg {}",
        spatl.best_acc(),
        fedavg.best_acc()
    );
}

#[test]
fn transfer_to_held_out_data_works() {
    // Table III in miniature: FL on one split, predictor-transfer to a
    // disjoint split of the same task.
    let mut sim = ExperimentBuilder::new(Algorithm::Spatl(SpatlOptions::default()))
        .model(ModelKind::ResNet20)
        .clients(4)
        .samples_per_client(60)
        .noise_std(1.0)
        .rounds(4)
        .local_epochs(2)
        .seed(300)
        .build();
    sim.run();

    let synth = SynthConfig {
        noise_std: 0.4,
        ..SynthConfig::cifar10_like()
    };
    let transfer_train = synth_cifar10(&synth, 100, 12345);
    let transfer_val = synth_cifar10(&synth, 50, 54321);
    let model = ModelConfig::cifar(ModelKind::ResNet20).with_seed(9).build();
    let acc_fl_encoder = transfer_evaluate(
        model.clone(),
        &sim.global.shared,
        &transfer_train,
        &transfer_val,
        5,
        7,
    );
    let random_encoder_flat = model.encoder.to_flat();
    let acc_random_encoder = transfer_evaluate(
        model,
        &random_encoder_flat,
        &transfer_train,
        &transfer_val,
        5,
        7,
    );
    assert!(
        acc_fl_encoder >= acc_random_encoder - 0.05,
        "federated encoder transferred worse than random: {acc_fl_encoder} vs {acc_random_encoder}"
    );
    assert!(acc_fl_encoder > 0.15, "transfer accuracy {acc_fl_encoder}");
}

#[test]
fn femnist_pipeline_runs_with_cnn() {
    // The 2-layer CNN + LEAF-style setting (where the paper notes SPATL's
    // assumption breaks): it must still *run* correctly.
    let result = ExperimentBuilder::new(Algorithm::Spatl(SpatlOptions::default()))
        .dataset(DatasetKind::FemnistLike)
        .model(ModelKind::Cnn2)
        .clients(3)
        .samples_per_client(40)
        .rounds(2)
        .local_epochs(1)
        .seed(400)
        .run();
    assert_eq!(result.history.len(), 2);
    assert!(result.final_acc().is_finite());
}

#[test]
fn agent_pretrained_elsewhere_can_be_injected() {
    // Pre-train an agent on ResNet-56 pruning, inject into a ResNet-20
    // federation — the paper's cross-architecture transfer.
    let synth = SynthConfig::cifar10_like();
    let val = synth_cifar10(&synth, 40, 5);
    let m56 = ModelConfig::cifar(ModelKind::ResNet56).build();
    let env = PruningEnv::new(m56, val, 0.7);
    let mut agent = ActorCritic::new(AgentConfig::default(), 50);
    let mut rng = TensorRng::seed_from(51);
    pretrain_agent(&mut agent, &env, 2, 2, 2, &mut rng);

    let mut sim = ExperimentBuilder::new(Algorithm::Spatl(SpatlOptions::default()))
        .clients(3)
        .samples_per_client(40)
        .rounds(2)
        .local_epochs(1)
        .seed(500)
        .build();
    sim.set_agent(agent);
    let result = sim.run();
    assert!(result.history.last().unwrap().mean_keep_ratio < 1.0);
}
