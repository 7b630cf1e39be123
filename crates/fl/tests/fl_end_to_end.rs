//! End-to-end federated runs: every algorithm must actually learn on a
//! miniature Non-IID task, and communication accounting must hold.

use spatl_data::{dirichlet_partition, synth_cifar10, Dataset, SynthConfig};
use spatl_fl::{Algorithm, FlConfig, Simulation, SpatlOptions};
use spatl_models::{ModelConfig, ModelKind};
use spatl_tensor::TensorRng;

fn shards(n_clients: usize, per_client: usize, beta: f64, seed: u64) -> Vec<(Dataset, Dataset)> {
    let cfg = SynthConfig {
        noise_std: 0.4,
        ..SynthConfig::cifar10_like()
    };
    let total = n_clients * per_client;
    let data = synth_cifar10(&cfg, total, seed);
    let mut rng = TensorRng::seed_from(seed ^ 0xBEEF);
    let parts = dirichlet_partition(&data.labels, 10, n_clients, beta, &mut rng);
    parts
        .into_iter()
        .map(|idx| {
            let shard = data.subset(&idx);
            shard.split(0.75, &mut rng)
        })
        .collect()
}

fn mini_cfg(algorithm: Algorithm, rounds: usize, seed: u64) -> FlConfig {
    let mut cfg = FlConfig::new(algorithm);
    cfg.n_clients = 4;
    cfg.sample_ratio = 1.0;
    cfg.rounds = rounds;
    cfg.local_epochs = 2;
    cfg.batch_size = 16;
    cfg.seed = seed;
    cfg
}

fn run(algorithm: Algorithm, rounds: usize, seed: u64) -> spatl_fl::RunResult {
    let cfg = mini_cfg(algorithm, rounds, seed);
    let model_cfg = ModelConfig::cifar(ModelKind::ResNet20);
    let mut sim = Simulation::new(cfg, model_cfg, shards(cfg.n_clients, 60, 0.5, seed));
    sim.run()
}

#[test]
fn fedavg_learns_above_chance() {
    let res = run(Algorithm::FedAvg, 6, 1);
    assert!(
        res.best_acc() > 0.25,
        "FedAvg best acc {} not above chance",
        res.best_acc()
    );
    assert_eq!(res.history.len(), 6);
}

#[test]
fn fedprox_learns_above_chance() {
    let res = run(Algorithm::FedProx { mu: 0.01 }, 6, 2);
    assert!(res.best_acc() > 0.25, "FedProx best acc {}", res.best_acc());
}

#[test]
fn scaffold_learns_above_chance() {
    let res = run(Algorithm::Scaffold, 6, 3);
    assert!(
        res.best_acc() > 0.25,
        "SCAFFOLD best acc {}",
        res.best_acc()
    );
}

#[test]
fn fednova_learns_above_chance() {
    let res = run(Algorithm::FedNova, 6, 4);
    assert!(res.best_acc() > 0.25, "FedNova best acc {}", res.best_acc());
}

#[test]
fn spatl_learns_above_chance_and_selects() {
    let res = run(Algorithm::Spatl(SpatlOptions::default()), 6, 5);
    assert!(res.best_acc() > 0.25, "SPATL best acc {}", res.best_acc());
    // Selection actually happened: uploads were sparse.
    let last = res.history.last().unwrap();
    assert!(
        last.mean_keep_ratio < 1.0,
        "keep ratio {}",
        last.mean_keep_ratio
    );
    assert!(
        last.mean_flops_ratio < 1.0,
        "flops ratio {}",
        last.mean_flops_ratio
    );
}

#[test]
fn spatl_per_round_bytes_below_scaffold() {
    let spatl = run(Algorithm::Spatl(SpatlOptions::default()), 2, 6);
    let scaffold = run(Algorithm::Scaffold, 2, 6);
    assert!(
        spatl.bytes_per_round_per_client < scaffold.bytes_per_round_per_client,
        "SPATL {} !< SCAFFOLD {}",
        spatl.bytes_per_round_per_client,
        scaffold.bytes_per_round_per_client
    );
}

#[test]
fn comm_accounting_is_cumulative_and_monotone() {
    let res = run(Algorithm::FedAvg, 4, 7);
    let mut prev = 0u64;
    for r in &res.history {
        assert!(r.cumulative_bytes > prev);
        assert_eq!(r.cumulative_bytes - prev, r.bytes.total());
        prev = r.cumulative_bytes;
    }
    // FedAvg: every participant moves exactly 2 × 4 bytes × |shared|.
    let model = ModelConfig::cifar(ModelKind::ResNet20).build();
    let p = model.num_params() as u64;
    assert_eq!(res.history[0].bytes.total(), 4 * (2 * 4 * p));
}

#[test]
fn partial_sampling_trains_subset_only() {
    let mut cfg = mini_cfg(Algorithm::FedAvg, 1, 8);
    cfg.n_clients = 6;
    cfg.sample_ratio = 0.5;
    let model_cfg = ModelConfig::cifar(ModelKind::ResNet20);
    let mut sim = Simulation::new(cfg, model_cfg, shards(6, 40, 0.5, 8));
    sim.run_round();
    let participated = sim.clients.iter().filter(|c| c.participations > 0).count();
    assert_eq!(participated, 3);
}

#[test]
fn runs_are_deterministic_given_seed() {
    let a = run(Algorithm::FedAvg, 3, 9);
    let b = run(Algorithm::FedAvg, 3, 9);
    for (ra, rb) in a.history.iter().zip(&b.history) {
        assert_eq!(ra.mean_acc, rb.mean_acc);
        assert_eq!(ra.cumulative_bytes, rb.cumulative_bytes);
    }
}

#[test]
fn spatl_predictors_diverge_across_clients() {
    let cfg = mini_cfg(Algorithm::Spatl(SpatlOptions::default()), 2, 10);
    let model_cfg = ModelConfig::cifar(ModelKind::ResNet20);
    let mut sim = Simulation::new(cfg, model_cfg, shards(4, 40, 0.3, 10));
    sim.run();
    // Heterogeneous predictors: clients' heads differ after training.
    let p0 = sim.clients[0].model.predictor.to_flat();
    let p1 = sim.clients[1].model.predictor.to_flat();
    assert_ne!(
        p0, p1,
        "predictors should be client-specific under transfer"
    );
    // Encoders agree with the global (after final sync in evaluate_all).
    let e0 = sim.clients[0].model.encoder.to_flat();
    let e1 = sim.clients[1].model.encoder.to_flat();
    assert_eq!(e0, e1, "encoders must be the shared global copy");
}

#[test]
fn single_class_clients_do_not_crash() {
    // Failure injection: extreme skew gives some clients a single class.
    let cfg = SynthConfig::cifar10_like();
    let data = synth_cifar10(&cfg, 120, 11);
    let mut rng = TensorRng::seed_from(11);
    let parts = dirichlet_partition(&data.labels, 10, 4, 0.05, &mut rng);
    let shards: Vec<(Dataset, Dataset)> = parts
        .into_iter()
        .map(|idx| {
            let s = data.subset(&idx);
            let n = s.len();
            // Tiny val split; may contain one class only.
            (
                s.subset(&(0..n.max(1) - 1).collect::<Vec<_>>()),
                s.subset(&[n - 1]),
            )
        })
        .collect();
    let mut fl = mini_cfg(Algorithm::FedAvg, 1, 11);
    fl.n_clients = 4;
    let mut sim = Simulation::new(fl, ModelConfig::cifar(ModelKind::ResNet20), shards);
    let rec = sim.run_round();
    assert!(rec.mean_acc.is_finite());
}
