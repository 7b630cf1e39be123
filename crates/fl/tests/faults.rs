//! Integration tests of the fault-injection and graceful-degradation
//! pipeline: seeded plans replay exactly, all five algorithms survive
//! heavy dropout, and a round that loses every client is a recorded
//! no-op — never a panic, never a NaN.

use spatl_data::{dirichlet_partition, synth_cifar10, Dataset, SynthConfig};
use spatl_fl::{Algorithm, FaultPlan, FlConfig, Simulation, SpatlOptions};
use spatl_models::{ModelConfig, ModelKind};
use spatl_tensor::TensorRng;

/// Absolute best-accuracy tolerance between a fault-free run and the same
/// run at 30% dropout (documented in DESIGN.md §8): losing a third of each
/// cohort slows convergence but must not collapse it. The band is loose
/// on purpose — with 4 clients on synthetic shards both trajectories are
/// chaotic, and any legitimate change to aggregation rounding (e.g. the
/// exact streaming fold) shifts where each run's best round lands.
const DROPOUT_TOLERANCE: f32 = 0.25;

fn shards(n_clients: usize, per_client: usize, seed: u64) -> Vec<(Dataset, Dataset)> {
    let cfg = SynthConfig {
        noise_std: 0.4,
        ..SynthConfig::cifar10_like()
    };
    let data = synth_cifar10(&cfg, n_clients * per_client, seed);
    let mut rng = TensorRng::seed_from(seed ^ 0xBEEF);
    let parts = dirichlet_partition(&data.labels, 10, n_clients, 0.5, &mut rng);
    parts
        .into_iter()
        .map(|idx| data.subset(&idx).split(0.75, &mut rng))
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

fn run_with(
    algorithm: Algorithm,
    rounds: usize,
    seed: u64,
    faults: Option<FaultPlan>,
) -> spatl_fl::RunResult {
    let mut cfg = mini_cfg(algorithm, rounds, seed);
    cfg.faults = faults;
    let model_cfg = ModelConfig::cifar(ModelKind::ResNet20);
    let mut sim = Simulation::new(cfg, model_cfg, shards(cfg.n_clients, 60, seed));
    sim.run()
}

#[test]
fn seeded_fault_runs_replay_identically() {
    // Acceptance: same FaultPlan seed → same history, fault ledger
    // included, regardless of rayon scheduling.
    let plan = FaultPlan {
        dropout: 0.3,
        duplicate: 0.4,
        seed: 0xFA171,
        ..Default::default()
    };
    let a = run_with(Algorithm::FedAvg, 4, 21, Some(plan));
    let b = run_with(Algorithm::FedAvg, 4, 21, Some(plan));
    assert_eq!(a.history.len(), b.history.len());
    for (ra, rb) in a.history.iter().zip(&b.history) {
        assert_eq!(ra.mean_acc, rb.mean_acc, "round {}", ra.round);
        assert_eq!(ra.cumulative_bytes, rb.cumulative_bytes);
        assert_eq!(ra.faults, rb.faults, "round {} fault ledger", ra.round);
        assert_eq!(ra.transfer_wall_s, rb.transfer_wall_s);
    }
    // The plan actually fired: some fault was observed over the run.
    assert!(
        a.history.iter().any(|r| r.faults.total() > 0),
        "a 30%-dropout plan over 4 rounds × 4 clients never faulted"
    );
}

#[test]
fn all_algorithms_complete_five_rounds_at_thirty_percent_dropout() {
    // Acceptance: every algorithm finishes a 5-round run at 30% dropout
    // without panicking, with finite accuracy throughout.
    let plan = FaultPlan {
        dropout: 0.3,
        seed: 0xD20,
        ..Default::default()
    };
    for (i, alg) in [
        Algorithm::FedAvg,
        Algorithm::FedProx { mu: 0.01 },
        Algorithm::Scaffold,
        Algorithm::FedNova,
        Algorithm::Spatl(SpatlOptions::default()),
    ]
    .into_iter()
    .enumerate()
    {
        let res = run_with(alg, 5, 30 + i as u64, Some(plan));
        assert_eq!(res.history.len(), 5, "{}", res.algorithm);
        for r in &res.history {
            assert!(
                r.mean_acc.is_finite(),
                "{} round {} went non-finite",
                res.algorithm,
                r.round
            );
            assert_eq!(
                r.faults.survivors + r.faults.dropouts,
                r.faults.sampled,
                "{} round {} lost clients without a ledger entry",
                res.algorithm,
                r.round
            );
        }
        assert!(
            res.history.iter().any(|r| r.faults.dropouts > 0),
            "{}: 30% dropout over 5 rounds × 4 clients never dropped anyone",
            res.algorithm
        );
    }
}

#[test]
fn dropout_accuracy_stays_within_documented_tolerance() {
    // Acceptance: FedAvg and SPATL at 30% dropout end within
    // DROPOUT_TOLERANCE of their fault-free best accuracy. Eight rounds,
    // not five: dropout mostly *delays* convergence, so comparing on the
    // steep part of the learning curve would measure curve offset, not
    // degradation (see DESIGN.md §8).
    for alg in [Algorithm::FedAvg, Algorithm::Spatl(SpatlOptions::default())] {
        let clean = run_with(alg, 8, 40, None);
        let faulty = run_with(alg, 8, 40, Some(FaultPlan::dropout_only(0.3)));
        let gap = clean.best_acc() - faulty.best_acc();
        assert!(
            gap <= DROPOUT_TOLERANCE,
            "{}: fault-free best {:.3} vs 30%-dropout best {:.3} (gap {:.3} > {})",
            clean.algorithm,
            clean.best_acc(),
            faulty.best_acc(),
            gap,
            DROPOUT_TOLERANCE
        );
    }
}

#[test]
fn fully_dropped_rounds_are_recorded_no_ops() {
    // Regression for the zero-survivor NaN: dropout = 1.0 loses every
    // sampled client every round. Nothing may move — not the model, not
    // the byte counters — and each record must say why.
    let mut cfg = mini_cfg(Algorithm::FedAvg, 3, 23);
    cfg.local_epochs = 1;
    cfg.faults = Some(FaultPlan::dropout_only(1.0));
    let model_cfg = ModelConfig::cifar(ModelKind::ResNet20);
    let mut sim = Simulation::new(cfg, model_cfg, shards(cfg.n_clients, 30, 23));
    let before = sim.global.shared.clone();
    let res = sim.run();

    assert_eq!(res.history.len(), 3);
    for r in &res.history {
        assert!(r.faults.no_op, "round {} should be a no-op", r.round);
        assert_eq!(r.faults.survivors, 0);
        assert_eq!(r.faults.dropouts, r.faults.sampled);
        assert_eq!(r.bytes.total(), 0, "a dropped client moves no bytes");
        assert_eq!(r.cumulative_bytes, 0);
        assert!(r.mean_acc.is_finite(), "no-op round went non-finite");
    }
    assert_eq!(
        sim.global.shared, before,
        "global drifted with no survivors"
    );
}

#[test]
fn fault_free_plan_matches_no_plan_exactly() {
    // A configured-but-all-zero plan must be byte-identical to running
    // with no plan at all: fault RNG streams never touch training
    // randomness, and zero probabilities never fire.
    let zero = FaultPlan {
        dropout: 0.0,
        duplicate: 0.0,
        ..Default::default()
    };
    let without = run_with(Algorithm::Scaffold, 3, 25, None);
    let with = run_with(Algorithm::Scaffold, 3, 25, Some(zero));
    for (ra, rb) in without.history.iter().zip(&with.history) {
        assert_eq!(ra.mean_acc, rb.mean_acc, "round {}", ra.round);
        assert_eq!(ra.per_client_acc, rb.per_client_acc);
        assert_eq!(ra.cumulative_bytes, rb.cumulative_bytes);
        assert_eq!(ra.wire, rb.wire);
        assert_eq!(ra.transfer_wall_s, rb.transfer_wall_s);
        assert_eq!(rb.faults.total(), 0, "zero plan must never fault");
    }
}
