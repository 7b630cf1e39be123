//! Integration and property tests of the Byzantine-defense pipeline:
//! robust aggregators agree with naive reference implementations, the
//! default configuration replays the pre-defense behaviour bit-for-bit,
//! seeded adversarial runs replay exactly, and — the headline — at a 30%
//! attacker fraction the defended server stays within tolerance of the
//! attack-free run while the undefended weighted mean collapses.

use spatl_data::{dirichlet_partition, synth_cifar10, Dataset, SynthConfig};
use spatl_fl::{
    AdversaryPlan, AggregatorKind, Algorithm, AttackKind, CommModel, FlConfig, GlobalState,
    LocalOutcome, ScreenPolicy, Simulation, WireBytes,
};
use spatl_models::{ModelConfig, ModelKind};
use spatl_tensor::TensorRng;

/// Acceptance tolerance (ISSUE 4): at a 30% attacker fraction the defended
/// run's final accuracy must sit within 5 points of the attack-free run.
const DEFENSE_TOLERANCE: f32 = 0.05;

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

fn mini_cfg(algorithm: Algorithm, n_clients: usize, rounds: usize, seed: u64) -> FlConfig {
    let mut cfg = FlConfig::new(algorithm);
    cfg.n_clients = n_clients;
    cfg.sample_ratio = 1.0;
    cfg.rounds = rounds;
    cfg.local_epochs = 2;
    cfg.batch_size = 16;
    cfg.seed = seed;
    cfg
}

fn run(cfg: FlConfig, seed: u64) -> spatl_fl::RunResult {
    let model_cfg = ModelConfig::cifar(ModelKind::ResNet20);
    let mut sim = Simulation::new(cfg, model_cfg, shards(cfg.n_clients, 60, seed));
    sim.run()
}

fn bits(h: &spatl_fl::RunResult) -> Vec<u32> {
    h.history.iter().map(|r| r.mean_acc.to_bits()).collect()
}

// ---------------------------------------------------------------------------
// Property tests: robust statistics against naive references.
// ---------------------------------------------------------------------------

fn outcome(id: usize, delta: Vec<f32>, n_samples: usize) -> LocalOutcome {
    LocalOutcome {
        client_id: id,
        n_samples,
        tau: 1,
        delta,
        selected: None,
        compressed: None,
        control_delta: None,
        velocity: None,
        buffers: Vec::new(),
        diverged: false,
        masked: None,
        fixed: None,
        bytes: CommModel::dense(0),
        wire: WireBytes::default(),
        frames: Vec::new(),
        keep_ratio: 1.0,
        flops_ratio: 1.0,
    }
}

fn empty_global(p: usize) -> GlobalState {
    GlobalState {
        shared: vec![0.0; p],
        control: Vec::new(),
        momentum: Vec::new(),
        buffers: Vec::new(),
    }
}

fn naive_median(mut xs: Vec<f32>) -> f32 {
    xs.sort_by(f32::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

fn naive_trimmed(mut xs: Vec<f32>, ratio: f32) -> f32 {
    xs.sort_by(f32::total_cmp);
    let k = (ratio * xs.len() as f32).floor() as usize;
    if xs.len() <= 2 * k {
        return naive_median(xs);
    }
    let kept = &xs[k..xs.len() - k];
    kept.iter().sum::<f32>() / kept.len() as f32
}

#[test]
fn coordinate_median_matches_naive_reference() {
    let p = 17;
    for seed in 0..8u64 {
        let mut rng = TensorRng::seed_from(seed ^ 0x11ED);
        let n = 3 + (seed as usize % 5);
        let cohort: Vec<LocalOutcome> = (0..n)
            .map(|id| {
                let delta: Vec<f32> = (0..p).map(|_| rng.normal(0.0, 2.0)).collect();
                outcome(id, delta, 5 + id) // unequal weights: must be ignored
            })
            .collect();
        let cfg = FlConfig {
            aggregator: AggregatorKind::CoordinateMedian,
            ..FlConfig::new(Algorithm::FedAvg)
        };
        let mut g = empty_global(p);
        assert!(g.aggregate(&cfg, &cohort, n));
        for j in 0..p {
            let expect = naive_median(cohort.iter().map(|o| o.delta[j]).collect());
            assert_eq!(g.shared[j], expect, "seed {seed}, coord {j}");
        }
    }
}

#[test]
fn coordinate_trimmed_mean_matches_naive_reference() {
    let p = 11;
    for seed in 0..8u64 {
        for &ratio in &[0.0f32, 0.2, 0.4] {
            let mut rng = TensorRng::seed_from(seed ^ 0x731);
            let n = 2 + (seed as usize % 6);
            let cohort: Vec<LocalOutcome> = (0..n)
                .map(|id| {
                    let delta: Vec<f32> = (0..p).map(|_| rng.normal(0.0, 1.0)).collect();
                    outcome(id, delta, 10)
                })
                .collect();
            let cfg = FlConfig {
                aggregator: AggregatorKind::CoordinateTrimmedMean { trim_ratio: ratio },
                ..FlConfig::new(Algorithm::FedAvg)
            };
            let mut g = empty_global(p);
            assert!(g.aggregate(&cfg, &cohort, n));
            for j in 0..p {
                let expect = naive_trimmed(cohort.iter().map(|o| o.delta[j]).collect(), ratio);
                assert!(
                    (g.shared[j] - expect).abs() < 1e-6,
                    "seed {seed}, ratio {ratio}, coord {j}"
                );
            }
        }
    }
}

#[test]
fn weighted_mean_matches_naive_fedavg_reference() {
    // The default aggregator must implement the published sample-weighted
    // rule exactly — the regression anchor for the pre-defense behaviour.
    let p = 9;
    let mut rng = TensorRng::seed_from(0xAB);
    let cohort: Vec<LocalOutcome> = (0..4)
        .map(|id| {
            let delta: Vec<f32> = (0..p).map(|_| rng.normal(0.0, 1.0)).collect();
            outcome(id, delta, 3 + 2 * id)
        })
        .collect();
    let cfg = FlConfig::new(Algorithm::FedAvg);
    assert_eq!(cfg.aggregator, AggregatorKind::WeightedMean);
    let mut g = empty_global(p);
    assert!(g.aggregate(&cfg, &cohort, 4));
    let total: f32 = cohort.iter().map(|o| o.n_samples as f32).sum();
    for j in 0..p {
        let expect: f32 = cohort
            .iter()
            .map(|o| (o.n_samples as f32 / total) * o.delta[j])
            .sum();
        assert!((g.shared[j] - expect).abs() < 1e-6, "coord {j}");
    }
}

#[test]
fn median_and_trim_neutralise_a_minority_outlier() {
    // One attacker at λ=1000 among three honest clients: the robust rules
    // land on the honest scale, the weighted mean does not.
    let honest = vec![1.0f32; 4];
    let cohort = vec![
        outcome(0, honest.clone(), 10),
        outcome(1, honest.clone(), 10),
        outcome(2, honest, 10),
        outcome(3, vec![1000.0; 4], 10),
    ];
    for kind in [
        AggregatorKind::CoordinateMedian,
        AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.25 },
        AggregatorKind::NormClippedMean,
    ] {
        let cfg = FlConfig {
            aggregator: kind,
            ..FlConfig::new(Algorithm::FedAvg)
        };
        let mut g = empty_global(4);
        assert!(g.aggregate(&cfg, &cohort, 4));
        assert!(
            g.shared.iter().all(|&v| v.abs() < 10.0),
            "{} must bound the outlier's influence, got {:?}",
            kind.name(),
            g.shared
        );
    }
    let mut g = empty_global(4);
    assert!(g.aggregate(&FlConfig::new(Algorithm::FedAvg), &cohort, 4));
    assert!(
        g.shared.iter().all(|&v| v > 100.0),
        "the undefended mean must be dominated by the attacker"
    );
}

// ---------------------------------------------------------------------------
// Bit-identity regressions: defenses off ≡ the pre-defense code path.
// ---------------------------------------------------------------------------

#[test]
fn zero_fraction_adversary_replays_bit_identically() {
    // Toggling an AdversaryPlan with fraction 0 must not perturb training
    // randomness or aggregation in any way.
    let base = mini_cfg(Algorithm::FedAvg, 4, 2, 33);
    let mut with_plan = base;
    with_plan.adversary = Some(AdversaryPlan::default());
    assert_eq!(bits(&run(base, 33)), bits(&run(with_plan, 33)));
}

#[test]
fn screen_is_inert_on_an_honest_cohort() {
    // An honest cohort at these settings stays inside the tolerance band:
    // nothing is quarantined and the run replays bit-identically.
    let base = mini_cfg(Algorithm::FedAvg, 4, 2, 34);
    let mut screened = base;
    screened.screen = Some(ScreenPolicy::default());
    let a = run(base, 34);
    let b = run(screened, 34);
    assert_eq!(bits(&a), bits(&b));
    assert!(b.history.iter().all(|r| r.faults.quarantined == 0));
}

#[test]
fn seeded_adversarial_runs_replay_identically() {
    let mut cfg = mini_cfg(Algorithm::FedAvg, 4, 2, 35);
    cfg.adversary = Some(AdversaryPlan::with_attack(0.5, AttackKind::SignFlip));
    cfg.screen = Some(ScreenPolicy::default());
    cfg.aggregator = AggregatorKind::CoordinateMedian;
    let a = run(cfg, 35);
    let b = run(cfg, 35);
    assert_eq!(bits(&a), bits(&b));
    for (ra, rb) in a.history.iter().zip(&b.history) {
        assert_eq!(ra.faults, rb.faults, "round {} ledger", ra.round);
        assert!(ra.faults.byzantine > 0, "the attack must actually fire");
    }
}

// ---------------------------------------------------------------------------
// Headline acceptance: defense keeps accuracy, no defense loses it.
// ---------------------------------------------------------------------------

#[test]
fn defended_run_survives_30pct_scale_attack_undefended_does_not() {
    let seed = 40;
    let n = 5; // fraction 0.3 → round(1.5) = 2 of 5 clients Byzantine
    let clean = run(mini_cfg(Algorithm::FedAvg, n, 4, seed), seed);

    let plan = AdversaryPlan::with_attack(0.3, AttackKind::ScaleAttack); // λ = 100
    let mut undefended = mini_cfg(Algorithm::FedAvg, n, 4, seed);
    undefended.adversary = Some(plan);
    let undefended = run(undefended, seed);

    let mut defended = mini_cfg(Algorithm::FedAvg, n, 4, seed);
    defended.adversary = Some(plan);
    defended.screen = Some(ScreenPolicy::default());
    defended.aggregator = AggregatorKind::CoordinateMedian;
    let defended = run(defended, seed);

    // Every Byzantine upload is on the ledger, and the screen caught each
    // one (λ=100 sits far outside the tolerance band) — reproducible from
    // the plan seed alone.
    for r in &defended.history {
        assert_eq!(r.faults.byzantine, 2, "round {}", r.round);
        assert_eq!(r.faults.quarantined, 2, "round {}", r.round);
        assert_eq!(r.faults.survivors, n - 2, "round {}", r.round);
    }

    let clean_acc = clean.final_acc();
    assert!(
        undefended.final_acc() < clean_acc - DEFENSE_TOLERANCE,
        "undefended weighted mean must collapse under λ=100 boosting: \
         clean {clean_acc:.3} vs undefended {:.3}",
        undefended.final_acc()
    );
    assert!(
        defended.final_acc() >= clean_acc - DEFENSE_TOLERANCE,
        "screen + coordinate median must hold within 5 points: \
         clean {clean_acc:.3} vs defended {:.3}",
        defended.final_acc()
    );
}

#[test]
fn nan_injection_is_quarantined_and_the_model_stays_finite() {
    let seed = 41;
    let mut cfg = mini_cfg(Algorithm::FedAvg, 4, 2, seed);
    cfg.adversary = Some(AdversaryPlan::with_attack(0.25, AttackKind::NanInjection));
    cfg.screen = Some(ScreenPolicy::default());
    let model_cfg = ModelConfig::cifar(ModelKind::ResNet20);
    let mut sim = Simulation::new(cfg, model_cfg, shards(cfg.n_clients, 60, seed));
    let result = sim.run();
    for r in &result.history {
        assert_eq!(r.faults.byzantine, 1, "round {}", r.round);
        assert_eq!(r.faults.quarantined, 1, "round {}", r.round);
    }
    assert!(
        sim.global.shared.iter().all(|v| v.is_finite()),
        "one quarantined NaN upload must never reach the global model"
    );
}

#[test]
fn norm_clipping_alone_survives_nan_injection_without_a_screen() {
    // Regression (REVIEW): NormClippedMean used to "zero" non-finite
    // uploads by multiplying with 0.0, which IEEE arithmetic turns into
    // NaN — with no ScreenPolicy configured, one poisoned upload reached
    // the weighted mean and destroyed the global model. Dropping the
    // upload must keep the run finite with the clip as the only defense.
    let seed = 43;
    let mut cfg = mini_cfg(Algorithm::FedAvg, 4, 2, seed);
    cfg.adversary = Some(AdversaryPlan::with_attack(0.25, AttackKind::NanInjection));
    cfg.aggregator = AggregatorKind::NormClippedMean;
    assert!(cfg.screen.is_none(), "the clip must stand on its own");
    let model_cfg = ModelConfig::cifar(ModelKind::ResNet20);
    let mut sim = Simulation::new(cfg, model_cfg, shards(cfg.n_clients, 60, seed));
    let result = sim.run();
    for r in &result.history {
        assert_eq!(r.faults.byzantine, 1, "round {}", r.round);
    }
    assert!(
        sim.global.shared.iter().all(|v| v.is_finite()),
        "an unscreened NaN upload must never poison the clipped mean"
    );
    assert!(sim.global.buffers.iter().all(|v| v.is_finite()));
}

#[test]
fn spatl_robust_aggregation_survives_sign_flip() {
    // SPATL's sparse channel-indexed uploads go through the per-index
    // robust path; with a Byzantine minority sign-flipping, the defended
    // run must stay finite and keep learning signal.
    let seed = 42;
    let mut cfg = mini_cfg(
        Algorithm::Spatl(spatl_fl::SpatlOptions::default()),
        4,
        2,
        seed,
    );
    cfg.adversary = Some(AdversaryPlan::with_attack(0.25, AttackKind::SignFlip));
    cfg.aggregator = AggregatorKind::CoordinateMedian;
    let model_cfg = ModelConfig::cifar(ModelKind::ResNet20);
    let mut sim = Simulation::new(cfg, model_cfg, shards(cfg.n_clients, 60, seed));
    let result = sim.run();
    assert!(sim.global.shared.iter().all(|v| v.is_finite()));
    for r in &result.history {
        assert_eq!(r.faults.byzantine, 1, "round {}", r.round);
    }
}
