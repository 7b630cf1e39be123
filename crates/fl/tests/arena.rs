//! A simulated client keeps only its parameters between rounds. Scratch
//! belongs to the worker thread (`spatl_nn::with_arena`), so neither the
//! most a round holds from a thread's arena nor the buffers an arena pools
//! grow with the cohort or the rounds, and once a round is over no client
//! layer holds a cache.

use spatl_data::{synth_cifar10, SynthConfig};
use spatl_fl::{Algorithm, FlConfig, Simulation};
use spatl_models::{ModelConfig, ModelKind};
use spatl_tensor::TensorRng;

/// FedAvg over `n` clients with equal shards: 32 training samples (two
/// full batches) and 8 validation samples each, so an evaluation holds
/// less than a training step.
fn simulation(n: usize) -> Simulation {
    let mut cfg = FlConfig::new(Algorithm::FedAvg);
    cfg.n_clients = n;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    cfg.seed = 3;
    let mut rng = TensorRng::seed_from(cfg.seed);
    let shards = (0..n as u64)
        .map(|i| synth_cifar10(&SynthConfig::cifar10_like(), 40, 100 + i).split(0.8, &mut rng))
        .collect();
    Simulation::new(cfg, ModelConfig::cifar(ModelKind::ResNet20), shards)
}

/// Return every client's caches to this thread's arena; true if one held
/// any, since each would have added a buffer to the pool.
fn any_client_held_a_cache(sim: &mut Simulation) -> bool {
    let before = spatl_nn::arena_pooled();
    for c in &mut sim.clients {
        c.model.encoder.clear_caches();
        c.model.predictor.clear_caches();
    }
    spatl_nn::arena_pooled() != before
}

#[test]
fn the_thread_arenas_do_not_grow_with_the_cohort_or_the_rounds() {
    let mut one = simulation(1);
    one.run_round();
    let high_water = spatl_nn::arena_stats().high_water_elements;
    assert!(high_water > 0, "the round trained on this thread");
    // Each arena pools as many buffers as the most its depth ever had out
    // at once: one client's working set, however often the pool nests
    // another client's update inside a wait.
    let working_set = *spatl_nn::arena_pooled().iter().max().unwrap();
    assert!(!any_client_held_a_cache(&mut one));

    let mut many = simulation(16);
    let threads = rayon::current_num_threads();
    for round in 0..4 {
        many.run_round();
        assert_eq!(
            spatl_nn::arena_stats().high_water_elements,
            high_water,
            "round {round}"
        );
        let pooled = spatl_nn::arena_pooled();
        assert!(
            pooled.iter().all(|&p| p <= working_set),
            "round {round}, {threads} threads: {pooled:?} > {working_set}"
        );
        assert!(!any_client_held_a_cache(&mut many), "round {round}");
    }
}
