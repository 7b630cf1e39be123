//! A simulated client keeps only its parameters between rounds. Scratch
//! belongs to the thread (`spatl_nn::with_arena`), which keeps one arena,
//! so neither the most a round holds from it nor the buffers it pools grow
//! with the cohort or the rounds, and once a round is over no client layer
//! holds a cache.

use spatl_data::{synth_cifar10, SynthConfig};
use spatl_fl::{Algorithm, FlConfig, Simulation};
use spatl_models::{ModelConfig, ModelKind};
use spatl_tensor::TensorRng;

/// FedAvg over `n` clients with equal shards: 32 training samples (two
/// full batches) and 8 validation samples each, so an evaluation holds
/// less than a training step.
fn simulation(n: usize, seed: u64) -> Simulation {
    let mut cfg = FlConfig::new(Algorithm::FedAvg);
    cfg.n_clients = n;
    cfg.local_epochs = 1;
    cfg.batch_size = 16;
    cfg.seed = seed;
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
    let mut one = simulation(1, 3);
    one.run_round();
    let high_water = spatl_nn::arena_stats().high_water_elements;
    assert!(high_water > 0, "the round trained on this thread");
    // The arena pools as many buffers as the most it ever had out at
    // once: one client's working set.
    let working_set = spatl_nn::arena_pooled();
    assert!(!any_client_held_a_cache(&mut one));

    let mut many = simulation(16, 3);
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
            pooled <= working_set,
            "round {round}, {threads} threads: {pooled} > {working_set}"
        );
        assert!(!any_client_held_a_cache(&mut many), "round {round}");
    }
}

/// The global parameters after one round of `sim`, as bits.
fn round_bits(mut sim: Simulation) -> Vec<u32> {
    sim.run_round();
    sim.driver
        .global
        .shared
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

#[test]
fn concurrent_rounds_keep_their_bits_and_one_arena_per_thread() {
    // (clients, seed): the 1-client round runs outside any pool job, so it
    // splits its kernels and, waiting in them while it holds its arena,
    // may help run the 4-client round's client updates, which then run on
    // a fresh arena.
    let rounds = [(1, 3), (4, 4)];
    let want = rounds.map(|(n, seed)| round_bits(simulation(n, seed)));
    let working_set = std::thread::scope(|s| {
        s.spawn(|| {
            simulation(1, 3).run_round();
            spatl_nn::arena_pooled()
        })
        .join()
        .unwrap()
    });
    let start = std::sync::Barrier::new(rounds.len());
    let got = std::thread::scope(|s| {
        let handles = rounds.map(|(n, seed)| {
            let start = &start;
            s.spawn(move || {
                let sim = simulation(n, seed);
                start.wait();
                let bits = round_bits(sim);
                let outstanding = spatl_nn::arena_stats().outstanding_elements;
                (bits, outstanding, spatl_nn::arena_pooled())
            })
        });
        handles.map(|h| h.join().unwrap())
    });
    let threads = rayon::current_num_threads();
    for ((bits, outstanding, pooled), (want, (n, _))) in
        got.into_iter().zip(want.into_iter().zip(rounds))
    {
        assert_eq!(bits, want, "{n} clients, {threads} threads");
        assert_eq!(outstanding, 0, "{n} clients");
        assert!(
            pooled <= working_set,
            "{n} clients, {threads} threads: {pooled} > {working_set}"
        );
    }
}
