//! EXP-CHURN — trace-driven client availability (DESIGN.md §8).
//!
//! Three claims are exercised in process:
//!
//! 1. **Availability-driven cohorts** — under a churn plan the per-round
//!    cohort is sampled from the clients the availability model has
//!    online, so the cross-device profile (duty 0.4, staggered arrival)
//!    yields visibly smaller cohorts and more ledgered dropouts than the
//!    cross-silo profile, on the same session seed.
//! 2. **Determinism** — the same training seed and the same churn seed
//!    reproduce the cohort sequence, the fault ledger and the final
//!    global bit-for-bit (asserted here by running each profile twice).
//! 3. **O(cohort) sampling** — drawing a cohort out of a large virtual
//!    population costs memory and time proportional to the cohort, not
//!    the population: a 100k-client population is sampled directly
//!    through [`ChurnPlan::sample_cohort`] without materialising any
//!    per-client state.

use std::time::Instant;

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{col, extend, run_record, Fmt, Scale, Section};

fn run_with(churn: Option<ChurnPlan>, clients: usize, rounds: usize, samples: usize) -> RunResult {
    let mut b = ExperimentBuilder::new(Algorithm::FedAvg)
        .model(ModelKind::Cnn2)
        .clients(clients)
        .sample_ratio(0.5)
        .samples_per_client(samples)
        .rounds(rounds)
        .local_epochs(1)
        .batch_size(8)
        .seed(13);
    if let Some(plan) = churn {
        b = b.churn(plan);
    }
    b.run()
}

pub fn run(scale: Scale) -> Vec<Section> {
    let clients = scale.pick(6, 10);
    let rounds = scale.pick(4, 8);
    let samples = scale.pick(18, 40);
    let population = scale.pick(100_000usize, 250_000usize);

    let mut cohorts = Section::new(
        format!("churn-realistic cohorts ({clients} clients, {rounds} rounds, sample ratio 0.5)"),
        vec![
            col("profile", "profile", Fmt::Text),
            col("sampled", "sampled", Fmt::Text),
            col("survivors", "survived", Fmt::Text),
            col("dropouts", "dropped", Fmt::Text),
            col("no-op rounds", "no_op_rounds", Fmt::Text),
            col("final acc", "final_acc", Fmt::Pct),
        ],
    );

    let profiles: [(&str, Option<ChurnPlan>); 3] = [
        ("always-on", None),
        ("cross-silo", Some(ChurnPlan::cross_silo())),
        ("cross-device", Some(ChurnPlan::cross_device())),
    ];
    let mut sampled_by_profile = Vec::new();
    for (name, plan) in profiles {
        let result = run_with(plan, clients, rounds, samples);
        // Claim 2: a rerun with identical seeds is bit-identical, ledger
        // included — churn is part of the deterministic replay surface.
        let rerun = run_with(plan, clients, rounds, samples);
        for (a, b) in result.history.iter().zip(&rerun.history) {
            assert_eq!(
                a.mean_acc.to_bits(),
                b.mean_acc.to_bits(),
                "{name}: churn must be deterministic"
            );
            assert_eq!(
                (a.faults.sampled, a.faults.dropouts, a.faults.survivors),
                (b.faults.sampled, b.faults.dropouts, b.faults.survivors),
                "{name}: fault ledgers must replay"
            );
        }
        let sampled: usize = result.history.iter().map(|r| r.faults.sampled).sum();
        cohorts.push(extend(json!({ "profile": name }), run_record(&result)));
        sampled_by_profile.push((name, sampled));
    }
    // Claim 1: lower duty means fewer sampled participants overall.
    let sampled_of = |n: &str| {
        sampled_by_profile
            .iter()
            .find(|(name, _)| *name == n)
            .map(|(_, s)| *s)
            .expect("profile ran")
    };
    assert!(
        sampled_of("cross-device") < sampled_of("always-on"),
        "cross-device churn must shrink the sampled cohorts"
    );

    // Claim 3: cohorts out of a large virtual population, O(cohort).
    let model = ChurnPlan::cross_device();
    let k = 256usize;
    let sweep_rounds = 32usize;
    let started = Instant::now();
    let mut drawn_total = 0usize;
    for round in 0..sweep_rounds {
        let cohort = model.sample_cohort(round, k, population);
        assert!(cohort.len() <= k);
        assert!(cohort.windows(2).all(|w| w[0] < w[1]), "ascending ids");
        assert!(cohort.iter().all(|&c| c < population), "ids in range");
        drawn_total += cohort.len();
    }
    let elapsed = started.elapsed().as_secs_f64();
    let mut sweep = Section::new(
        "population sweep: cohorts out of a virtual population, O(cohort) memory",
        vec![
            col("population", "population", Fmt::Text),
            col("cohort cap", "cohort_cap", Fmt::Text),
            col("cohorts", "rounds", Fmt::Text),
            col("drawn", "drawn_total", Fmt::Text),
            col("seconds", "elapsed_s", Fmt::Fixed3),
        ],
    );
    sweep.push(json!({
        "population": population,
        "cohort_cap": k,
        "rounds": sweep_rounds,
        "drawn_total": drawn_total,
        "elapsed_s": elapsed,
    }));
    vec![cohorts, sweep]
}
