//! FAULTS — accuracy under client dropout (DESIGN.md §8, EXPERIMENTS.md).
//!
//! Sweep the per-round dropout probability over {0, 0.1, 0.3} for FedAvg
//! and SPATL on the CIFAR-like task, and report best/final accuracy plus
//! the per-run fault ledger (dropouts, survivors). The fault plan is
//! seeded, so every row reproduces exactly.

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{col, extend, run_record, Fmt, Scale, Section};

pub fn run(scale: Scale) -> Vec<Section> {
    let rounds = scale.pick(5, 10);
    let clients = scale.pick(4, 8);
    let dropouts = [0.0, 0.1, 0.3];
    let algs: Vec<(Algorithm, &'static str)> = vec![
        (Algorithm::FedAvg, "FedAvg"),
        (Algorithm::Spatl(SpatlOptions::default()), "SPATL"),
    ];

    let mut section = Section::new(
        format!(
            "accuracy vs per-round dropout, {clients} clients, {rounds} rounds, fault seed 0x5EED"
        ),
        vec![
            col("Method", "algorithm", Fmt::Text),
            col("Dropout", "dropout", Fmt::Pct),
            col("Best acc", "best_acc", Fmt::Pct),
            col("Final acc", "final_acc", Fmt::Pct),
            col("Gap to fault-free", "gap_to_fault_free", Fmt::Pp),
            col("Sampled", "sampled", Fmt::Text),
            col("Dropped", "dropped", Fmt::Text),
            col("Survived", "survived", Fmt::Text),
            col("No-op rounds", "no_op_rounds", Fmt::Text),
        ],
    );
    for (alg, name) in &algs {
        let mut baseline_best = 0.0f32;
        for &p in &dropouts {
            let mut builder = ExperimentBuilder::new(*alg)
                .clients(clients)
                .samples_per_client(scale.pick(60, 90))
                .rounds(rounds)
                .local_epochs(2)
                .seed(1);
            if p > 0.0 {
                builder = builder.faults(FaultPlan::dropout_only(p));
            }
            let result = builder.run();
            if p == 0.0 {
                baseline_best = result.best_acc();
            }
            section.push(extend(
                json!({
                    "algorithm": name,
                    "dropout": p,
                    "rounds": rounds,
                    "clients": clients,
                    "gap_to_fault_free": baseline_best - result.best_acc(),
                }),
                run_record(&result),
            ));
        }
    }
    vec![section]
}
