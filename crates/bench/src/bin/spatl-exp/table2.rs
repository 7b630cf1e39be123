//! TAB-2 — convergence at larger client scales (paper Table II).
//!
//! Train to convergence (fixed round budget at harness scale) with partial
//! participation, reporting converge rounds, per-round cost, total cost,
//! speed-up and average converge accuracy with Δ vs FedAvg.

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{cli, col, extend, run_record, Fmt, Scale, Section};

pub fn run(scale: Scale) -> Vec<Section> {
    let rounds = scale.pick(6, 8);

    // (model, clients, sample_ratio) — the paper's 30/0.4, 50/0.7, 100/0.4
    // ladder, scaled.
    let settings: Vec<(ModelKind, usize, f32)> = match scale {
        Scale::Quick => vec![(ModelKind::ResNet20, 8, 0.5)],
        Scale::Full => vec![
            (ModelKind::ResNet20, 30, 0.4),
            (ModelKind::ResNet20, 50, 0.4),
            (ModelKind::Vgg11, 10, 0.4),
        ],
    };
    let algs = cli::algorithms_baseline_first();

    let mut section = Section::new(
        format!("convergence under partial participation, {rounds} rounds"),
        vec![
            col("Method", "algorithm", Fmt::Text),
            col("Model", "model", Fmt::Text),
            col("Clients", "clients", Fmt::Text),
            col("Ratio", "sample_ratio", Fmt::Text),
            col("Round/Client", "bytes_per_round_per_client", Fmt::Mb),
            col("Total", "total_bytes", Fmt::Mb),
            col("Avg. Acc.", "avg_acc", Fmt::Pct),
            col("ΔAcc vs FedAvg", "delta_acc_vs_fedavg", Fmt::Pp),
        ],
    );
    for (model, clients, ratio) in settings {
        let mut fedavg_acc = 0.0f32;
        for (alg, name) in &algs {
            let mut sim = ExperimentBuilder::new(*alg)
                .model(model)
                .clients(clients)
                .sample_ratio(ratio)
                .samples_per_client(scale.pick(50, 60))
                .rounds(rounds)
                .local_epochs(2)
                .seed(3)
                .build();
            sim.run();
            // Deployment protocol (Eq. 4) for never-sampled clients.
            let final_accs = sim.finalize(3);
            let acc = final_accs.iter().sum::<f32>() / final_accs.len() as f32;
            let result = sim.result();
            if *name == "FedAvg" {
                fedavg_acc = acc;
            }
            section.push(extend(
                json!({
                    "algorithm": name,
                    "model": model.name(),
                    "clients": clients,
                    "sample_ratio": ratio,
                    "rounds": rounds,
                    "avg_acc": acc,
                    "delta_acc_vs_fedavg": acc - fedavg_acc,
                }),
                run_record(&result),
            ));
        }
    }
    vec![section]
}
