//! TAB-1 — communication cost to a target accuracy (paper Table I).
//!
//! Train ResNet-20/32 and VGG-11 with every algorithm until the mean
//! accuracy first reaches the target (or the round budget runs out), then
//! report rounds, per-round-per-client cost, total cost, and speed-up over
//! FedAvg — the paper's exact columns.

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{cli, col, extend, run_record, Fmt, Scale, Section};

pub fn run(scale: Scale) -> Vec<Section> {
    let max_rounds = scale.pick(8, 15);
    let target = scale.pick(0.5, 0.5);
    let clients = scale.pick(4, 8);
    let models: Vec<ModelKind> = match scale {
        Scale::Quick => vec![ModelKind::ResNet20],
        Scale::Full => vec![ModelKind::ResNet20, ModelKind::ResNet32, ModelKind::Vgg11],
    };
    let algs = cli::algorithms_baseline_first();

    let mut section = Section::new(
        format!(
            "communication cost to {:.0}% mean accuracy, {clients} clients, ≤{max_rounds} rounds",
            target * 100.0
        ),
        vec![
            col("Method", "algorithm", Fmt::Text),
            col("Model", "model", Fmt::Text),
            col("Rounds", "rounds", Fmt::Text),
            col("Round/Client", "bytes_per_round_per_client", Fmt::Mb),
            col("Total", "total_bytes", Fmt::Mb),
            col("On-wire", "framed_bytes", Fmt::Mb),
            col("Transfer", "transfer_s", Fmt::Secs),
            col("Speedup vs FedAvg", "speedup_vs_fedavg", Fmt::Times),
        ],
    );
    for &model in &models {
        // VGG-11 is ~6× the per-round compute of the ResNets on CPU; give
        // it a smaller federation so the table completes at harness scale.
        let (clients, max_rounds) = if model == ModelKind::Vgg11 {
            (clients.min(5), max_rounds.min(8))
        } else {
            (clients, max_rounds)
        };
        // FedAvg runs first in the roster, so its total is known to every
        // later row of the model.
        let mut fedavg_total = 0u64;
        for (alg, name) in &algs {
            let mut sim = ExperimentBuilder::new(*alg)
                .model(model)
                .clients(clients)
                .samples_per_client(scale.pick(60, 90))
                .rounds(max_rounds)
                .local_epochs(2)
                .seed(1)
                .build();
            let mut reached = None;
            for _ in 0..max_rounds {
                let r = sim.run_round();
                if r.mean_acc >= target {
                    reached = Some(r.round + 1);
                    break;
                }
            }
            let result = sim.result();
            let total = result.total_bytes();
            if *name == "FedAvg" {
                fedavg_total = total;
            }
            let speedup =
                (total > 0 && fedavg_total > 0).then(|| fedavg_total as f64 / total as f64);
            section.push(extend(
                json!({
                    "algorithm": name,
                    "model": model.name(),
                    "target": target,
                    "rounds": reached,
                    "speedup_vs_fedavg": speedup,
                }),
                run_record(&result),
            ));
        }
    }
    vec![section]
}
