//! FIG-LOCAL — per-client accuracy after training (paper Fig. "local_acc").
//!
//! ResNet-20, 10 clients, full participation: after training completes,
//! report each client's validation accuracy per algorithm. The paper's
//! claim: SPATL's heterogeneous predictors give *uniformly good* per-client
//! accuracy, while uniform-model baselines show high variance.

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{col, Fmt, Scale, Section};

pub fn run(scale: Scale) -> Vec<Section> {
    let rounds = scale.pick(5, 10);
    let clients = scale.pick(6, 10);

    let algs: Vec<(Algorithm, &str)> = vec![
        (Algorithm::Spatl(SpatlOptions::default()), "SPATL"),
        (Algorithm::FedAvg, "FedAvg"),
        (Algorithm::Scaffold, "SCAFFOLD"),
        (Algorithm::FedNova, "FedNova"),
    ];

    let mut section = Section::new(
        format!("per-client accuracy, ResNet-20, {clients} clients, {rounds} rounds"),
        vec![
            col("algorithm", "algorithm", Fmt::Text),
            col("mean", "mean", Fmt::Pct),
            col("min", "min", Fmt::Pct),
            col("max", "max", Fmt::Pct),
            col("spread", "spread", Fmt::Pct),
            col("std", "std", Fmt::Pct),
            col("per client", "per_client_acc", Fmt::Series),
        ],
    );
    for (alg, name) in algs {
        let mut sim = ExperimentBuilder::new(alg)
            .model(ModelKind::ResNet20)
            .clients(clients)
            .samples_per_client(scale.pick(60, 90))
            .beta(0.3)
            .rounds(rounds)
            .local_epochs(2)
            .seed(77)
            .build();
        sim.run();
        // Deployment protocol (Eq. 4): never-sampled clients adapt their
        // predictor before the final per-client evaluation.
        let accs = sim.finalize(3);
        let mean = accs.iter().sum::<f32>() / accs.len() as f32;
        let min = accs.iter().copied().fold(1.0f32, f32::min);
        let max = accs.iter().copied().fold(0.0f32, f32::max);
        let std = (accs.iter().map(|a| (a - mean).powi(2)).sum::<f32>() / accs.len() as f32).sqrt();
        section.push(json!({
            "algorithm": name,
            "mean": mean,
            "min": min,
            "max": max,
            "spread": max - min,
            "std": std,
            "per_client_acc": accs,
        }));
    }
    vec![section]
}
