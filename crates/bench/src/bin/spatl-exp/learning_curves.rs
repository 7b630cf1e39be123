//! FIG-LC — learning curves (paper Fig. "vgg_cifar" and Fig. 3).
//!
//! Accuracy vs. communication round for SPATL and the four baselines on the
//! CIFAR-10-like task (ResNet-20 and VGG-11) and the FEMNIST-like task
//! (2-layer CNN), across client scales. Prints one series per
//! (setting, algorithm) and the final converge-accuracy comparison.
//!
//! Scale with `SPATL_EXP_SCALE=quick|full`.

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{cli, col, extend, run_record, Fmt, Scale, Section};

pub fn run(scale: Scale) -> Vec<Section> {
    let rounds = scale.pick(6, 12);
    let spc = scale.pick(60, 90);

    // (model, dataset, clients, sample ratio) settings; the paper sweeps
    // 10 → 100 clients, we sweep a scaled version of the same ladder.
    let settings: Vec<(ModelKind, DatasetKind, usize, f32)> = match scale {
        Scale::Quick => vec![(ModelKind::ResNet20, DatasetKind::CifarLike, 6, 1.0)],
        Scale::Full => vec![
            (ModelKind::ResNet20, DatasetKind::CifarLike, 10, 1.0),
            (ModelKind::ResNet20, DatasetKind::CifarLike, 30, 0.4),
            (ModelKind::Cnn2, DatasetKind::FemnistLike, 10, 1.0),
        ],
    };

    let mut sections = Vec::new();
    for (model, dataset, clients, ratio) in settings {
        let mut section = Section::new(
            format!(
                "{} on {:?}, {clients} clients, sample ratio {ratio}",
                model.name(),
                dataset
            ),
            vec![
                col("algorithm", "algorithm", Fmt::Text),
                col("best acc", "best_acc", Fmt::Pct),
                col("final acc", "final_acc", Fmt::Pct),
                col("rounds", "rounds", Fmt::Text),
                col("accuracy per round", "curve", Fmt::Series),
            ],
        );
        for (alg, name) in cli::algorithms() {
            let result = ExperimentBuilder::new(alg)
                .model(model)
                .dataset(dataset)
                .clients(clients)
                .sample_ratio(ratio)
                .samples_per_client(spc)
                .rounds(rounds)
                .local_epochs(2)
                .seed(2022)
                .run();
            section.push(extend(
                json!({
                    "model": model.name(),
                    "dataset": format!("{dataset:?}"),
                    "clients": clients,
                    "sample_ratio": ratio,
                    "algorithm": name,
                    "rounds": rounds,
                }),
                run_record(&result),
            ));
        }
        sections.push(section);
    }
    sections
}
