//! FIG-LC(b) — the FEMNIST / 2-layer-CNN setting of the learning-curve
//! figure (LEAF benchmark, §V-B).
//!
//! The paper singles this setting out: the 2-layer CNN is *not*
//! over-parameterised, so salient selection has less slack and SPATL's
//! margin shrinks (in the paper it slightly under-performs). This experiment
//! reproduces the setting at harness scale.

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{cli, col, extend, run_record, Fmt, Scale, Section};

pub fn run(scale: Scale) -> Vec<Section> {
    let rounds = scale.pick(6, 10);
    let clients = scale.pick(5, 10);

    let algs = cli::algorithms();

    let mut section = Section::new(
        format!("2-layer CNN on FEMNIST-like (62 classes), {clients} writers, {rounds} rounds"),
        vec![
            col("algorithm", "algorithm", Fmt::Text),
            col("best acc", "best_acc", Fmt::Pct),
            col("final acc", "final_acc", Fmt::Pct),
            col("accuracy per round", "curve", Fmt::Series),
        ],
    );
    for (alg, name) in algs {
        let result = ExperimentBuilder::new(alg)
            .dataset(DatasetKind::FemnistLike)
            .model(ModelKind::Cnn2)
            .clients(clients)
            .samples_per_client(scale.pick(60, 90))
            .rounds(rounds)
            .local_epochs(2)
            .seed(2022)
            .run();
        section.push(extend(json!({ "algorithm": name }), run_record(&result)));
    }
    vec![section]
}
