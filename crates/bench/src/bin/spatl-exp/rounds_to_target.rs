//! FIG-ROUNDS — rounds to reach target accuracy across FL settings (paper
//! Fig. "train_rounds").

use serde_json::{json, Value};
use spatl::prelude::*;
use spatl_bench::{cli, col, extend, Fmt, Scale, Section};

pub fn run(scale: Scale) -> Vec<Section> {
    let max_rounds = scale.pick(8, 14);
    let target = scale.pick(0.45, 0.55);

    let settings: Vec<(usize, f32)> = match scale {
        Scale::Quick => vec![(4, 1.0), (8, 0.5)],
        Scale::Full => vec![(10, 1.0), (20, 0.5)],
    };
    let algs = cli::algorithms();

    // One row per setting, one rounds column per algorithm.
    let mut columns = vec![col("setting", "setting", Fmt::Text)];
    columns.extend(algs.iter().map(|(_, name)| col(name, name, Fmt::Text)));
    let mut section = Section::new(
        format!(
            "rounds to reach {:.0}% mean accuracy (ResNet-20, ≤{max_rounds} rounds)",
            target * 100.0
        ),
        columns,
    );
    for (clients, ratio) in settings {
        let mut record = json!({
            "setting": format!("{clients} clients / {ratio}"),
            "clients": clients,
            "sample_ratio": ratio,
            "target": target,
        });
        for (alg, name) in &algs {
            let result = ExperimentBuilder::new(*alg)
                .model(ModelKind::ResNet20)
                .clients(clients)
                .sample_ratio(ratio)
                .samples_per_client(scale.pick(60, 80))
                .rounds(max_rounds)
                .local_epochs(2)
                .seed(17)
                .run();
            let rounds = result.rounds_to_target(target);
            record = extend(record, Value::Map(vec![(name.to_string(), json!(rounds))]));
        }
        section.push(record);
    }
    vec![section]
}
