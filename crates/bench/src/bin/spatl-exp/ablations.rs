//! FIG-ABL-SEL / FIG-ABL-TL / FIG-ABL-GC — the three component ablations
//! of §V-F (paper Figs. 4 and 5).
//!
//! * selection vs. no selection (ResNet-20, several client counts),
//! * transfer vs. no transfer (ResNet-20, 10 clients),
//! * gradient control vs. none (VGG-11, 10 clients).

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{col, extend, run_record, Fmt, Scale, Section};

#[allow(clippy::too_many_arguments)]
fn curve(
    alg: Algorithm,
    model: ModelKind,
    clients: usize,
    rounds: usize,
    spc: usize,
    beta: f64,
    noise: f32,
    seed: u64,
) -> RunResult {
    ExperimentBuilder::new(alg)
        .model(model)
        .clients(clients)
        .samples_per_client(spc)
        .beta(beta)
        .noise_std(noise)
        .rounds(rounds)
        .local_epochs(2)
        .seed(seed)
        .run()
}

pub fn run(scale: Scale) -> Vec<Section> {
    let rounds = scale.pick(5, 10);
    let spc = scale.pick(60, 80);
    let mut section = Section::new(
        format!("SPATL component ablations, {rounds} rounds"),
        vec![
            col("ablation", "ablation", Fmt::Text),
            col("setting", "setting", Fmt::Text),
            col("variant", "variant", Fmt::Text),
            col("best acc", "best_acc", Fmt::Pct),
            col("final acc", "final_acc", Fmt::Pct),
            col("accuracy per round", "curve", Fmt::Series),
        ],
    );
    let mut push = |ablation: &str, setting: String, variant: &str, r: &RunResult| {
        let keys = json!({ "ablation": ablation, "setting": setting, "variant": variant });
        section.push(extend(keys, run_record(r)));
    };

    // --- Fig. 4: salient selection on/off, several client counts ---
    for clients in scale.pick(vec![4], vec![6, 12]) {
        for (on, label) in [(true, "with selection"), (false, "no selection")] {
            let opts = SpatlOptions {
                selection: on,
                ..Default::default()
            };
            let r = curve(
                Algorithm::Spatl(opts),
                ModelKind::ResNet20,
                clients,
                rounds,
                spc,
                0.5,
                2.5,
                91,
            );
            push("selection", format!("{clients} clients"), label, &r);
        }
    }

    // --- Fig. 5(a): transfer on/off (ResNet-20) ---
    // The paper's transfer ablation targets *heterogeneous* clients; run it
    // in the strong-skew / hard-task regime (β = 0.2, noise 3.0) where
    // private predictors have something to adapt to.
    for (on, label) in [(true, "with transfer"), (false, "no transfer")] {
        let opts = SpatlOptions {
            transfer: on,
            ..Default::default()
        };
        let clients = scale.pick(4, 10);
        let r = curve(
            Algorithm::Spatl(opts),
            ModelKind::ResNet20,
            clients,
            rounds,
            spc,
            0.2,
            3.0,
            92,
        );
        push("transfer", format!("{clients} clients"), label, &r);
    }

    // --- Fig. 5(b): gradient control on/off (VGG-11) ---
    for (on, label) in [
        (true, "with gradient control"),
        (false, "no gradient control"),
    ] {
        let opts = SpatlOptions {
            gradient_control: on,
            ..Default::default()
        };
        let clients = scale.pick(4, 10);
        let model = scale.pick(ModelKind::ResNet20, ModelKind::Vgg11);
        let r = curve(
            Algorithm::Spatl(opts),
            model,
            clients,
            rounds,
            spc,
            0.2,
            3.0,
            93,
        );
        let setting = format!("{} / {clients} clients", model.name());
        push("gradient control", setting, label, &r);
    }
    vec![section]
}
