//! FIG-ABL-BUDGET — sensitivity of SPATL to the FLOPs budget (design-choice
//! ablation; DESIGN.md §5).
//!
//! Sweeps `target_flops_ratio` and reports the three quantities it trades
//! off: accuracy, per-round upload bytes, and deployed FLOPs. Tighter
//! budgets cut communication and inference cost; the question is how much
//! accuracy they cost at harness scale.

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{col, extend, run_record, Fmt, Scale, Section};

pub fn run(scale: Scale) -> Vec<Section> {
    let rounds = scale.pick(4, 8);
    let budgets = [0.9f32, 0.7, 0.5, 0.35];

    let mut section = Section::new(
        format!("SPATL vs FLOPs budget (ResNet-20, {rounds} rounds)"),
        vec![
            col("budget", "budget", Fmt::Pct),
            col("best acc", "best_acc", Fmt::Pct),
            col("final acc", "final_acc", Fmt::Pct),
            col(
                "upload/round/client",
                "upload_per_round_per_client",
                Fmt::Mb,
            ),
            col("deployed FLOPs", "mean_flops_ratio", Fmt::Pct),
        ],
    );
    for &budget in &budgets {
        let opts = SpatlOptions {
            target_flops_ratio: budget,
            ..Default::default()
        };
        let mut sim = ExperimentBuilder::new(Algorithm::Spatl(opts))
            .model(ModelKind::ResNet20)
            .clients(scale.pick(4, 8))
            .samples_per_client(scale.pick(50, 80))
            .rounds(rounds)
            .local_epochs(2)
            .seed(123)
            .build();
        let result = sim.run();
        let upload: u64 = result.history.iter().map(|h| h.bytes.upload).sum::<u64>()
            / (rounds as u64 * sim.cfg.clients_per_round() as u64);
        let mean_flops = result
            .history
            .last()
            .map(|h| h.mean_flops_ratio)
            .unwrap_or(1.0);
        section.push(extend(
            json!({
                "budget": budget,
                "upload_per_round_per_client": upload,
                "mean_flops_ratio": mean_flops,
            }),
            run_record(&result),
        ));
    }
    vec![section]
}
