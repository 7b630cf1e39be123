//! TAB-INF — inference acceleration after federated training (paper §V-D).
//!
//! After a SPATL run, every client's deployed model carries the selection
//! masks of its last participation. Report per-client FLOPs reduction,
//! sparsity (fraction of salient parameters) and deployed accuracy —
//! the paper's inference-acceleration table.

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{col, Fmt, Scale, Section};

/// Post-pruning recovery: brief local fine-tune of the masked model — the
/// standard deployment step after structured pruning (masked channels stay
/// dead; surviving weights and the private head adapt).
fn finetune_masked(c: &mut spatl::fl::ClientState, epochs: usize) {
    let mut trainer = Trainer::new(0.02);
    let mut rng = TensorRng::seed_from(0xF17E ^ c.id as u64);
    for _ in 0..epochs {
        for batch in c.train.batches(16, &mut rng) {
            trainer.step(&mut c.model, &batch.images, &batch.labels, Part::Joint);
        }
    }
}

pub fn run(scale: Scale) -> Vec<Section> {
    let models: Vec<ModelKind> = match scale {
        Scale::Quick => vec![ModelKind::ResNet20],
        Scale::Full => vec![ModelKind::ResNet20, ModelKind::ResNet32],
    };

    let mut sections = Vec::new();
    for model in models {
        // Wider models than the FL-efficiency experiments: inference
        // acceleration is about pruning *over-parameterised* networks, so
        // this experiment restores enough width for real redundancy.
        let mut sim = ExperimentBuilder::new(Algorithm::Spatl(SpatlOptions::default()))
            .model(model)
            .width_mult(0.5)
            .clients(scale.pick(6, 8))
            .samples_per_client(scale.pick(60, 90))
            .rounds(scale.pick(5, 8))
            .local_epochs(2)
            .seed(55)
            .build();
        sim.run();

        let mut section = Section::new(
            format!("{} — deployed clients", model.name()),
            vec![
                col("client", "client", Fmt::Text),
                col("FLOPs kept", "flops_ratio", Fmt::Pct),
                col("FLOPs ↓", "flops_reduction", Fmt::Pct),
                col("salient params", "salient_param_fraction", Fmt::Pct),
                col("dense acc", "dense_acc", Fmt::Pct),
                col("deployed acc", "deployed_acc", Fmt::Pct),
            ],
        );
        let mut ratios = Vec::new();
        for c in sim.clients.iter_mut() {
            // Deployment: re-select salient channels for the final global
            // encoder (the in-round masks were chosen for older weights).
            let dense_acc = c.evaluate();
            c.select_for_deployment(0.7);
            finetune_masked(c, 2);
            let ratio = c.model.flops() as f32 / c.model.flops_dense() as f32;
            let salient = spatl::pruning::salient_param_indices(&c.model).len() as f32
                / c.model.encoder.num_params() as f32;
            let deployed_acc = c.evaluate_deployed();
            ratios.push(ratio);
            section.push(json!({
                "model": model.name(),
                "client": c.id,
                "flops_ratio": ratio,
                "flops_reduction": 1.0 - ratio,
                "salient_param_fraction": salient,
                "dense_acc": dense_acc,
                "deployed_acc": deployed_acc,
            }));
        }
        let mean = ratios.iter().sum::<f32>() / ratios.len() as f32;
        section.push(json!({
            "model": model.name(),
            "client": "mean",
            "flops_ratio": mean,
            "flops_reduction": 1.0 - mean,
        }));
        sections.push(section);
    }
    sections
}
