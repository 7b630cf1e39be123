//! TAB-3 — transferability of the learned model (paper Table III, §V-E).
//!
//! Federated training on one split of the task; afterwards, transfer each
//! algorithm's trained network to a *held-out* split by fitting a fresh
//! predictor head, and compare transfer accuracy.

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{cli, col, extend, run_record, Fmt, Scale, Section};

pub fn run(scale: Scale) -> Vec<Section> {
    let rounds = scale.pick(5, 10);
    let clients = scale.pick(5, 8);

    // Held-out split: same prototypes (same task), disjoint samples — the
    // paper's 50k-FL / 10k-transfer split of CIFAR-10.
    // The transfer split uses a milder noise level than the FL split: a
    // linear probe on ~10² samples needs measurable signal to discriminate
    // encoder quality at harness scale (the paper's transfer split is 10k
    // real CIFAR images).
    let synth = SynthConfig {
        noise_std: 1.2,
        ..SynthConfig::cifar10_like()
    };
    let transfer_train = synth_cifar10(&synth, scale.pick(160, 400), 900_001);
    let transfer_val = synth_cifar10(&synth, scale.pick(80, 200), 900_002);

    let algs = cli::algorithms();

    let mut section = Section::new(
        "transfer of the federated encoder to a held-out split",
        vec![
            col("method", "algorithm", Fmt::Text),
            col("FL mean acc", "final_acc", Fmt::Pct),
            col("transfer acc", "transfer_acc", Fmt::Pct),
        ],
    );
    for (alg, name) in algs {
        let mut sim = ExperimentBuilder::new(alg)
            .model(ModelKind::ResNet20)
            .clients(clients)
            .samples_per_client(scale.pick(60, 90))
            .rounds(rounds)
            .local_epochs(2)
            .seed(31)
            .build();
        let result = sim.run();

        // The shared vector's encoder part transfers; baselines share
        // encoder+predictor, SPATL shares encoder only.
        let model = ModelConfig::cifar(ModelKind::ResNet20)
            .with_seed(999)
            .build();
        let enc_len = model.encoder.num_params();
        let encoder_flat = &sim.global.shared[..enc_len];
        let acc = transfer_evaluate(
            model,
            encoder_flat,
            &transfer_train,
            &transfer_val,
            scale.pick(6, 10),
            13,
        );
        section.push(extend(
            json!({ "algorithm": name, "transfer_acc": acc }),
            run_record(&result),
        ));
    }

    // Control: a never-trained encoder.
    let model = ModelConfig::cifar(ModelKind::ResNet20)
        .with_seed(999)
        .build();
    let rand_flat = model.encoder.to_flat();
    let rand_acc = transfer_evaluate(
        model,
        &rand_flat,
        &transfer_train,
        &transfer_val,
        scale.pick(4, 8),
        13,
    );
    section.push(json!({ "algorithm": "random encoder", "transfer_acc": rand_acc }));
    vec![section]
}
