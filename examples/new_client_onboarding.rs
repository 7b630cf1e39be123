//! New-client onboarding: transfer a federated encoder to a client that
//! never participated in training (Eq. 4 of the paper).
//!
//! Run with: `cargo run --release --example new_client_onboarding`
//!
//! Trains a SPATL federation, then onboards a brand-new client with its own
//! non-IID data by downloading the encoder and fitting only a local
//! predictor — no gradient ever leaves the new client.

use spatl::prelude::*;

fn main() {
    println!("phase 1: federated training (5 clients, ResNet-20, SPATL)…");
    let mut sim = ExperimentBuilder::new(Algorithm::Spatl(SpatlOptions::default()))
        .model(ModelKind::ResNet20)
        .clients(5)
        .samples_per_client(80)
        .rounds(6)
        .local_epochs(2)
        .seed(21)
        .build();
    let result = sim.run();
    println!(
        "  trained {} rounds, final mean accuracy {:.1}%",
        result.history.len(),
        result.final_acc() * 100.0
    );

    // The new client draws from the same task (same prototypes) but was
    // never part of training; its shard is skewed differently.
    let synth = SynthConfig {
        noise_std: 0.4,
        ..SynthConfig::cifar10_like()
    };
    let local_train = synth_cifar10(&synth, 80, 999);
    let local_val = synth_cifar10(&synth, 40, 1000);

    println!("\nphase 2: onboarding a new client (80 local samples)…");
    let mut fresh = ModelConfig::cifar(ModelKind::ResNet20)
        .with_seed(77)
        .build();
    let val_batch = local_val.as_batch();
    let random_acc = fresh.evaluate(&val_batch.images, &val_batch.labels);
    println!(
        "  random encoder + random head : {:.1}%",
        random_acc * 100.0
    );

    // Download the federated encoder, keep the head local (Eq. 4).
    fresh.encoder.from_flat(&sim.global.shared);
    let mut adapted = fresh.clone();
    adapt_predictor(&mut adapted, &local_train, 6, 5);
    let adapted_acc = adapted.evaluate(&val_batch.images, &val_batch.labels);
    println!(
        "  federated encoder + local head: {:.1}%",
        adapted_acc * 100.0
    );

    println!(
        "\nonboarding gain: {:+.1} percentage points without sharing any local data",
        (adapted_acc - random_acc) * 100.0
    );
}
