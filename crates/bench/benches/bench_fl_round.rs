//! FIG-LC / FIG-LOCAL / FIG-ROUNDS kernel — wall-clock of one federated
//! round per algorithm at miniature scale.

use criterion::{criterion_group, criterion_main, Criterion};
use spatl::prelude::*;

fn bench_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("fl_round");
    group.sample_size(10);
    let cases: Vec<(Algorithm, &str)> = vec![
        (Algorithm::FedAvg, "fedavg"),
        (Algorithm::Scaffold, "scaffold"),
        (Algorithm::FedNova, "fednova"),
        (Algorithm::Spatl(SpatlOptions::default()), "spatl"),
    ];
    for (alg, name) in cases {
        group.bench_function(name, |b| {
            // Build once per iteration batch; run_round mutates state, so a
            // fresh simulation keeps iterations comparable.
            b.iter_batched(
                || {
                    ExperimentBuilder::new(alg)
                        .clients(3)
                        .samples_per_client(24)
                        .rounds(1)
                        .local_epochs(1)
                        .batch_size(12)
                        .seed(5)
                        .build()
                },
                |mut sim| sim.run_round(),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_transfer_adaptation(c: &mut Criterion) {
    // TAB-3 kernel: predictor-only adaptation of a new client.
    let mut group = c.benchmark_group("transfer_adapt");
    group.sample_size(10);
    let synth = SynthConfig::cifar10_like();
    let train = synth_cifar10(&synth, 40, 1);
    let model = ModelConfig::cifar(ModelKind::ResNet20).build();
    group.bench_function("resnet20_one_epoch", |b| {
        b.iter_batched(
            || model.clone(),
            |mut m| adapt_predictor(&mut m, &train, 1, 3),
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_round, bench_transfer_adaptation);
criterion_main!(benches);
