//! Wire-codec throughput — dense f32 encode/decode MB/s at the real
//! encoder sizes of the paper's two CIFAR models, and the envelope
//! CRC-32 underneath every frame.
//! `Throughput::Bytes` makes criterion report MB/s directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spatl::models::{ModelConfig, ModelKind};
use spatl::wire::crc32::crc32;
use spatl::wire::{decode_dense, encode_dense, open, seal, MsgType};

fn model_sizes() -> Vec<(&'static str, usize)> {
    [ModelKind::ResNet20, ModelKind::Vgg11]
        .into_iter()
        .map(|kind| {
            let model = ModelConfig::cifar(kind).build();
            (kind.name(), model.encoder.num_params())
        })
        .collect()
}

fn synthetic_update(p: usize) -> Vec<f32> {
    // Deterministic pseudo-gradient with varied magnitudes.
    (0..p)
        .map(|i| {
            let x = (i as f32 * 0.618_034).fract() - 0.5;
            x * x * x
        })
        .collect()
}

fn bench_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_dense");
    group.sample_size(10);
    for (name, p) in model_sizes() {
        let update = synthetic_update(p);
        let payload_bytes = 4 * p as u64;
        group.throughput(Throughput::Bytes(payload_bytes));
        group.bench_with_input(BenchmarkId::new("encode", name), &update, |b, u| {
            b.iter(|| seal(MsgType::DenseUpdate, &encode_dense(u)).len());
        });
        let frame = seal(MsgType::DenseUpdate, &encode_dense(&update));
        group.bench_with_input(BenchmarkId::new("decode", name), &frame, |b, f| {
            b.iter(|| {
                let (_, payload) = open(f).expect("frame");
                decode_dense(payload).expect("dense").len()
            });
        });
    }
    group.finish();
}

/// The envelope checksum on its own, at the sizes it meets: a
/// 2048-parameter upload (8 KiB), half of one, and a VGG-scale frame that
/// no cache holds. Every frame is checksummed at seal and again at open.
fn bench_crc(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_crc32");
    group.sample_size(20);
    for (name, len) in [("4KiB", 4 << 10), ("8KiB", 8 << 10), ("4MiB", 4 << 20)] {
        let frame = encode_dense(&synthetic_update(len / 4));
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &frame, |b, f| {
            b.iter(|| crc32(f));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dense, bench_crc);
criterion_main!(benches);
