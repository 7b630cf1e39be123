//! Wire-codec throughput — encode/decode MB/s for the three payload
//! families a federated round can ship (dense f32, top-k sparse,
//! f16-quantized) at the real encoder sizes of the paper's two CIFAR
//! models, and the envelope CRC-32 underneath all of them.
//! `Throughput::Bytes` makes criterion report MB/s directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spatl::models::{ModelConfig, ModelKind};
use spatl::wire::crc32::crc32;
use spatl::wire::{
    decode_dense, decode_f16_dense, decode_topk, encode_dense, encode_f16_dense, encode_topk, open,
    seal, MsgType, SparseTopK,
};

/// Top-k keep ratio used for the sparse benchmarks; mirrors the ~50%
/// FLOPs-constrained selections the RL agent converges to.
const KEEP_RATIO: f64 = 0.25;

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
    // Deterministic pseudo-gradient: varied magnitudes so top-k has
    // something meaningful to rank.
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

fn bench_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_topk");
    group.sample_size(10);
    for (name, p) in model_sizes() {
        let update = synthetic_update(p);
        let k = (p as f64 * KEEP_RATIO) as usize;
        let dense_frame = seal(MsgType::DenseUpdate, &encode_dense(&update)).len();
        let sparse_frame = seal(
            MsgType::SparseTopK,
            &encode_topk(&SparseTopK::from_dense(&update, k)),
        );
        // Acceptance guard: a keep-ratio < 1 frame must beat dense on the wire.
        assert!(
            sparse_frame.len() < dense_frame,
            "top-k frame {} !< dense frame {} ({})",
            sparse_frame.len(),
            dense_frame,
            name
        );
        // Throughput is measured against the dense tensor the codec consumes,
        // so encode MB/s stays comparable with the dense benchmark.
        group.throughput(Throughput::Bytes(4 * p as u64));
        group.bench_with_input(BenchmarkId::new("encode", name), &update, |b, u| {
            b.iter(|| {
                seal(
                    MsgType::SparseTopK,
                    &encode_topk(&SparseTopK::from_dense(u, k)),
                )
                .len()
            });
        });
        group.throughput(Throughput::Bytes(sparse_frame.len() as u64));
        group.bench_with_input(BenchmarkId::new("decode", name), &sparse_frame, |b, f| {
            b.iter(|| {
                let (_, payload) = open(f).expect("frame");
                decode_topk(payload).expect("topk").values.len()
            });
        });
    }
    group.finish();
}

fn bench_f16(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_f16");
    group.sample_size(10);
    for (name, p) in model_sizes() {
        let update = synthetic_update(p);
        group.throughput(Throughput::Bytes(4 * p as u64));
        group.bench_with_input(BenchmarkId::new("encode", name), &update, |b, u| {
            b.iter(|| seal(MsgType::QuantizedF16, &encode_f16_dense(u)).len());
        });
        let frame = seal(MsgType::QuantizedF16, &encode_f16_dense(&update));
        group.throughput(Throughput::Bytes(frame.len() as u64));
        group.bench_with_input(BenchmarkId::new("decode", name), &frame, |b, f| {
            b.iter(|| {
                let (_, payload) = open(f).expect("frame");
                decode_f16_dense(payload).expect("f16").len()
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

criterion_group!(benches, bench_dense, bench_topk, bench_f16, bench_crc);
criterion_main!(benches);
