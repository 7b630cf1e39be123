//! Substrate micro-benchmarks: matmul, one conv layer and full-model
//! forward/backward — the kernels every experiment's wall-clock reduces to.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spatl::nn::Conv2d;
use spatl::prelude::*;
use spatl::tensor::{matmul, Workspace};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(10);
    for &n in &[32usize, 64, 128] {
        let mut rng = TensorRng::seed_from(1);
        let a = rng.normal_tensor([n, n], 0.0, 1.0);
        let b = rng.normal_tensor([n, n], 0.0, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| matmul(&a, &b));
        });
    }
    group.finish();
}

/// One conv layer's forward + backward at the two shapes the channel-major
/// lowering pulls in opposite directions: ResNet-20 stage 1 (few channels,
/// long spatial axis) and the VGG-11 tail (many channels, 1×1 image, where
/// eight of nine taps fall outside the image).
fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_fwd_bwd");
    group.sample_size(10);
    for (name, channels, hw) in [
        ("resnet20_stage1_4x16x16", 4, 16),
        ("vgg11_tail_128x1x1", 128, 1),
    ] {
        let mut rng = TensorRng::seed_from(2);
        let mut conv = Conv2d::new(channels, channels, 3, 1, 1, &mut rng);
        let x = rng.normal_tensor([16, channels, hw, hw], 0.0, 1.0);
        let mut ws = Workspace::new();
        group.bench_function(name, |b| {
            b.iter(|| {
                let y = conv.forward_ws(&x, true, &mut ws);
                let gx = conv.backward_ws(&y, &mut ws);
                ws.recycle(y);
                ws.recycle(gx);
            })
        });
    }
    group.finish();
}

fn bench_model_forward_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_fwd_bwd");
    group.sample_size(10);
    for kind in [ModelKind::ResNet20, ModelKind::Vgg11] {
        let mut model = ModelConfig::cifar(kind).build();
        let mut rng = TensorRng::seed_from(3);
        let x = rng.normal_tensor([8, 3, 16, 16], 0.0, 1.0);
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                model.zero_grad();
                let y = model.forward(&x, true);
                model.backward(&spatl::tensor::Tensor::ones(y.dims().to_vec()))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_conv,
    bench_model_forward_backward
);
criterion_main!(benches);
