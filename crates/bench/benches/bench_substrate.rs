//! Substrate micro-benchmarks: matmul, the conv GEMMs and element-wise
//! layers one training step is made of, one conv layer and full-model
//! forward/backward — the kernels every experiment's wall-clock reduces to.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spatl::nn::{BatchNorm2d, Conv2d, MaxPool2d, Relu};
use spatl::prelude::*;
use spatl::tensor::{matmul, matmul_into, matmul_nt_into, matmul_tn_into, Tensor, Workspace};

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

/// The three GEMMs of ResNet-20 × 0.25's stage-1 conv (4→4 channels,
/// 3×3, 16×16, batch 16) and VGG-11 × 0.25's 1×1 tail conv, each at the
/// shape and layout `Conv2d` calls it with: forward `W·cols` (`nn`),
/// input gradient `Wᵀ·gy` (`tn`), weight gradient `gy·colsᵀ` (`nt`).
fn bench_gemm_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_shapes");
    group.sample_size(10);
    type Gemm = fn(&Tensor, &Tensor, &mut Tensor);
    type Shape = (&'static str, [usize; 2], [usize; 2], [usize; 2], Gemm);
    // (name, A dims, B dims, C dims, product)
    let shapes: [Shape; 4] = [
        (
            "resnet20_stage1_fwd",
            [4, 36],
            [36, 4096],
            [4, 4096],
            matmul_into,
        ),
        (
            "resnet20_stage1_xgrad",
            [4, 36],
            [4, 4096],
            [36, 4096],
            matmul_tn_into,
        ),
        (
            "resnet20_stage1_wgrad",
            [4, 4096],
            [36, 4096],
            [4, 36],
            matmul_nt_into,
        ),
        (
            "vgg11_tail_fwd",
            [128, 1152],
            [1152, 16],
            [128, 16],
            matmul_into,
        ),
    ];
    for (name, ad, bd, cd, gemm) in shapes {
        let mut rng = TensorRng::seed_from(4);
        let a = rng.normal_tensor(ad, 0.0, 1.0);
        let b = rng.normal_tensor(bd, 0.0, 1.0);
        let mut out = Tensor::zeros(cd);
        group.bench_function(name, |bench| bench.iter(|| gemm(&a, &b, &mut out)));
    }
    group.finish();
}

/// One training forward + backward of each element-wise layer at
/// ResNet-20 × 0.25's stage-1 activation (`[16, 4, 16, 16]`) and VGG-11 ×
/// 0.25's first (`[16, 16, 16, 16]`).
fn bench_layer_forward_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("layer_fwd_bwd");
    group.sample_size(10);
    for (shape, dims) in [
        ("resnet20_stage1", [16, 4, 16, 16]),
        ("vgg11_stage1", [16, 16, 16, 16]),
    ] {
        let mut rng = TensorRng::seed_from(5);
        let x = rng.normal_tensor(dims, 0.0, 1.0);
        let mut ws = Workspace::new();
        let mut relu = Relu::new();
        group.bench_function(BenchmarkId::new("relu", shape), |b| {
            b.iter(|| {
                let y = relu.forward_ws(&x, true, &mut ws);
                let gx = relu.backward_ws(&y, &mut ws);
                ws.recycle(y);
                ws.recycle(gx);
            })
        });
        let mut bn = BatchNorm2d::new(dims[1]);
        group.bench_function(BenchmarkId::new("batchnorm", shape), |b| {
            b.iter(|| {
                let y = bn.forward_ws(&x, true, &mut ws);
                let gx = bn.backward_ws(&y, &mut ws);
                ws.recycle(y);
                ws.recycle(gx);
            })
        });
        let mut pool = MaxPool2d::new(2, 2);
        group.bench_function(BenchmarkId::new("maxpool", shape), |b| {
            b.iter(|| {
                let y = pool.forward_ws(&x, true, &mut ws);
                let gx = pool.backward_ws(&y, &mut ws);
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
    bench_gemm_shapes,
    bench_layer_forward_backward,
    bench_conv,
    bench_model_forward_backward
);
criterion_main!(benches);
