//! TAB-1/TAB-2 kernel — server aggregation cost per algorithm, the cost of
//! the exact sums per coordinate against inexact ones, and salient index
//! selection: the per-round server-side work. Plus the pairwise-mask
//! keystream a masked client pays per upload.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::RngCore;
use spatl::fl::{
    Algorithm, CommModel, FlConfig, GlobalState, LocalOutcome, SpatlOptions, StreamState,
};
use spatl::prelude::*;
use spatl::pruning::Criterion as PruneCriterion;
use spatl_privacy::{lane_rng, MaskLane, MaskedVector};

fn fake_outcome(p: usize, id: usize, sparse: bool) -> LocalOutcome {
    let delta = vec![0.01; p];
    let selected = sparse.then(|| {
        let indices: Vec<u32> = (0..p as u32).step_by(2).collect();
        let values = vec![0.01; indices.len()];
        spatl::fl::SelectedUpdate {
            indices,
            values,
            channels: 64,
            channel_ids: (0..64).collect(),
        }
    });
    LocalOutcome {
        client_id: id,
        n_samples: 100,
        tau: 10,
        delta,
        selected,
        compressed: None,
        control_delta: None,
        velocity: None,
        buffers: Vec::new(),
        diverged: false,
        masked: None,
        fixed: None,
        bytes: CommModel::dense(p),
        wire: spatl::fl::WireBytes::default(),
        frames: Vec::new(),
        keep_ratio: if sparse { 0.5 } else { 1.0 },
        flops_ratio: 1.0,
    }
}

fn bench_aggregation(c: &mut Criterion) {
    let p = 100_000usize;
    let n_clients = 10usize;
    let mut group = c.benchmark_group("server_aggregate");
    group.sample_size(10);

    let cases: Vec<(Algorithm, &str, bool)> = vec![
        (Algorithm::FedAvg, "fedavg", false),
        (Algorithm::FedNova, "fednova", false),
        (Algorithm::Scaffold, "scaffold", false),
        (
            Algorithm::Spatl(SpatlOptions::default()),
            "spatl_sparse",
            true,
        ),
    ];
    for (alg, name, sparse) in cases {
        let cfg = FlConfig::new(alg);
        let outcomes: Vec<LocalOutcome> =
            (0..n_clients).map(|i| fake_outcome(p, i, sparse)).collect();
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut g = GlobalState {
                    shared: vec![0.0; p],
                    control: if alg.uses_control() {
                        vec![0.0; p]
                    } else {
                        Vec::new()
                    },
                    momentum: Vec::new(),
                    buffers: Vec::new(),
                };
                g.aggregate(&cfg, &outcomes, n_clients);
                g.shared[0]
            });
        });
    }
    group.finish();
}

/// One compensated addition into a `(sum, compensation)` cell.
#[inline]
fn kahan_add((sum, comp): &mut (f64, f64), x: f64) {
    let y = x - *comp;
    let t = *sum + y;
    *comp = (t - *sum) - y;
    *sum = t;
}

/// The cost of exactness: what one coordinate of one upload costs to add
/// into the order-independent exact sums (reached through
/// `StreamState::fold`, their only public door), next to the two sums a
/// server that did not care about arrival order would keep — a running
/// f32 and a Kahan-compensated f64. Dense: every coordinate, weight
/// `n_samples` (FedAvg). Scatter: every other coordinate, weight 1, plus
/// the per-index vote (SPATL without gradient control).
fn bench_cost_of_exactness(c: &mut Criterion) {
    let p = 100_000usize;
    let global = GlobalState {
        shared: vec![0.0; p],
        control: Vec::new(),
        momentum: Vec::new(),
        buffers: Vec::new(),
    };
    let dense = fake_outcome(p, 0, false);
    let sparse = fake_outcome(p, 0, true);
    let sel = sparse.selected.as_ref().expect("sparse outcome");
    let w = dense.n_samples as f32;

    let mut group = c.benchmark_group("sum_dense_per_coord");
    group.sample_size(20);
    group.throughput(Throughput::Elements(p as u64));
    let mut exact = StreamState::new(&FlConfig::new(Algorithm::FedAvg), &global, 1);
    group.bench_function("exact", |b| b.iter(|| exact.fold(&dense)));
    let mut naive = vec![0f32; p];
    group.bench_function("naive_f32", |b| {
        b.iter(|| {
            for (s, &d) in naive.iter_mut().zip(&dense.delta) {
                *s += d * w;
            }
            naive[0]
        })
    });
    let mut kahan = vec![(0f64, 0f64); p];
    group.bench_function("kahan_f64", |b| {
        b.iter(|| {
            for (cell, &d) in kahan.iter_mut().zip(&dense.delta) {
                kahan_add(cell, (d * w) as f64);
            }
            kahan[0].0
        })
    });
    group.finish();

    let mut group = c.benchmark_group("sum_scatter_per_coord");
    group.sample_size(20);
    group.throughput(Throughput::Elements(sel.indices.len() as u64));
    let votes_only = Algorithm::Spatl(SpatlOptions {
        gradient_control: false,
        ..SpatlOptions::default()
    });
    let mut exact = StreamState::new(&FlConfig::new(votes_only), &global, 1);
    group.bench_function("exact", |b| b.iter(|| exact.fold(&sparse)));
    let mut naive = vec![0f32; p];
    let mut votes = vec![0u32; p];
    group.bench_function("naive_f32", |b| {
        b.iter(|| {
            for (&i, &v) in sel.indices.iter().zip(&sel.values) {
                naive[i as usize] += v;
                votes[i as usize] += 1;
            }
            naive[0]
        })
    });
    let mut kahan = vec![(0f64, 0f64); p];
    group.bench_function("kahan_f64", |b| {
        b.iter(|| {
            for (&i, &v) in sel.indices.iter().zip(&sel.values) {
                kahan_add(&mut kahan[i as usize], v as f64);
                votes[i as usize] += 1;
            }
            kahan[0].0
        })
    });
    group.finish();
}

/// The masked upload's client-side cost, under `fl.local_update`: one
/// pair's lane keystream drawn in bulk by `fill_u64s` (the AVX-512
/// sixteen-block or AVX2 eight-block kernel where the CPU has it) next
/// to the one-word `next_u64` loop that `SPATL_FORCE_SCALAR=1` pins it
/// to (both in MB/s); then the masking pass over a grid lane with one
/// pair's stream (a dropout's unmask share) and with fifteen (a client
/// of the sixteen-member masked workload), over that workload's 17 730
/// coordinates (ns/coordinate is 1000 / Melem/s).
fn bench_mask(c: &mut Criterion) {
    const WORDS: usize = 1 << 15;
    let mut group = c.benchmark_group("mask_keystream");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(8 * WORDS as u64));
    let mut buf = vec![0u64; WORDS];
    group.bench_function("fill_u64s", |b| {
        b.iter(|| {
            lane_rng(7, MaskLane::Delta).fill_u64s(&mut buf);
            buf[WORDS - 1]
        })
    });
    group.bench_function("next_u64", |b| {
        b.iter(|| {
            let mut rng = lane_rng(7, MaskLane::Delta);
            for w in buf.iter_mut() {
                *w = rng.next_u64();
            }
            buf[WORDS - 1]
        })
    });
    group.finish();

    const COORDS: usize = 17_730;
    let mut group = c.benchmark_group("mask_apply");
    group.sample_size(20);
    group.throughput(Throughput::Elements(COORDS as u64));
    let mut lane = MaskedVector::zeros(COORDS);
    for peers in [1u64, 15] {
        let name = format!("grid_lane_{peers}_streams");
        group.bench_function(name.as_str(), |b| {
            b.iter(|| {
                let mut streams: Vec<_> = (0..peers)
                    .map(|p| (lane_rng(p, MaskLane::Delta), p % 2 == 0))
                    .collect();
                lane.apply_masks(&mut streams);
                lane.words()[0]
            })
        });
    }
    group.finish();
}

fn bench_salient_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("salient_indices");
    group.sample_size(20);
    for kind in [ModelKind::ResNet20, ModelKind::Vgg11] {
        let mut model = ModelConfig::cifar(kind).build();
        let n = model.prune_points.len();
        apply_sparsities(&mut model, &vec![0.5; n], PruneCriterion::L2);
        group.bench_function(kind.name(), |b| b.iter(|| salient_param_indices(&model)));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_aggregation,
    bench_cost_of_exactness,
    bench_mask,
    bench_salient_selection
);
criterion_main!(benches);
