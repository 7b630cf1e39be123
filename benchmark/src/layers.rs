//! Layer micro-benchmarks: one public call per metric, timed from outside.
//!
//! A layer here is a crate. The calls and shapes are the ones the round
//! actually makes (VGG-11's widest conv lowered to GEMM, ResNet-20's
//! small-N GEMM, the envelope CRC over an upload-sized payload, one
//! pair's ChaCha mask stream, one coordinate on the 384-bit grid), so a
//! layer number that moves names the end-to-end metric it should move
//! (README.md, "How the metrics interact").

use crate::report::Metrics;
use crate::stats::median;
use spatl::agent::{finetune_agent, project_to_budget, ActorCritic, AgentConfig, PruningEnv};
use spatl::prelude::{
    apply_sparsities, extract, salient_param_indices, Criterion, CrossEntropyLoss, Dataset,
    Optimizer, Sgd, SplitModel, TensorRng,
};
use spatl::tensor::{im2col, matmul_nt, matmul_tn, Conv2dGeometry};
use spatl_privacy::{lane_stream, MaskLane, MaskedVector};
use spatl_wire::{
    decode_dense, decode_spatl_update, encode_dense, encode_spatl_update, open, seal, FramePoll,
    FrameReader, IndexRange, MsgType, SelectionLayout, MAX_FRAME_PAYLOAD,
};
use std::hint::black_box;
use std::time::Instant;

/// Least and most wall-clock one micro-benchmark may take, seconds.
const MIN_BUDGET_S: f64 = 0.03;
const MAX_BUDGET_S: f64 = 0.4;

/// Median seconds per call of `f` within roughly `budget_s`: one untimed
/// warm-up call, one calibration call, then up to five samples of as
/// many iterations as fit a fifth of the budget.
fn time_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget_s / 5.0 / once) as usize).max(1);
    let started = Instant::now();
    let mut samples = Vec::with_capacity(5);
    while samples.len() < 5 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / iters as f64);
        if started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    median(&samples)
}

fn per_bench(total_s: f64, benches: usize) -> f64 {
    (total_s / benches as f64).clamp(MIN_BUDGET_S, MAX_BUDGET_S)
}

/// The workload-independent layers: `tensor`, `wire`, `privacy`.
pub fn common(m: &mut Metrics, seed: u64, total_s: f64) {
    let budget = per_bench(total_s, 12);
    let mut rng = TensorRng::seed_from(seed ^ 0xBE7C);

    // tensor: the GEMM shapes local training reduces to.
    let mut gemm = |name, nt: bool, (mm, n, k): (usize, usize, usize)| {
        let (a, b) = if nt {
            (
                rng.normal_tensor([mm, k], 0.0, 1.0),
                rng.normal_tensor([n, k], 0.0, 1.0),
            )
        } else {
            (
                rng.normal_tensor([k, mm], 0.0, 1.0),
                rng.normal_tensor([k, n], 0.0, 1.0),
            )
        };
        let secs = time_call(budget, || {
            black_box(if nt {
                matmul_nt(&a, &b)
            } else {
                matmul_tn(&a, &b)
            });
        });
        m.push(name, "GFLOP/s", 2.0 * (mm * n * k) as f64 / secs / 1e9);
    };
    gemm("tensor.matmul_nt_gflops", true, (2048, 128, 1152));
    gemm("tensor.matmul_tn_gflops", false, (128, 1152, 2048));
    gemm("tensor.matmul_small_gflops", true, (2048, 16, 144));

    let x = rng.normal_tensor([16, 16, 16, 16], 0.0, 1.0);
    let g = Conv2dGeometry {
        in_channels: 16,
        in_h: 16,
        in_w: 16,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let written = (16 * g.cols() * g.patch_len() * std::mem::size_of::<f32>()) as f64;
    let secs = time_call(budget, || {
        black_box(im2col(&x, &g));
    });
    m.push("tensor.im2col_gb_s", "GB/s", written / secs / 1e9);

    // wire: envelope CRC, incremental framing, payload codecs, over a
    // 1 MiB dense payload (≈ half a VGG-11 upload).
    let values: Vec<f32> = (0..262_144)
        .map(|i| ((i as f32 * 0.618_034).fract() - 0.5) * 1e-2)
        .collect();
    let payload = encode_dense(&values);
    let mb = payload.len() as f64 / 1e6;
    let secs = time_call(budget, || {
        black_box(seal(MsgType::DenseUpdate, &payload));
    });
    m.push("wire.seal_mb_s", "MB/s", mb / secs);
    let frame = seal(MsgType::DenseUpdate, &payload);
    let secs = time_call(budget, || {
        black_box(open(&frame).expect("sealed frame opens"));
    });
    m.push("wire.open_mb_s", "MB/s", mb / secs);

    // 64 upload-sized frames (8 KiB, the net workload's model) back to
    // back through the incremental reader.
    let small = seal(MsgType::DenseUpdate, &payload[..8192]);
    let stream: Vec<u8> = (0..64).flat_map(|_| small.iter().copied()).collect();
    let secs = time_call(budget, || {
        let mut src = &stream[..];
        let mut reader = FrameReader::new(MAX_FRAME_PAYLOAD);
        let mut frames = 0;
        while let FramePoll::Frame(f) = reader.poll(&mut src).expect("valid stream") {
            black_box(f);
            frames += 1;
        }
        assert_eq!(frames, 64, "frame reader lost frames");
    });
    m.push(
        "wire.frame_reader_mb_s",
        "MB/s",
        stream.len() as f64 / 1e6 / secs,
    );

    let secs = time_call(budget, || {
        black_box(decode_dense(&payload).expect("dense payload decodes"));
    });
    m.push("wire.dense_decode_mb_s", "MB/s", mb / secs);

    // SPATL's channel-indexed upload: 800 channels owning a 3×3×64
    // kernel row plus a bias entry each, every other one selected;
    // decode = payload parse + channel-id expansion.
    let mut layout = SelectionLayout::new();
    for c in 0..800u32 {
        layout.push_channel(vec![
            IndexRange {
                start: c * 577,
                len: 576,
            },
            IndexRange {
                start: c * 577 + 576,
                len: 1,
            },
        ]);
    }
    let channels: Vec<u32> = (0..800).step_by(2).collect();
    let n_sel = layout.selected_param_count(&channels);
    let sel_payload = encode_spatl_update(&channels, &values[..n_sel]);
    let secs = time_call(budget, || {
        let up = decode_spatl_update(&sel_payload).expect("selected payload decodes");
        black_box(layout.expand(&up.channels).expect("known channels"));
        black_box(up.values);
    });
    m.push(
        "wire.selected_decode_mb_s",
        "MB/s",
        sel_payload.len() as f64 / 1e6 / secs,
    );

    // privacy: one pair's keystream, and one coordinate on the grid.
    const WORDS: usize = 1 << 17;
    let secs = time_call(budget, || {
        let mut next = lane_stream(seed ^ 0x9A17, MaskLane::Delta);
        let mut x = 0u64;
        for _ in 0..WORDS {
            x ^= next();
        }
        black_box(x);
    });
    m.push(
        "privacy.mask_stream_mb_s",
        "MB/s",
        (8 * WORDS) as f64 / 1e6 / secs,
    );
    const COORDS: usize = 1 << 15;
    let secs = time_call(budget, || {
        let mut v = MaskedVector::zeros(COORDS);
        for (j, &x) in values[..COORDS].iter().enumerate() {
            v.accumulate(j, x, 12, false);
        }
        black_box(v);
    });
    m.push(
        "privacy.grid_accumulate_ns_per_coord",
        "ns",
        secs * 1e9 / COORDS as f64,
    );
    let mut a = MaskedVector::zeros(COORDS);
    let mut b = MaskedVector::zeros(COORDS);
    for (j, &x) in values[..COORDS].iter().enumerate() {
        a.accumulate(j, x, 12, false);
        b.accumulate(j, x, 7, true);
    }
    let secs = time_call(budget, || {
        a.add_assign(&b);
        black_box(a.words()[0]);
    });
    m.push(
        "privacy.grid_add_ns_per_coord",
        "ns",
        secs * 1e9 / COORDS as f64,
    );
}

/// The layers whose cost depends on the workload's model: `nn`, `data`,
/// `models`, `agent`, `graph`, `pruning` — measured on a client's model
/// and shard exactly as `ClientState::local_update` uses them.
pub fn model_dependent(
    m: &mut Metrics,
    model: &SplitModel,
    train: &Dataset,
    val: &Dataset,
    batch_size: usize,
    seed: u64,
    total_s: f64,
) {
    let budget = per_bench(total_s, 9);
    let mut rng = TensorRng::seed_from(seed ^ 0x1A7E);

    // nn: one training step split into its three segments.
    let mut net = model.clone();
    net.clear_masks();
    let batch = train
        .batches(batch_size, &mut rng)
        .into_iter()
        .next()
        .expect("client shard holds a batch");
    let mut loss = CrossEntropyLoss::new();
    let mut opt_enc = Sgd::with_momentum(0.05, 0.9, 1e-4);
    let mut opt_pred = Sgd::with_momentum(0.05, 0.9, 1e-4);
    let (mut fwd, mut bwd, mut step) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while fwd.len() < 3 || started.elapsed().as_secs_f64() < 3.0 * budget {
        net.zero_grad();
        let t = Instant::now();
        let logits = net.forward(&batch.images, true);
        fwd.push(t.elapsed().as_secs_f64());
        loss.forward(&logits, &batch.labels);
        net.recycle(logits);
        let t = Instant::now();
        let g = loss.backward();
        let gx = net.backward(&g);
        bwd.push(t.elapsed().as_secs_f64());
        net.recycle(g);
        net.recycle(gx);
        let t = Instant::now();
        opt_enc.step(&mut net.encoder);
        opt_pred.step(&mut net.predictor);
        step.push(t.elapsed().as_secs_f64());
    }
    // The first pass sizes the workspace arena; it is not steady state.
    m.push("nn.forward_ms_per_batch", "ms", median(&fwd[1..]) * 1e3);
    m.push("nn.backward_ms_per_batch", "ms", median(&bwd[1..]) * 1e3);
    m.push("nn.optim_step_ms", "ms", median(&step[1..]) * 1e3);
    drop(net);

    let secs = time_call(budget, || {
        black_box(train.batches(batch_size, &mut rng));
    });
    m.push("data.batches_ms_per_epoch", "ms", secs * 1e3);

    // SPATL's selection clones the client model every round.
    let secs = time_call(budget, || {
        let mut c = model.clone();
        c.clear_caches();
        black_box(c);
    });
    m.push("models.clone_ms", "ms", secs * 1e3);

    // agent / graph / pruning: the selection pipeline of
    // `ClientState::run_selection`, call by call.
    let mut env_model = model.clone();
    env_model.clear_caches();
    let env = PruningEnv::new(env_model, val.clone(), 0.7);
    let mut agent = ActorCritic::new(AgentConfig::default(), seed ^ 0xA9E27);
    let secs = time_call(budget, || {
        black_box(extract(model));
    });
    m.push("graph.extract_ms", "ms", secs * 1e3);
    let graph = env.graph();
    let secs = time_call(budget, || {
        black_box(agent.evaluate(&graph));
    });
    m.push("agent.evaluate_ms", "ms", secs * 1e3);
    let secs = time_call(budget, || {
        black_box(finetune_agent(&mut agent, &env, 1, 3, 4, &mut rng));
    });
    m.push("agent.finetune_ms", "ms", secs * 1e3);
    let action = agent.evaluate(&graph).mu;
    let secs = time_call(budget, || {
        black_box(project_to_budget(model, &action, 0.7, Criterion::L2));
    });
    m.push("agent.project_to_budget_ms", "ms", secs * 1e3);
    let applied = project_to_budget(model, &action, 0.7, Criterion::L2);
    let mut masked = model.clone();
    let secs = time_call(budget, || {
        apply_sparsities(&mut masked, &applied, Criterion::L2);
    });
    m.push("pruning.apply_sparsities_ms", "ms", secs * 1e3);
    let secs = time_call(budget, || {
        black_box(salient_param_indices(&masked));
    });
    m.push("pruning.salient_indices_ms", "ms", secs * 1e3);
}
