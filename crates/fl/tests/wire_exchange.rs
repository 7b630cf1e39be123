//! End-to-end checks of the wire exchange: frame sizes tie to the analytic
//! communication model, decoded traffic is exactly what was sent, and the
//! SPATL channel-id layout agrees with the pruning module's salient-index
//! selection.

use spatl_data::{synth_cifar10, Dataset, SynthConfig};
use spatl_fl::{
    build_selection_layout, decode_download, decode_upload, encode_download, encode_upload,
    Algorithm, CommModel, FlConfig, GlobalState, LocalOutcome, SelectedUpdate, Simulation,
    SpatlOptions, WireBytes,
};
use spatl_models::{ModelConfig, ModelKind};
use spatl_pruning::{apply_sparsities, salient_param_indices, Criterion};
use spatl_tensor::TensorRng;
use spatl_wire::HEADER_LEN;

fn tiny_shards(n: usize, seed: u64) -> Vec<(Dataset, Dataset)> {
    let cfg = SynthConfig {
        noise_std: 0.5,
        ..SynthConfig::cifar10_like()
    };
    let mut rng = TensorRng::seed_from(seed);
    (0..n)
        .map(|i| {
            let d = synth_cifar10(&cfg, 30, seed * 100 + i as u64);
            d.split(0.7, &mut rng)
        })
        .collect()
}

fn empty_global() -> GlobalState {
    GlobalState {
        shared: Vec::new(),
        control: Vec::new(),
        momentum: Vec::new(),
        buffers: Vec::new(),
    }
}

fn outcome(cfg: &FlConfig, delta: Vec<f32>) -> LocalOutcome {
    let mut o = LocalOutcome {
        client_id: 0,
        n_samples: 10,
        tau: 4,
        delta,
        selected: None,
        compressed: None,
        control_delta: None,
        velocity: None,
        buffers: Vec::new(),
        diverged: false,
        masked: None,
        fixed: None,
        bytes: CommModel::dense(0),
        wire: WireBytes::default(),
        frames: Vec::new(),
        keep_ratio: 1.0,
        flops_ratio: 1.0,
    };
    let enc = encode_upload(cfg, &empty_global(), &o, 0);
    o.wire.upload_payload = enc.payload;
    o.wire.upload_framed = enc.framed();
    o.frames = enc.frames;
    o
}

#[test]
fn dense_download_payload_matches_comm_model_exactly() {
    for alg in [
        Algorithm::FedAvg,
        Algorithm::FedProx { mu: 0.1 },
        Algorithm::Scaffold,
        Algorithm::FedNova,
    ] {
        let cfg = FlConfig::new(alg);
        let p = 257; // odd size: no accidental alignment
        let global = GlobalState {
            shared: vec![0.25; p],
            control: if alg.uses_control() {
                vec![0.5; p]
            } else {
                Vec::new()
            },
            momentum: if matches!(alg, Algorithm::FedNova) {
                vec![0.1; p]
            } else {
                Vec::new()
            },
            buffers: Vec::new(),
        };
        let enc = encode_download(&cfg, &global);
        let analytic = match alg {
            Algorithm::FedAvg | Algorithm::FedProx { .. } => CommModel::dense(p).download,
            Algorithm::Scaffold => CommModel::scaffold(p).download,
            Algorithm::FedNova => CommModel::fednova(p).download,
            Algorithm::Spatl(_) => unreachable!(),
        };
        assert_eq!(enc.payload, analytic, "{}", alg.name());
        // One frame, no buffers: framed size = payload + one envelope.
        assert_eq!(
            enc.framed(),
            enc.payload + HEADER_LEN as u64,
            "{}",
            alg.name()
        );

        let back = decode_download(&cfg, &enc.frames, p).expect("decode");
        assert_eq!(back.shared, global.shared, "{}", alg.name());
        assert_eq!(back.control, global.control, "{}", alg.name());
        assert_eq!(back.momentum, global.momentum, "{}", alg.name());
    }
}

#[test]
fn spatl_download_counts_control_like_eq13() {
    let p = 101;
    for gradient_control in [true, false] {
        let opts = SpatlOptions {
            gradient_control,
            ..Default::default()
        };
        let cfg = FlConfig::new(Algorithm::Spatl(opts));
        let global = GlobalState {
            shared: vec![1.0; p],
            control: vec![-1.0; p],
            momentum: Vec::new(),
            buffers: Vec::new(),
        };
        let enc = encode_download(&cfg, &global);
        assert_eq!(
            enc.payload,
            CommModel::spatl(p, p, 0, gradient_control).download
        );
        let back = decode_download(&cfg, &enc.frames, p).expect("decode");
        assert_eq!(back.shared, global.shared);
        if gradient_control {
            assert_eq!(back.control, global.control);
        } else {
            assert!(back.control.is_empty());
        }
    }
}

#[test]
fn dense_upload_roundtrips_and_ties_to_comm_model() {
    let p = 123;
    let delta: Vec<f32> = (0..p).map(|i| i as f32 * 0.01 - 0.5).collect();

    let cfg = FlConfig::new(Algorithm::FedAvg);
    let o = outcome(&cfg, delta.clone());
    assert_eq!(o.wire.upload_payload, CommModel::dense(p).upload);
    let rx = decode_upload(&cfg, &o, &o.frames, None, p, 0).expect("decode");
    assert_eq!(rx.delta, delta);
    assert!(rx.selected.is_none());

    let cfg = FlConfig::new(Algorithm::Scaffold);
    let mut o = outcome(&cfg, delta.clone());
    o.control_delta = Some(vec![0.125; p]);
    let enc = encode_upload(&cfg, &empty_global(), &o, 0);
    o.frames = enc.frames;
    assert_eq!(enc.payload, CommModel::scaffold(p).upload);
    let rx = decode_upload(&cfg, &o, &o.frames, None, p, 0).expect("decode");
    assert_eq!(rx.delta, delta);
    assert_eq!(rx.control_delta.as_deref(), Some(&vec![0.125; p][..]));

    let cfg = FlConfig::new(Algorithm::FedNova);
    let mut o = outcome(&cfg, delta.clone());
    o.velocity = Some(vec![-0.25; p]);
    let enc = encode_upload(&cfg, &empty_global(), &o, 0);
    o.frames = enc.frames;
    assert_eq!(enc.payload, CommModel::fednova(p).upload);
    let rx = decode_upload(&cfg, &o, &o.frames, None, p, 0).expect("decode");
    assert_eq!(rx.delta, delta);
    assert_eq!(rx.velocity.as_deref(), Some(&vec![-0.25; p][..]));
}

#[test]
fn selection_layout_agrees_with_salient_indices() {
    // The layout is the wire's view of the architecture; the pruning module
    // is the model's. Their selected-index sets must be identical for any
    // mask, or server-side expansion would aggregate the wrong entries.
    let mut model = ModelConfig::cifar(ModelKind::ResNet20).build();
    let layout = build_selection_layout(&model, false);
    let total_channels: usize = model.prune_points.iter().map(|p| p.out_channels).sum();
    assert_eq!(layout.num_channels(), total_channels);

    let n = model.prune_points.len();
    apply_sparsities(&mut model, &vec![0.4; n], Criterion::L2);
    let salient = salient_param_indices(&model);

    // Channel ids in prune-point order, then channel order.
    let mut ids = Vec::new();
    let mut base = 0u32;
    for p in &model.prune_points {
        let conv = model.conv_at(p.layer);
        for (c, &m) in conv.channel_mask.iter().enumerate() {
            if m != 0.0 {
                ids.push(base + c as u32);
            }
        }
        base += conv.out_channels as u32;
    }
    assert!(ids.len() < total_channels, "selection was dense — vacuous");

    let expanded = layout.expand(&ids).expect("expand");
    assert_eq!(expanded, salient, "layout and pruning disagree on indices");
    assert_eq!(layout.channels_for(&salient), ids);
}

#[test]
fn spatl_upload_roundtrips_through_channel_ids() {
    let mut model = ModelConfig::femnist().build();
    let layout = build_selection_layout(&model, false);
    apply_sparsities(&mut model, &[0.5], Criterion::L1);
    let salient = salient_param_indices(&model);
    let ids = layout.channels_for(&salient);

    let values: Vec<f32> = (0..salient.len()).map(|i| i as f32 * 0.001).collect();
    let cfg = FlConfig::new(Algorithm::Spatl(SpatlOptions::default()));
    let p = model.encoder.num_params();
    let mut o = outcome(&cfg, Vec::new());
    o.selected = Some(SelectedUpdate {
        indices: salient.clone(),
        values: values.clone(),
        channels: ids.len(),
        channel_ids: ids.clone(),
    });
    let enc = encode_upload(&cfg, &empty_global(), &o, 0);
    o.frames = enc.frames;
    // Eq. 13: 4 bytes per selected value + 4 per surviving channel.
    assert_eq!(
        enc.payload,
        CommModel::spatl(p, salient.len(), ids.len(), true).upload
    );

    let rx = decode_upload(&cfg, &o, &o.frames, Some(&layout), p, 0).expect("decode");
    let sel = rx.selected.expect("selected survives the wire");
    assert_eq!(sel.indices, salient);
    assert_eq!(sel.values, values);
    assert_eq!(sel.channel_ids, ids);
}

#[test]
fn selection_reaching_past_the_model_is_malformed_and_the_rest_is_scalars_only() {
    use spatl_wire::{IndexRange, SelectionLayout, WireError};
    // A layout that disagrees with the session's parameter count: channel
    // 1 owns indices 4..8 of what the server believes is a 6-parameter
    // model. The fold indexes its lanes with whatever decode lets
    // through, so decode must be where this stops.
    let mut layout = SelectionLayout::new();
    layout.push_channel(vec![IndexRange { start: 0, len: 4 }]);
    layout.push_channel(vec![IndexRange { start: 4, len: 4 }]);
    let cfg = FlConfig::new(Algorithm::Spatl(SpatlOptions::default()));
    let upload = |channel_ids: Vec<u32>| {
        let mut o = outcome(&cfg, Vec::new());
        let indices = layout.expand(&channel_ids).expect("known channels");
        o.selected = Some(SelectedUpdate {
            values: vec![0.5; indices.len()],
            indices,
            channels: channel_ids.len(),
            channel_ids,
        });
        o.frames = encode_upload(&cfg, &empty_global(), &o, 0).frames;
        o
    };
    let o = upload(vec![0, 1]);
    let err = decode_upload(&cfg, &o, &o.frames, Some(&layout), 6, 0).unwrap_err();
    assert!(matches!(err, WireError::Malformed(_)), "{err}");
    assert!(decode_upload(&cfg, &o, &o.frames, Some(&layout), 8, 0).is_ok());

    // The in-range selection decodes, and nothing but scalars came from
    // `meta`: its tensors and frames stay behind.
    let mut o = upload(vec![0]);
    o.delta = vec![9.0; 6];
    o.buffers = vec![9.0; 3];
    let rx = decode_upload(&cfg, &o, &o.frames, Some(&layout), 6, 0).expect("decode");
    assert_eq!(rx.selected.expect("selected").indices, vec![0, 1, 2, 3]);
    assert!(rx.delta.is_empty() && rx.buffers.is_empty() && rx.frames.is_empty());
    assert_eq!(
        (rx.client_id, rx.n_samples, rx.tau),
        (o.client_id, o.n_samples, o.tau)
    );
    assert_eq!((rx.bytes, rx.wire), (o.bytes, o.wire));
}

#[test]
fn corrupted_upload_is_rejected_not_panicking() {
    let cfg = FlConfig::new(Algorithm::FedAvg);
    let mut o = outcome(&cfg, vec![1.0; 32]);
    let mid = o.frames[0].len() / 2;
    o.frames[0][mid] ^= 0x40;
    assert!(decode_upload(&cfg, &o, &o.frames, None, 32, 0).is_err());

    // Wrong message type for the algorithm is rejected too.
    let scaffold = FlConfig::new(Algorithm::Scaffold);
    let o = outcome(&cfg, vec![1.0; 32]); // sealed as DenseUpdate
    assert!(decode_upload(&scaffold, &o, &o.frames, None, 32, 0).is_err());
}

#[test]
fn simulated_round_records_wire_traffic_and_transfer_time() {
    let mut cfg = FlConfig::new(Algorithm::FedAvg);
    cfg.n_clients = 2;
    cfg.rounds = 1;
    cfg.local_epochs = 1;
    let mut sim = Simulation::new(
        cfg,
        ModelConfig::cifar(ModelKind::ResNet20),
        tiny_shards(2, 7),
    );
    let record = sim.run_round();

    // Measured payloads equal the analytic accounting for a dense path.
    assert_eq!(record.wire.download_payload, record.bytes.download);
    assert_eq!(record.wire.upload_payload, record.bytes.upload);
    // Framing adds a strictly positive, but small, overhead (envelope
    // headers plus the auxiliary batch-norm frames).
    let overhead = record.wire.overhead();
    assert!(overhead > 0);
    assert!(overhead as f64 / (record.wire.total_framed() as f64) < 0.05);
    // The round moves megabytes: transfer time must be visible.
    assert!(record.transfer_wall_s > 0.0);
    assert!(record.transfer_device_s >= record.transfer_wall_s);
}

#[test]
fn spatl_round_uploads_fewer_framed_bytes_than_dense() {
    // Acceptance: with keep-ratio < 1, SPATL's *measured* upload is
    // strictly smaller than FedAvg's on the same model.
    let mk = |alg| {
        let mut cfg = FlConfig::new(alg);
        cfg.n_clients = 2;
        cfg.rounds = 1;
        cfg.local_epochs = 1;
        cfg
    };
    let model_cfg = ModelConfig::cifar(ModelKind::ResNet20);
    let mut dense = Simulation::new(mk(Algorithm::FedAvg), model_cfg, tiny_shards(2, 9));
    let dense_rec = dense.run_round();

    let spatl_opts = SpatlOptions {
        target_flops_ratio: 0.5,
        ..Default::default()
    };
    let mut spatl = Simulation::new(
        mk(Algorithm::Spatl(spatl_opts)),
        model_cfg,
        tiny_shards(2, 9),
    );
    let spatl_rec = spatl.run_round();

    assert!(
        spatl_rec.mean_keep_ratio < 1.0,
        "selection kept everything — vacuous"
    );
    assert!(
        spatl_rec.wire.upload_framed < dense_rec.wire.upload_framed,
        "spatl {} !< dense {}",
        spatl_rec.wire.upload_framed,
        dense_rec.wire.upload_framed
    );
}
