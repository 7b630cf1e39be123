//! The wire exchange: every federated round's traffic serialized through
//! `spatl-wire` frames.
//!
//! The simulator used to hand `Vec<f32>` updates straight from client to
//! server; this module replaces that hand-off with the real protocol. The
//! server [`encode_download`]s its state once per round, every participant
//! decodes it before training, and each upload travels back as sealed
//! frames the server must [`decode_upload`] before aggregating. Measured
//! frame sizes are recorded next to the analytic [`CommModel`] numbers so
//! the two accountings cross-check each other (`tensor payload == Eq. 13`
//! exactly; framing overhead is documented separately).
//!
//! Frame layout per transmission: `frames[0]` is the algorithm's main
//! message; an optional `frames[1]` with tag [`MsgType::BnStats`] carries
//! the batch-norm running statistics as an auxiliary dense frame. Batch
//! norm statistics and envelope headers are *overhead* bytes — they are
//! not part of the paper's Eq. 13 accounting, which counts parameter
//! payloads only.
//!
//! [`CommModel`]: crate::CommModel

use serde::{Deserialize, Serialize};
use spatl_models::SplitModel;
use spatl_privacy::{dequantize, PrivacyMode};
use spatl_pruning::prune_point_param_names;
use spatl_wire::{
    decode_dense, decode_fixed_dense, decode_masked_upload, decode_pair, decode_spatl_update,
    encode_dense, encode_fixed_dense, encode_masked_upload, encode_pair, encode_spatl_update, open,
    seal, IndexRange, MsgType, SelectionLayout, WireError, MASKED_METADATA, SPATL_UPDATE_METADATA,
};

use crate::client::{LocalOutcome, SelectedUpdate};
use crate::config::FlConfig;
use crate::server::GlobalState;

/// Measured wire traffic for one client and round, split into the tensor
/// payload (directly comparable to [`crate::CommModel`]) and the full
/// framed size (payload + envelope headers + codec metadata + auxiliary
/// batch-norm frames).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireBytes {
    /// Server→client tensor payload bytes.
    pub download_payload: u64,
    /// Server→client bytes on the wire, framing included.
    pub download_framed: u64,
    /// Client→server tensor payload bytes.
    pub upload_payload: u64,
    /// Client→server bytes on the wire, framing included.
    pub upload_framed: u64,
}

impl WireBytes {
    /// Bytes spent on framing rather than tensor payload.
    pub fn overhead(&self) -> u64 {
        (self.download_framed - self.download_payload) + (self.upload_framed - self.upload_payload)
    }

    /// Total framed bytes both directions.
    pub fn total_framed(&self) -> u64 {
        self.download_framed + self.upload_framed
    }

    /// Add another client's traffic into this accumulator.
    pub fn accumulate(&mut self, other: &WireBytes) {
        self.download_payload += other.download_payload;
        self.download_framed += other.download_framed;
        self.upload_payload += other.upload_payload;
        self.upload_framed += other.upload_framed;
    }
}

/// An encoded transmission: the sealed frames plus the tensor-payload byte
/// count that ties to the analytic communication model.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// Sealed frames, main message first.
    pub frames: Vec<Vec<u8>>,
    /// Tensor payload bytes (envelopes, codec metadata and auxiliary
    /// frames excluded) — the number Eq. 13 charges.
    pub payload: u64,
}

impl Encoded {
    /// Total bytes on the wire, framing included.
    pub fn framed(&self) -> u64 {
        self.frames.iter().map(|f| f.len() as u64).sum()
    }
}

/// Build the [`SelectionLayout`] both ends of a SPATL session share, from
/// the model architecture: one channel id per output channel of each prune
/// point (owning its kernel row and bias entry), with everything else —
/// non-prunable encoder layers, and the predictor when it is shared —
/// always transmitted.
///
/// Channel ids are assigned in prune-point order, then channel order, so
/// `id = channels_before(point) + c` matches the client-side mask walk.
pub fn build_selection_layout(model: &SplitModel, include_predictor: bool) -> SelectionLayout {
    let mut layout = SelectionLayout::new();
    let specs = model.encoder.param_specs();
    let spec_of = |name: &str| {
        specs
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("prune-point parameter {name} missing from encoder specs"))
    };

    let mut masked_names = std::collections::HashSet::new();
    for p in &model.prune_points {
        let conv = model.conv_at(p.layer);
        let (wname, bname) = prune_point_param_names(p.layer);
        let wspec = spec_of(&wname);
        let bspec = spec_of(&bname);
        let rows = wspec.numel / conv.out_channels;
        for c in 0..conv.out_channels {
            layout.push_channel(vec![
                IndexRange {
                    start: (wspec.offset + c * rows) as u32,
                    len: rows as u32,
                },
                IndexRange {
                    start: (bspec.offset + c) as u32,
                    len: 1,
                },
            ]);
        }
        masked_names.insert(wname);
        masked_names.insert(bname);
    }
    for spec in &specs {
        if !masked_names.contains(&spec.name) {
            layout.push_always(IndexRange {
                start: spec.offset as u32,
                len: spec.numel as u32,
            });
        }
    }
    if include_predictor {
        let enc = model.encoder.num_params();
        layout.push_always(IndexRange {
            start: enc as u32,
            len: model.predictor.num_params() as u32,
        });
    }
    layout
}

/// Serialize the server's per-round broadcast into sealed frames: the
/// shared weights alone (dense) or with the algorithm's download lane
/// (pair), under its row's tag.
pub fn encode_download(cfg: &FlConfig, global: &GlobalState) -> Encoded {
    let spec = cfg.algorithm.spec();
    let body = match spec.download_lane {
        None => encode_dense(&global.shared),
        Some(lane) => encode_pair(&global.shared, global.lane(lane)),
    };
    let lanes = 1 + u64::from(spec.download_lane.is_some());
    let mut frames = vec![seal(spec.download, &body)];
    if !global.buffers.is_empty() {
        frames.push(seal(MsgType::BnStats, &encode_dense(&global.buffers)));
    }
    Encoded {
        frames,
        payload: 4 * lanes * global.shared.len() as u64,
    }
}

/// Reconstruct the broadcast state a client trains against from the
/// server's frames. `expected_params` is the shared-vector length the
/// session agreed on; any frame decoding to a different length is rejected
/// as malformed rather than trusted.
pub fn decode_download(
    cfg: &FlConfig,
    frames: &[Vec<u8>],
    expected_params: usize,
) -> Result<GlobalState, WireError> {
    let main = frames
        .first()
        .ok_or_else(|| WireError::Malformed("download carried no frames".into()))?;
    let (msg, payload) = open(main)?;
    let spec = cfg.algorithm.spec();
    if msg != spec.download {
        return Err(WireError::Malformed(format!(
            "unexpected download message {msg:?} for {}",
            spec.name
        )));
    }
    let mut state = GlobalState {
        shared: Vec::new(),
        control: Vec::new(),
        momentum: Vec::new(),
        buffers: Vec::new(),
    };
    match spec.download_lane {
        None => state.shared = decode_dense(payload)?,
        Some(lane) => {
            let pair = decode_pair(payload)?;
            state.shared = pair.primary;
            *state.lane_mut(lane) = pair.secondary;
        }
    }
    if state.shared.len() != expected_params {
        return Err(WireError::Malformed(format!(
            "download carried {} parameters, session expects {expected_params}",
            state.shared.len()
        )));
    }
    state.buffers = decode_bn_stats(frames)?;
    Ok(state)
}

/// Open the auxiliary [`MsgType::BnStats`] frame riding at `frames[1]`,
/// if the transmission carries one: the batch-norm running statistics,
/// empty when it does not.
fn decode_bn_stats(frames: &[Vec<u8>]) -> Result<Vec<f32>, WireError> {
    let Some(aux) = frames.get(1) else {
        return Ok(Vec::new());
    };
    let (msg, payload) = open(aux)?;
    if msg != MsgType::BnStats {
        return Err(WireError::Malformed(format!(
            "unexpected auxiliary message {msg:?}"
        )));
    }
    decode_dense(payload)
}

/// Serialize one client's upload into sealed frames. Called by the client
/// at the end of its local update; the inverse is [`decode_upload`].
///
/// Under a privacy mode the clear codecs are bypassed entirely: the lanes
/// are rebuilt here from the outcome's clear tensor fields (never from a
/// cached sealed form, so an adversary's tampering re-masks honestly) and
/// sealed as a [`MsgType::MaskedUpload`] or [`MsgType::FixedUpload`]
/// frame. `global` supplies the broadcast snapshot SPATL's and SCAFFOLD's
/// masked control terms are derived against; `round` keys the per-round
/// pairwise masks and fixed-point noise.
pub fn encode_upload(
    cfg: &FlConfig,
    global: &GlobalState,
    outcome: &LocalOutcome,
    round: usize,
) -> Encoded {
    if let Some(privacy) = cfg.privacy {
        match privacy.mode {
            PrivacyMode::Masked => {
                let up = crate::privacy::build_masked_upload(cfg, global, outcome, round);
                let body = encode_masked_upload(&up);
                let hdr = MASKED_METADATA + if up.buffers.is_some() { 4 } else { 0 };
                // No clear BnStats auxiliary frame: batch-norm statistics
                // travel inside the masked buffer lane or not at all.
                return Encoded {
                    frames: vec![seal(MsgType::MaskedUpload, &body)],
                    payload: (body.len() - hdr) as u64,
                };
            }
            PrivacyMode::FixedPoint => {
                let q = crate::privacy::fixed_quantized_upload(cfg, outcome, round);
                let payload = 4 * q.len() as u64;
                let mut frames = vec![seal(MsgType::FixedUpload, &encode_fixed_dense(&q))];
                if !outcome.buffers.is_empty() {
                    frames.push(seal(MsgType::BnStats, &encode_dense(&outcome.buffers)));
                }
                return Encoded { frames, payload };
            }
        }
    }
    let spec = cfg.algorithm.spec();
    let n = outcome.delta.len();
    let (msg, body, payload) = match &outcome.selected {
        Some(sel) if spec.count_lane => {
            let body = encode_spatl_update(&sel.channel_ids, &sel.values);
            let payload = (body.len() - SPATL_UPDATE_METADATA) as u64;
            (MsgType::SpatlUpdate, body, payload)
        }
        // The row's dense upload — SPATL's too when it has no selection
        // (disabled, or a diverged round).
        _ => match spec.upload_lane {
            None => (spec.upload, encode_dense(&outcome.delta), 4 * n as u64),
            Some(lane) => {
                // No second lane was produced (τ = 0): an explicit zero
                // lane keeps the frame shape algorithm-uniform.
                let zeros;
                let second = match outcome.lane(lane) {
                    Some(second) => second,
                    None => {
                        zeros = vec![0.0; n];
                        &zeros
                    }
                };
                let body = encode_pair(&outcome.delta, second);
                (spec.upload, body, 8 * n as u64)
            }
        },
    };
    let mut frames = vec![seal(msg, &body)];
    if !outcome.buffers.is_empty() {
        frames.push(seal(MsgType::BnStats, &encode_dense(&outcome.buffers)));
    }
    Encoded { frames, payload }
}

/// Decode a client's upload frames back into the tensors aggregation
/// consumes. Bookkeeping (id, sample count, τ, the diverged flag, ratios,
/// byte accounting) is copied from `meta`'s scalar fields; every tensor
/// in the result comes from `frames`, and nothing else of `meta` is read.
///
/// `frames` is passed separately from `meta` (rather than read from
/// `meta.frames`) because over the network the bytes arrive apart from
/// the reply header `meta` is rebuilt from; a typed [`WireError`] here is
/// ledgered as an undecodable reply.
///
/// `layout` is required to expand SPATL channel ids; `expected_params` is
/// the shared-vector length dense uploads must match, `expected_buffers`
/// the batch-norm buffer length a masked buffer lane must carry.
pub fn decode_upload(
    cfg: &FlConfig,
    meta: &LocalOutcome,
    frames: &[Vec<u8>],
    layout: Option<&SelectionLayout>,
    expected_params: usize,
    expected_buffers: usize,
) -> Result<LocalOutcome, WireError> {
    let main = frames
        .first()
        .ok_or_else(|| WireError::Malformed("upload carried no frames".into()))?;
    let (msg, payload) = open(main)?;
    let spec = cfg.algorithm.spec();

    // Scalars only: `meta` may still own the client's clear tensors and
    // sealed frames (the simulator's does), and none of them belong in
    // the decoded result.
    let mut out = LocalOutcome::meta(
        meta.client_id,
        meta.n_samples,
        meta.tau,
        meta.diverged,
        meta.keep_ratio,
        meta.flops_ratio,
        meta.bytes,
        meta.wire,
    );
    let check_len = |len: usize| {
        if len != expected_params {
            Err(WireError::Malformed(format!(
                "upload carried {len} parameters, session expects {expected_params}"
            )))
        } else {
            Ok(())
        }
    };
    if let Some(privacy) = cfg.privacy {
        // A privacy session accepts its own message type and nothing
        // else: a clear upload sneaking into a masked cohort would make
        // the blind sum non-cancelling (and leak its sender's tensors).
        match (privacy.mode, msg) {
            (PrivacyMode::Masked, MsgType::MaskedUpload) => {
                let up = decode_masked_upload(payload)?;
                check_len(up.delta.n_coords())?;
                let want_secondary = spec.secondary_lane;
                if up.secondary.is_some() != want_secondary {
                    return Err(WireError::Malformed(format!(
                        "masked upload secondary lane present={}, session expects {want_secondary}",
                        up.secondary.is_some()
                    )));
                }
                let want_counts = spec.count_lane;
                if up.counts.is_some() != want_counts {
                    return Err(WireError::Malformed(format!(
                        "masked upload count lane present={}, session expects {want_counts}",
                        up.counts.is_some()
                    )));
                }
                let got_buffers = up.buffers.as_ref().map_or(0, |b| b.n_coords());
                if got_buffers != expected_buffers {
                    return Err(WireError::Malformed(format!(
                        "masked buffer lane carries {got_buffers} entries, session expects {expected_buffers}"
                    )));
                }
                if frames.len() > 1 {
                    return Err(WireError::Malformed(
                        "masked upload must not carry clear auxiliary frames".into(),
                    ));
                }
                out.masked = Some(Box::new(up));
                return Ok(out);
            }
            (PrivacyMode::FixedPoint, MsgType::FixedUpload) => {
                let q = decode_fixed_dense(payload)?;
                check_len(q.len())?;
                out.delta = q
                    .iter()
                    .map(|&v| dequantize(v, privacy.frac_bits))
                    .collect();
                out.fixed = Some(q);
                out.buffers = decode_bn_stats(frames)?;
                return Ok(out);
            }
            (mode, got) => {
                return Err(WireError::Malformed(format!(
                    "unexpected upload message {got:?} under privacy mode {mode:?}"
                )));
            }
        }
    }
    match msg {
        _ if msg == spec.upload => match spec.upload_lane {
            None => {
                out.delta = decode_dense(payload)?;
                check_len(out.delta.len())?;
            }
            Some(lane) => {
                let pair = decode_pair(payload)?;
                check_len(pair.primary.len())?;
                out.delta = pair.primary;
                *out.lane_mut(lane) = Some(pair.secondary);
            }
        },
        MsgType::SpatlUpdate if spec.count_lane => {
            let layout = layout.ok_or_else(|| {
                WireError::Malformed("SPATL upload received without a selection layout".into())
            })?;
            let update = decode_spatl_update(payload)?;
            let indices = layout.expand(&update.channels)?;
            // `expand` emits ascending indices, so the last one bounds
            // them all: the fold indexes its lanes with these unchecked
            // against anything but the lane length.
            if let Some(&last) = indices.last() {
                if last as usize >= expected_params {
                    return Err(WireError::Malformed(format!(
                        "selection reaches index {last}, session has {expected_params} parameters"
                    )));
                }
            }
            if indices.len() != update.values.len() {
                return Err(WireError::Malformed(format!(
                    "selection expands to {} indices but {} values arrived",
                    indices.len(),
                    update.values.len()
                )));
            }
            out.selected = Some(SelectedUpdate {
                indices,
                values: update.values,
                channels: update.channels.len(),
                channel_ids: update.channels,
            });
        }
        got => {
            return Err(WireError::Malformed(format!(
                "unexpected upload message {got:?} for {}",
                spec.name
            )));
        }
    }
    out.buffers = decode_bn_stats(frames)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, CommModel, PrivacyConfig, SpatlOptions};
    use proptest::prelude::*;
    use spatl_wire::HEADER_LEN;

    const P: usize = 8;

    /// Every session shape the wire tells apart: each algorithm clear,
    /// SPATL's selection × gradient control, every algorithm masked, and
    /// the plain-delta algorithms under fixed-point sums.
    fn sessions() -> Vec<FlConfig> {
        let mut algs = vec![
            Algorithm::FedAvg,
            Algorithm::FedProx { mu: 0.01 },
            Algorithm::Scaffold,
            Algorithm::FedNova,
        ];
        for selection in [true, false] {
            for gradient_control in [true, false] {
                algs.push(Algorithm::Spatl(SpatlOptions {
                    selection,
                    gradient_control,
                    ..SpatlOptions::default()
                }));
            }
        }
        let mut out: Vec<FlConfig> = algs.iter().map(|&a| FlConfig::new(a)).collect();
        for &a in &algs {
            let mut cfg = FlConfig::new(a);
            cfg.privacy = Some(PrivacyConfig::masked(3));
            out.push(cfg);
        }
        for a in [Algorithm::FedAvg, Algorithm::FedProx { mu: 0.01 }] {
            let mut cfg = FlConfig::new(a);
            cfg.privacy = Some(PrivacyConfig::fixed(3, 10.0));
            out.push(cfg);
        }
        out
    }

    /// The one model tag each algorithm's download travels under.
    fn own_download(alg: Algorithm) -> MsgType {
        match alg {
            Algorithm::FedAvg | Algorithm::FedProx { .. } => MsgType::DenseModel,
            Algorithm::Scaffold => MsgType::ScaffoldModel,
            Algorithm::FedNova => MsgType::FedNovaModel,
            Algorithm::Spatl(_) => MsgType::SpatlEncoder,
        }
    }

    /// Every upload tag a session decodes; anything else is `Malformed`.
    fn accepted_uploads(cfg: &FlConfig) -> Vec<MsgType> {
        match (cfg.privacy.map(|p| p.mode), cfg.algorithm) {
            (Some(PrivacyMode::Masked), _) => vec![MsgType::MaskedUpload],
            (Some(PrivacyMode::FixedPoint), _) => vec![MsgType::FixedUpload],
            (None, Algorithm::FedAvg | Algorithm::FedProx { .. }) => vec![MsgType::DenseUpdate],
            (None, Algorithm::Spatl(_)) => vec![MsgType::DenseUpdate, MsgType::SpatlUpdate],
            (None, Algorithm::Scaffold) => vec![MsgType::ScaffoldUpdate],
            (None, Algorithm::FedNova) => vec![MsgType::FedNovaUpdate],
        }
    }

    fn global(cfg: &FlConfig) -> GlobalState {
        let lane = |on: bool| if on { vec![0.25; P] } else { Vec::new() };
        GlobalState {
            shared: vec![0.5; P],
            control: lane(cfg.algorithm.uses_control()),
            momentum: lane(matches!(cfg.algorithm, Algorithm::FedNova)),
            buffers: Vec::new(),
        }
    }

    /// A payload `cfg` would decode were `msg` its own tag, so only the
    /// tag can make it fail.
    fn body(cfg: &FlConfig, msg: MsgType) -> Vec<u8> {
        let v = [0.5f32; P];
        let pair = encode_pair(&v, &v);
        match msg {
            MsgType::ScaffoldModel
            | MsgType::ScaffoldUpdate
            | MsgType::FedNovaModel
            | MsgType::FedNovaUpdate => pair,
            MsgType::SpatlEncoder if cfg.algorithm.uses_control() => pair,
            MsgType::SpatlUpdate => encode_spatl_update(&[0], &v[..P / 2]),
            MsgType::MaskedUpload | MsgType::FixedUpload if cfg.privacy.is_some() => {
                let mut o = LocalOutcome::meta(
                    0,
                    10,
                    4,
                    false,
                    1.0,
                    1.0,
                    CommModel::dense(0),
                    WireBytes::default(),
                );
                o.delta = v.to_vec();
                let enc = encode_upload(cfg, &global(cfg), &o, 0);
                open(&enc.frames[0]).unwrap().1.to_vec()
            }
            _ => encode_dense(&v),
        }
    }

    #[test]
    fn each_session_accepts_exactly_its_own_messages() {
        let mut layout = SelectionLayout::new();
        for c in 0..2 {
            layout.push_channel(vec![IndexRange {
                start: 4 * c,
                len: 4,
            }]);
        }
        let meta = LocalOutcome::meta(
            0,
            10,
            4,
            false,
            1.0,
            1.0,
            CommModel::dense(0),
            WireBytes::default(),
        );
        for cfg in sessions() {
            let name = format!("{} {:?}", cfg.algorithm.name(), cfg.privacy.map(|p| p.mode));
            let uploads = accepted_uploads(&cfg);
            for msg in (1..=0x15).filter_map(|t| MsgType::from_tag(t).ok()) {
                let frames = [seal(msg, &body(&cfg, msg))];
                let down = decode_download(&cfg, &frames, P);
                match down {
                    Ok(_) => {
                        assert_eq!(msg, own_download(cfg.algorithm), "{name}: download {msg:?}")
                    }
                    Err(WireError::Malformed(_)) => {
                        assert_ne!(msg, own_download(cfg.algorithm), "{name}: download {msg:?}")
                    }
                    Err(e) => panic!("{name}: download {msg:?}: {e}"),
                }
                let up = decode_upload(&cfg, &meta, &frames, Some(&layout), P, 0);
                match up {
                    Ok(_) => assert!(uploads.contains(&msg), "{name}: upload {msg:?} accepted"),
                    Err(WireError::Malformed(_)) => {
                        assert!(!uploads.contains(&msg), "{name}: upload {msg:?} refused")
                    }
                    Err(e) => panic!("{name}: upload {msg:?}: {e}"),
                }
            }
        }
    }

    fn spatl(gradient_control: bool) -> FlConfig {
        FlConfig::new(Algorithm::Spatl(SpatlOptions {
            gradient_control,
            ..SpatlOptions::default()
        }))
    }

    #[test]
    fn spatl_download_is_a_dense_or_pair_payload() {
        let enc: Vec<f32> = (0..7).map(|i| 0.5 + i as f32).collect();
        let ctl: Vec<f32> = (0..7).map(|i| -0.25 * i as f32).collect();
        for gradient_control in [false, true] {
            let global = GlobalState {
                shared: enc.clone(),
                control: if gradient_control {
                    ctl.clone()
                } else {
                    Vec::new()
                },
                momentum: Vec::new(),
                buffers: Vec::new(),
            };
            let out = encode_download(&spatl(gradient_control), &global);
            let (msg, payload) = open(&out.frames[0]).unwrap();
            assert_eq!(msg, MsgType::SpatlEncoder);
            if gradient_control {
                assert_eq!(payload, encode_pair(&enc, &ctl));
                assert_eq!(payload.len(), 8 * enc.len());
            } else {
                assert_eq!(payload, encode_dense(&enc));
                assert_eq!(payload.len(), 4 * enc.len());
            }
            assert_eq!(out.payload, payload.len() as u64);
        }
    }

    #[test]
    fn framed_bytes_count_every_envelope_and_the_bn_frame() {
        let cfg = FlConfig::new(Algorithm::FedAvg);
        let mut o = LocalOutcome::meta(
            0,
            10,
            4,
            false,
            1.0,
            1.0,
            CommModel::dense(P),
            WireBytes::default(),
        );
        o.delta = vec![0.5; P];
        let enc = encode_upload(&cfg, &global(&cfg), &o, 0);
        assert_eq!(enc.payload, 4 * P as u64);
        assert_eq!(enc.framed(), enc.payload + HEADER_LEN as u64);

        o.buffers = vec![1.0; 3];
        let enc = encode_upload(&cfg, &global(&cfg), &o, 0);
        assert_eq!(enc.frames.len(), 2);
        assert_eq!(enc.payload, 4 * P as u64, "statistics are not payload");
        assert_eq!(enc.framed(), enc.payload + 2 * HEADER_LEN as u64 + 4 * 3);
    }

    #[test]
    fn wire_bytes_accumulate_field_by_field() {
        let a = WireBytes {
            download_payload: 40,
            download_framed: 56,
            upload_payload: 20,
            upload_framed: 40,
        };
        assert_eq!(a.overhead(), 16 + 20);
        assert_eq!(a.total_framed(), 96);
        let mut sum = WireBytes::default();
        sum.accumulate(&a);
        sum.accumulate(&a);
        assert_eq!(
            sum,
            WireBytes {
                download_payload: 80,
                download_framed: 112,
                upload_payload: 40,
                upload_framed: 80,
            }
        );
        assert_eq!(sum.overhead(), 2 * a.overhead());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn spatl_download_roundtrip(
            enc in prop::collection::vec(-1.0e3f32..1.0e3, 0..65),
            with_control in 0u8..2,
        ) {
            let with_control = with_control == 1;
            let cfg = spatl(with_control);
            let global = GlobalState {
                shared: enc.clone(),
                control: if with_control {
                    enc.iter().map(|x| x + 1.0).collect()
                } else {
                    Vec::new()
                },
                momentum: Vec::new(),
                buffers: Vec::new(),
            };
            let out = encode_download(&cfg, &global);
            let back = decode_download(&cfg, &out.frames, enc.len()).unwrap();
            prop_assert_eq!(back.shared, global.shared);
            prop_assert_eq!(back.control, global.control);
        }
    }
}
