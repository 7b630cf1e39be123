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
    decode_dense, decode_fixed_dense, decode_masked_upload, decode_pair, decode_spatl_encoder,
    decode_spatl_update, decode_topk, encode_dense, encode_f16_dense, encode_fixed_dense,
    encode_masked_upload, encode_pair, encode_spatl_encoder, encode_spatl_update, encode_topk,
    open, seal, IndexRange, MsgType, SelectionLayout, SparseTopK, WireError, MASKED_METADATA,
    SPATL_UPDATE_METADATA,
};

use crate::client::{CompressedDelta, LocalOutcome, SelectedUpdate};
use crate::config::{Algorithm, FlConfig, UploadCodec};
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

/// Serialize the server's per-round broadcast into sealed frames.
pub fn encode_download(cfg: &FlConfig, global: &GlobalState) -> Encoded {
    let (msg, body, payload) = match cfg.algorithm {
        Algorithm::FedAvg | Algorithm::FedProx { .. } => (
            MsgType::DenseModel,
            encode_dense(&global.shared),
            4 * global.shared.len() as u64,
        ),
        Algorithm::Scaffold => (
            MsgType::ScaffoldModel,
            encode_pair(&global.shared, &global.control),
            8 * global.shared.len() as u64,
        ),
        Algorithm::FedNova => (
            MsgType::FedNovaModel,
            encode_pair(&global.shared, &global.momentum),
            8 * global.shared.len() as u64,
        ),
        Algorithm::Spatl(opts) => {
            let control = opts.gradient_control.then_some(global.control.as_slice());
            let mult = if opts.gradient_control { 8 } else { 4 };
            (
                MsgType::SpatlEncoder,
                encode_spatl_encoder(&global.shared, control),
                mult * global.shared.len() as u64,
            )
        }
    };
    let mut frames = vec![seal(msg, &body)];
    if !global.buffers.is_empty() {
        frames.push(seal(MsgType::BnStats, &encode_dense(&global.buffers)));
    }
    Encoded { frames, payload }
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
    let mut state = GlobalState {
        shared: Vec::new(),
        control: Vec::new(),
        momentum: Vec::new(),
        buffers: Vec::new(),
    };
    match (cfg.algorithm, msg) {
        (Algorithm::FedAvg | Algorithm::FedProx { .. }, MsgType::DenseModel) => {
            state.shared = decode_dense(payload)?;
        }
        (Algorithm::Scaffold, MsgType::ScaffoldModel) => {
            let pair = decode_pair(payload)?;
            state.shared = pair.primary;
            state.control = pair.secondary;
        }
        (Algorithm::FedNova, MsgType::FedNovaModel) => {
            let pair = decode_pair(payload)?;
            state.shared = pair.primary;
            state.momentum = pair.secondary;
        }
        (Algorithm::Spatl(opts), MsgType::SpatlEncoder) => {
            let enc = decode_spatl_encoder(payload, opts.gradient_control)?;
            state.shared = enc.encoder;
            state.control = enc.control.unwrap_or_default();
        }
        (_, got) => {
            return Err(WireError::Malformed(format!(
                "unexpected download message {got:?} for {}",
                cfg.algorithm.name()
            )));
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
    let (msg, body, payload) = match (&cfg.algorithm, &outcome.selected) {
        (Algorithm::Spatl(_), Some(sel)) => {
            let body = encode_spatl_update(&sel.channel_ids, &sel.values);
            let payload = (body.len() - SPATL_UPDATE_METADATA) as u64;
            (MsgType::SpatlUpdate, body, payload)
        }
        (Algorithm::FedAvg | Algorithm::FedProx { .. }, _) => match cfg.upload_codec {
            UploadCodec::Dense => (
                MsgType::DenseUpdate,
                encode_dense(&outcome.delta),
                4 * outcome.delta.len() as u64,
            ),
            UploadCodec::TopK { .. } => {
                let k = cfg.upload_codec.kept(outcome.delta.len());
                let sparse = SparseTopK::from_dense(&outcome.delta, k);
                // 8 bytes per kept coordinate (value + flat index); the
                // dense-length/k header is codec metadata, off the
                // Eq. 13 books like SPATL's update metadata.
                (MsgType::SparseTopK, encode_topk(&sparse), 8 * k as u64)
            }
            UploadCodec::F16 => (
                MsgType::QuantizedF16,
                encode_f16_dense(&outcome.delta),
                2 * outcome.delta.len() as u64,
            ),
        },
        // SPATL with selection disabled (or a diverged round) falls back to
        // a dense encoder delta, like FedAvg.
        (Algorithm::Spatl(_), None) => (
            MsgType::DenseUpdate,
            encode_dense(&outcome.delta),
            4 * outcome.delta.len() as u64,
        ),
        (Algorithm::Scaffold, _) => {
            let zeros;
            let cd = match &outcome.control_delta {
                Some(cd) => cd.as_slice(),
                None => {
                    // No control step happened (τ = 0): an explicit zero
                    // update keeps the frame shape algorithm-uniform.
                    zeros = vec![0.0; outcome.delta.len()];
                    &zeros
                }
            };
            (
                MsgType::ScaffoldUpdate,
                encode_pair(&outcome.delta, cd),
                8 * outcome.delta.len() as u64,
            )
        }
        (Algorithm::FedNova, _) => {
            let zeros;
            let vel = match &outcome.velocity {
                Some(v) => v.as_slice(),
                None => {
                    zeros = vec![0.0; outcome.delta.len()];
                    &zeros
                }
            };
            (
                MsgType::FedNovaUpdate,
                encode_pair(&outcome.delta, vel),
                8 * outcome.delta.len() as u64,
            )
        }
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
/// `meta.frames`) because under fault injection the bytes that *arrive*
/// are not necessarily the bytes the client sealed — the simulator hands
/// in whatever this transmission attempt delivered, possibly corrupted,
/// and a typed [`WireError`] here is what triggers the retransmit path.
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
                let want_secondary = cfg.algorithm.uses_secondary_lane();
                if up.secondary.is_some() != want_secondary {
                    return Err(WireError::Malformed(format!(
                        "masked upload secondary lane present={}, session expects {want_secondary}",
                        up.secondary.is_some()
                    )));
                }
                let want_counts = cfg.algorithm.uses_count_lane();
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
    match (&cfg.algorithm, msg) {
        (
            Algorithm::FedAvg | Algorithm::FedProx { .. } | Algorithm::Spatl(_),
            MsgType::DenseUpdate,
        ) => {
            out.delta = decode_dense(payload)?;
            check_len(out.delta.len())?;
        }
        (Algorithm::FedAvg | Algorithm::FedProx { .. }, MsgType::SparseTopK) => {
            let sparse = decode_topk(payload)?;
            check_len(sparse.dense_len as usize)?;
            // Not densified: the streaming fold scatter-adds the k
            // values directly (bit-identical — zero terms are inert in
            // the exact fold). Spill-mode consumers densify explicitly.
            out.compressed = Some(CompressedDelta::TopK {
                dense_len: sparse.dense_len as usize,
                indices: sparse.indices,
                values: sparse.values,
            });
        }
        (Algorithm::FedAvg | Algorithm::FedProx { .. }, MsgType::QuantizedF16) => {
            if !payload.len().is_multiple_of(2) {
                return Err(WireError::Malformed(format!(
                    "f16 payload length {} not a multiple of 2",
                    payload.len()
                )));
            }
            check_len(payload.len() / 2)?;
            // Kept as raw half-precision bytes (2·p instead of 4·p):
            // the fold decodes coordinate-at-a-time, exactly.
            out.compressed = Some(CompressedDelta::F16(payload.to_vec()));
        }
        (Algorithm::Scaffold, MsgType::ScaffoldUpdate) => {
            let pair = decode_pair(payload)?;
            check_len(pair.primary.len())?;
            out.delta = pair.primary;
            out.control_delta = Some(pair.secondary);
        }
        (Algorithm::FedNova, MsgType::FedNovaUpdate) => {
            let pair = decode_pair(payload)?;
            check_len(pair.primary.len())?;
            out.delta = pair.primary;
            out.velocity = Some(pair.secondary);
        }
        (Algorithm::Spatl(_), MsgType::SpatlUpdate) => {
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
        (_, got) => {
            return Err(WireError::Malformed(format!(
                "unexpected upload message {got:?} for {}",
                cfg.algorithm.name()
            )));
        }
    }
    out.buffers = decode_bn_stats(frames)?;
    Ok(out)
}
