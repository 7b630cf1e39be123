//! Control-plane payload codecs: the session-management messages that
//! surround the data-plane model/update frames.
//!
//! Layouts are written over `spatl_wire::bytes` — the one place the
//! protocol's byte rules live — so decoders return [`WireError`] instead
//! of panicking. Each payload rides inside a sealed
//! envelope with the matching control-plane [`spatl_wire::MsgType`]
//! (`Hello`/`Join`/`RoundAssign`/`RoundDone`/`Shutdown`); `Shutdown`
//! carries an empty payload and has no codec here.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use spatl_fl::{FlConfig, LocalOutcome};
use spatl_wire::bytes::{put_f32s, put_u32, put_u64, put_u64s, Reader};
use spatl_wire::{EdgeEntry, WireError, HEADER_LEN};

/// What kind of endpoint a [`Hello`] registers. The tiered root
/// terminates both edge aggregators and — after an edge dies — that
/// edge's surviving clients re-registering directly (DESIGN.md §8
/// failover), and must tell the two apart because their wire client ids
/// index different tables (edge slot vs global client id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelloRole {
    /// A client node: `client_id` is a global client id.
    Client,
    /// An edge aggregator: `client_id` is its edge id.
    Edge,
}

impl HelloRole {
    fn tag(self) -> u8 {
        match self {
            HelloRole::Client => 0,
            HelloRole::Edge => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(HelloRole::Client),
            1 => Ok(HelloRole::Edge),
            other => Err(WireError::Malformed(format!("unknown hello role {other}"))),
        }
    }
}

/// Client→server: a node introduces itself when (re)connecting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The node's stable client id (shard index), or its edge id when
    /// `role` is [`HelloRole::Edge`].
    pub client_id: u32,
    /// Fingerprint of the node's run configuration; the coordinator
    /// rejects a `Hello` whose fingerprint differs from its own, so two
    /// processes started with different seeds or algorithms fail fast
    /// instead of silently diverging.
    pub fingerprint: u64,
    /// What this endpoint is (client node or edge aggregator).
    pub role: HelloRole,
}

/// Server→client: verdict on a [`Hello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Join {
    /// Whether the coordinator accepted the registration.
    pub accepted: bool,
    /// The next round index the coordinator will run — after a
    /// mid-session reconnect this tells the node where the run stands.
    pub round: u32,
}

/// What a [`RoundAssign`] asks the client to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundMode {
    /// Train locally and upload the update.
    Train,
    /// Sync the broadcast weights and report validation accuracy only
    /// (no upload frames; excluded from wire accounting like the
    /// simulator's in-process evaluation pass).
    Eval,
}

impl RoundMode {
    fn tag(self) -> u8 {
        match self {
            RoundMode::Train => 0,
            RoundMode::Eval => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(RoundMode::Train),
            1 => Ok(RoundMode::Eval),
            other => Err(WireError::Malformed(format!("unknown round mode {other}"))),
        }
    }
}

/// Server→client: round kickoff. `n_frames` model frames follow
/// back-to-back on the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundAssign {
    /// Round index.
    pub round: u32,
    /// Train or evaluate.
    pub mode: RoundMode,
    /// Number of broadcast frames that follow.
    pub n_frames: u32,
}

/// Client→server: round completion — the upload's bookkeeping metadata.
/// In [`RoundMode::Train`], `n_frames` upload frames follow on the
/// stream; in [`RoundMode::Eval`] only `accuracy` is meaningful and
/// `n_frames` is zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundDone {
    /// Round index being answered.
    pub round: u32,
    /// Mode being answered.
    pub mode: RoundMode,
    /// The node's client id.
    pub client_id: u32,
    /// Local training-set size (aggregation weight).
    pub n_samples: u64,
    /// Local optimisation steps taken.
    pub tau: u64,
    /// Whether local training produced a non-finite delta.
    pub diverged: bool,
    /// Fraction of shared parameters uploaded.
    pub keep_ratio: f32,
    /// FLOPs ratio of the (masked) local model.
    pub flops_ratio: f32,
    /// Validation accuracy (eval mode; zero in train mode).
    pub accuracy: f32,
    /// Analytic Eq. 13 download bytes this round cost the client.
    pub bytes_download: u64,
    /// Analytic Eq. 13 upload bytes.
    pub bytes_upload: u64,
    /// Measured upload tensor-payload bytes.
    pub upload_payload: u64,
    /// Measured upload bytes on the wire, framing included.
    pub upload_framed: u64,
    /// Number of upload frames that follow.
    pub n_frames: u32,
}

impl Hello {
    /// Serialize into a payload body.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(13);
        put_u32(&mut b, self.client_id);
        put_u64(&mut b, self.fingerprint);
        b.push(self.role.tag());
        b
    }

    /// Parse a payload body.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(body);
        let out = Hello {
            client_id: r.u32()?,
            fingerprint: r.u64()?,
            role: HelloRole::from_tag(r.u8()?)?,
        };
        r.finish()?;
        Ok(out)
    }
}

impl Join {
    /// Serialize into a payload body.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(5);
        b.push(u8::from(self.accepted));
        put_u32(&mut b, self.round);
        b
    }

    /// Parse a payload body.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(body);
        let out = Join {
            accepted: r.flag("join verdict")?,
            round: r.u32()?,
        };
        r.finish()?;
        Ok(out)
    }
}

impl RoundAssign {
    /// Kick off `mode` of `round`, followed by `n_frames` broadcast frames.
    pub fn new(round: u32, mode: RoundMode, n_frames: usize) -> Self {
        RoundAssign {
            round,
            mode,
            n_frames: n_frames as u32,
        }
    }

    /// Serialize into a payload body.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(9);
        put_u32(&mut b, self.round);
        b.push(self.mode.tag());
        put_u32(&mut b, self.n_frames);
        b
    }

    /// Parse a payload body.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(body);
        let out = RoundAssign {
            round: r.u32()?,
            mode: RoundMode::from_tag(r.u8()?)?,
            n_frames: r.u32()?,
        };
        r.finish()?;
        Ok(out)
    }
}

impl RoundDone {
    /// A reply with every bookkeeping field zero and no frames following.
    fn blank(round: u32, mode: RoundMode, client_id: u32) -> Self {
        RoundDone {
            round,
            mode,
            client_id,
            n_samples: 0,
            tau: 0,
            diverged: false,
            keep_ratio: 0.0,
            flops_ratio: 0.0,
            accuracy: 0.0,
            bytes_download: 0,
            bytes_upload: 0,
            upload_payload: 0,
            upload_framed: 0,
            n_frames: 0,
        }
    }

    /// A client's train reply: the bookkeeping half of `outcome`; its
    /// sealed upload frames follow on the stream.
    pub fn train(round: u32, outcome: &LocalOutcome) -> Self {
        RoundDone {
            n_samples: outcome.n_samples as u64,
            tau: outcome.tau as u64,
            diverged: outcome.diverged,
            keep_ratio: outcome.keep_ratio,
            flops_ratio: outcome.flops_ratio,
            bytes_download: outcome.bytes.download,
            bytes_upload: outcome.bytes.upload,
            upload_payload: outcome.wire.upload_payload,
            upload_framed: outcome.wire.upload_framed,
            n_frames: outcome.frames.len() as u32,
            ..Self::blank(round, RoundMode::Train, outcome.client_id as u32)
        }
    }

    /// A client's evaluation report: `accuracy` and nothing else.
    pub fn eval(round: u32, client_id: u32, accuracy: f32) -> Self {
        RoundDone {
            accuracy,
            ..Self::blank(round, RoundMode::Eval, client_id)
        }
    }

    /// An edge's reply in either mode: one sealed
    /// [`EdgeCombined`](spatl_wire::EdgeCombined) frame of `frame_len`
    /// bytes follows.
    pub fn combined(round: u32, mode: RoundMode, edge_id: u32, frame_len: usize) -> Self {
        RoundDone {
            upload_payload: frame_len.saturating_sub(HEADER_LEN) as u64,
            upload_framed: frame_len as u64,
            n_frames: 1,
            ..Self::blank(round, mode, edge_id)
        }
    }

    /// The entry an edge relays for this client reply and the `frames`
    /// that followed it: the reply without its round, mode and frame
    /// count, which the combined upload carries once for the slice.
    pub fn entry(&self, frames: Vec<Vec<u8>>) -> EdgeEntry {
        EdgeEntry {
            client_id: self.client_id,
            n_samples: self.n_samples,
            tau: self.tau,
            diverged: self.diverged,
            keep_ratio: self.keep_ratio,
            flops_ratio: self.flops_ratio,
            accuracy: self.accuracy,
            bytes_download: self.bytes_download,
            bytes_upload: self.bytes_upload,
            upload_payload: self.upload_payload,
            upload_framed: self.upload_framed,
            frames,
        }
    }

    /// The client reply an edge relayed as `entry` in `mode` of `round`,
    /// and the frames that followed it: the inverse of
    /// [`RoundDone::entry`].
    pub fn relayed(round: u32, mode: RoundMode, entry: EdgeEntry) -> (Self, Vec<Vec<u8>>) {
        let done = RoundDone {
            round,
            mode,
            client_id: entry.client_id,
            n_samples: entry.n_samples,
            tau: entry.tau,
            diverged: entry.diverged,
            keep_ratio: entry.keep_ratio,
            flops_ratio: entry.flops_ratio,
            accuracy: entry.accuracy,
            bytes_download: entry.bytes_download,
            bytes_upload: entry.bytes_upload,
            upload_payload: entry.upload_payload,
            upload_framed: entry.upload_framed,
            n_frames: entry.frames.len() as u32,
        };
        (done, entry.frames)
    }

    /// Serialize into a payload body.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(74);
        put_u32(&mut b, self.round);
        b.push(self.mode.tag());
        put_u32(&mut b, self.client_id);
        put_u64s(&mut b, &[self.n_samples, self.tau]);
        b.push(u8::from(self.diverged));
        put_f32s(&mut b, &[self.keep_ratio, self.flops_ratio, self.accuracy]);
        put_u64s(
            &mut b,
            &[
                self.bytes_download,
                self.bytes_upload,
                self.upload_payload,
                self.upload_framed,
            ],
        );
        put_u32(&mut b, self.n_frames);
        b
    }

    /// Parse a payload body.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(body);
        let out = RoundDone {
            round: r.u32()?,
            mode: RoundMode::from_tag(r.u8()?)?,
            client_id: r.u32()?,
            n_samples: r.u64()?,
            tau: r.u64()?,
            diverged: r.flag("diverged")?,
            keep_ratio: r.f32()?,
            flops_ratio: r.f32()?,
            accuracy: r.f32()?,
            bytes_download: r.u64()?,
            bytes_upload: r.u64()?,
            upload_payload: r.u64()?,
            upload_framed: r.u64()?,
            n_frames: r.u32()?,
        };
        r.finish()?;
        Ok(out)
    }
}

/// Fingerprint of the run configuration both ends must share: seed,
/// cohort geometry, training hyper-parameters and the algorithm (with its
/// parameters). Two processes with the same fingerprint build identical
/// sessions from [`spatl::ExperimentBuilder`]-style factories; differing
/// fingerprints mean the runs would silently diverge, so the coordinator
/// rejects the `Hello`.
pub fn session_fingerprint(cfg: &FlConfig) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        // SplitMix64 finalizer over a running combination.
        let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut h = 0x5350_4154_4C4E_4554u64; // "SPATLNET"
    h = mix(h, cfg.seed);
    h = mix(h, cfg.n_clients as u64);
    h = mix(h, cfg.rounds as u64);
    h = mix(h, cfg.local_epochs as u64);
    h = mix(h, cfg.batch_size as u64);
    h = mix(h, u64::from(cfg.sample_ratio.to_bits()));
    use spatl_fl::Algorithm;
    h = match cfg.algorithm {
        Algorithm::FedAvg => mix(h, 1),
        Algorithm::FedProx { mu } => mix(mix(h, 2), u64::from(mu.to_bits())),
        Algorithm::Scaffold => mix(h, 3),
        Algorithm::FedNova => mix(h, 4),
        Algorithm::Spatl(o) => {
            let mut v = mix(h, 5);
            v = mix(v, u64::from(o.selection) | u64::from(o.transfer) << 1);
            v = mix(v, u64::from(o.gradient_control));
            v = mix(v, u64::from(o.target_flops_ratio.to_bits()));
            mix(v, o.finetune_rounds as u64)
        }
    };
    // Fault and churn plans are mixed in only when present. Every
    // endpoint must share the schedule: who leaves before the broadcast,
    // the coordinator's dedup expectations and the nodes' injected faults
    // are parts of one seeded plan.
    if let Some(c) = &cfg.faults {
        let mut v = mix(h, 6);
        v = mix(v, c.dropout.to_bits());
        v = mix(v, c.reset.to_bits());
        v = mix(v, c.stall.to_bits());
        v = mix(v, c.stall_ms);
        v = mix(v, c.duplicate.to_bits());
        v = mix(
            v,
            match c.kill_edge {
                Some((r, e)) => 1 | u64::from(r) << 1 | u64::from(e) << 33,
                None => 0,
            },
        );
        h = mix(v, c.seed);
    }
    if let Some(c) = &cfg.churn {
        let mut v = mix(h, 7);
        v = mix(v, u64::from(c.period));
        v = mix(v, c.duty.to_bits());
        v = mix(v, u64::from(c.arrival_span));
        v = mix(v, c.flake.to_bits());
        v = mix(v, c.abrupt.to_bits());
        h = mix(v, c.seed);
    }
    // Privacy is session-critical twice over: the masking seed must match
    // for pairwise masks to cancel at all, and the fixed-point grid must
    // match for quantized uploads to mean anything. A clear node joining
    // a masked session (or vice versa) must be rejected at Hello.
    if let Some(p) = &cfg.privacy {
        let mut v = mix(h, 8);
        v = mix(
            v,
            match p.mode {
                spatl_fl::PrivacyMode::Masked => 1,
                spatl_fl::PrivacyMode::FixedPoint => 2,
            },
        );
        v = mix(v, p.seed);
        v = mix(v, u64::from(p.frac_bits));
        v = mix(v, u64::from(p.l2_bound.to_bits()));
        h = mix(v, u64::from(p.noise.to_bits()));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::meta_outcome;
    use spatl_fl::{Algorithm, SpatlOptions};

    #[test]
    fn hello_round_trips() {
        for role in [HelloRole::Client, HelloRole::Edge] {
            let msg = Hello {
                client_id: 7,
                fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                role,
            };
            assert_eq!(Hello::decode(&msg.encode()).unwrap(), msg);
        }
        let mut bad = Hello {
            client_id: 0,
            fingerprint: 0,
            role: HelloRole::Client,
        }
        .encode();
        *bad.last_mut().unwrap() = 9;
        assert!(matches!(Hello::decode(&bad), Err(WireError::Malformed(_))));
    }

    #[test]
    fn join_round_trips_and_rejects_bad_verdict() {
        for accepted in [false, true] {
            let msg = Join { accepted, round: 3 };
            assert_eq!(Join::decode(&msg.encode()).unwrap(), msg);
        }
        let mut bad = Join {
            accepted: true,
            round: 0,
        }
        .encode();
        bad[0] = 2;
        assert!(matches!(Join::decode(&bad), Err(WireError::Malformed(_))));
    }

    #[test]
    fn round_assign_round_trips() {
        for mode in [RoundMode::Train, RoundMode::Eval] {
            let msg = RoundAssign::new(12, mode, 2);
            assert_eq!(RoundAssign::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn round_done_round_trips() {
        let msg = RoundDone {
            round: 4,
            mode: RoundMode::Train,
            client_id: 3,
            n_samples: 60,
            tau: 8,
            diverged: false,
            keep_ratio: 0.42,
            flops_ratio: 0.7,
            accuracy: 0.31,
            bytes_download: 123_456,
            bytes_upload: 65_432,
            upload_payload: 65_432,
            upload_framed: 65_480,
            n_frames: 2,
        };
        assert_eq!(RoundDone::decode(&msg.encode()).unwrap(), msg);
    }

    /// An edge relays a reply as an entry and the root rebuilds it bit
    /// for bit, frames included, in either mode, and reads the same
    /// bookkeeping from it as from the reply itself.
    #[test]
    fn round_done_round_trips_through_an_edge_entry() {
        let train = RoundDone {
            round: 4,
            mode: RoundMode::Train,
            client_id: 3,
            n_samples: 60,
            tau: 8,
            diverged: true,
            keep_ratio: 0.42,
            flops_ratio: 0.7,
            accuracy: -0.0,
            bytes_download: 123_456,
            bytes_upload: 65_432,
            upload_payload: 65_432,
            upload_framed: 65_480,
            n_frames: 2,
        };
        let eval = RoundDone::eval(4, 5, 0.625);
        for (done, frames) in [(train, vec![vec![9, 8, 7], Vec::new()]), (eval, Vec::new())] {
            let entry = done.entry(frames.clone());
            assert_eq!(entry.client_id, done.client_id);
            let (back, back_frames) = RoundDone::relayed(done.round, done.mode, entry);
            assert_eq!(back.encode(), done.encode(), "{:?}", done.mode);
            assert_eq!(back_frames, frames);
            let (sent, relayed) = (meta_outcome(&done), meta_outcome(&back));
            assert_eq!(relayed.client_id, sent.client_id);
            assert_eq!(relayed.n_samples, sent.n_samples);
            assert_eq!(relayed.tau, sent.tau);
            assert_eq!(relayed.diverged, sent.diverged);
            assert_eq!(relayed.bytes, sent.bytes);
            assert_eq!(relayed.wire, sent.wire);
            assert_eq!(relayed.keep_ratio.to_bits(), sent.keep_ratio.to_bits());
            assert_eq!(relayed.flops_ratio.to_bits(), sent.flops_ratio.to_bits());
        }
    }

    /// The entry holds the reply's accuracy and the frames that followed
    /// it as they were; the rebuilt outcome holds no frames, since the
    /// root decodes them separately.
    #[test]
    fn edge_entry_carries_accuracy_and_frames_verbatim() {
        let frames = vec![vec![9, 8, 7], Vec::new()];
        let done = RoundDone {
            n_frames: 2,
            ..RoundDone::eval(4, 5, 0.625)
        };
        let entry = done.entry(frames.clone());
        assert_eq!(entry.client_id, 5);
        assert_eq!(entry.accuracy, 0.625);
        assert_eq!(entry.frames, frames);
        let (back, back_frames) = RoundDone::relayed(4, RoundMode::Eval, entry);
        assert_eq!(back.accuracy, 0.625);
        assert_eq!(back_frames, frames);
        assert!(
            meta_outcome(&back).frames.is_empty(),
            "the root decodes them"
        );
    }

    #[test]
    fn truncated_and_oversized_bodies_rejected() {
        let body = RoundDone::eval(0, 0, 0.0).encode();
        assert!(matches!(
            RoundDone::decode(&body[..body.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
        let mut long = body.clone();
        long.push(0);
        assert!(matches!(
            RoundDone::decode(&long),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn fingerprint_separates_configs() {
        let a = FlConfig::new(Algorithm::FedAvg);
        let mut b = a;
        b.seed = 1;
        let mut c = a;
        c.algorithm = Algorithm::FedProx { mu: 0.1 };
        let d = FlConfig::new(Algorithm::Spatl(SpatlOptions::default()));
        let fps = [
            session_fingerprint(&a),
            session_fingerprint(&b),
            session_fingerprint(&c),
            session_fingerprint(&d),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "{i} vs {j}");
            }
        }
        assert_eq!(session_fingerprint(&a), session_fingerprint(&a));
    }

    #[test]
    fn fingerprint_covers_privacy_configs() {
        use spatl_fl::PrivacyConfig;
        let base = FlConfig::new(Algorithm::FedAvg);
        let mut masked = base;
        masked.privacy = Some(PrivacyConfig::masked(9));
        let mut masked_other_seed = base;
        masked_other_seed.privacy = Some(PrivacyConfig::masked(10));
        let mut fixed = base;
        fixed.privacy = Some(PrivacyConfig::fixed(9, 4.0));
        let mut noisy = fixed;
        noisy.privacy = Some(noisy.privacy.unwrap().with_noise(0.01));
        let fps = [
            session_fingerprint(&base),
            session_fingerprint(&masked),
            session_fingerprint(&masked_other_seed),
            session_fingerprint(&fixed),
            session_fingerprint(&noisy),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn fingerprint_covers_chaos_and_churn_plans() {
        use spatl_fl::{ChurnPlan, FaultPlan};
        let base = FlConfig::new(Algorithm::FedAvg);
        let mut chaotic = base;
        chaotic.faults = Some(FaultPlan {
            reset: 0.2,
            ..FaultPlan::default()
        });
        let mut chaotic_other_seed = chaotic;
        chaotic_other_seed.faults.as_mut().unwrap().seed ^= 1;
        let mut churning = base;
        churning.churn = Some(ChurnPlan::cross_device());
        let fps = [
            session_fingerprint(&base),
            session_fingerprint(&chaotic),
            session_fingerprint(&chaotic_other_seed),
            session_fingerprint(&churning),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn fingerprint_covers_the_dropout_coin() {
        use spatl_fl::FaultPlan;
        let base = FlConfig::new(Algorithm::FedAvg);
        let fps: Vec<u64> = [None, Some(0.1), Some(0.2)]
            .into_iter()
            .map(|p| {
                let mut cfg = base;
                cfg.faults = p.map(FaultPlan::dropout_only);
                session_fingerprint(&cfg)
            })
            .collect();
        assert!(fps[0] != fps[1] && fps[1] != fps[2] && fps[0] != fps[2]);
    }
}
