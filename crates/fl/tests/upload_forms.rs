//! The server's side of the three clear upload forms — dense (FedAvg /
//! FedProx), pair (SCAFFOLD / FedNova) and SPATL's channel-selected
//! update — checked against the clear tensors the client sealed.
//!
//! Guarantees checked here:
//!
//! 1. **Decode-then-fold bit identity**: a cohort's sealed frames,
//!    decoded and folded by the round accumulator, give the same global
//!    state bit for bit as folding the clear outcomes directly — in the
//!    streaming fold and in the spill fold the robust aggregators use.
//! 2. **Length and shape checks live in decode**: an upload whose
//!    tensor length disagrees with the session, a SPATL selection with
//!    no layout to expand it, or a value count that disagrees with the
//!    selection is `Malformed`, never something the fold indexes with.
//! 3. **Retired tags stay refused**: a CRC-valid frame carrying one of
//!    the retired upload tags (0x09, 0x0A) is `BadTag` for every session.
//! 4. **Frame shape**: batch-norm statistics travel as a second frame,
//!    and a pair upload with no second lane carries explicit zeros.

use spatl_fl::{
    decode_upload, encode_upload, AggregatorKind, Algorithm, CommModel, FaultRecord, FlConfig,
    GlobalState, LocalOutcome, PrivacyConfig, RoundDriver, SelectedUpdate, SpatlOptions, WireBytes,
};
use spatl_wire::crc32::Hasher;
use spatl_wire::{open, seal, IndexRange, MsgType, SelectionLayout, WireError};

/// Deterministic splitmix64 value stream for cohort tensors.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f32(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + unit * (hi - lo)
    }

    fn vec(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.f32(-0.5, 0.5)).collect()
    }
}

/// Parameters per channel in [`layout`].
const CHANNEL: usize = 4;

/// A selection layout of `p / CHANNEL` channels, channel `c` owning
/// the contiguous indices `CHANNEL·c ..`.
fn layout(p: usize) -> SelectionLayout {
    let mut layout = SelectionLayout::new();
    for c in 0..p / CHANNEL {
        layout.push_channel(vec![IndexRange {
            start: (CHANNEL * c) as u32,
            len: CHANNEL as u32,
        }]);
    }
    layout
}

fn global(cfg: &FlConfig, p: usize, b: usize) -> GlobalState {
    let lane = |on: bool, v: f32| if on { vec![v; p] } else { Vec::new() };
    GlobalState {
        shared: vec![0.125; p],
        control: lane(cfg.algorithm.uses_control(), -0.0625),
        momentum: lane(matches!(cfg.algorithm, Algorithm::FedNova), 0.03125),
        buffers: vec![1.0; b],
    }
}

/// Seal `o` as its client would, recording the frames and wire bytes.
fn seal_outcome(cfg: &FlConfig, global: &GlobalState, mut o: LocalOutcome) -> LocalOutcome {
    let enc = encode_upload(cfg, global, &o, 0);
    o.wire.upload_payload = enc.payload;
    o.wire.upload_framed = enc.framed();
    o.frames = enc.frames;
    o
}

/// A clear outcome of `cfg`'s upload form with every lane its frames
/// carry set explicitly, so the clear fold and the decoded fold see the
/// same tensors.
fn clear_outcome(cfg: &FlConfig, global: &GlobalState, id: usize, g: &mut Gen) -> LocalOutcome {
    let p = global.shared.len();
    let mut o = LocalOutcome::meta(
        id,
        10 + 7 * id,
        2 + id % 3,
        false,
        1.0,
        1.0,
        CommModel::dense(p),
        WireBytes::default(),
    );
    o.buffers = g.vec(global.buffers.len());
    match cfg.algorithm {
        Algorithm::FedAvg | Algorithm::FedProx { .. } => o.delta = g.vec(p),
        Algorithm::Scaffold => {
            o.delta = g.vec(p);
            o.control_delta = Some(g.vec(p));
        }
        Algorithm::FedNova => {
            o.delta = g.vec(p);
            o.velocity = Some(g.vec(p));
        }
        Algorithm::Spatl(_) => {
            // Every other channel, offset by the client id: uploads
            // overlap on some channels and miss each other on others.
            let ids: Vec<u32> = (0..(p / CHANNEL) as u32)
                .filter(|c| (c + id as u32).is_multiple_of(2))
                .collect();
            let indices = layout(p).expand(&ids).expect("known channels");
            o.selected = Some(SelectedUpdate {
                values: g.vec(indices.len()),
                indices,
                channels: ids.len(),
                channel_ids: ids,
            });
        }
    }
    seal_outcome(cfg, global, o)
}

fn cohort(cfg: &FlConfig, global: &GlobalState, n: usize, seed: u64) -> Vec<LocalOutcome> {
    let mut g = Gen(seed);
    (0..n)
        .map(|id| clear_outcome(cfg, global, id, &mut g))
        .collect()
}

fn driver(cfg: &FlConfig, global: &GlobalState) -> RoundDriver {
    let layout = matches!(cfg.algorithm, Algorithm::Spatl(_)).then(|| layout(global.shared.len()));
    RoundDriver::new(*cfg, global.clone(), layout)
}

/// One round over `cohort`: decode each outcome's frames as the server
/// would (`decoded`) or fold the clear outcomes as they are. Returns the
/// updated global state.
fn fold_round(
    cfg: &FlConfig,
    global: &GlobalState,
    cohort: &[LocalOutcome],
    decoded: bool,
) -> GlobalState {
    let mut driver = driver(cfg, global);
    let mut faults = FaultRecord::for_sample(cohort.len());
    let mut acc = driver.begin_accumulation();
    for o in cohort {
        if decoded {
            let rx = driver
                .decode_client_upload(o, &o.frames)
                .expect("sealed upload must decode");
            acc.fold(rx);
        } else {
            acc.fold(o.clone());
        }
    }
    assert!(
        driver.finish_accumulation(acc, &mut faults),
        "cohort round must apply"
    );
    driver.global
}

fn assert_bits_equal(what: &str, a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "{what}: lengths");
    for (j, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{j}]: {x} vs {y}");
    }
}

fn assert_same_global(name: &str, a: &GlobalState, b: &GlobalState) {
    assert_bits_equal(&format!("{name} shared"), &a.shared, &b.shared);
    assert_bits_equal(&format!("{name} control"), &a.control, &b.control);
    assert_bits_equal(&format!("{name} momentum"), &a.momentum, &b.momentum);
    assert_bits_equal(&format!("{name} buffers"), &a.buffers, &b.buffers);
}

/// Decoded and clear folds of a fresh cohort under `cfg`, compared bit
/// for bit; the round must also have moved the global.
fn assert_decoded_fold_matches_clear(cfg: FlConfig, seed: u64) {
    let (p, b) = (6 * CHANNEL + 1, 3);
    let global = global(&cfg, p, b);
    let cohort = cohort(&cfg, &global, 5, seed);
    let name = format!("{} {}", cfg.algorithm.name(), cfg.aggregator.name());
    let from_frames = fold_round(&cfg, &global, &cohort, true);
    let from_clear = fold_round(&cfg, &global, &cohort, false);
    assert_same_global(&name, &from_frames, &from_clear);
    assert_ne!(from_frames.shared, global.shared, "{name}: vacuous round");
}

#[test]
fn decoded_dense_cohort_folds_bit_identically_to_the_clear_cohort() {
    for alg in [Algorithm::FedAvg, Algorithm::FedProx { mu: 0.01 }] {
        assert_decoded_fold_matches_clear(FlConfig::new(alg), 0xA11CE);
    }
}

#[test]
fn decoded_pair_cohort_folds_bit_identically_to_the_clear_cohort() {
    for alg in [Algorithm::Scaffold, Algorithm::FedNova] {
        assert_decoded_fold_matches_clear(FlConfig::new(alg), 0xBEE5);
    }
}

#[test]
fn decoded_spatl_cohort_folds_bit_identically_to_the_clear_cohort() {
    for gradient_control in [true, false] {
        let opts = SpatlOptions {
            gradient_control,
            ..SpatlOptions::default()
        };
        assert_decoded_fold_matches_clear(FlConfig::new(Algorithm::Spatl(opts)), 0x5A71);
    }
}

#[test]
fn spill_fold_of_decoded_uploads_matches_the_clear_cohort() {
    // A robust aggregator buffers the cohort and takes a batch statistic;
    // what it buffers from the wire must be what the clients held.
    for aggregator in [
        AggregatorKind::CoordinateMedian,
        AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.2 },
        AggregatorKind::NormClippedMean,
    ] {
        for alg in [Algorithm::FedAvg, Algorithm::FedNova] {
            let mut cfg = FlConfig::new(alg);
            cfg.aggregator = aggregator;
            assert_decoded_fold_matches_clear(cfg, 0x5111);
        }
    }
}

#[test]
fn dense_and_pair_uploads_of_the_wrong_length_are_rejected() {
    let p = 32;
    for alg in [
        Algorithm::FedAvg,
        Algorithm::FedProx { mu: 0.01 },
        Algorithm::Scaffold,
        Algorithm::FedNova,
    ] {
        let cfg = FlConfig::new(alg);
        let global = global(&cfg, p, 0);
        let o = clear_outcome(&cfg, &global, 0, &mut Gen(7));
        assert!(decode_upload(&cfg, &o, &o.frames, None, p, 0).is_ok());
        for expected in [p - 1, p + 1, 2 * p] {
            let err = decode_upload(&cfg, &o, &o.frames, None, expected, 0).unwrap_err();
            assert!(
                matches!(err, WireError::Malformed(_)),
                "{}: {p} parameters against {expected}: {err:?}",
                alg.name()
            );
        }
    }
}

#[test]
fn private_uploads_of_the_wrong_length_are_rejected() {
    let p = 16;
    for privacy in [PrivacyConfig::masked(3), PrivacyConfig::fixed(3, 10.0)] {
        let mut cfg = FlConfig::new(Algorithm::FedAvg);
        cfg.privacy = Some(privacy);
        let global = global(&cfg, p, 0);
        let o = clear_outcome(&cfg, &global, 0, &mut Gen(0xF1));
        assert!(decode_upload(&cfg, &o, &o.frames, None, p, 0).is_ok());
        for expected in [p - 1, p + 1] {
            let err = decode_upload(&cfg, &o, &o.frames, None, expected, 0).unwrap_err();
            assert!(
                matches!(err, WireError::Malformed(_)),
                "{:?}: {p} coordinates against {expected}: {err:?}",
                privacy.mode
            );
        }
    }
}

/// `frame` re-tagged as `tag` and resealed with a valid CRC: what a
/// build that still spoke that tag would have sent.
fn retag(frame: &[u8], tag: u8) -> Vec<u8> {
    let mut out = frame.to_vec();
    out[5] = tag;
    let mut h = Hasher::new();
    h.update(&out[..12]);
    h.update(&out[16..]);
    out[12..16].copy_from_slice(&h.finalize().to_le_bytes());
    out
}

#[test]
fn retired_upload_tags_are_refused_by_every_session() {
    let p = 8;
    let mut sessions: Vec<FlConfig> = Algorithm::roster().into_iter().map(FlConfig::new).collect();
    for privacy in [PrivacyConfig::masked(3), PrivacyConfig::fixed(3, 10.0)] {
        let mut cfg = FlConfig::new(Algorithm::FedAvg);
        cfg.privacy = Some(privacy);
        sessions.push(cfg);
    }
    let meta = LocalOutcome::meta(
        0,
        10,
        2,
        false,
        1.0,
        1.0,
        CommModel::dense(p),
        WireBytes::default(),
    );
    let dense = seal(MsgType::DenseUpdate, &spatl_wire::encode_dense(&[0.5; 8]));
    for cfg in sessions {
        for tag in [0x09, 0x0A] {
            let frames = [retag(&dense, tag)];
            let err = decode_upload(&cfg, &meta, &frames, Some(&layout(p)), p, 0).unwrap_err();
            assert_eq!(err, WireError::BadTag(tag), "{}", cfg.algorithm.name());
        }
    }
}

#[test]
fn batch_norm_statistics_travel_as_a_second_frame() {
    let p = 12;
    for alg in Algorithm::roster() {
        let cfg = FlConfig::new(alg);
        let global = global(&cfg, p, 5);
        let o = clear_outcome(&cfg, &global, 1, &mut Gen(0xB17));
        assert_eq!(o.frames.len(), 2, "{}", alg.name());
        let (msg, payload) = open(&o.frames[1]).expect("open");
        assert_eq!(msg, MsgType::BnStats);
        assert_eq!(payload.len(), 4 * o.buffers.len());
        let rx = driver(&cfg, &global)
            .decode_client_upload(&o, &o.frames)
            .expect("decode");
        assert_bits_equal(alg.name(), &rx.buffers, &o.buffers);

        // Without statistics the main frame travels alone.
        let global = self::global(&cfg, p, 0);
        let o = clear_outcome(&cfg, &global, 1, &mut Gen(0xB17));
        assert_eq!(o.frames.len(), 1, "{}", alg.name());
    }
}

#[test]
fn an_upload_without_frames_is_malformed() {
    let p = 4;
    for alg in Algorithm::roster() {
        let cfg = FlConfig::new(alg);
        let meta = LocalOutcome::meta(
            0,
            10,
            2,
            false,
            1.0,
            1.0,
            CommModel::dense(p),
            WireBytes::default(),
        );
        let err = decode_upload(&cfg, &meta, &[], Some(&layout(p)), p, 0).unwrap_err();
        assert!(
            matches!(err, WireError::Malformed(_)),
            "{}: {err:?}",
            alg.name()
        );
    }
}

#[test]
fn spatl_selection_needs_a_layout_and_one_value_per_index() {
    let p = 4 * CHANNEL;
    let cfg = FlConfig::new(Algorithm::Spatl(SpatlOptions::default()));
    let global = global(&cfg, p, 0);
    let o = clear_outcome(&cfg, &global, 0, &mut Gen(3));
    assert!(decode_upload(&cfg, &o, &o.frames, Some(&layout(p)), p, 0).is_ok());
    let err = decode_upload(&cfg, &o, &o.frames, None, p, 0).unwrap_err();
    assert!(matches!(err, WireError::Malformed(_)), "no layout: {err:?}");

    // One value too many, and one too few, for the channels named.
    let sel = o.selected.clone().expect("selected");
    for values in [
        [sel.values.clone(), vec![0.5]].concat(),
        sel.values[1..].to_vec(),
    ] {
        let mut bad = o.clone();
        bad.selected = Some(SelectedUpdate {
            values,
            ..sel.clone()
        });
        let bad = seal_outcome(&cfg, &global, bad);
        let err = decode_upload(&cfg, &bad, &bad.frames, Some(&layout(p)), p, 0).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
    }
}

#[test]
fn a_missing_second_lane_travels_as_explicit_zeros() {
    // τ = 0 leaves SCAFFOLD without a control delta and FedNova without
    // a velocity; the pair frame keeps its shape with a zero lane.
    let p = 9;
    for alg in [Algorithm::Scaffold, Algorithm::FedNova] {
        let cfg = FlConfig::new(alg);
        let global = global(&cfg, p, 0);
        let mut o = clear_outcome(&cfg, &global, 0, &mut Gen(0x2E0));
        o.control_delta = None;
        o.velocity = None;
        let o = seal_outcome(&cfg, &global, o);
        assert_eq!(o.wire.upload_payload, 8 * p as u64, "{}", alg.name());
        let rx = decode_upload(&cfg, &o, &o.frames, None, p, 0).expect("decode");
        let lane = rx.control_delta.or(rx.velocity).expect("second lane");
        assert_bits_equal(alg.name(), &lane, &vec![0.0; p]);
        assert_bits_equal(alg.name(), &rx.delta, &o.delta);
    }
}
