//! Acceptance tests for server-blind aggregation (DESIGN.md §14).
//!
//! The load-bearing claim: a **full-participation masked round is
//! bit-identical to the clear streaming fold** — for every algorithm,
//! including its auxiliary state (SCAFFOLD controls, FedNova velocity,
//! SPATL vote counts, batch-norm buffers) — and stays bit-identical
//! under any upload arrival order. Dropouts are repaired through unmask
//! shares; the repaired round equals the clear fold over the survivors
//! alone. Fixed-point rounds enforce the session's quantized L2 ball.

use spatl_data::{synth_cifar10, Dataset, SynthConfig};
use spatl_fl::{
    decode_upload, encode_upload, masking_cohort, AdversaryPlan, Algorithm, AttackKind, CommModel,
    FaultRecord, FlConfig, GlobalState, LocalOutcome, PrivacyConfig, RoundDriver, SelectedUpdate,
    Simulation, SpatlOptions, WireBytes,
};
use spatl_models::{ModelConfig, ModelKind};
use spatl_tensor::TensorRng;

/// Deterministic per-client pseudo-values: enough spread to make any
/// weight or scale mistake visible in the low mantissa bits.
fn val(id: usize, j: usize, lane: u32) -> f32 {
    let x = (id as f32 + 1.0) * 0.17 + j as f32 * 0.013 + lane as f32 * 0.29;
    (x.sin() * 0.75) + 0.001 * (j as f32 - 8.0)
}

fn global_for(cfg: &FlConfig, p: usize, buf: usize) -> GlobalState {
    GlobalState {
        shared: (0..p).map(|j| 0.1 + j as f32 * 0.01).collect(),
        control: if cfg.algorithm.uses_control() {
            (0..p).map(|j| -0.05 + j as f32 * 0.002).collect()
        } else {
            Vec::new()
        },
        momentum: if matches!(cfg.algorithm, Algorithm::FedNova) {
            vec![0.0; p]
        } else {
            Vec::new()
        },
        buffers: (0..buf).map(|j| 0.5 + j as f32 * 0.05).collect(),
    }
}

/// A synthetic honest outcome for `id`. Auxiliary tensors are always
/// `Some` — the shape the clear wire codec delivers — so the clear
/// reference fold and the masked lanes read the same terms.
fn outcome_for(cfg: &FlConfig, id: usize, p: usize, buf: usize) -> LocalOutcome {
    let spatl_selected = matches!(cfg.algorithm, Algorithm::Spatl(o) if o.selection);
    LocalOutcome {
        client_id: id,
        n_samples: 8 + (id % 5) * 3,
        tau: 2 + (id % 3),
        delta: if spatl_selected {
            Vec::new()
        } else {
            (0..p).map(|j| val(id, j, 0)).collect()
        },
        selected: spatl_selected.then(|| {
            // Each client touches a different, overlapping index subset.
            let indices: Vec<u32> = (0..p as u32)
                .filter(|i| !(i + id as u32).is_multiple_of(3))
                .collect();
            let values = indices.iter().map(|&i| val(id, i as usize, 0)).collect();
            SelectedUpdate {
                indices,
                values,
                channels: 0,
                channel_ids: Vec::new(),
            }
        }),
        compressed: None,
        control_delta: matches!(cfg.algorithm, Algorithm::Scaffold)
            .then(|| (0..p).map(|j| val(id, j, 1)).collect()),
        velocity: matches!(cfg.algorithm, Algorithm::FedNova)
            .then(|| (0..p).map(|j| val(id, j, 2)).collect()),
        buffers: (0..buf).map(|j| val(id, j, 3)).collect(),
        diverged: false,
        masked: None,
        fixed: None,
        bytes: CommModel::dense(0),
        wire: WireBytes::default(),
        frames: Vec::new(),
        keep_ratio: 1.0,
        flops_ratio: 1.0,
    }
}

/// Seal `o` under the masked session and open it again, as the
/// coordinator would: the decoded outcome carries only clear metadata
/// plus the masked lanes.
fn through_masked_wire(cfg: &FlConfig, global: &GlobalState, o: &LocalOutcome) -> LocalOutcome {
    let enc = encode_upload(cfg, global, o, 0);
    let mut meta = o.clone();
    meta.delta = Vec::new();
    meta.selected = None;
    meta.control_delta = None;
    meta.velocity = None;
    meta.buffers = Vec::new();
    decode_upload(
        cfg,
        &meta,
        &enc.frames,
        None,
        global.shared.len(),
        global.buffers.len(),
    )
    .expect("masked upload decodes")
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (j, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{j}]: {x:?} != {y:?} (bit mismatch)"
        );
    }
}

fn assert_global_bits_eq(a: &GlobalState, b: &GlobalState, label: &str) {
    assert_bits_eq(&a.shared, &b.shared, &format!("{label}: shared"));
    assert_bits_eq(&a.control, &b.control, &format!("{label}: control"));
    assert_bits_eq(&a.momentum, &b.momentum, &format!("{label}: momentum"));
    assert_bits_eq(&a.buffers, &b.buffers, &format!("{label}: buffers"));
}

fn all_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::FedAvg,
        Algorithm::FedProx { mu: 0.1 },
        Algorithm::Scaffold,
        Algorithm::FedNova,
        Algorithm::Spatl(SpatlOptions::default()),
        // Selection ablated: SPATL's dense fallback votes everywhere.
        Algorithm::Spatl(SpatlOptions {
            selection: false,
            ..Default::default()
        }),
    ]
}

#[test]
fn masked_full_cohort_is_bit_identical_to_clear_fold() {
    let (p, buf) = (23, 7);
    for alg in all_algorithms() {
        let mut clear_cfg = FlConfig::new(alg);
        clear_cfg.n_clients = 9;
        clear_cfg.sample_ratio = 0.7;
        let mut masked_cfg = clear_cfg;
        masked_cfg.privacy = Some(PrivacyConfig::masked(0xC0FFEE));

        let global = global_for(&clear_cfg, p, buf);
        let cohort = masking_cohort(&masked_cfg, 0);
        assert!(cohort.len() >= 3, "cohort too small to be interesting");
        let mut outcomes: Vec<LocalOutcome> = cohort
            .iter()
            .map(|&id| outcome_for(&clear_cfg, id, p, buf))
            .collect();
        // One diverged rider: skipped by the clear fold, all-zero lanes
        // (masks still cancelling) in the masked one.
        outcomes[1].diverged = true;

        let mut clear = RoundDriver::new(clear_cfg, global.clone(), None);
        let mut faults = FaultRecord::default();
        assert!(clear.screen_and_aggregate(outcomes.clone(), &mut faults));

        let mut masked = RoundDriver::new(masked_cfg, global.clone(), None);
        let mut acc = masked.begin_accumulation();
        assert_eq!(acc.mode_name(), "masked");
        // Adversarial arrival order: rotate and reverse the cohort.
        let mut order: Vec<usize> = (0..outcomes.len()).collect();
        order.rotate_left(2);
        order.reverse();
        for &k in &order {
            acc.fold(through_masked_wire(&masked.cfg, &global, &outcomes[k]));
        }
        let mut mfaults = FaultRecord::default();
        assert!(masked.finish_accumulation(acc, &mut mfaults));
        assert_eq!(mfaults.mask_recovered, 0, "{}: full cohort", alg.name());

        assert_global_bits_eq(&masked.global, &clear.global, alg.name());
    }
}

#[test]
fn masked_dropout_recovers_via_unmask_shares() {
    let mut masked_cfg = FlConfig::new(Algorithm::FedAvg);
    masked_cfg.n_clients = 10;
    masked_cfg.sample_ratio = 0.8;
    masked_cfg.privacy = Some(PrivacyConfig::masked(99));
    let mut clear_cfg = masked_cfg;
    clear_cfg.privacy = None;

    let (p, buf) = (17, 4);
    let global = global_for(&clear_cfg, p, buf);
    let cohort = masking_cohort(&masked_cfg, 0);
    assert!(cohort.len() >= 5);
    let outcomes: Vec<LocalOutcome> = cohort
        .iter()
        .map(|&id| outcome_for(&clear_cfg, id, p, buf))
        .collect();

    // The last two cohort members derive masks, then vanish mid-round.
    let arrived = &outcomes[..outcomes.len() - 2];

    let mut masked = RoundDriver::new(masked_cfg, global.clone(), None);
    let mut acc = masked.begin_accumulation();
    for o in arrived {
        acc.fold(through_masked_wire(&masked.cfg, &global, o));
    }
    assert_eq!(acc.missing_maskers().len(), 2);
    let mut faults = FaultRecord::default();
    // finish_accumulation synthesizes the survivors' unmask shares (the
    // in-process stand-in for the coordinator's wire round-trip).
    assert!(masked.finish_accumulation(acc, &mut faults));
    assert_eq!(faults.mask_recovered, 2, "one recovery event per dropout");
    assert!(!faults.no_op);

    // The repaired round equals the clear fold over the survivors alone.
    let mut clear = RoundDriver::new(clear_cfg, global.clone(), None);
    let mut cfaults = FaultRecord::default();
    assert!(clear.screen_and_aggregate(arrived.to_vec(), &mut cfaults));
    assert_global_bits_eq(&masked.global, &clear.global, "dropout recovery");
}

#[test]
fn networked_shares_then_local_synthesis_is_idempotent() {
    // A coordinator applies the shares it collected over the wire, then
    // finish_accumulation synthesizes the full set again — duplicates
    // must be ignored, not double-unmasked.
    let mut cfg = FlConfig::new(Algorithm::Scaffold);
    cfg.n_clients = 8;
    cfg.privacy = Some(PrivacyConfig::masked(7));
    let mut clear_cfg = cfg;
    clear_cfg.privacy = None;

    let (p, buf) = (11, 0);
    let global = global_for(&cfg, p, buf);
    let cohort = masking_cohort(&cfg, 0);
    let outcomes: Vec<LocalOutcome> = cohort
        .iter()
        .map(|&id| outcome_for(&clear_cfg, id, p, buf))
        .collect();
    let arrived = &outcomes[..outcomes.len() - 1];
    let dropped = *cohort.last().unwrap();

    let mut masked = RoundDriver::new(cfg, global.clone(), None);
    let mut acc = masked.begin_accumulation();
    for o in arrived {
        acc.fold(through_masked_wire(&masked.cfg, &global, o));
    }
    // "Collected over the wire": every survivor answers for the dropout.
    let privacy = masked.cfg.privacy.unwrap();
    let shares: Vec<_> = arrived
        .iter()
        .map(|o| spatl_fl::unmask_share(&privacy, 0, o.client_id, dropped))
        .collect();
    acc.apply_unmask_shares(&shares);
    acc.apply_unmask_shares(&shares); // duplicate delivery
    let mut faults = FaultRecord::default();
    assert!(masked.finish_accumulation(acc, &mut faults));

    let mut clear = RoundDriver::new(clear_cfg, global.clone(), None);
    let mut cfaults = FaultRecord::default();
    assert!(clear.screen_and_aggregate(arrived.to_vec(), &mut cfaults));
    assert_global_bits_eq(&masked.global, &clear.global, "idempotent shares");
}

#[test]
fn fixed_point_round_enforces_the_l2_ball() {
    let mut cfg = FlConfig::new(Algorithm::FedAvg);
    cfg.n_clients = 4;
    cfg.privacy = Some(PrivacyConfig::fixed(3, 1.0));
    let mut clear_cfg = cfg;
    clear_cfg.privacy = None;

    let p = 12;
    let global = global_for(&cfg, p, 0);
    let cohort = masking_cohort(&cfg, 0);
    let mut outcomes: Vec<LocalOutcome> = cohort
        .iter()
        .map(|&id| outcome_for(&clear_cfg, id, p, 0))
        .collect();
    for o in &mut outcomes {
        for v in &mut o.delta {
            *v *= 0.05; // comfortably inside the unit ball
        }
    }
    // One violator far outside the session bound.
    outcomes[2].delta = vec![10.0; p];

    let mut fixed = RoundDriver::new(cfg, global.clone(), None);
    let mut acc = fixed.begin_accumulation();
    assert_eq!(acc.mode_name(), "spill-range");
    for o in &outcomes {
        let enc = encode_upload(&fixed.cfg, &global, o, 0);
        let mut meta = o.clone();
        meta.delta = Vec::new();
        let rx = decode_upload(&fixed.cfg, &meta, &enc.frames, None, p, 0).expect("decode");
        assert!(rx.fixed.is_some(), "fixed lane survives the wire");
        acc.fold(rx);
    }
    let mut faults = FaultRecord::default();
    assert!(fixed.finish_accumulation(acc, &mut faults));
    assert_eq!(faults.quarantined, 1, "the violator is ledgered");
    assert_eq!(faults.survivors, 3);

    // Reference: the clear fold over the in-ball clients' *dequantized*
    // deltas — what the grid actually carried.
    let reference: Vec<LocalOutcome> = outcomes
        .iter()
        .enumerate()
        .filter(|(k, _)| *k != 2)
        .map(|(_, o)| {
            let mut r = o.clone();
            let frac = fixed.cfg.privacy.unwrap().frac_bits;
            r.delta = o
                .delta
                .iter()
                .map(|&v| spatl_privacy::dequantize(spatl_privacy::quantize(v, frac), frac))
                .collect();
            r
        })
        .collect();
    let mut clear = RoundDriver::new(clear_cfg, global.clone(), None);
    let mut cfaults = FaultRecord::default();
    assert!(clear.screen_and_aggregate(reference, &mut cfaults));
    assert_bits_eq(&fixed.global.shared, &clear.global.shared, "fixed vs clear");
}

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

#[test]
fn simulated_masked_run_matches_clear_run_bit_for_bit() {
    // End to end through real local training, the wire, and the blind
    // fold: a masked session's accuracy trajectory must be bit-identical
    // to the clear session's — the server learned nothing it needed.
    let mk = |privacy| {
        let mut cfg = FlConfig::new(Algorithm::FedAvg);
        cfg.n_clients = 2;
        cfg.rounds = 2;
        cfg.local_epochs = 1;
        cfg.privacy = privacy;
        cfg
    };
    let model = ModelConfig::cifar(ModelKind::ResNet20);
    let mut clear = Simulation::new(mk(None), model, tiny_shards(2, 11));
    let mut masked = Simulation::new(
        mk(Some(PrivacyConfig::masked(0xFEED))),
        model,
        tiny_shards(2, 11),
    );
    for round in 0..2 {
        let c = clear.run_round();
        let m = masked.run_round();
        assert_eq!(c.agg_mode, "stream", "round {round}");
        assert_eq!(m.agg_mode, "masked", "round {round}");
        assert_eq!(
            m.mean_acc.to_bits(),
            c.mean_acc.to_bits(),
            "round {round}: masked and clear runs diverged"
        );
        // Blinding is paid for in upload bytes, never in downloads.
        assert!(m.bytes.upload > c.bytes.upload, "round {round}");
        assert_eq!(m.bytes.download, c.bytes.download, "round {round}");
        assert_eq!(m.wire.upload_payload, m.bytes.upload, "round {round}");
    }
}

#[test]
fn masked_tamper_is_ledgered_as_screen_bypassed() {
    // Masking withholds exactly what screening inspects: a λ-scaled
    // upload sails through the blind fold, and the ledger says so.
    let mut cfg = FlConfig::new(Algorithm::FedAvg);
    cfg.n_clients = 2;
    cfg.rounds = 1;
    cfg.local_epochs = 1;
    cfg.privacy = Some(PrivacyConfig::masked(5));
    cfg.adversary = Some(AdversaryPlan::with_attack(0.5, AttackKind::ScaleAttack));
    let mut sim = Simulation::new(
        cfg,
        ModelConfig::cifar(ModelKind::ResNet20),
        tiny_shards(2, 13),
    );
    let record = sim.run_round();
    assert_eq!(record.agg_mode, "masked");
    assert!(record.faults.byzantine > 0, "attack never fired — vacuous");
    assert_eq!(
        record.faults.screen_bypassed, record.faults.byzantine,
        "every tampered upload reached the blind fold unscreened"
    );
}

#[test]
fn masked_upload_pricing_matches_the_comm_model() {
    // The measured masked payload must equal CommModel::masked exactly,
    // for a lane-rich algorithm (SPATL: secondary + counts + buffers).
    let mut cfg = FlConfig::new(Algorithm::Spatl(SpatlOptions::default()));
    cfg.privacy = Some(PrivacyConfig::masked(1));
    let (p, buf) = (29, 5);
    let global = global_for(&cfg, p, buf);
    let cohort = masking_cohort(&cfg, 0);
    let o = outcome_for(&cfg, cohort[0], p, buf);
    let enc = encode_upload(&cfg, &global, &o, 0);
    let clear = CommModel::spatl(p, p, 0, true);
    let priced = CommModel::masked(clear, p, buf, true, true);
    assert_eq!(enc.payload, priced.upload);
    assert_eq!(priced.download, clear.download, "downloads stay clear");
    assert!(priced.upload > CommModel::dense(p).upload, "blinding costs");
}

#[test]
fn masked_lanes_are_built_from_the_outcome_as_the_wire_carries_it() {
    // The masked builder and the server's clear fold walk one term
    // table; what differs is the input. The server folds what
    // `decode_upload` produced, so the builder must normalise its raw
    // outcome the way the clear codec and decoder would have. A
    // one-client session has no pairs, so the lanes come back unmasked.
    let (p, buf) = (13, 3);
    let session = |alg| {
        let mut cfg = FlConfig::new(alg);
        cfg.n_clients = 1;
        cfg.privacy = Some(PrivacyConfig::masked(3));
        cfg
    };

    // SCAFFOLD without a control step: the pair codec carries zeros, so
    // the control lane is zeros — never the server-side fallback
    // derivation the clear fold keeps for synthetic outcomes.
    let cfg = session(Algorithm::Scaffold);
    let global = global_for(&cfg, p, buf);
    let explicit = LocalOutcome {
        control_delta: Some(vec![0.0; p]),
        ..outcome_for(&cfg, 0, p, buf)
    };
    let absent = LocalOutcome {
        control_delta: None,
        ..explicit.clone()
    };
    let up = spatl_fl::build_masked_upload(&cfg, &global, &absent, 0);
    assert_eq!(
        up,
        spatl_fl::build_masked_upload(&cfg, &global, &explicit, 0)
    );
    assert_eq!(up.secondary, Some(spatl_privacy::MaskedVector::zeros(p)));
    assert_ne!(up.delta, spatl_privacy::MaskedVector::zeros(p));

    // SPATL with a selection reaching past the session's parameters:
    // `decode_upload` would have refused it; the builder drops the
    // entry — no delta term, no vote, no control term — and keeps the
    // rest.
    let cfg = session(Algorithm::Spatl(SpatlOptions::default()));
    let global = global_for(&cfg, p, buf);
    let clean = outcome_for(&cfg, 0, p, buf);
    let mut stray = clean.clone();
    let sel = stray.selected.as_mut().unwrap();
    sel.indices.insert(1, p as u32 + 5);
    sel.values.insert(1, 9.0);
    let up = spatl_fl::build_masked_upload(&cfg, &global, &stray, 0);
    assert_eq!(up, spatl_fl::build_masked_upload(&cfg, &global, &clean, 0));
    let counts = up.counts.as_ref().unwrap();
    let voted: Vec<u32> = (0..p as u32)
        .filter(|&j| counts.count(j as usize) == 1)
        .collect();
    assert_eq!(voted, clean.selected.unwrap().indices);
}
