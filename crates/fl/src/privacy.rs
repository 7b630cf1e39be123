//! Client-side secure aggregation: cohort derivation, masked-lane
//! construction and fixed-point encoding (DESIGN.md §14).
//!
//! The server-side half — the blind fold and the unmask protocol — lives
//! in [`RoundAccumulator`](crate::RoundAccumulator). This module holds
//! everything a *client* (or a survivor answering an unmask request)
//! computes:
//!
//! * [`sampled_cohort`] / [`masking_cohort`] — the pure cohort functions
//!   every endpoint evaluates independently. Masking needs every cohort
//!   member to agree on exactly who it is masking against, so the cohort
//!   must be derivable without a round trip: the round's draw, the fault
//!   plan's pre-round dropouts and the churn model are all pure functions
//!   of `(seed, round)` already shared in the session config.
//! * [`build_masked_upload`] — re-expresses one [`LocalOutcome`] as
//!   exact grid-integer lanes, then applies the cohort's pairwise masks.
//!   The lanes are written by the very term walk the server's clear fold
//!   runs (`fold_terms`, generic over the lane type), which is what makes
//!   the full-participation masked round bit-identical to the clear one.
//! * [`unmask_share`] — the share a survivor reveals when a cohort
//!   member that *did* derive masks never delivered its upload
//!   (deadline, a mid-collection crash).
//! * [`fixed_quantized_upload`] — the bounded-L2 fixed-point lane with
//!   per-client discrete noise.

use std::borrow::Cow;

use spatl_privacy::{
    discrete_laplace, pair_base, quantize, MaskedCounts, MaskedUpload, MaskedVector, PrivacyConfig,
    UnmaskShare,
};

use crate::accumulate::{fold_terms, Lanes};
use crate::churn::SALT_COHORT;
use crate::faults::{leaves_before_broadcast, seeded_rng};
use crate::{FlConfig, GlobalState, LocalOutcome, SelectedUpdate};

/// The cohort round `round` samples: a pure function of the session
/// config and the round, and the one cohort function of a session —
/// [`RoundDriver::sample_round`], every edge aggregator and every masking
/// client call it, so they agree by construction. Ascending client ids.
///
/// With [`FlConfig::churn`] configured the churn model's
/// availability-aware sampler draws it (it may then be smaller than
/// `clients_per_round`, or empty); otherwise `clients_per_round` distinct
/// clients are drawn from the round's own generator.
///
/// [`RoundDriver::sample_round`]: crate::RoundDriver::sample_round
pub fn sampled_cohort(cfg: &FlConfig, round: usize) -> Vec<usize> {
    let k = cfg.clients_per_round();
    match cfg.churn {
        Some(plan) => plan.sample_cohort(round, k, cfg.n_clients),
        None => seeded_rng(cfg.seed, round, 0, SALT_COHORT).choose_k(cfg.n_clients, k),
    }
}

/// The *masking* cohort of a round: the sampled clients that actually
/// derive pairwise masks. Who leaves before the broadcast (the fault
/// plan's dropout coin, a churn departure) is a pure seed function —
/// the one every runtime's `ledger_departures` asks — so those clients
/// are excluded up front: a client everyone already knows is absent
/// must not leave orphaned masks behind. Clients that fail *after* this
/// point (deadline, a mid-collection crash, an undecodable reply) are
/// the dropouts the unmask protocol repairs.
pub fn masking_cohort(cfg: &FlConfig, round: usize) -> Vec<usize> {
    let mut cohort = sampled_cohort(cfg, round);
    cohort.retain(|&c| !leaves_before_broadcast(cfg, round, c));
    cohort
}

/// Re-express one local outcome as exact grid-integer lanes and mask it
/// for the round's cohort. The lanes are written by `fold_terms`, the
/// term walk the clear streaming fold runs — same weights, same per-term
/// f32 expressions, SPATL's control term computed against the *broadcast*
/// control the client just decoded (bit-identical to the server's own
/// copy) — so the cohort sum of these integers is bit-identical to the
/// clear fold by construction.
///
/// A diverged client contributes all-zero lanes: the clear fold skips it
/// entirely, but its pairwise masks were already promised to the cohort
/// and must still cancel.
///
/// `global` is the client's decoded broadcast state; `round` the
/// absolute round index the masks are domain-separated by.
pub fn build_masked_upload(
    cfg: &FlConfig,
    global: &GlobalState,
    o: &LocalOutcome,
    round: usize,
) -> MaskedUpload {
    let privacy = cfg
        .privacy
        .expect("masked upload requires a privacy config");
    let p = global.shared.len();
    let buf_len = global.buffers.len();
    let spec = cfg.algorithm.spec();
    let mut up = MaskedUpload {
        delta: MaskedVector::zeros(p),
        secondary: spec.secondary_lane.then(|| MaskedVector::zeros(p)),
        counts: spec.count_lane.then(|| MaskedCounts::zeros(p)),
        buffers: (buf_len > 0).then(|| MaskedVector::zeros(buf_len)),
    };
    let lanes = Lanes {
        delta: &mut up.delta,
        secondary: up.secondary.as_mut(),
        votes: up.counts.as_mut(),
        buffers: up.buffers.as_mut(),
    };
    fold_terms(cfg, &global.control, &as_uploaded(cfg, p, o), lanes);
    let cohort = masking_cohort(cfg, round);
    up.mask_for_cohort(privacy.seed, round as u64, o.client_id, &cohort);
    up
}

/// `o` as its clear upload would reach the server's fold — the input the
/// masked lanes must be built from, since the server never gets to
/// normalise what it cannot see. The pair codec carries an absent second
/// lane as zeros (never SCAFFOLD's server-side fallback derivation), and
/// `decode_upload` would have refused a selection reaching past the
/// session's parameters; such indices are dropped here.
fn as_uploaded<'a>(cfg: &FlConfig, p: usize, o: &'a LocalOutcome) -> Cow<'a, LocalOutcome> {
    let mut o = Cow::Borrowed(o);
    if let Some(lane) = cfg.algorithm.spec().upload_lane {
        if o.lane(lane).is_none() {
            *o.to_mut().lane_mut(lane) = Some(vec![0.0; p]);
        }
    }
    let past_end = |sel: &SelectedUpdate| sel.indices.iter().any(|&i| i as usize >= p);
    if o.selected.as_ref().is_some_and(past_end) {
        let sel = o.to_mut().selected.as_mut().expect("checked above");
        let kept = sel.indices.iter().zip(&sel.values);
        (sel.indices, sel.values) = kept.filter(|(&i, _)| (i as usize) < p).unzip();
    }
    o
}

/// The unmask share `survivor` reveals for `dropped` in `round`: the
/// pair base seed the two shared. The coordinator validates it against
/// its own derivation before applying it.
pub fn unmask_share(
    privacy: &PrivacyConfig,
    round: usize,
    survivor: usize,
    dropped: usize,
) -> UnmaskShare {
    UnmaskShare {
        dropped: dropped as u32,
        survivor: survivor as u32,
        pair_base: pair_base(privacy.seed, round as u64, survivor as u64, dropped as u64),
    }
}

/// Quantize the client's dense delta onto the fixed-point grid and add
/// its per-(round, client) discrete noise. The noise scale is given in
/// real units and converted to grid units here; saturating addition
/// keeps a noisy outlier on the grid edge instead of wrapping it into a
/// plausible value.
pub fn fixed_quantized_upload(cfg: &FlConfig, o: &LocalOutcome, round: usize) -> Vec<i32> {
    let privacy = cfg
        .privacy
        .expect("fixed-point upload requires a privacy config");
    let mut q: Vec<i32> = o
        .delta
        .iter()
        .map(|&v| quantize(v, privacy.frac_bits))
        .collect();
    if privacy.noise > 0.0 {
        let b = privacy.noise as f64 * (1u64 << privacy.frac_bits) as f64;
        let mut rng = privacy.noise_rng(round as u64, o.client_id as u64);
        for x in &mut q {
            let n = discrete_laplace(&mut rng, b).clamp(i32::MIN as i64, i32::MAX as i64) as i32;
            *x = x.saturating_add(n);
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;

    #[test]
    fn sampled_cohort_is_a_pure_function_of_seed_and_round() {
        let mut cfg = FlConfig::new(Algorithm::FedAvg);
        cfg.n_clients = 12;
        cfg.sample_ratio = 0.5;
        let forward: Vec<Vec<usize>> = (0..6).map(|r| sampled_cohort(&cfg, r)).collect();
        for round in (0..6).rev() {
            let cohort = sampled_cohort(&cfg, round);
            assert_eq!(cohort, forward[round], "round {round}, drawn out of order");
            assert_eq!(cohort.len(), 6);
            assert!(
                cohort.windows(2).all(|w| w[0] < w[1]),
                "ascending, distinct"
            );
            assert!(cohort.iter().all(|&c| c < cfg.n_clients));
        }
        assert!(forward.windows(2).any(|w| w[0] != w[1]), "rounds draw anew");
        cfg.seed += 1;
        assert!(
            (0..6).any(|r| sampled_cohort(&cfg, r) != forward[r]),
            "seeded"
        );
        cfg.sample_ratio = 1.0;
        assert_eq!(sampled_cohort(&cfg, 3), (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn masking_cohort_excludes_planned_dropouts() {
        let mut cfg = FlConfig::new(Algorithm::FedAvg);
        cfg.n_clients = 32;
        cfg.faults = Some(crate::FaultPlan::dropout_only(0.4));
        let inj = cfg.faults.unwrap();
        for round in 0..4 {
            let masked = masking_cohort(&cfg, round);
            assert!(masked.iter().all(|&c| !inj.drops_out(round, c)));
            let sampled = sampled_cohort(&cfg, round);
            assert!(masked.len() <= sampled.len());
        }
    }

    #[test]
    fn unmask_share_is_symmetric_in_the_pair() {
        let privacy = PrivacyConfig::masked(7);
        let a = unmask_share(&privacy, 3, 1, 5);
        let b = unmask_share(&privacy, 3, 5, 1);
        assert_eq!(a.pair_base, b.pair_base);
        assert_eq!(a.survivor, b.dropped);
    }

    #[test]
    fn fixed_upload_is_deterministic_per_client() {
        let mut cfg = FlConfig::new(Algorithm::FedAvg);
        cfg.privacy = Some(PrivacyConfig::fixed(5, 10.0).with_noise(0.01));
        let mut o = crate::LocalOutcome {
            delta: vec![0.5, -0.25, 0.125],
            ..test_outcome(3)
        };
        let a = fixed_quantized_upload(&cfg, &o, 2);
        let b = fixed_quantized_upload(&cfg, &o, 2);
        assert_eq!(a, b);
        o.client_id = 4;
        let c = fixed_quantized_upload(&cfg, &o, 2);
        assert_ne!(a, c, "noise streams are client-separated");
    }

    fn test_outcome(id: usize) -> crate::LocalOutcome {
        crate::LocalOutcome {
            client_id: id,
            n_samples: 10,
            tau: 1,
            delta: Vec::new(),
            selected: None,
            compressed: None,
            control_delta: None,
            velocity: None,
            buffers: Vec::new(),
            diverged: false,
            masked: None,
            fixed: None,
            bytes: crate::CommModel::dense(0),
            wire: crate::WireBytes::default(),
            frames: Vec::new(),
            keep_ratio: 1.0,
            flops_ratio: 1.0,
        }
    }
}
