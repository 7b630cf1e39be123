//! Byzantine adversaries: semantically poisoned but CRC-valid uploads.
//!
//! The fault layer ([`FaultPlan`](crate::FaultPlan)) models accidents —
//! a client that leaves, a reply torn or sent twice — which the protocol
//! absorbs. This module models the complementary threat no checksum can
//! see: a client that participates in the protocol flawlessly —
//! trains, seals frames, passes every checksum — but uploads a *wrong*
//! update. Three classic behaviours from the Byzantine-FL literature are
//! implemented:
//!
//! * **NaN/Inf injection** — a handful of update entries are replaced with
//!   non-finite values; one such upload averaged into the global model
//!   poisons every parameter it touches within a round.
//! * **Delta scaling** — the update is multiplied by λ ≫ 1, letting a
//!   single attacker dominate a weighted mean (model-replacement-style
//!   boosting).
//! * **Sign flip** — the update is negated, steering the global model away
//!   from descent without changing the update's norm (invisible to
//!   norm-based screening; it is robust aggregation's to resist, which at
//!   30 % attackers on a non-IID cohort none does — EXPERIMENTS.md).
//!
//! Like the [`FaultPlan`](crate::FaultPlan), every decision is a
//! pure function of a seed, here the constant [`ADVERSARY_SEED`]: which
//! clients are Byzantine is drawn once from `(seed, n_clients)`, and the
//! entries a NaN attack damages are drawn from `(seed, round, client)` —
//! so an adversarial run replays bit-for-bit and toggling the plan never
//! perturbs training randomness.
//!
//! Tampering happens *before* sealing: the adversary rewrites the client's
//! in-memory outcome and re-encodes the frames through the ordinary
//! [`wire`](crate::wire) path, so the upload the server decodes is
//! perfectly well-formed. Defenses live server-side, in
//! [`ScreenPolicy`](crate::ScreenPolicy) and the robust
//! [`AggregatorKind`](crate::AggregatorKind)s.

use crate::faults::splitmix;
use crate::{FlConfig, LocalOutcome};
use serde::{Deserialize, Serialize};
use spatl_tensor::TensorRng;

/// Which Byzantine behaviour an [`AdversaryPlan`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackKind {
    /// Replace a deterministic handful of update entries with alternating
    /// `NaN` / `+∞` values.
    NanInjection,
    /// Multiply the update by [`SCALE_LAMBDA`].
    ScaleAttack,
    /// Negate the update (norm-preserving — defeats norm screening; left
    /// to robust aggregation).
    SignFlip,
}

impl AttackKind {
    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            AttackKind::NanInjection => "nan-inject",
            AttackKind::ScaleAttack => "scale",
            AttackKind::SignFlip => "sign-flip",
        }
    }
}

/// A seeded description of the Byzantine cohort a run simulates. Part of
/// [`FlConfig`](crate::FlConfig); `None` there means every client is
/// honest.
///
/// The Byzantine set is *static*: `round(fraction · n_clients)` clients are
/// chosen once per run from [`ADVERSARY_SEED`] (the standard threat model
/// in Byzantine-FL evaluations), and each of them tampers with every upload
/// it sends. No randomness derives from the training seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdversaryPlan {
    /// Fraction of the client population that is Byzantine, in `[0, 1]`.
    /// The attacker count is `round(fraction · n_clients)`.
    pub fraction: f64,
    /// The behaviour every Byzantine client applies.
    pub attack: AttackKind,
}

/// Scaling factor λ of [`AttackKind::ScaleAttack`]: model-replacement
/// boosting.
pub const SCALE_LAMBDA: f32 = 100.0;

/// Seed of the adversary RNG streams, independent of the training seed and
/// of any [`FaultPlan`](crate::FaultPlan) seed.
pub const ADVERSARY_SEED: u64 = 0xBAD5EED;

impl Default for AdversaryPlan {
    fn default() -> Self {
        AdversaryPlan::with_attack(0.0, AttackKind::ScaleAttack)
    }
}

impl AdversaryPlan {
    /// A plan in which `fraction` of clients applies `attack`.
    pub fn with_attack(fraction: f64, attack: AttackKind) -> Self {
        AdversaryPlan { fraction, attack }
    }
}

const SALT_MEMBERSHIP: u64 = 0xB12;
const SALT_NAN: u64 = 0x7A11;

/// How many entries a NaN-injection attack overwrites (clamped to the
/// update length). A handful is all it takes: one non-finite coordinate
/// reaching a naive mean poisons that coordinate globally.
const NAN_ENTRIES: usize = 8;

/// Executes an [`AdversaryPlan`]: decides who is Byzantine and rewrites
/// their outcomes before the frames are sealed.
///
/// Stateless apart from the plan, like
/// [`FaultPlan`](crate::FaultPlan): membership derives from
/// `(ADVERSARY_SEED, n_clients)` and per-round damage from
/// `(ADVERSARY_SEED, round, client)`,
/// so decisions are independent of evaluation order and replay exactly.
#[derive(Debug, Clone, Copy)]
pub struct Adversary {
    plan: AdversaryPlan,
}

impl Adversary {
    /// An adversary executing `plan` (ranges are
    /// [`FlConfig::check`](crate::FlConfig::check)'s).
    pub fn new(plan: AdversaryPlan) -> Self {
        Adversary { plan }
    }

    /// The plan this adversary executes.
    pub fn plan(&self) -> &AdversaryPlan {
        &self.plan
    }

    /// The Byzantine membership mask over a population of `n_clients`:
    /// exactly `round(fraction · n_clients)` clients, chosen from
    /// [`ADVERSARY_SEED`] alone.
    pub fn byzantine_mask(&self, n_clients: usize) -> Vec<bool> {
        let k = ((self.plan.fraction * n_clients as f64).round() as usize).min(n_clients);
        let mut mask = vec![false; n_clients];
        if k == 0 {
            return mask;
        }
        let mut rng = TensorRng::seed_from(splitmix(ADVERSARY_SEED ^ splitmix(SALT_MEMBERSHIP)));
        for i in rng.choose_k(n_clients, k) {
            mask[i] = true;
        }
        mask
    }

    /// Rewrite one Byzantine client's outcome in place and re-seal its
    /// frames, so the upload that reaches the server is CRC-valid but
    /// semantically poisoned. The attack touches every vector the server
    /// aggregates — the delta (or salient values), the SCAFFOLD control
    /// step and the FedNova momentum — a consistent attacker, not one that
    /// betrays itself through mismatched auxiliaries.
    pub fn tamper(
        &self,
        cfg: &FlConfig,
        global: &crate::GlobalState,
        outcome: &mut LocalOutcome,
        round: usize,
    ) {
        match self.plan.attack {
            AttackKind::ScaleAttack => outcome.scale(SCALE_LAMBDA),
            AttackKind::SignFlip => outcome.scale(-1.0),
            AttackKind::NanInjection => {
                let mut rng = TensorRng::seed_from(splitmix(
                    ADVERSARY_SEED
                        ^ splitmix(
                            (round as u64) ^ splitmix((outcome.client_id as u64) ^ SALT_NAN),
                        ),
                ));
                let poison = |xs: &mut [f32], rng: &mut TensorRng| {
                    if xs.is_empty() {
                        return;
                    }
                    for n in 0..NAN_ENTRIES.min(xs.len()) {
                        let j = rng.below(xs.len());
                        xs[j] = if n % 2 == 0 { f32::NAN } else { f32::INFINITY };
                    }
                };
                poison(&mut outcome.delta, &mut rng);
                if let Some(sel) = &mut outcome.selected {
                    poison(&mut sel.values, &mut rng);
                }
                if let Some(cd) = &mut outcome.control_delta {
                    poison(cd, &mut rng);
                }
                if let Some(v) = &mut outcome.velocity {
                    poison(v, &mut rng);
                }
            }
        }
        reseal(cfg, global, outcome, round);
    }
}

/// Re-encode the tampered outcome through the ordinary wire path. The
/// resulting frames carry fresh, *valid* CRCs — exactly what a Byzantine
/// participant that follows the protocol would transmit — and the payload
/// accounting is unchanged (the attack alters values, never shapes).
/// Under a privacy mode the tampered clear tensors are re-masked (or
/// re-quantized) honestly from scratch, modelling a Byzantine client that
/// poisons its inputs but follows the masking protocol to the letter.
fn reseal(cfg: &FlConfig, global: &crate::GlobalState, outcome: &mut LocalOutcome, round: usize) {
    let encoded = crate::wire::encode_upload(cfg, global, outcome, round);
    debug_assert_eq!(
        encoded.payload, outcome.wire.upload_payload,
        "tampering must not change the payload size"
    );
    outcome.wire.upload_payload = encoded.payload;
    outcome.wire.upload_framed = encoded.framed();
    outcome.frames = encoded.frames;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, CommModel};
    use spatl_wire::open;

    fn empty_global() -> crate::GlobalState {
        crate::GlobalState {
            shared: Vec::new(),
            control: Vec::new(),
            momentum: Vec::new(),
            buffers: Vec::new(),
        }
    }

    fn outcome(id: usize, delta: Vec<f32>) -> LocalOutcome {
        let cfg = FlConfig::new(Algorithm::FedAvg);
        let mut o = LocalOutcome {
            client_id: id,
            n_samples: 10,
            tau: 1,
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
            wire: crate::WireBytes::default(),
            frames: Vec::new(),
            keep_ratio: 1.0,
            flops_ratio: 1.0,
        };
        let enc = crate::wire::encode_upload(&cfg, &empty_global(), &o, 0);
        o.wire.upload_payload = enc.payload;
        o.wire.upload_framed = enc.framed();
        o.frames = enc.frames;
        o
    }

    #[test]
    fn membership_is_deterministic_and_sized() {
        let plan = AdversaryPlan {
            fraction: 0.3,
            ..Default::default()
        };
        let a = Adversary::new(plan).byzantine_mask(10);
        let b = Adversary::new(plan).byzantine_mask(10);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|&&m| m).count(), 3);
        // The set is ADVERSARY_SEED's draw, pinned: a changed seed, salt
        // or derivation picks other clients.
        let ids: Vec<usize> = (0..10).filter(|&i| a[i]).collect();
        assert_eq!(ids, [4, 8, 9]);
    }

    #[test]
    fn zero_fraction_names_no_one() {
        let adv = Adversary::new(AdversaryPlan::default());
        assert!(adv.byzantine_mask(32).iter().all(|&m| !m));
    }

    #[test]
    fn scale_attack_scales_and_reseals() {
        let cfg = FlConfig::new(Algorithm::FedAvg);
        let mut o = outcome(0, vec![1.0, -2.0, 3.0]);
        let before = o.frames.clone();
        let adv = Adversary::new(AdversaryPlan::with_attack(1.0, AttackKind::ScaleAttack));
        adv.tamper(&cfg, &empty_global(), &mut o, 0);
        let lambda = SCALE_LAMBDA;
        assert_eq!(o.delta, vec![lambda, -2.0 * lambda, 3.0 * lambda]);
        assert_ne!(o.frames, before, "tampered frames must differ");
        // The tampered frame still opens: the CRC is valid.
        assert!(open(&o.frames[0]).is_ok());
    }

    #[test]
    fn sign_flip_preserves_norm() {
        let cfg = FlConfig::new(Algorithm::FedAvg);
        let mut o = outcome(1, vec![1.0, -2.0]);
        Adversary::new(AdversaryPlan::with_attack(1.0, AttackKind::SignFlip)).tamper(
            &cfg,
            &empty_global(),
            &mut o,
            0,
        );
        assert_eq!(o.delta, vec![-1.0, 2.0]);
    }

    #[test]
    fn nan_injection_is_deterministic_and_crc_valid() {
        let cfg = FlConfig::new(Algorithm::FedAvg);
        let adv = Adversary::new(AdversaryPlan::with_attack(1.0, AttackKind::NanInjection));
        let mut a = outcome(2, vec![1.0; 64]);
        let mut b = outcome(2, vec![1.0; 64]);
        adv.tamper(&cfg, &empty_global(), &mut a, 5);
        adv.tamper(&cfg, &empty_global(), &mut b, 5);
        assert_eq!(
            a.frames, b.frames,
            "same (seed, round, client) → same damage"
        );
        assert!(a.delta.iter().any(|v| v.is_nan()));
        assert!(a.delta.iter().any(|v| v.is_infinite()));
        assert!(
            open(&a.frames[0]).is_ok(),
            "poisoned frame must stay CRC-valid"
        );
        // A different round damages different entries.
        let mut c = outcome(2, vec![1.0; 64]);
        adv.tamper(&cfg, &empty_global(), &mut c, 6);
        assert_ne!(
            a.delta.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            c.delta.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
