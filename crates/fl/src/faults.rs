//! Fault injection and graceful degradation for federated rounds.
//!
//! Real federated deployments never see the pristine rounds the rest of
//! this simulator models: clients drop out before training, stragglers
//! miss the server's collection deadline, and uploads arrive with flipped
//! bits. This module injects exactly those three fault classes —
//! **dropout**, **straggler**, **corruption** — under a seeded
//! [`FaultPlan`], and records what happened to each round in a
//! [`FaultRecord`] stored on the round's history entry.
//!
//! Design rules (DESIGN.md §8 is the narrative version):
//!
//! * **Determinism.** Every fault decision is a pure function of
//!   `(plan seed, round, client id, attempt)` via its own splitmix-derived
//!   RNG stream, so a faulty run replays bit-for-bit and fault streams
//!   never perturb training randomness — the fault-free path is byte
//!   identical to a run with no plan configured.
//! * **Corruption is caught, never trusted.** Injected bit flips damage
//!   the *sealed frames*; the server's decode path rejects them with a
//!   typed [`WireError`](spatl_wire::WireError), and
//!   [`WireError::is_transport_corruption`](spatl_wire::WireError::is_transport_corruption)
//!   gates a bounded retransmit-with-backoff loop. Nothing panics.
//! * **Degradation, not failure.** Aggregation runs over whatever cohort
//!   survives; a round that loses everyone becomes a recorded no-op.

use serde::{Deserialize, Serialize};
use spatl_tensor::TensorRng;
use spatl_wire::flip_bit;

/// A seeded description of the faults a run injects. Part of
/// [`FlConfig`](crate::FlConfig); `None` there means pristine rounds.
///
/// All probabilities are evaluated independently per round, per client
/// (and for corruption, per transmission attempt), from RNG streams
/// derived only from [`FaultPlan::seed`] — never from the training seed —
/// so the same plan replays identically and toggling it does not shift
/// any training randomness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability that a sampled client drops out of the round before
    /// training (crash, battery, user closed the app). In `[0, 1]`.
    pub dropout: f64,
    /// Probability that a participant is a straggler this round. In `[0, 1]`.
    pub straggler_ratio: f64,
    /// Multiplier (> 1) applied to a straggler's simulated transfer time.
    pub straggler_slowdown: f64,
    /// Server-side collection deadline in simulated seconds. A participant
    /// whose transfer time (slowdown and retry backoff included) exceeds
    /// it is excluded from aggregation; `None` waits forever.
    pub deadline_s: Option<f64>,
    /// Probability that one transmission attempt of a client's upload
    /// arrives with a single flipped bit. In `[0, 1]`.
    pub corruption: f64,
    /// Retransmissions the server requests for a corrupted upload before
    /// dropping the client from the round (so a client transmits at most
    /// `1 + max_retries` times).
    pub max_retries: u32,
    /// Base backoff in simulated seconds; retry `n` (1-based) waits
    /// `retry_backoff_s · 2^(n−1)` before retransmitting.
    pub retry_backoff_s: f64,
    /// Seed of the fault RNG streams, independent of the training seed.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            dropout: 0.0,
            straggler_ratio: 0.0,
            straggler_slowdown: 4.0,
            deadline_s: None,
            corruption: 0.0,
            max_retries: 2,
            retry_backoff_s: 0.5,
            seed: 0x5EED,
        }
    }
}

impl FaultPlan {
    /// A plan that only drops clients out with probability `p`.
    pub fn dropout_only(p: f64) -> Self {
        FaultPlan {
            dropout: p,
            ..Default::default()
        }
    }
}

/// What kind of fault an event records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The client was sampled but never trained (dropped out up front).
    Dropout,
    /// The client's transfer was slowed by [`FaultPlan::straggler_slowdown`].
    Straggler,
    /// One transmission attempt arrived corrupted and was rejected by the
    /// decode path; the string is the typed
    /// [`WireError`](spatl_wire::WireError) rendered for the record.
    CorruptUpload {
        /// Display form of the rejection the decoder returned.
        error: String,
    },
    /// The client's upload never decoded within the retry budget; it was
    /// dropped from the round's aggregation.
    RetriesExhausted,
    /// The client finished after [`FaultPlan::deadline_s`]; its upload was
    /// discarded unread.
    DeadlineMissed,
    /// A complete upload arrived for a `(round, client)` the coordinator
    /// had already folded — a retransmission after a reconnect, or a
    /// [`ChaosPlan`](crate::ChaosPlan)-duplicated reply. The copy was
    /// discarded; folding it twice would double-count the client.
    DuplicateUpload,
    /// The client self-reported a non-finite local delta and uploaded a
    /// fallback instead of a salient selection; aggregation rejects the
    /// update, and this event distinguishes *self-reported* divergence from
    /// updates the server screened out
    /// ([`FaultKind::Quarantined`]).
    LocalDivergence,
    /// Ground truth of the configured
    /// [`AdversaryPlan`](crate::AdversaryPlan): this client's upload was
    /// tampered with this round (the frames remained CRC-valid — only
    /// semantic screening can catch it).
    ByzantineUpload {
        /// Which attack the plan applied.
        attack: crate::AttackKind,
    },
    /// The server's update screen rejected this upload before aggregation
    /// ([`ScreenPolicy`](crate::ScreenPolicy)); the reason says which check
    /// fired.
    Quarantined {
        /// Which screening check rejected the update.
        reason: crate::ScreenReason,
    },
    /// Masked round: this cohort member promised pairwise masks but its
    /// upload never arrived, and the survivors' unmask shares removed
    /// every orphaned mask before finalize — the round recovered.
    MaskRecovered {
        /// How many pair masks (one per arrived survivor) were removed.
        pairs: usize,
    },
    /// Ground truth: a Byzantine upload reached aggregation *unscreened*
    /// because pairwise masking blinds the server to individual updates
    /// — the documented trade `spatl-exp privacy` measures.
    ScreenBypassed,
}

/// One fault that hit one client in one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// The affected client.
    pub client_id: usize,
    /// What happened.
    pub kind: FaultKind,
}

/// Per-round fault ledger, stored on
/// [`RoundRecord::faults`](crate::RoundRecord::faults).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Clients the sampler selected this round.
    pub sampled: usize,
    /// Clients whose updates reached aggregation.
    pub survivors: usize,
    /// Clients that dropped out before training.
    pub dropouts: usize,
    /// Participants slowed by the straggler factor.
    pub stragglers: usize,
    /// Participants excluded because they finished after the deadline.
    pub deadline_dropped: usize,
    /// Complete uploads discarded because their `(round, client)` was
    /// already folded ([`FaultKind::DuplicateUpload`]).
    pub duplicates: usize,
    /// Transmission attempts that arrived corrupted (retries included).
    pub corrupted_uploads: usize,
    /// Retransmissions the server requested.
    pub retries: usize,
    /// Participants dropped after exhausting the retry budget.
    pub retry_exhausted: usize,
    /// Clients that self-reported a non-finite local delta
    /// ([`FaultKind::LocalDivergence`]).
    pub local_divergence: usize,
    /// Ground truth: uploads the configured
    /// [`AdversaryPlan`](crate::AdversaryPlan) tampered with this round.
    pub byzantine: usize,
    /// Decoded uploads the server's
    /// [`ScreenPolicy`](crate::ScreenPolicy) rejected before aggregation;
    /// the matching [`FaultKind::Quarantined`] events say why.
    pub quarantined: usize,
    /// Masked cohort members lost mid-round whose orphaned masks were
    /// removed by unmask shares ([`FaultKind::MaskRecovered`]). Defaulted
    /// on deserialization so pre-privacy records still load.
    pub mask_recovered: usize,
    /// Byzantine uploads that reached aggregation unscreened because the
    /// round was masked ([`FaultKind::ScreenBypassed`]).
    pub screen_bypassed: usize,
    /// True when aggregation applied no update this round (every sampled
    /// client was lost, or every survivor was rejected).
    pub no_op: bool,
    /// The individual faults, in the order they were observed.
    pub events: Vec<FaultEvent>,
}

impl FaultRecord {
    /// Start a ledger for a round that sampled `sampled` clients.
    pub fn for_sample(sampled: usize) -> Self {
        FaultRecord {
            sampled,
            ..Default::default()
        }
    }

    /// Record one fault event, updating the matching counter.
    pub fn push(&mut self, client_id: usize, kind: FaultKind) {
        match kind {
            FaultKind::Dropout => self.dropouts += 1,
            FaultKind::Straggler => self.stragglers += 1,
            FaultKind::CorruptUpload { .. } => self.corrupted_uploads += 1,
            FaultKind::RetriesExhausted => self.retry_exhausted += 1,
            FaultKind::DeadlineMissed => self.deadline_dropped += 1,
            FaultKind::DuplicateUpload => self.duplicates += 1,
            FaultKind::LocalDivergence => self.local_divergence += 1,
            FaultKind::ByzantineUpload { .. } => self.byzantine += 1,
            FaultKind::Quarantined { .. } => self.quarantined += 1,
            FaultKind::MaskRecovered { .. } => self.mask_recovered += 1,
            FaultKind::ScreenBypassed => self.screen_bypassed += 1,
        }
        self.events.push(FaultEvent { client_id, kind });
    }

    /// Total faults observed this round.
    pub fn total(&self) -> usize {
        self.events.len()
    }
}

const SALT_DROPOUT: u64 = 0xD0;
const SALT_STRAGGLER: u64 = 0x57;
const SALT_CORRUPT: u64 = 0xC0;

/// splitmix64 finaliser — decorrelates the structured `(seed, round,
/// actor, salt)` tuples before they become ChaCha seeds. The
/// [`Adversary`](crate::Adversary) mixes its membership and NaN streams
/// with it by formulas of its own, kept so that a plan's Byzantine
/// clients stay the ones its seed always chose.
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The generator of one per-round decision: a fresh ChaCha stream seeded
/// by `(seed, round, actor, salt)` through [`splitmix`]. Every fault,
/// chaos and churn coin and every round's cohort is drawn from one of
/// these, so a decision never depends on which decisions were drawn
/// before it.
pub(crate) fn seeded_rng(seed: u64, round: usize, actor: usize, salt: u64) -> TensorRng {
    let s = splitmix(seed ^ splitmix((round as u64) ^ splitmix((actor as u64) ^ splitmix(salt))));
    TensorRng::seed_from(s)
}

/// Every fault decision of a run, drawn from per-decision RNG streams.
///
/// Stateless apart from the plan: each decision derives a fresh generator
/// from `(seed, round, client, salt)`, so decisions are independent of
/// evaluation order (in particular of rayon's scheduling) and a given
/// `(plan, round, client)` always faults the same way.
impl FaultPlan {
    /// Does `client` drop out of `round` before training?
    pub fn drops_out(&self, round: usize, client: usize) -> bool {
        self.dropout > 0.0 && seeded_rng(self.seed, round, client, SALT_DROPOUT).flip(self.dropout)
    }

    /// Transfer-time multiplier for `client` in `round`: the plan's
    /// slowdown when the straggler coin lands, `1.0` otherwise.
    pub fn straggler_factor(&self, round: usize, client: usize) -> f64 {
        if self.straggler_ratio > 0.0
            && seeded_rng(self.seed, round, client, SALT_STRAGGLER).flip(self.straggler_ratio)
        {
            self.straggler_slowdown
        } else {
            1.0
        }
    }

    /// Does transmission `attempt` (1-based) of `client`'s upload in
    /// `round` arrive corrupted? Each attempt flips its own coin, so a
    /// retransmission can be damaged again.
    pub fn corrupts_attempt(&self, round: usize, client: usize, attempt: u32) -> bool {
        self.corruption > 0.0
            && seeded_rng(
                self.seed,
                round,
                client,
                SALT_CORRUPT ^ ((attempt as u64) << 8),
            )
            .flip(self.corruption)
    }

    /// Damage one transmission: flip a single deterministic-random bit in
    /// one of the frames (frame and bit chosen by the same per-attempt
    /// stream as [`Self::corrupts_attempt`]).
    pub fn corrupt_frames(
        &self,
        frames: &mut [Vec<u8>],
        round: usize,
        client: usize,
        attempt: u32,
    ) {
        assert!(!frames.is_empty(), "cannot corrupt an empty transmission");
        let mut rng = seeded_rng(
            self.seed,
            round,
            client,
            SALT_CORRUPT ^ ((attempt as u64) << 8),
        );
        rng.flip(1.0); // discard the corruption coin so the bit draw is fresh
        let f = rng.below(frames.len());
        let bit = rng.below(frames[f].len() * 8);
        flip_bit(&mut frames[f], bit);
    }

    /// Simulated seconds of backoff a client has waited after `retries`
    /// retransmissions: `Σ_{n=1..retries} backoff · 2^(n−1)`.
    pub fn backoff_s(&self, retries: u32) -> f64 {
        if retries == 0 {
            return 0.0;
        }
        self.retry_backoff_s * ((1u64 << retries) - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan {
            dropout: 0.3,
            straggler_ratio: 0.4,
            straggler_slowdown: 3.0,
            deadline_s: Some(10.0),
            corruption: 0.5,
            max_retries: 2,
            retry_backoff_s: 0.25,
            seed: 42,
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = plan();
        let b = plan();
        for round in 0..5 {
            for client in 0..8 {
                assert_eq!(a.drops_out(round, client), b.drops_out(round, client));
                assert_eq!(
                    a.straggler_factor(round, client),
                    b.straggler_factor(round, client)
                );
                for attempt in 1..4 {
                    assert_eq!(
                        a.corrupts_attempt(round, client, attempt),
                        b.corrupts_attempt(round, client, attempt)
                    );
                }
            }
        }
    }

    #[test]
    fn decisions_vary_across_rounds_clients_and_seeds() {
        let inj = plan();
        let drops: Vec<bool> = (0..64).map(|c| inj.drops_out(0, c)).collect();
        assert!(drops.iter().any(|&d| d) && drops.iter().any(|&d| !d));
        let other = FaultPlan { seed: 43, ..plan() };
        let drops2: Vec<bool> = (0..64).map(|c| other.drops_out(0, c)).collect();
        assert_ne!(drops, drops2);
    }

    #[test]
    fn dropout_rate_matches_probability() {
        let inj = FaultPlan::dropout_only(0.3);
        let n = 4000;
        let dropped = (0..n).filter(|&c| inj.drops_out(0, c)).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed dropout rate {rate}");
    }

    #[test]
    fn zero_probabilities_never_fault() {
        let inj = FaultPlan::default();
        for c in 0..32 {
            assert!(!inj.drops_out(0, c));
            assert_eq!(inj.straggler_factor(0, c), 1.0);
            assert!(!inj.corrupts_attempt(0, c, 1));
        }
    }

    #[test]
    fn corrupt_frames_breaks_exactly_one_bit() {
        use spatl_wire::{open, seal, MsgType};
        let inj = plan();
        let frames = vec![seal(MsgType::DenseUpdate, &[1, 2, 3, 4, 5, 6, 7, 8])];
        let mut damaged = frames.clone();
        inj.corrupt_frames(&mut damaged, 0, 0, 1);
        let diff: u32 = frames[0]
            .iter()
            .zip(&damaged[0])
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit must differ");
        let err = open(&damaged[0]).expect_err("damaged frame must not open");
        assert!(err.is_transport_corruption());
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let inj = plan();
        assert_eq!(inj.backoff_s(0), 0.0);
        assert!((inj.backoff_s(1) - 0.25).abs() < 1e-12);
        assert!((inj.backoff_s(2) - 0.75).abs() < 1e-12); // 0.25 + 0.5
        assert!((inj.backoff_s(3) - 1.75).abs() < 1e-12); // + 1.0
    }

    #[test]
    fn record_counters_track_events() {
        let mut rec = FaultRecord::for_sample(4);
        rec.push(0, FaultKind::Dropout);
        rec.push(1, FaultKind::Straggler);
        rec.push(
            2,
            FaultKind::CorruptUpload {
                error: "crc".into(),
            },
        );
        rec.push(2, FaultKind::RetriesExhausted);
        rec.push(3, FaultKind::DeadlineMissed);
        rec.push(3, FaultKind::DuplicateUpload);
        rec.push(0, FaultKind::LocalDivergence);
        rec.push(
            1,
            FaultKind::ByzantineUpload {
                attack: crate::AttackKind::SignFlip,
            },
        );
        rec.push(
            1,
            FaultKind::Quarantined {
                reason: crate::ScreenReason::NonFinite,
            },
        );
        assert_eq!(rec.dropouts, 1);
        assert_eq!(rec.stragglers, 1);
        assert_eq!(rec.corrupted_uploads, 1);
        assert_eq!(rec.retry_exhausted, 1);
        assert_eq!(rec.deadline_dropped, 1);
        assert_eq!(rec.duplicates, 1);
        assert_eq!(rec.local_divergence, 1);
        assert_eq!(rec.byzantine, 1);
        assert_eq!(rec.quarantined, 1);
        assert_eq!(rec.total(), 9);
    }
}
