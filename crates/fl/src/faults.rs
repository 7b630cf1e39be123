//! The one fault plan of a session, and the ledger of what it did.
//!
//! A [`FaultPlan`] describes every fault a run injects, and both runtimes
//! enact it — the simulator in-process, the TCP runtime with real
//! processes and sockets — so a session that carries a plan is the same
//! session in either. DESIGN.md §8 has the outcome table; in short:
//!
//! * **Dropout** — a sampled client leaves before the broadcast. One
//!   function, [`ledger_departures`], decides it (together with churn
//!   departures) for the simulator, the flat root, every edge and the
//!   root's dead-edge slices, and [`masking_cohort`](crate::masking_cohort)
//!   asks the same question, so a dropped client never derives masks.
//! * **Duplicate** — a client sends its complete reply twice. Over TCP
//!   the gather folds one copy and ledgers the other; the simulator
//!   ledgers the same [`FaultKind::DuplicateUpload`] in the same place.
//! * **Reset** and **stall** — a client tears its first transmission and
//!   reconnects, or waits before replying. Both delay a round and change
//!   no bit and no ledger entry, in either runtime.
//! * **Kill edge** — a scheduled edge-process death; tiered sessions only.
//!
//! Every coin is a pure function of `(plan seed, round, actor, salt)`
//! through its own splitmix-derived stream ([`seeded_rng`]), never of
//! the training seed: a plan replays bit for bit, toggling it shifts no
//! training randomness, and every endpoint evaluates any coin in O(1).
//! Aggregation runs over whatever cohort survives; a round that loses
//! everyone is a recorded no-op. Each round's [`FaultRecord`] says what
//! happened.

use serde::{Deserialize, Serialize};
use spatl_tensor::TensorRng;

use crate::FlConfig;

/// A seeded description of the faults a session injects. Part of
/// [`FlConfig`]; `None` there means pristine rounds. Because the plan
/// lives in the session configuration it is fingerprinted with it: every
/// endpoint of a networked session shares the schedule, and one started
/// without the plan is rejected at the handshake.
///
/// Every probability is evaluated independently per round and per client
/// from streams derived only from [`FaultPlan::seed`]. The transport
/// faults (`reset`, `stall`, `stall_ms`, `duplicate`) load as 0 from a
/// plan stored before they existed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability that a sampled client leaves before the broadcast
    /// (crash, battery, user closed the app): it never trains and never
    /// uploads. In `[0, 1]`.
    pub dropout: f64,
    /// Probability that a client's *first* transmission of its round
    /// upload is torn: a strict prefix of one sealed frame is written and
    /// the connection is reset. The node reconnects and retries, so a
    /// torn upload is a delay, not a loss — unless the retry misses the
    /// round deadline. In `[0, 1]`.
    #[serde(default)]
    pub reset: f64,
    /// Probability that a client stalls (sleeps) before sending its
    /// upload, emulating a slow socket. In `[0, 1]`.
    #[serde(default)]
    pub stall: f64,
    /// How long a stalled client sleeps, in milliseconds.
    #[serde(default)]
    pub stall_ms: u64,
    /// Probability that a client transmits its complete upload reply
    /// twice. One copy is folded and the other ledgered as
    /// [`FaultKind::DuplicateUpload`]. In `[0, 1]`.
    #[serde(default)]
    pub duplicate: f64,
    /// Scheduled edge-process kill: `(round, edge_id)`. From that round
    /// on the edge drops every connection without a goodbye — its clients
    /// observe a vanished coordinator and the root a dead partition.
    /// `None` kills nothing; flat sessions have no edge to kill.
    pub kill_edge: Option<(u32, u32)>,
    /// Seed of the plan's RNG streams, independent of the training seed.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            dropout: 0.0,
            reset: 0.0,
            stall: 0.0,
            stall_ms: 50,
            duplicate: 0.0,
            kill_edge: None,
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
    /// A reply arrived intact at the framing layer but did not decode; the
    /// string is the typed [`WireError`](spatl_wire::WireError) rendered
    /// for the record.
    CorruptUpload {
        /// Display form of the rejection the decoder returned.
        error: String,
    },
    /// The client had not replied when the collection phase's deadline
    /// fell; whatever it sends later is discarded unread.
    DeadlineMissed,
    /// A complete upload arrived for a `(round, client)` the coordinator
    /// had already folded — a retransmission after a reconnect, or a
    /// reply the plan duplicated ([`FaultPlan::duplicate`]). The copy was
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
    /// Participants excluded because they missed the collection deadline.
    pub deadline_dropped: usize,
    /// Complete uploads discarded because their `(round, client)` was
    /// already folded ([`FaultKind::DuplicateUpload`]).
    pub duplicates: usize,
    /// Replies that arrived but did not decode
    /// ([`FaultKind::CorruptUpload`]).
    pub corrupted_uploads: usize,
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
    /// on deserialization, so a record stored before privacy existed
    /// loads with 0.
    #[serde(default)]
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
            FaultKind::CorruptUpload { .. } => self.corrupted_uploads += 1,
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
const SALT_RESET: u64 = 0xE5;
const SALT_CUT: u64 = 0xC7;
const SALT_STALL: u64 = 0x5A;
const SALT_DUP: u64 = 0xD2;

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
/// by `(seed, round, actor, salt)` through [`splitmix`]. Every fault and
/// churn coin and every round's cohort is drawn from one of these, so a
/// decision never depends on which decisions were drawn before it.
pub(crate) fn seeded_rng(seed: u64, round: usize, actor: usize, salt: u64) -> TensorRng {
    let s = splitmix(seed ^ splitmix((round as u64) ^ splitmix((actor as u64) ^ splitmix(salt))));
    TensorRng::seed_from(s)
}

/// Every coin of a plan. Stateless apart from the plan: each coin derives
/// a fresh generator from `(seed, round, actor, salt)`, so coins are
/// independent of evaluation order (in particular of rayon's scheduling
/// and of which process asks) and a given `(plan, round, actor)` always
/// lands the same way.
impl FaultPlan {
    /// Does `client` drop out of `round` before the broadcast?
    pub fn drops_out(&self, round: usize, client: usize) -> bool {
        self.dropout > 0.0 && seeded_rng(self.seed, round, client, SALT_DROPOUT).flip(self.dropout)
    }

    /// Is `client`'s first upload transmission of `round` torn mid-frame
    /// (prefix written, connection reset)? Only the first attempt is ever
    /// torn: the retry after reconnecting goes through clean, so resets
    /// delay rounds without deadlocking them.
    pub fn resets_upload(&self, round: usize, client: usize) -> bool {
        self.reset > 0.0 && seeded_rng(self.seed, round, client, SALT_RESET).flip(self.reset)
    }

    /// Where to cut a torn transmission: a byte offset in `[1, len)`, so
    /// the receiver always sees a strict, non-empty prefix of the frame.
    pub fn torn_cut(&self, round: usize, client: usize, len: usize) -> usize {
        assert!(len > 1, "cannot tear a frame of {len} bytes");
        1 + seeded_rng(self.seed, round, client, SALT_CUT).below(len - 1)
    }

    /// How long `client` stalls before uploading in `round`, if at all.
    pub fn stalls(&self, round: usize, client: usize) -> Option<std::time::Duration> {
        if self.stall > 0.0 && seeded_rng(self.seed, round, client, SALT_STALL).flip(self.stall) {
            Some(std::time::Duration::from_millis(self.stall_ms))
        } else {
            None
        }
    }

    /// Does `client` transmit its complete upload reply twice in `round`?
    pub fn duplicates_upload(&self, round: usize, client: usize) -> bool {
        self.duplicate > 0.0 && seeded_rng(self.seed, round, client, SALT_DUP).flip(self.duplicate)
    }

    /// Does edge `edge` die when assigned `round`? A killed edge stays
    /// dead for the rest of the run.
    pub fn kills_edge(&self, round: usize, edge: usize) -> bool {
        match self.kill_edge {
            Some((r, e)) => (round as u32) >= r && edge as u32 == e,
            None => false,
        }
    }
}

/// Does `client`, sampled in `round`, leave before the broadcast — the
/// plan's dropout coin, or a churn departure? The one answer every
/// runtime and the masking cohort share.
pub(crate) fn leaves_before_broadcast(cfg: &FlConfig, round: usize, client: usize) -> bool {
    cfg.faults.is_some_and(|p| p.drops_out(round, client))
        || cfg
            .churn
            .is_some_and(|p| p.departs_mid_round(round, client))
}

/// Filter `cohort` through `leaves_before_broadcast`, ledgering every
/// departure as a [`Dropout`](FaultKind::Dropout); returns the clients
/// that stay for the round, in cohort order. The one filter the
/// simulator, the flat root, every edge and the root's dead-edge ledger
/// share, so every runtime trains the identical effective cohort.
pub fn ledger_departures(
    cfg: &FlConfig,
    round: usize,
    cohort: &[usize],
    faults: &mut FaultRecord,
) -> Vec<usize> {
    let mut staying = Vec::with_capacity(cohort.len());
    for &c in cohort {
        if leaves_before_broadcast(cfg, round, c) {
            faults.push(c, FaultKind::Dropout);
        } else {
            staying.push(c);
        }
    }
    staying
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan {
            dropout: 0.3,
            reset: 0.4,
            stall: 0.3,
            stall_ms: 5,
            duplicate: 0.5,
            kill_edge: Some((2, 1)),
            seed: 42,
        }
    }

    #[test]
    fn records_stored_before_a_field_was_added_still_load() {
        // A ledger written before privacy existed has no `mask_recovered`.
        let stored = r#"{"sampled":4,"survivors":3,"dropouts":1,"deadline_dropped":0,"duplicates":0,"corrupted_uploads":0,"local_divergence":0,"byzantine":0,"quarantined":0,"screen_bypassed":0,"no_op":false,"events":[]}"#;
        let rec: FaultRecord = serde_json::from_str(stored).unwrap();
        assert_eq!(rec.mask_recovered, 0);
        assert_eq!((rec.sampled, rec.survivors, rec.dropouts), (4, 3, 1));
        // Only the marked field is optional.
        let err = serde_json::from_str::<FaultRecord>(&stored.replacen(r#""sampled":4,"#, "", 1))
            .unwrap_err();
        assert!(err.to_string().contains("sampled"), "{err}");

        // A plan written before the transport faults joined it (its
        // `straggler_ratio` has since been retired and is ignored).
        let plan: FaultPlan =
            serde_json::from_str(r#"{"dropout":0.25,"straggler_ratio":0.1,"seed":9}"#).unwrap();
        let want = FaultPlan {
            dropout: 0.25,
            reset: 0.0,
            stall: 0.0,
            stall_ms: 0,
            duplicate: 0.0,
            kill_edge: None,
            seed: 9,
        };
        assert_eq!(plan, want);
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = plan();
        let b = plan();
        for round in 0..5 {
            for client in 0..8 {
                assert_eq!(a.drops_out(round, client), b.drops_out(round, client));
                assert_eq!(
                    a.resets_upload(round, client),
                    b.resets_upload(round, client)
                );
                assert_eq!(a.stalls(round, client), b.stalls(round, client));
                assert_eq!(
                    a.duplicates_upload(round, client),
                    b.duplicates_upload(round, client)
                );
                assert_eq!(
                    a.torn_cut(round, client, 1000),
                    b.torn_cut(round, client, 1000)
                );
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
    fn rates_match_probabilities() {
        let inj = plan();
        let n = 4000;
        let resets = (0..n).filter(|&c| inj.resets_upload(0, c)).count();
        let dups = (0..n).filter(|&c| inj.duplicates_upload(0, c)).count();
        assert!((resets as f64 / n as f64 - 0.4).abs() < 0.03);
        assert!((dups as f64 / n as f64 - 0.5).abs() < 0.03);
    }

    #[test]
    fn torn_cut_is_a_strict_nonempty_prefix() {
        let inj = plan();
        for len in [2usize, 3, 10, 4096] {
            for c in 0..32 {
                let cut = inj.torn_cut(0, c, len);
                assert!(cut >= 1 && cut < len, "cut {cut} of {len}");
            }
        }
    }

    #[test]
    fn zero_probabilities_never_fault() {
        let inj = FaultPlan::default();
        for c in 0..32 {
            assert!(!inj.drops_out(0, c));
        }
    }

    #[test]
    fn default_plan_is_inert() {
        let inj = FaultPlan::default();
        for c in 0..32 {
            assert!(!inj.resets_upload(0, c));
            assert!(inj.stalls(0, c).is_none());
            assert!(!inj.duplicates_upload(0, c));
            assert!(!inj.kills_edge(0, c));
        }
    }

    #[test]
    fn scheduled_kill_fires_from_its_round_on() {
        let inj = plan();
        assert!(!inj.kills_edge(1, 1), "before the scheduled round");
        assert!(inj.kills_edge(2, 1), "at the scheduled round");
        assert!(inj.kills_edge(3, 1), "a killed edge stays dead");
        assert!(!inj.kills_edge(2, 0), "other edges live");
    }

    /// Every coin of one plan over rounds 0..4 × actors 0..16, packed: one
    /// bit per `(round, actor)` for each yes/no coin, and a running hash
    /// of the tear offsets. The literal pins the coins' bits, so the seeds,
    /// salts and streams behind them cannot move unnoticed.
    #[test]
    fn coins_are_pinned() {
        let plan = FaultPlan {
            dropout: 0.3,
            reset: 0.4,
            stall: 0.3,
            stall_ms: 5,
            duplicate: 0.5,
            kill_edge: Some((2, 5)),
            seed: 0xC0FFEE,
        };
        let mut bits = [0u64; 5];
        let mut cuts = 0u64;
        for round in 0..4 {
            for actor in 0..16 {
                let coins = [
                    plan.drops_out(round, actor),
                    plan.resets_upload(round, actor),
                    plan.stalls(round, actor).is_some(),
                    plan.duplicates_upload(round, actor),
                    plan.kills_edge(round, actor),
                ];
                for (b, coin) in bits.iter_mut().zip(coins) {
                    *b |= u64::from(coin) << (round * 16 + actor);
                }
                let cut = plan.torn_cut(round, actor, 1000) as u64;
                cuts = cuts.wrapping_mul(1_000_003).wrapping_add(cut);
            }
        }
        let pinned = [
            0x0094_2B00_C000_1D4A, // drops_out
            0x1839_2F89_681E_0004, // resets_upload
            0x5441_A020_0C09_0380, // stalls
            0x0599_8721_501E_AC36, // duplicates_upload
            0x0020_0020_0000_0000, // kills_edge: edge 5 from round 2 on
        ];
        assert_eq!(bits, pinned);
        assert_eq!(cuts, 0x35E7_DAC2_72FB_5DC4, "torn_cut offsets");
    }

    /// Plan dropouts and churn departures leave through the one filter:
    /// each is ledgered once, ascending, and the masking cohort is exactly
    /// the clients that stay.
    #[test]
    fn departures_are_decided_once_for_every_runtime() {
        let mut cfg = FlConfig::new(crate::Algorithm::FedAvg);
        cfg.n_clients = 64;
        cfg.faults = Some(FaultPlan::dropout_only(0.2));
        cfg.churn = Some(crate::ChurnPlan::cross_device());
        for round in 0..6 {
            let cohort = crate::sampled_cohort(&cfg, round);
            let mut faults = FaultRecord::for_sample(cohort.len());
            let staying = ledger_departures(&cfg, round, &cohort, &mut faults);
            assert_eq!(staying, crate::masking_cohort(&cfg, round), "round {round}");
            let left: Vec<usize> = faults.events.iter().map(|e| e.client_id).collect();
            let expected: Vec<usize> = cohort
                .iter()
                .copied()
                .filter(|&c| leaves_before_broadcast(&cfg, round, c))
                .collect();
            assert_eq!(left, expected, "round {round}");
            assert_eq!(faults.dropouts, left.len());
            assert_eq!(staying.len() + left.len(), cohort.len());
        }
        let (plan, churn) = (cfg.faults.unwrap(), cfg.churn.unwrap());
        let fired = |f: &dyn Fn(usize, usize) -> bool| {
            (0..6).any(|r| crate::sampled_cohort(&cfg, r).iter().any(|&c| f(r, c)))
        };
        assert!(fired(&|r, c| plan.drops_out(r, c)), "no plan dropout fired");
        assert!(
            fired(&|r, c| churn.departs_mid_round(r, c)),
            "no churn departure fired"
        );
    }

    #[test]
    fn record_counters_track_events() {
        let mut rec = FaultRecord::for_sample(4);
        rec.push(0, FaultKind::Dropout);
        rec.push(
            2,
            FaultKind::CorruptUpload {
                error: "crc".into(),
            },
        );
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
        assert_eq!(rec.corrupted_uploads, 1);
        assert_eq!(rec.deadline_dropped, 1);
        assert_eq!(rec.duplicates, 1);
        assert_eq!(rec.local_divergence, 1);
        assert_eq!(rec.byzantine, 1);
        assert_eq!(rec.quarantined, 1);
        assert_eq!(rec.total(), 7);
    }
}
