//! Transport chaos injection for the networked runtime.
//!
//! [`FaultPlan`](crate::FaultPlan) injures *payloads* (dropouts,
//! stragglers, flipped bits inside sealed frames); a [`ChaosPlan`]
//! injures the *transport* underneath them: connections reset mid-frame
//! (so the coordinator's incremental `FrameReader::poll` sees torn
//! frames), sockets stall before replying, upload replies are sent twice
//! (forcing the coordinator's gather path to deduplicate per round and
//! client), and a whole edge aggregator process dies mid-round.
//!
//! Like every fault family in this codebase, chaos is deterministic by
//! construction: each decision is a pure function of `(plan seed, round,
//! actor, salt)` through its own splitmix-derived ChaCha stream, so the
//! same seed replays the same torn frames, the same stalls, the same
//! duplicates and the same edge kill — and two runs under the same plan
//! finish with bit-identical global models and identical fault ledgers.
//!
//! Chaos is *applied* on the sending side (client nodes tear, stall and
//! duplicate their own uploads; an edge kills itself) and *observed* on
//! the receiving side (the coordinator sees disconnects, duplicate
//! replies and a dead partition). The in-process simulator has no
//! transport, so it ignores a configured plan entirely — the taxonomy in
//! DESIGN.md §14 spells out which layer may observe what.

use serde::{Deserialize, Serialize};

use crate::faults::seeded_rng;

const SALT_RESET: u64 = 0xE5;
const SALT_CUT: u64 = 0xC7;
const SALT_STALL: u64 = 0x5A;
const SALT_DUP: u64 = 0xD2;

/// A seeded description of the transport chaos a networked run injects.
/// Part of [`FlConfig`](crate::FlConfig); `None` there means a pristine
/// transport. Because the plan lives in the session configuration it is
/// mixed into the control-plane fingerprint: every endpoint of a chaotic
/// session agrees on the schedule, and a client started without the plan
/// is rejected at the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Probability that a client's *first* transmission of its round
    /// upload is torn: a strict prefix of one sealed frame is written and
    /// the connection is reset. The node then reconnects and retries, so
    /// a torn upload is a delay, not a loss — unless the retry misses the
    /// round deadline. In `[0, 1]`.
    pub reset: f64,
    /// Probability that a client stalls (sleeps) before sending its
    /// upload, emulating a slow socket. In `[0, 1]`.
    pub stall: f64,
    /// How long a stalled client sleeps, in milliseconds.
    pub stall_ms: u64,
    /// Probability that a client transmits its complete upload reply
    /// twice back-to-back on the same connection. The coordinator must
    /// fold the first copy and ledger the second as
    /// [`FaultKind::DuplicateUpload`](crate::FaultKind::DuplicateUpload).
    /// In `[0, 1]`.
    pub duplicate: f64,
    /// Scheduled edge-process kill: `(round, edge_id)`. When the round
    /// arrives, that edge drops every connection without a goodbye — its
    /// clients observe a vanished coordinator and the root observes a
    /// dead partition. `None` kills nothing.
    pub kill_edge: Option<(u32, u32)>,
    /// Seed of the chaos RNG streams, independent of the training seed
    /// and of the [`FaultPlan`](crate::FaultPlan) seed.
    pub seed: u64,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan {
            reset: 0.0,
            stall: 0.0,
            stall_ms: 50,
            duplicate: 0.0,
            kill_edge: None,
            seed: 0xCA05,
        }
    }
}

/// Every transport-chaos decision of a run, drawn from per-decision RNG
/// streams the same way [`FaultPlan`](crate::FaultPlan) draws payload
/// faults: stateless apart from the plan, so decisions are independent
/// of evaluation order and a given `(plan, round, actor)` always
/// misbehaves the same way.
impl ChaosPlan {
    /// Is `client`'s first upload transmission of `round` torn mid-frame
    /// (prefix written, connection reset)? Only the first attempt is ever
    /// torn: the retry after reconnecting goes through clean, so chaos
    /// delays rounds without deadlocking them.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> ChaosPlan {
        ChaosPlan {
            reset: 0.4,
            stall: 0.3,
            stall_ms: 5,
            duplicate: 0.5,
            kill_edge: Some((2, 1)),
            seed: 99,
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = plan();
        let b = plan();
        for round in 0..5 {
            for client in 0..8 {
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
    fn default_plan_is_inert() {
        let inj = ChaosPlan::default();
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
}
