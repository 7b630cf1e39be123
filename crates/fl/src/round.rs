//! The round-orchestration core shared by the in-process simulator and
//! the networked coordinator.
//!
//! Both runtimes drive the same round skeleton: derive the round's cohort
//! ([`sampled_cohort`]), broadcast the sealed global state,
//! decode whatever uploads come back, screen and aggregate the surviving
//! cohort, then record the round. What differs is *transport* — the
//! simulator moves frames between structs (with injected faults), the
//! coordinator moves them over TCP (with real ones). [`RoundDriver`] owns
//! everything transport-independent so the two cannot drift apart: a
//! networked round that feeds the driver the same uploads in the same
//! order produces a bit-identical global model.
//!
//! Determinism contract: a round's cohort is a pure function of the
//! session config and the round index, so a resumed coordinator, an edge
//! and a masking client derive it without replaying earlier rounds; one
//! [`RoundDriver::sample_round`] call per round (no-op rounds included)
//! keeps the driver's position in step. Uploads may be folded into the
//! round's [`RoundAccumulator`] in **any arrival order** — the streaming
//! fold is order-independent by construction (exact integer
//! accumulation) and the spill path deterministically slots by client id
//! before the batch fold (DESIGN.md §12) — so a concurrent networked
//! collection and the simulator's ascending-id sweep produce
//! bit-identical global models.

use std::sync::Mutex;

use serde::{Deserialize, Serialize};
use spatl_wire::{LinkSpec, SelectionLayout, SimNet, WireError};

use crate::{
    sampled_cohort, wire, Encoded, FaultRecord, FlConfig, GlobalState, LocalOutcome,
    RoundAccumulator, RoundBytes, StreamState, Topology, WireBytes,
};

/// Metrics recorded after each communication round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Mean top-1 validation accuracy across all clients.
    pub mean_acc: f32,
    /// Per-client accuracy.
    pub per_client_acc: Vec<f32>,
    /// Analytic bytes moved this round, Eq. 13 (sum over participants).
    pub bytes: RoundBytes,
    /// Measured wire traffic this round (sum over participants); the
    /// payload components cross-check `bytes` exactly.
    pub wire: WireBytes,
    /// Simulated transfer wall-clock of the round (slowest participant's
    /// download + upload over [`RoundDriver::net`]).
    pub transfer_wall_s: f64,
    /// Sum of every participant's transfer seconds (device-time cost).
    pub transfer_device_s: f64,
    /// *Measured* wall-clock of the round's transfer + collection phase,
    /// in seconds. Zero for simulated rounds (nothing real was timed);
    /// the networked coordinator fills it from a monotonic clock, making
    /// it directly comparable to the Eq. 13-driven `transfer_wall_s`
    /// prediction.
    pub measured_wall_s: f64,
    /// Running total of bytes since round 0.
    pub cumulative_bytes: u64,
    /// Clients whose updates were rejected as non-finite.
    pub diverged_clients: usize,
    /// Mean fraction of the shared vector uploaded (1.0 for dense
    /// algorithms).
    pub mean_keep_ratio: f32,
    /// Mean FLOPs ratio of participants' (masked) models.
    pub mean_flops_ratio: f32,
    /// What happened to this round's cohort: the configured
    /// [`FaultPlan`]'s outcomes and every real fault the runtime saw
    /// (all-zero for a pristine round).
    ///
    /// [`FaultPlan`]: crate::FaultPlan
    pub faults: FaultRecord,
    /// Which aggregation front-end this round ran through
    /// (`"stream"`, `"masked"`, `"spill-screening"`, `"spill-robust"`,
    /// `"spill-range"`, or `"noop"` for an empty round) — the
    /// [`RoundAccumulator`] mode, the same at a flat and a tiered root,
    /// surfaced so experiment summaries can report how each round was
    /// actually folded.
    pub agg_mode: String,
}

/// What the transport layer measured while moving one round's frames —
/// the inputs [`RoundDriver::finish_round`] cannot compute itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportStats {
    /// Measured wire traffic, summed over participants.
    pub wire: WireBytes,
    /// Modelled round wall-clock (slowest participant) in seconds.
    pub transfer_wall_s: f64,
    /// Modelled per-participant transfer seconds, summed.
    pub transfer_device_s: f64,
    /// Real measured wall-clock of the transfer + collection phase, in
    /// seconds; zero when nothing real was timed (simulated rounds).
    pub measured_wall_s: f64,
}

impl TransportStats {
    /// Charge one participant (a client, or an edge's root link) to the
    /// round: fold its measured `wire` bytes in and add its Eq. 13
    /// transfer time over `net` to the device-time sum and the
    /// slowest-participant wall-clock.
    pub fn charge(&mut self, net: &SimNet, wire: &WireBytes) {
        self.wire.accumulate(wire);
        let t = net.client_time(wire.download_framed as usize, wire.upload_framed as usize);
        self.transfer_device_s += t;
        self.transfer_wall_s = self.transfer_wall_s.max(t);
    }
}

/// Transport-independent round engine: configuration, server state,
/// sampling position, aggregation pipeline and history.
///
/// The simulator ([`Simulation`](crate::Simulation)) embeds one and adds
/// in-process clients; the networked coordinator (`spatl-net`) embeds one
/// and adds sockets. Neither reimplements sampling, screening,
/// aggregation or round accounting.
pub struct RoundDriver {
    /// Run configuration.
    pub cfg: FlConfig,
    /// Server state.
    pub global: GlobalState,
    /// Per-round records so far (this process; resumed rounds excluded).
    pub history: Vec<RoundRecord>,
    /// Channel-id ↔ flat-index map of the session (SPATL with selection
    /// only); the server expands uploaded channel ids through this.
    pub layout: Option<SelectionLayout>,
    /// Transport model frames travel over, symmetric broadband (predicts
    /// Eq. 13 times; the networked runtime records measured times next to
    /// the prediction).
    pub net: SimNet,
    cumulative_bytes: u64,
    round_offset: usize,
    /// Aggregation front-end the most recent accumulator ran through,
    /// stamped onto the next recorded round.
    last_agg_mode: &'static str,
    /// The absolute round index of the *next* [`RoundDriver::sample_round`]
    /// call. Distinct from `round_offset + history.len()` because callers
    /// may sample rounds they never record (a hand-driven round loop).
    sampled_rounds: usize,
    /// The last finished stream accumulator, kept so the next round
    /// folds into its already-mapped lanes (DESIGN.md §12). Behind a
    /// mutex only because [`RoundDriver::begin_accumulation`] takes
    /// `&self`; nothing contends for it.
    spare_accumulator: Mutex<Option<Box<StreamState>>>,
}

impl RoundDriver {
    /// Build a driver around an initial server state.
    ///
    /// # Panics
    /// When [`FlConfig::check`] rejects `cfg` on the flat topology. That
    /// is library misuse, not a user error: every binary checks its
    /// flags before it builds anything.
    pub fn new(cfg: FlConfig, global: GlobalState, layout: Option<SelectionLayout>) -> Self {
        if let Err(e) = cfg.check(Topology::Flat) {
            panic!("RoundDriver::new on an unchecked configuration: {e}");
        }
        RoundDriver {
            net: SimNet::symmetric(LinkSpec::broadband()),
            cfg,
            global,
            history: Vec::new(),
            layout,
            cumulative_bytes: 0,
            round_offset: 0,
            last_agg_mode: "noop",
            sampled_rounds: 0,
            spare_accumulator: Mutex::new(None),
        }
    }

    /// Index of the round currently being (or about to be) run:
    /// rounds completed before a resume plus rounds recorded here.
    pub fn round_index(&self) -> usize {
        self.round_offset + self.history.len()
    }

    /// Total bytes moved since round 0 of this process.
    pub fn cumulative_bytes(&self) -> u64 {
        self.cumulative_bytes
    }

    /// The next round's cohort, [`sampled_cohort`] at the driver's
    /// position, which then advances by one. Call it once per round,
    /// no-op rounds included, so simulator and coordinator sample round r
    /// on their r-th call.
    pub fn sample_round(&mut self) -> Vec<usize> {
        let cohort = sampled_cohort(&self.cfg, self.sampled_rounds);
        self.sampled_rounds += 1;
        cohort
    }

    /// Resume support: skip `rounds` already-completed rounds (recovered
    /// from a coordinator's round log). The round index and the sampling
    /// position both move on by `rounds`; nothing is drawn, since round
    /// `rounds`'s cohort does not depend on the rounds before it.
    pub fn advance_sampling(&mut self, rounds: usize) {
        self.sampled_rounds += rounds;
        self.round_offset += rounds;
        self.history.clear();
    }

    /// Seal the current global state into broadcast frames.
    pub fn broadcast(&self) -> Encoded {
        wire::encode_download(&self.cfg, &self.global)
    }

    /// Decode one client's upload frames against this session's layout
    /// and parameter count. `meta` carries the client's self-reported
    /// bookkeeping (id, sample count, τ, ratios); every tensor in the
    /// result comes from `frames`.
    pub fn decode_client_upload(
        &self,
        meta: &LocalOutcome,
        frames: &[Vec<u8>],
    ) -> Result<LocalOutcome, WireError> {
        wire::decode_upload(
            &self.cfg,
            meta,
            frames,
            self.layout.as_ref(),
            self.global.shared.len(),
            self.global.buffers.len(),
        )
    }

    /// Open this round's aggregation front-end (DESIGN.md §12): an
    /// accumulator that absorbs decoded uploads in **any arrival order**
    /// — streaming them into fixed-size exact state when the
    /// configuration allows (`WeightedMean`, no screen), buffering and
    /// deterministically slotting by client id otherwise. Close it with
    /// [`RoundDriver::finish_accumulation`], which runs the session's
    /// screen policy. A flat root, a tiered root and the simulator all
    /// fold through it.
    pub fn begin_accumulation(&self) -> RoundAccumulator {
        // A poisoned slot only means no reuse this round.
        let spare = self
            .spare_accumulator
            .lock()
            .ok()
            .and_then(|mut slot| slot.take());
        RoundAccumulator::new(
            &self.cfg,
            &self.global,
            self.cfg.n_clients,
            self.round_index(),
            spare,
        )
    }

    /// Close a round's accumulator: screen the spill (if any), fold into
    /// the global state, and fill the ledger's `survivors`/`no_op`
    /// fields. Returns whether anything was applied.
    ///
    /// Masked rounds with dropouts run their unmask recovery here when
    /// the transport has not already done so: the driver synthesizes the
    /// shares every survivor *would* answer with (it derives them from
    /// the same session seed — in-process there is no socket to ask
    /// over). Shares the networked coordinator already collected and
    /// applied are deduplicated, so applying twice is harmless.
    pub fn finish_accumulation(
        &mut self,
        mut acc: RoundAccumulator,
        faults: &mut FaultRecord,
    ) -> bool {
        let shares = acc.local_unmask_shares();
        if !shares.is_empty() {
            acc.apply_unmask_shares(&shares);
        }
        self.last_agg_mode = acc.mode_name();
        let (survivors, applied, spare) =
            acc.finish(&self.cfg, &mut self.global, self.cfg.n_clients, faults);
        if let Ok(slot) = self.spare_accumulator.get_mut() {
            *slot = spare;
        }
        faults.survivors = survivors;
        faults.no_op = !applied;
        applied
    }

    /// Screening + aggregation stage (DESIGN.md §8/§9) for callers that
    /// already hold the whole cohort (the in-process simulator): feeds
    /// every upload through the same [`RoundAccumulator`] the concurrent
    /// coordinator streams into — one fold, two transports. Arrival
    /// order does not matter; the accumulator is order-independent by
    /// construction. Returns whether anything was applied; the ledger's
    /// `survivors`/`no_op` fields are filled either way.
    pub fn screen_and_aggregate(
        &mut self,
        survivors: Vec<LocalOutcome>,
        faults: &mut FaultRecord,
    ) -> bool {
        let mut acc = self.begin_accumulation();
        for o in survivors {
            acc.fold(o);
        }
        self.finish_accumulation(acc, faults)
    }

    /// Close the round: fold the participants' byte accounting, attach
    /// the transport measurements and the post-aggregation evaluation,
    /// push the record onto the history and return it.
    pub fn finish_round(
        &mut self,
        outcomes: &[LocalOutcome],
        stats: TransportStats,
        per_client_acc: Vec<f32>,
        faults: FaultRecord,
    ) -> RoundRecord {
        let round = self.round_index();
        let bytes = outcomes
            .iter()
            .fold(RoundBytes::default(), |acc, o| RoundBytes {
                download: acc.download + o.bytes.download,
                upload: acc.upload + o.bytes.upload,
            });
        self.cumulative_bytes += bytes.total();
        let diverged = outcomes.iter().filter(|o| o.diverged).count();
        let mean_keep =
            outcomes.iter().map(|o| o.keep_ratio).sum::<f32>() / outcomes.len().max(1) as f32;
        let mean_flops =
            outcomes.iter().map(|o| o.flops_ratio).sum::<f32>() / outcomes.len().max(1) as f32;
        let mean_acc = per_client_acc.iter().sum::<f32>() / per_client_acc.len().max(1) as f32;
        let record = RoundRecord {
            round,
            mean_acc,
            per_client_acc,
            bytes,
            wire: stats.wire,
            transfer_wall_s: stats.transfer_wall_s,
            transfer_device_s: stats.transfer_device_s,
            measured_wall_s: stats.measured_wall_s,
            cumulative_bytes: self.cumulative_bytes,
            diverged_clients: diverged,
            mean_keep_ratio: mean_keep,
            mean_flops_ratio: mean_flops,
            faults,
            agg_mode: self.last_agg_mode.to_string(),
        };
        self.history.push(record.clone());
        record
    }

    /// Record a round in which no client participated (every sampled
    /// client dropped out): nothing moved on the wire, the global model
    /// is untouched, and the fault ledger says why the round was empty.
    pub fn noop_round(&mut self, per_client_acc: Vec<f32>, faults: FaultRecord) -> RoundRecord {
        self.last_agg_mode = "noop";
        self.finish_round(&[], TransportStats::default(), per_client_acc, faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggregatorKind, Algorithm};

    #[test]
    fn charge_takes_max_wall_clock_and_sums_device_time_and_traffic() {
        let net = SimNet::symmetric(LinkSpec {
            bandwidth_bps: 8e6, // 1 MB/s
            latency_s: 0.0,
            loss: 0.0,
        });
        let bytes = |down: u64, up: u64| WireBytes {
            download_payload: down,
            download_framed: down,
            upload_payload: up,
            upload_framed: up,
        };
        let mut stats = TransportStats::default();
        // Client 1: 1 + 1 = 2 s; client 2: 2 + 0.5 = 2.5 s.
        stats.charge(&net, &bytes(1_000_000, 1_000_000));
        assert!((stats.transfer_wall_s - 2.0).abs() < 1e-9);
        stats.charge(&net, &bytes(2_000_000, 500_000));
        assert!((stats.transfer_wall_s - 2.5).abs() < 1e-9);
        assert!((stats.transfer_device_s - 4.5).abs() < 1e-9);
        assert_eq!(stats.wire.download_framed, 3_000_000);
        assert_eq!(stats.wire.upload_framed, 1_500_000);
        assert_eq!(stats.measured_wall_s, 0.0);
    }

    #[test]
    fn every_driver_predicts_over_symmetric_broadband() {
        // No configuration picks the link: all five algorithms, with or
        // without a robust aggregator, charge the same transport.
        for alg in Algorithm::roster() {
            for aggregator in [
                AggregatorKind::WeightedMean,
                AggregatorKind::CoordinateMedian,
            ] {
                let mut cfg = FlConfig::new(alg);
                cfg.aggregator = aggregator;
                let global = GlobalState {
                    shared: vec![0.0; 4],
                    control: Vec::new(),
                    momentum: Vec::new(),
                    buffers: Vec::new(),
                };
                let driver = RoundDriver::new(cfg, global, None);
                assert_eq!(driver.net, SimNet::symmetric(LinkSpec::broadband()));
            }
        }
    }
}
