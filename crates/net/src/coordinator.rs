//! The server side of the networked runtime: a TCP listener around the
//! shared [`RoundDriver`] round engine.
//!
//! One round body serves both topologies (DESIGN.md §10, §11). A phase
//! addresses the downstream peers — the clients when flat, the edges
//! when tiered — and its sink unpacks each reply into client replies: a
//! client's is its own, an edge's are its `EdgeCombined` entries, each
//! turned back into the `RoundDone` and frames its client sent. From
//! there every client upload takes one path, into one fold. A failed
//! peer is ledgered for the clients it stands for: a client for itself,
//! an edge for its sampled slice, whose clients with a direct connection
//! train over the root link in a failover lane.
//!
//! Thread model (DESIGN.md §10): one thread does all socket work.
//! Handshakes and broadcasts are blocking writes under the io deadline;
//! every reply phase — a train lane, every evaluation pass — is one
//! non-blocking `gather` over its peers under one phase deadline
//! (`round_timeout` from the phase's broadcast), so a round never hangs
//! on one peer. Every assignment — a `RoundAssign` and the broadcast
//! frames — is sealed once per phase and leaves in one write per peer.
//! Client uploads are decoded by the sweep thread itself, plus optional
//! helper threads ([`CoordinatorConfig::decode_workers`]), and stream
//! straight into the round's order-independent
//! [`RoundAccumulator`], so the coordinator never holds the cohort in
//! memory: the gather's admission window bounds buffered replies at
//! O(helpers), independent of cohort size.
//! Completion order is non-deterministic, but everything order-sensitive
//! (fault ledger events, outcome bookkeeping, transfer-time folds) is
//! re-sorted by id before it is recorded, and the accumulator's
//! fold is order-independent by construction — so records and global
//! state stay bit-identical to the simulator's ascending-id sweep.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spatl::{CheckpointError, RoundLog};
use spatl_fl::{
    decode_upload, edge_partition, fold_fault_counters, ledger_departures, sampled_cohort, Encoded,
    FaultKind, FaultRecord, GlobalState, LocalOutcome, RoundAccumulator, RoundDriver, RoundRecord,
    Topology, TransportStats, WireBytes,
};
use spatl_wire::{
    decode_unmask_shares, encode_unmask_request, open, read_frame, seal, write_frame, MsgType,
    MAX_FRAME_PAYLOAD,
};

use crate::gather::{
    gather, ledger, meta_outcome, shutdown_requested, sync_sink, unpack, window, CollectFailure,
    Phase, Reply,
};
use crate::peers::PeerTable;
use crate::proto::{session_fingerprint, HelloRole, RoundDone, RoundMode};
use crate::NetError;

/// Tunables of a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Address to listen on; port 0 picks a free port (see
    /// [`Coordinator::local_addr`]).
    pub addr: String,
    /// How long [`Coordinator::wait_for_clients`] waits for the full
    /// cohort to register before starting with whoever showed up.
    pub join_timeout: Duration,
    /// Deadline of each reply phase — a round's upload collection, the
    /// failover lane, every evaluation pass — counted from the phase's
    /// broadcast and shared by all its peers: k silent peers cost one
    /// `round_timeout`, not k. It covers the clients' local training, so
    /// it is the networked analogue of the fault model's collection
    /// deadline: a peer that has not replied by then is ledgered as
    /// [`FaultKind::DeadlineMissed`] and excluded from the round.
    pub round_timeout: Duration,
    /// Per-connection write deadline (broadcasts) and handshake read
    /// deadline.
    pub io_timeout: Duration,
    /// What the listener terminates: client nodes or edge aggregators.
    pub topology: Topology,
    /// Durable write-ahead round log ([`RoundLog`]), the one way a
    /// coordinator persists and resumes. When the file already exists
    /// [`Coordinator::bind`] recovers it — restoring the last durable
    /// global state and sampling position, and resuming *mid-round* if a
    /// `begin` was never committed; otherwise a fresh log is created.
    /// `None` keeps the session in memory only.
    pub wal: Option<PathBuf>,
    /// Quorum fraction of a flat round's commit, in `(0, 1]`; a tiered
    /// root awaits every edge and refuses anything below 1. Once at
    /// least `ceil(quorum · participants)` uploads of a round have
    /// folded, collection ends immediately and the shortfall is ledgered
    /// as [`FaultKind::Dropout`] — a handful of stragglers can no longer
    /// hold the round open until `round_timeout`. The default `1.0`
    /// keeps the historical behaviour (and bit-level determinism): every
    /// participant is awaited until it completes, fails, or the deadline
    /// falls. With `quorum < 1.0` the folded subset depends on arrival
    /// order, so two runs may commit different (valid) cohorts.
    pub quorum: f64,
    /// Threads that decode a train phase's uploads, *counting the sweep
    /// thread*: `Some(n)` is the sweep plus `n − 1` helper threads, which
    /// the sweep offers each upload to and decodes it itself when none
    /// is free. `Some(1)` spawns nothing and decodes every upload inline
    /// the moment it completes — the cheapest on one core, where a
    /// hand-off costs two context switches per upload. `None` (the
    /// default) uses `rayon::current_num_threads` in total. Clamped to
    /// at least one. The fold is order-independent, so the count never
    /// changes the bits.
    pub decode_workers: Option<usize>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            join_timeout: Duration::from_secs(30),
            round_timeout: Duration::from_secs(300),
            io_timeout: Duration::from_secs(30),
            topology: Topology::Flat,
            wal: None,
            quorum: 1.0,
            decode_workers: None,
        }
    }
}

/// The networked federated server: the shared [`RoundDriver`] engine plus
/// one registered TCP connection per downstream peer.
pub struct Coordinator {
    /// The transport-independent round engine (identical to the one the
    /// simulator embeds). Public so callers can inspect the global state
    /// and history.
    pub driver: RoundDriver,
    opts: CoordinatorConfig,
    /// Downstream connections: the clients when flat; when tiered the
    /// edges plus — the failover lane of DESIGN.md §8 — clients of a
    /// dead edge that re-registered directly at the root.
    peers: PeerTable,
    shutdown_requested: bool,
    wal: Option<RoundLog>,
    resumed_mid_round: Option<usize>,
}

impl Coordinator {
    /// Bind the listener and wrap the driver. No clients are accepted
    /// until [`Coordinator::wait_for_clients`] (or a round) runs.
    ///
    /// When `opts.wal` names an existing file, the round log is recovered
    /// first: the driver's global state and round index are advanced to
    /// the last durable round boundary, and an uncommitted `begin` makes
    /// the next [`Coordinator::run_round`] replay exactly the interrupted
    /// round (see [`Coordinator::resumed_mid_round`]). A `begin` whose
    /// cohort is not the one this session derives for its round is
    /// refused, like a foreign fingerprint.
    pub fn bind(mut driver: RoundDriver, opts: CoordinatorConfig) -> Result<Self, NetError> {
        if !(opts.quorum > 0.0 && opts.quorum <= 1.0) {
            return Err(NetError::Protocol(format!(
                "quorum fraction must be in (0, 1], got {}",
                opts.quorum
            )));
        }
        if opts.quorum < 1.0 && opts.topology != Topology::Flat {
            return Err(NetError::Protocol(format!(
                "a tiered root awaits every edge: quorum must be 1, got {}",
                opts.quorum
            )));
        }
        driver.cfg.check(opts.topology.clone())?;
        let n = driver.cfg.n_clients;
        let fingerprint = session_fingerprint(&driver.cfg);
        let homes = match opts.topology {
            Topology::Flat => Vec::new(),
            Topology::Tiered { edges } => edge_partition(n, edges),
        };
        let peers = PeerTable::bind(
            &opts.addr,
            homes,
            0..n,
            fingerprint,
            (opts.io_timeout, opts.round_timeout),
        )?;

        let mut wal = None;
        let mut resumed_mid_round = None;
        if let Some(path) = &opts.wal {
            if path.exists() {
                let (recovery, log) = RoundLog::recover(path)?;
                if recovery.fingerprint != fingerprint {
                    return Err(NetError::Protocol(format!(
                        "round log {} belongs to another session \
                         (fingerprint {:#x}, ours {:#x})",
                        path.display(),
                        recovery.fingerprint,
                        fingerprint
                    )));
                }
                match recovery.pending {
                    Some(pending) => {
                        // Killed mid-round: restore the state the cohort
                        // trained against and move to the interrupted
                        // round, whose cohort the next sample_round()
                        // derives again — provided the log agrees.
                        let derived = sampled_cohort(&driver.cfg, pending.round as usize);
                        if derived != pending.sampled {
                            return Err(NetError::Protocol(format!(
                                "round log {} sampled {:?} in round {}, this session \
                                 derives {:?}",
                                path.display(),
                                pending.sampled,
                                pending.round,
                                derived
                            )));
                        }
                        driver.global = pending.global;
                        driver.advance_sampling(pending.round as usize);
                        resumed_mid_round = Some(pending.round as usize);
                    }
                    None => {
                        if let Some(global) = recovery.global {
                            driver.global = global;
                        }
                        driver.advance_sampling(recovery.completed as usize);
                    }
                }
                wal = Some(log);
            } else {
                wal = Some(RoundLog::create(path, fingerprint)?);
            }
        }

        Ok(Coordinator {
            driver,
            peers,
            shutdown_requested: false,
            wal,
            resumed_mid_round,
            opts,
        })
    }

    /// The round a write-ahead-log recovery is replaying, if this
    /// coordinator resumed from an uncommitted `begin`.
    pub fn resumed_mid_round(&self) -> Option<usize> {
        self.resumed_mid_round
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        self.peers.local_addr()
    }

    /// The peers a round is run over: clients when flat, edges when
    /// tiered.
    fn downstream(&self) -> HelloRole {
        match self.opts.topology {
            Topology::Flat => HelloRole::Client,
            Topology::Tiered { .. } => HelloRole::Edge,
        }
    }

    /// Number of currently registered downstream connections (clients
    /// when flat, edges when tiered).
    pub fn connected(&self) -> usize {
        self.peers.live(self.downstream()).len()
    }

    /// Whether a client asked the session to stop ([`MsgType::Shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested
    }

    /// Accept and register every connection currently pending on the
    /// listener. Handshake failures (bad `Hello`, fingerprint mismatch)
    /// reject that socket and keep listening.
    pub fn accept_pending(&mut self) {
        self.peers.accept_pending(self.driver.round_index() as u32);
    }

    /// Block until every client (every edge, when tiered) has a
    /// registered connection or `join_timeout` elapses; returns how many
    /// are registered. Missing clients are not fatal — when sampled they
    /// are ledgered as dropouts.
    pub fn wait_for_clients(&mut self) -> usize {
        let round = self.driver.round_index() as u32;
        self.peers
            .wait_for(self.downstream(), self.opts.join_timeout, round)
    }

    /// Durably record a round boundary; a failing log disables itself
    /// (loudly) rather than taking the session down.
    fn wal_append(
        &mut self,
        append: impl FnOnce(&mut RoundLog, &GlobalState) -> Result<(), CheckpointError>,
    ) {
        let Some(log) = self.wal.as_mut() else { return };
        if let Err(e) = append(log, &self.driver.global) {
            eprintln!("round log append failed ({e}); durable resume disabled");
            self.wal = None;
        }
    }

    /// Run one communication round over the network; returns its record.
    ///
    /// Mirrors the simulator's round skeleton exactly — the round's cohort,
    /// broadcast, collect, screen + aggregate, evaluate, record — with
    /// real transport faults taking the place of injected ones: a
    /// connection that dies mid-round is a ledgered
    /// [`FaultKind::Dropout`], one that misses the deadline a
    /// [`FaultKind::DeadlineMissed`], and a reply that fails the decode
    /// path a [`FaultKind::CorruptUpload`]. The round always completes.
    ///
    /// With a round log configured, the round is bracketed by a durable
    /// `begin` (before any assignment leaves) and `commit` (after the
    /// record is final) — the crash window in between is exactly what
    /// [`Coordinator::bind`] replays.
    pub fn run_round(&mut self) -> RoundRecord {
        self.accept_pending();
        let round = self.driver.round_index();
        let sampled = self.driver.sample_round();
        self.wal_append(|log, global| log.begin(round, &sampled, global));
        self.resumed_mid_round = None;
        let record = self.train_round(round, &sampled);
        self.wal_append(|log, global| log.commit(round, global));
        record
    }

    /// The one round body, flat or tiered (DESIGN.md §10, §11). Its first
    /// lane addresses the downstream peers: the cohort's clients when
    /// flat, less the departures the root ledgers itself; every edge when
    /// tiered — even one whose slice is empty, which derives the cohort
    /// itself and answers with an empty combined upload — each ledgering
    /// its own slice. Every client reply, direct or relayed, folds into
    /// one accumulator, so the screen, the aggregator and the range bound
    /// run once, here, over the whole cohort. A tiered record's `wire`
    /// figures measure the root link; the per-client Eq. 13 bytes travel
    /// in the relayed replies, so they stay client-based.
    fn train_round(&mut self, round: usize, sampled: &[usize]) -> RoundRecord {
        let role = self.downstream();
        let mut faults = FaultRecord::default();
        let peers = match role {
            HelloRole::Client => {
                faults.sampled = sampled.len();
                ledger_departures(&self.driver.cfg, round, sampled, &mut faults)
            }
            HelloRole::Edge => (0..self.peers.homes().len()).collect(),
        };
        let mut lanes = Lanes {
            round,
            sampled,
            down: self.driver.broadcast(),
            faults,
            stats: TransportStats::default(),
            metas: Vec::new(),
            folded: Vec::new(),
        };
        let started = Instant::now();
        let (mut lane, mut failover) = self.begin_lane(role, &peers, &mut lanes);
        if lane.ids.is_empty() {
            lanes.faults.no_op = true;
            let per_client_acc = self.evaluate_round(round as u32);
            return self.driver.noop_round(per_client_acc, lanes.faults);
        }

        // The clients of a failed edge that hold a direct connection train
        // over the root link in a failover lane, through the same sink
        // (DESIGN.md §8). A client lane fails over nobody.
        let mut acc = self.driver.begin_accumulation();
        loop {
            failover.extend(self.collect_uploads(lane, &mut lanes, &mut acc));
            if failover.is_empty() {
                break;
            }
            failover.sort_unstable();
            (lane, failover) = self.begin_lane(HelloRole::Client, &failover, &mut lanes);
        }
        self.repair_masks(round, &mut acc, lanes.folded);

        lanes.stats.measured_wall_s = started.elapsed().as_secs_f64();
        // Close the accumulator — the same screen/aggregate stage the
        // simulator runs, minus any cohort buffering for the streaming
        // configurations.
        self.driver.finish_accumulation(acc, &mut lanes.faults);
        lanes.metas.sort_by_key(|o| o.client_id);
        let per_client_acc = self.evaluate_round(round as u32);
        self.driver
            .finish_round(&lanes.metas, lanes.stats, per_client_acc, lanes.faults)
    }

    /// Send a train lane's assignment to the `role` peers `ids`, and
    /// ledger the peers it cannot reach as dropouts for the clients they
    /// stand for. Returns the lane and the clients that fail over.
    fn begin_lane(
        &mut self,
        role: HelloRole,
        ids: &[usize],
        lanes: &mut Lanes,
    ) -> (Phase<'static>, Vec<usize>) {
        let (lane, unreached) = Phase::begin(
            &mut self.peers,
            role,
            ids,
            lanes.round as u32,
            RoundMode::Train,
            &lanes.down.frames,
        );
        let unreached = unreached
            .into_iter()
            .map(|id| (id, CollectFailure::Disconnect));
        let failover = self.ledger_lost(role, unreached.collect(), Vec::new(), lanes);
        (lane, failover)
    }

    /// Gather one train lane. The sink unpacks each reply into client
    /// replies — a client's own, or an edge's combined upload's entries —
    /// and decodes every client's upload on the decode pool: the sweep
    /// offers it to the `decode_workers − 1` helper threads and decodes
    /// it itself when none can take it (with no helpers, in the sink, no
    /// thread hand-off at all). Each decoded upload folds into `acc` the
    /// moment it settles, so the cohort is never resident: at most
    /// `4·helpers + 16` replies are buffered outside the kernel at once.
    /// Returns the clients of this lane's failed edges that fail over.
    fn collect_uploads(
        &mut self,
        lane: Phase,
        lanes: &mut Lanes,
        acc: &mut RoundAccumulator,
    ) -> Vec<usize> {
        let helpers = self
            .opts
            .decode_workers
            .unwrap_or_else(rayon::current_num_threads)
            .saturating_sub(1);
        // A client's reply settles when its upload folds; an edge's once
        // its entries are handed over, and the edge ledgered their
        // self-reported divergence in the counters it forwarded.
        let direct = lane.role == HelloRole::Client;
        let plan = self.driver.cfg.faults;
        let lane = Phase {
            quorum: (self.opts.quorum * lane.ids.len() as f64).ceil() as usize,
            window: window(helpers),
            // Only clients enact the plan's reply faults.
            faults: plan.as_ref().filter(|_| direct),
            ..lane
        };
        let (role, sampled) = (lane.role, lanes.sampled);
        let (down_payload, down_framed) = (lanes.down.payload, lanes.down.framed());
        // What a reply's link carried, by its header: a client's upload,
        // or an edge's combined frame on the root link.
        let link = |done: &RoundDone| WireBytes {
            download_payload: down_payload,
            download_framed: down_framed,
            upload_payload: done.upload_payload,
            upload_framed: done.upload_framed,
        };
        let homes = self.peers.homes().to_vec();
        let stands_for = |e: usize, c| homes[e].contains(&c) && sampled.binary_search(&c).is_ok();
        let mut events: Vec<(usize, FaultKind)> = Vec::new();
        let mut lost: Vec<(usize, CollectFailure)> = Vec::new();
        let mut edge_links: Vec<(usize, WireBytes)> = Vec::new();
        let first = lanes.metas.len();
        // Field-level borrow split: the gather mutates `peers` while the
        // decoders share the driver's read-only session data.
        let (cfg, layout) = (self.driver.cfg, self.driver.layout.as_ref());
        let p = self.driver.global.shared.len();
        let buf_len = self.driver.global.buffers.len();
        let decode = move |(meta, frames): (LocalOutcome, Vec<Vec<u8>>)| {
            let decoded = decode_upload(&cfg, &meta, &frames, layout, p, buf_len);
            (meta, decoded.map_err(|e| e.to_string()))
        };
        let peers = &mut self.peers;
        let (faults, metas, folded) = (&mut lanes.faults, &mut lanes.metas, &mut lanes.folded);

        let failures = std::thread::scope(|scope| {
            // One queue slot per helper. A job the queue cannot take —
            // full, or no helper at all — is decoded by the sweep itself,
            // which therefore never blocks on the queue.
            let (job_tx, job_rx) = mpsc::sync_channel(helpers);
            let job_rx = Arc::new(Mutex::new(job_rx));
            let (done_tx, done_rx) = mpsc::channel();
            for _ in 0..helpers {
                let (job_rx, done_tx) = (Arc::clone(&job_rx), done_tx.clone());
                scope.spawn(move || loop {
                    // The lock guards `recv` alone, which cannot panic.
                    let job = job_rx.lock().expect("decode queue lock poisoned").recv();
                    let Ok(job) = job else { break };
                    if done_tx.send(decode(job)).is_err() {
                        break;
                    }
                });
            }
            // Fold a decoded upload or ledger it corrupt.
            let mut settle = |(meta, decoded): (LocalOutcome, Result<_, String>)| {
                if direct && meta.diverged {
                    events.push((meta.client_id, FaultKind::LocalDivergence));
                }
                match decoded {
                    Ok(update) => {
                        folded.push(meta.client_id);
                        acc.fold(update);
                    }
                    Err(error) => events.push((meta.client_id, FaultKind::CorruptUpload { error })),
                }
                metas.push(meta);
            };
            let failures = gather(peers, &lane, |reply: Option<Reply>| {
                let mut settled = 0;
                if let Some(reply) = reply {
                    let (id, wire) = (reply.id, link(&reply.done));
                    match unpack(reply, role, stands_for) {
                        Ok((counters, replies)) => {
                            fold_fault_counters(faults, &counters);
                            if !direct {
                                edge_links.push((id, wire));
                            }
                            for (done, frames) in replies {
                                let mut meta = meta_outcome(&done);
                                meta.wire = link(&done);
                                if let Err(
                                    TrySendError::Full(job) | TrySendError::Disconnected(job),
                                ) = job_tx.try_send((meta, frames))
                                {
                                    done_tx
                                        .send(decode(job))
                                        .expect("the sweep holds the receiver");
                                }
                            }
                        }
                        Err(error) => lost.push((id, CollectFailure::Corrupt(error))),
                    }
                    settled += usize::from(!direct);
                }
                while let Ok(decoded) = done_rx.try_recv() {
                    settle(decoded);
                    settled += usize::from(direct);
                }
                settled
            });
            // Close the queue and fold what the helpers still hold: an
            // edge's reply settled before its entries were decoded.
            drop((job_tx, done_tx));
            done_rx.into_iter().for_each(settle);
            failures
        });
        // Charge each link, ascending by peer: an edge's combined frame
        // on the root link, or a client's own upload.
        edge_links.sort_by_key(|(id, _)| *id);
        let lane_metas = &mut lanes.metas[first..];
        lane_metas.sort_by_key(|o| o.client_id);
        let uploads = lane_metas.iter().filter(|_| direct).map(|o| o.wire);
        for wire in edge_links.into_iter().map(|(_, wire)| wire).chain(uploads) {
            lanes.stats.charge(&self.driver.net, &wire);
        }
        lost.extend(failures);
        lost.sort_by_key(|(id, _)| *id);
        self.ledger_lost(role, lost, events, lanes)
    }

    /// Ledger the failed peers of a `role` lane for the clients they stand
    /// for, merged with the lane's own client `events` ascending by client
    /// id. A client stands for itself. An edge stands for its slice of the
    /// sampled cohort: churn departures are ledgered as such, and every
    /// other client takes the edge's failure — unless it holds a direct
    /// connection, and fails over to the root link instead. The root
    /// degrades gracefully instead of stalling on a dead partition.
    /// Returns the clients that fail over.
    fn ledger_lost(
        &mut self,
        role: HelloRole,
        lost: Vec<(usize, CollectFailure)>,
        mut events: Vec<(usize, FaultKind)>,
        lanes: &mut Lanes,
    ) -> Vec<usize> {
        self.shutdown_requested |= shutdown_requested(&lost);
        let mut failover = Vec::new();
        for (id, failure) in lost {
            let kind = FaultKind::from(failure);
            if role == HelloRole::Client {
                events.push((id, kind));
                continue;
            }
            self.peers.drop_peer(HelloRole::Edge, id);
            let home = &self.peers.homes()[id];
            let slice: Vec<usize> = (lanes.sampled.iter().copied())
                .filter(|c| home.contains(c))
                .collect();
            lanes.faults.sampled += slice.len();
            for c in ledger_departures(&self.driver.cfg, lanes.round, &slice, &mut lanes.faults) {
                if self.peers.stream(HelloRole::Client, c).is_some() {
                    failover.push(c);
                } else {
                    events.push((c, kind.clone()));
                }
            }
        }
        ledger(&mut lanes.faults, events, Vec::new());
        failover
    }

    /// Masked dropout repair (DESIGN.md §14): cohort members derived
    /// pairwise masks but never delivered — ask each folded survivor over
    /// the wire for the orphaned pair seeds before the round closes. A
    /// survivor that dies mid-query, or has no direct connection, is
    /// skipped: `finish_accumulation` fills any remaining gap from the
    /// session seed, and shares are deduplicated, so the wire answers and
    /// the local fallback compose instead of conflicting. A different
    /// reply type from a handful of peers: a short blocking loop.
    fn repair_masks(&mut self, round: usize, acc: &mut RoundAccumulator, mut folded: Vec<usize>) {
        let missing = acc.missing_maskers();
        if missing.is_empty() {
            return;
        }
        folded.sort_unstable();
        let request = seal(
            MsgType::UnmaskRequest,
            &encode_unmask_request(round as u64, &missing),
        );
        for id in folded {
            let Some(stream) = self.peers.stream(HelloRole::Client, id) else {
                continue;
            };
            let shares = write_frame(stream, &request)
                .ok()
                .and_then(|()| read_frame(stream, MAX_FRAME_PAYLOAD).ok().flatten())
                .and_then(|frame| match open(&frame) {
                    Ok((MsgType::UnmaskShare, payload)) => decode_unmask_shares(payload).ok(),
                    _ => None,
                });
            match shares {
                Some((r, shares)) if r == round as u64 => acc.apply_unmask_shares(&shares),
                _ => self.peers.drop_peer(HelloRole::Client, id),
            }
        }
    }

    /// Evaluation pass: every live client syncs the (post-aggregation)
    /// global state and reports validation accuracy. The networked
    /// analogue of the simulator's in-process `evaluate_all`; clients
    /// without a live connection contribute 0.0. Excluded from wire
    /// accounting, like the simulator's evaluation. One phase over the
    /// downstream peers, whose replies unpack into client replies as a
    /// train lane's do — an edge fans the pass out to its clients and
    /// relays one accuracy per client — then, when tiered, one over the
    /// failover clients registered at the root.
    fn evaluate_round(&mut self, round: u32) -> Vec<f32> {
        let down = self.driver.broadcast();
        let mut acc = vec![0.0f32; self.driver.cfg.n_clients];
        let homes = self.peers.homes().to_vec();
        let roles: &[HelloRole] = match self.downstream() {
            HelloRole::Client => &[HelloRole::Client],
            HelloRole::Edge => &[HelloRole::Edge, HelloRole::Client],
        };
        for &role in roles {
            let live = self.peers.live(role);
            let (phase, _) = Phase::begin(
                &mut self.peers,
                role,
                &live,
                round,
                RoundMode::Eval,
                &down.frames,
            );
            let failures = gather(
                &mut self.peers,
                &phase,
                sync_sink(|reply| {
                    if let Ok((_, replies)) =
                        unpack(reply, role, |e: usize, c| homes[e].contains(&c))
                    {
                        replies.for_each(|(done, _)| acc[done.client_id as usize] = done.accuracy);
                    }
                }),
            );
            self.shutdown_requested |= shutdown_requested(&failures);
        }
        acc
    }

    /// End the session: broadcast [`MsgType::Shutdown`] so every node
    /// exits cleanly, and close the listener, so a node that redials is
    /// refused at once. With a round log configured, every completed
    /// round is already committed to it.
    pub fn finish(&mut self) -> Result<(), NetError> {
        self.peers.shutdown_all();
        Ok(())
    }

    /// Run the full session: wait for the cohort, drive every configured
    /// round (stopping early if a client requests shutdown), then
    /// broadcast [`MsgType::Shutdown`]. Returns `true` when all rounds
    /// ran, `false` on an early client-requested shutdown — a coordinator
    /// bound on the same round log then resumes after the last committed
    /// round.
    pub fn run(&mut self) -> Result<bool, NetError> {
        self.wait_for_clients();
        while self.driver.round_index() < self.driver.cfg.rounds && !self.shutdown_requested {
            self.run_round();
        }
        let completed = !self.shutdown_requested;
        self.finish()?;
        Ok(completed)
    }
}

/// What one train round's lanes share and collect.
struct Lanes<'a> {
    round: usize,
    sampled: &'a [usize],
    /// The broadcast every lane sends.
    down: Encoded,
    faults: FaultRecord,
    stats: TransportStats,
    /// The bookkeeping of every client upload that arrived.
    metas: Vec<LocalOutcome>,
    /// The clients whose upload folded.
    folded: Vec<usize>,
}
