//! The server side of the networked runtime: a TCP listener around the
//! shared [`RoundDriver`] round engine.
//!
//! Thread model (DESIGN.md §10): one thread does all socket work.
//! Handshakes and broadcasts are blocking writes under the io deadline;
//! every reply phase — a flat cohort's uploads, the edges' combined
//! uploads, the failover lane, every evaluation pass — is one
//! non-blocking `gather` over its peers under one phase deadline
//! (`round_timeout` from the phase's broadcast), so a round never hangs
//! on one peer. Every assignment — a `RoundAssign` and the broadcast
//! frames — is sealed once per phase and leaves in one write per peer.
//! Client uploads are decoded by the sweep thread itself, plus optional
//! helper threads ([`CoordinatorConfig::decode_workers`]), and stream
//! straight into the round's order-independent
//! [`RoundAccumulator`](spatl_fl::RoundAccumulator), so the coordinator
//! never holds the cohort in memory: the gather's admission window
//! bounds buffered uploads at O(helpers), independent of cohort size.
//! Completion order is non-deterministic, but everything order-sensitive
//! (fault ledger events, outcome bookkeeping, transfer-time folds) is
//! re-sorted by client id before it is recorded, and the accumulator's
//! fold is order-independent by construction — so records and global
//! state stay bit-identical to the simulator's ascending-id sweep.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spatl::{CheckpointError, RoundLog};
use spatl_fl::{
    decode_upload, edge_partition, entry_outcome, fold_fault_counters, ledger_departures,
    sampled_cohort, Encoded, FaultKind, FaultRecord, GlobalState, LocalOutcome, RoundDriver,
    RoundRecord, Topology, TransportStats, WireBytes,
};
use spatl_wire::{
    decode_edge_combined, decode_unmask_shares, encode_unmask_request, open, read_frame, seal,
    write_frame, EdgeCombined, MsgType, HEADER_LEN, MAX_FRAME_PAYLOAD,
};

use crate::gather::{
    gather, ledger, meta_outcome, shutdown_requested, sync_sink, window, CollectFailure, Phase,
    Reply,
};
use crate::peers::PeerTable;
use crate::proto::{session_fingerprint, HelloRole, RoundMode};
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
    /// Quorum fraction for the flat round commit, in `(0, 1]`. Once at
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
        let record = match self.opts.topology {
            Topology::Flat => self.flat_round(round, sampled),
            Topology::Tiered { .. } => self.tiered_round(round, sampled),
        };
        self.wal_append(|log, global| log.commit(round, global));
        record
    }

    /// Gather the uploads of one train phase over client peers — a flat
    /// cohort, or a tiered round's failover lane. Each completed upload
    /// is decoded and handed to `absorb` the moment it finishes, so the
    /// cohort is never resident: at most `4·helpers + 16` uploads are
    /// buffered outside the kernel at once. The sweep offers each upload
    /// to the `decode_workers − 1` helper threads and decodes it itself
    /// when none can take it — with no helpers, every upload is decoded
    /// in the sink, no thread hand-off at all. Fault events are ledgered
    /// ascending by client id. Returns the bookkeeping of every upload
    /// that framed, ascending by id, and the ids `absorb` received.
    fn collect_uploads(
        &mut self,
        phase: Phase,
        down: &Encoded,
        faults: &mut FaultRecord,
        mut absorb: impl FnMut(LocalOutcome),
    ) -> (Vec<LocalOutcome>, Vec<usize>) {
        let plan = self.driver.cfg.faults;
        let helpers = self
            .opts
            .decode_workers
            .unwrap_or_else(rayon::current_num_threads)
            .saturating_sub(1);
        let phase = Phase {
            window: window(helpers),
            faults: plan.as_ref(),
            ..phase
        };
        let down_framed = down.framed();
        let mut events: Vec<(usize, FaultKind)> = Vec::new();
        let mut metas: Vec<LocalOutcome> = Vec::new();
        let mut absorbed: Vec<usize> = Vec::new();
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
            // `job_tx` drops with this closure, ahead of the scope's join:
            // the helpers' `recv` then fails and they exit.
            gather(peers, &phase, |reply: Option<Reply>| {
                if let Some(Reply { id, done, frames }) = reply {
                    let mut meta = meta_outcome(&done);
                    meta.wire.download_payload = down.payload;
                    meta.wire.download_framed = down_framed;
                    if meta.diverged {
                        events.push((id, FaultKind::LocalDivergence));
                    }
                    if let Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) =
                        job_tx.try_send((meta, frames))
                    {
                        done_tx
                            .send(decode(job))
                            .expect("the sweep holds the receiver");
                    }
                }
                let mut settled = 0;
                while let Ok((meta, decoded)) = done_rx.try_recv() {
                    settled += 1;
                    match decoded {
                        Ok(update) => {
                            absorbed.push(meta.client_id);
                            absorb(update);
                        }
                        Err(error) => {
                            events.push((meta.client_id, FaultKind::CorruptUpload { error }))
                        }
                    }
                    metas.push(meta);
                }
                settled
            })
        });
        self.shutdown_requested |= ledger(faults, events, failures);
        metas.sort_by_key(|o| o.client_id);
        (metas, absorbed)
    }

    /// The flat round body: every peer is one client, and its decoded
    /// upload folds into the round's accumulator the moment it arrives.
    fn flat_round(&mut self, round: usize, sampled: Vec<usize>) -> RoundRecord {
        let mut faults = FaultRecord::for_sample(sampled.len());
        // Clients the fault plan drops or the churn model takes away
        // never see the broadcast — the simulator's own filter.
        let staying = ledger_departures(&self.driver.cfg, round, &sampled, &mut faults);

        let down = self.driver.broadcast();
        let started = Instant::now();
        let (phase, unreached) = Phase::begin(
            &mut self.peers,
            HelloRole::Client,
            &staying,
            round as u32,
            RoundMode::Train,
            &down.frames,
        );
        for id in unreached {
            faults.push(id, FaultKind::Dropout);
        }
        if phase.ids.is_empty() {
            faults.no_op = true;
            let per_client_acc = self.evaluate_round(round as u32);
            return self.driver.noop_round(per_client_acc, faults);
        }

        // Quorum commit target: once this many uploads have folded the
        // round ends, whoever is missing ledgered as a dropout. At the
        // default quorum of 1.0 the target is the full participant
        // count, so behaviour (and bit-level determinism) is identical
        // to waiting for everyone.
        let quorum = (self.opts.quorum * phase.ids.len() as f64).ceil() as usize;
        let mut acc = self.driver.begin_accumulation();
        let (metas, mut folded) =
            self.collect_uploads(Phase { quorum, ..phase }, &down, &mut faults, |update| {
                acc.fold(update)
            });

        // Masked dropout repair (DESIGN.md §14): cohort members derived
        // pairwise masks but never delivered — ask each folded survivor
        // over the wire for the orphaned pair seeds before the round
        // closes. A survivor that dies mid-query is skipped:
        // `finish_accumulation` fills any remaining gap from the session
        // seed, and shares are deduplicated, so the wire answers and the
        // local fallback compose instead of conflicting. A different
        // reply type from a handful of peers: a short blocking loop.
        let missing = acc.missing_maskers();
        if !missing.is_empty() {
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

        let mut stats = TransportStats {
            measured_wall_s: started.elapsed().as_secs_f64(),
            ..TransportStats::default()
        };
        for o in &metas {
            stats.charge(&self.driver.net, &o.wire);
        }
        // Close the accumulator — the same screen/aggregate stage the
        // simulator runs, minus any cohort buffering for the streaming
        // configurations.
        self.driver.finish_accumulation(acc, &mut faults);
        let per_client_acc = self.evaluate_round(round as u32);
        self.driver
            .finish_round(&metas, stats, per_client_acc, faults)
    }

    /// The tiered round body: every peer is one edge, which relays its
    /// slice's uploads in one combined upload (DESIGN.md §11). The root
    /// decodes every forwarded upload and folds it into the accumulator
    /// a flat round opens, so the screen, the aggregator and the range
    /// bound run once, here, over the whole cohort.
    /// The record's `wire` figures measure the *root link* only — the
    /// client↔edge traffic is accounted on the edges (the per-client
    /// analytic bytes still travel in the combined upload's entries, so
    /// Eq. 13 totals stay client-based).
    fn tiered_round(&mut self, round: usize, sampled: Vec<usize>) -> RoundRecord {
        // Root ledger counters start empty: each live edge reports its
        // slice's counters (sampled included) in the combined upload and
        // they are folded in below; dead edges are accounted here.
        let mut faults = FaultRecord::default();
        // Surviving clients of a dead edge that re-registered directly at
        // the root: they train this round over the root link instead.
        let mut failover: Vec<usize> = Vec::new();

        let down = self.driver.broadcast();
        let started = Instant::now();
        // Every live edge gets the assignment even when its slice is
        // empty — it derives the cohort itself from the shared sampling
        // stream and replies with an empty combined upload, keeping the
        // round barrier uniform.
        let edges: Vec<usize> = (0..self.peers.homes().len()).collect();
        let (phase, unreached) = Phase::begin(
            &mut self.peers,
            HelloRole::Edge,
            &edges,
            round as u32,
            RoundMode::Train,
            &down.frames,
        );
        let mut combined: Vec<(usize, EdgeCombined, u64)> = Vec::new();
        // Edges that cannot take part: unreachable now, failed while
        // gathered, or answering with something that is not their
        // combined upload.
        let mut dead: Vec<(usize, CollectFailure)> = unreached
            .into_iter()
            .map(|e| (e, CollectFailure::Disconnect))
            .collect();
        let failures = gather(
            &mut self.peers,
            &phase,
            sync_sink(|reply| match open_combined(&reply) {
                Ok((upload, framed)) => combined.push((reply.id, upload, framed)),
                Err(error) => dead.push((reply.id, CollectFailure::Corrupt(error))),
            }),
        );
        self.shutdown_requested |= shutdown_requested(&failures);
        dead.extend(failures);
        // Completion order is arbitrary: restore ascending edge order
        // before anything order-sensitive (the f64 time folds) runs.
        combined.sort_by_key(|(e, ..)| *e);
        dead.sort_by_key(|(e, _)| *e);

        let mut acc = self.driver.begin_accumulation();
        let mut outcomes: Vec<LocalOutcome> = Vec::new();
        let mut stats = TransportStats::default();
        for (_, upload, upload_framed) in combined {
            fold_fault_counters(&mut faults, &upload.faults);
            // Root-link wire accounting: one broadcast down, one
            // combined frame up, per edge.
            let link = WireBytes {
                download_payload: down.payload,
                download_framed: down.framed(),
                upload_payload: upload_framed.saturating_sub(HEADER_LEN as u64),
                upload_framed,
            };
            stats.charge(&self.driver.net, &link);
            // Each client's sealed frames, through the decode path and
            // into the fold a flat coordinator uses.
            for entry in &upload.entries {
                let meta = entry_outcome(entry);
                match self.driver.decode_client_upload(&meta, &entry.frames) {
                    Ok(d) => acc.fold(d),
                    Err(err) => faults.push(
                        meta.client_id,
                        FaultKind::CorruptUpload {
                            error: err.to_string(),
                        },
                    ),
                }
                outcomes.push(meta);
            }
        }
        // A dead edge's sampled slice is ledgered here: every client
        // behind it misses the round — churn departures as such, the rest
        // with the edge's own failure — unless it holds a direct failover
        // connection. The root degrades gracefully instead of stalling on
        // a dead partition.
        for (e, failure) in dead {
            self.peers.drop_peer(HelloRole::Edge, e);
            let home = &self.peers.homes()[e];
            let slice: Vec<usize> = sampled
                .iter()
                .copied()
                .filter(|c| home.contains(c))
                .collect();
            faults.sampled += slice.len();
            let kind = FaultKind::from(failure);
            for c in ledger_departures(&self.driver.cfg, round, &slice, &mut faults) {
                if self.peers.stream(HelloRole::Client, c).is_some() {
                    failover.push(c);
                } else {
                    faults.push(c, kind.clone());
                }
            }
        }
        if phase.ids.is_empty() {
            faults.no_op = true;
            let per_client_acc = self.evaluate_round(round as u32);
            return self.driver.noop_round(per_client_acc, faults);
        }

        // Failover lane: a dead edge's surviving clients train over the
        // root link this round, through the flat round's own collection
        // and into the same accumulator (DESIGN.md §8).
        failover.sort_unstable();
        let (lane, unreached) = Phase::begin(
            &mut self.peers,
            HelloRole::Client,
            &failover,
            round as u32,
            RoundMode::Train,
            &down.frames,
        );
        for c in unreached {
            faults.push(c, FaultKind::Dropout);
        }
        let (metas, _) = self.collect_uploads(lane, &down, &mut faults, |update| acc.fold(update));
        for o in &metas {
            stats.charge(&self.driver.net, &o.wire);
        }
        outcomes.extend(metas);
        stats.measured_wall_s = started.elapsed().as_secs_f64();

        self.driver.finish_accumulation(acc, &mut faults);
        // Failover outcomes appended after the edges' — restore the
        // ascending-id order the bookkeeping folds rely on.
        outcomes.sort_by_key(|o| o.client_id);
        let per_client_acc = self.evaluate_round(round as u32);
        self.driver
            .finish_round(&outcomes, stats, per_client_acc, faults)
    }

    /// One evaluation phase: every live `role` peer syncs the broadcast
    /// and reports back; `sink` receives each reply.
    fn eval_phase(
        &mut self,
        role: HelloRole,
        round: u32,
        frames: &[Vec<u8>],
        sink: impl FnMut(Reply),
    ) {
        let live = self.peers.live(role);
        let (phase, _) = Phase::begin(&mut self.peers, role, &live, round, RoundMode::Eval, frames);
        let failures = gather(&mut self.peers, &phase, sync_sink(sink));
        self.shutdown_requested |= shutdown_requested(&failures);
    }

    /// Evaluation pass: every live client syncs the (post-aggregation)
    /// global state and reports validation accuracy. The networked
    /// analogue of the simulator's in-process `evaluate_all`; clients
    /// without a live connection contribute 0.0. Excluded from wire
    /// accounting, like the simulator's evaluation. When tiered, each
    /// edge fans the pass out to its clients and the combined reply's
    /// entries carry one accuracy per client; direct failover clients
    /// then take the pass on the root link.
    fn evaluate_round(&mut self, round: u32) -> Vec<f32> {
        let down = self.driver.broadcast();
        let mut acc = vec![0.0f32; self.driver.cfg.n_clients];
        if self.downstream() == HelloRole::Edge {
            self.eval_phase(HelloRole::Edge, round, &down.frames, |reply| {
                let entries = open_combined(&reply).map_or(Vec::new(), |(c, _)| c.entries);
                for entry in entries {
                    if let Some(slot) = acc.get_mut(entry.client_id as usize) {
                        *slot = entry.accuracy;
                    }
                }
            });
        }
        // The table only registers client ids below `n_clients`.
        self.eval_phase(HelloRole::Client, round, &down.frames, |reply| {
            acc[reply.id] = reply.done.accuracy
        });
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

/// Decode an edge's reply — its one [`EdgeCombined`] frame — and check
/// the label against the phase; also returns the frame's size on the
/// wire (root-link accounting).
fn open_combined(reply: &Reply) -> Result<(EdgeCombined, u64), String> {
    let [frame] = reply.frames.as_slice() else {
        return Err(format!(
            "expected one combined frame, got {}",
            reply.frames.len()
        ));
    };
    let combined = match open(frame) {
        Ok((MsgType::EdgeCombined, payload)) => {
            decode_edge_combined(payload).map_err(|e| e.to_string())?
        }
        Ok((other, _)) => return Err(format!("expected EdgeCombined, got {other:?}")),
        Err(e) => return Err(e.to_string()),
    };
    if combined.edge_id as usize != reply.id || combined.round != reply.done.round {
        return Err(format!(
            "combined upload labelled edge {} round {}, expected edge {} round {}",
            combined.edge_id, combined.round, reply.id, reply.done.round
        ));
    }
    Ok((combined, frame.len() as u64))
}
