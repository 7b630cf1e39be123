//! The middle tier of the hierarchical runtime: an edge that terminates
//! one slice of the client population and relays its uploads to the root
//! coordinator in a single combined frame (DESIGN.md §11).
//!
//! An edge speaks the wire protocol both ways. **Downstream** it is a
//! coordinator: it binds a listener, registers the clients whose ids fall
//! in its [`edge_partition`] slice, broadcasts the root's download frames
//! verbatim and gathers the replies exactly as the root does — the same
//! peer table, the same concurrent gather under one phase deadline, with
//! upload dedup and in-round reconnect. **Upstream** it is a node: it
//! connects to the root with capped exponential backoff, registers with
//! its *edge id* as the wire client id, and answers round assignments —
//! not with its own training, but with the [`EdgeCombined`] frame that
//! carries its slice's round.
//!
//! The edge is a relay. It ledgers what the reply headers say —
//! departures, dropouts, missed deadlines, self-reported divergence —
//! and forwards every collected reply as one entry: the client's
//! `RoundDone` without its round, mode and frame count
//! ([`RoundDone::entry`]), and its sealed frames, undecoded. The root
//! turns each entry back into that reply and runs it through the one
//! round body a flat root runs, so an edge needs the session's
//! [`FlConfig`] and nothing else: no model, no data, no global state.
//!
//! Determinism: the edge derives each round's cohort itself with the
//! session's one cohort function, [`sampled_cohort`] of the assignment's
//! round, so the root never has to serialise cohort membership — and a
//! root that replays a round after a write-ahead-log recovery gets the
//! same cohort again.

use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::Duration;

use spatl_fl::{
    edge_partition, fault_counters, ledger_departures, sampled_cohort, FaultKind, FaultPlan,
    FaultRecord, FlConfig, Topology,
};
use spatl_wire::{seal, seal_edge_combined, write_frame, EdgeCombined, MsgType, TierFaultCounters};

use crate::gather::{gather, ledger, sync_sink, Phase};
use crate::node::{
    backoff, message, read_upstream, register, Upstream, BACKOFF_BASE, MAX_RECONNECTS,
};
use crate::peers::PeerTable;
use crate::proto::{session_fingerprint, Hello, HelloRole, RoundDone, RoundMode};
use crate::NetError;

/// Tunables of an [`EdgeAggregator`].
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// This edge's id (0-based, `< n_edges`); also its wire client id on
    /// the root link.
    pub edge_id: usize,
    /// Total number of edges the root was started with — both ends must
    /// agree for the [`edge_partition`] slices to line up.
    pub n_edges: usize,
    /// Root coordinator address to connect upstream to.
    pub root_addr: String,
    /// Address to listen on for this edge's clients; port 0 picks a free
    /// port (see [`EdgeAggregator::local_addr`]).
    pub listen_addr: String,
    /// How long the edge waits for its full client slice to register
    /// before its first train round starts with whoever showed up. The
    /// edge registers upstream immediately at startup, so this is what
    /// keeps a root's first assignment from racing the clients' joins.
    pub join_timeout: Duration,
    /// Deadline of each collection or evaluation phase over this edge's
    /// clients, counted from the phase's broadcast and shared by the
    /// whole slice (it covers the clients' local training): a client
    /// that has not replied by then is ledgered as
    /// [`FaultKind::DeadlineMissed`]. Keep it below the root's, so a
    /// silent client costs the round that client and not the whole edge.
    pub round_timeout: Duration,
    /// Per-client write deadline and handshake read deadline.
    pub io_timeout: Duration,
}

impl EdgeConfig {
    /// Defaults for edge `edge_id` of `n_edges`, rooted at `root_addr`,
    /// listening on `listen_addr`: 20 s join wait, 300 s round deadline,
    /// 30 s io deadline.
    pub fn new(
        edge_id: usize,
        n_edges: usize,
        root_addr: impl Into<String>,
        listen_addr: impl Into<String>,
    ) -> Self {
        EdgeConfig {
            edge_id,
            n_edges,
            root_addr: root_addr.into(),
            listen_addr: listen_addr.into(),
            join_timeout: Duration::from_secs(20),
            round_timeout: Duration::from_secs(300),
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// What an edge did over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeReport {
    /// Train rounds forwarded upstream (replayed rounds included).
    pub rounds_forwarded: usize,
    /// Evaluation passes forwarded upstream.
    pub rounds_evaluated: usize,
    /// Upstream sessions re-established after a lost connection.
    pub reconnects: usize,
}

/// How an upstream session ended.
enum SessionEnd {
    /// The root broadcast [`MsgType::Shutdown`]: clean exit.
    Shutdown,
    /// The root link broke; the edge should reconnect.
    Lost,
    /// The fault plan killed this edge process mid-round: every socket
    /// (root link and client connections alike) is dropped without a
    /// goodbye and the edge does **not** reconnect — the root must
    /// discover the dead partition from the broken stream alone.
    Killed,
}

/// One edge aggregator: a client-facing peer table plus the upstream
/// connect/serve loop, for one session's configuration.
pub struct EdgeAggregator {
    cfg: FlConfig,
    opts: EdgeConfig,
    /// Global client ids this edge serves.
    range: Range<usize>,
    /// The slice's client connections.
    peers: PeerTable,
    fingerprint: u64,
    /// Whether the one-time client join wait already ran (first train
    /// round of the process).
    waited: bool,
    /// Whether an upstream session was ever established (so the next
    /// successful registration counts as a reconnect).
    registered: bool,
    report: EdgeReport,
}

impl EdgeAggregator {
    /// Bind the client-facing listener for the session `cfg`, which must
    /// be the root's (same flags/seed) — the upstream handshake
    /// fingerprint enforces this.
    pub fn bind(cfg: FlConfig, opts: EdgeConfig) -> Result<Self, NetError> {
        cfg.check(Topology::Tiered {
            edges: opts.n_edges,
        })?;
        let range = edge_partition(cfg.n_clients, opts.n_edges)
            .into_iter()
            .nth(opts.edge_id)
            .ok_or_else(|| {
                NetError::Protocol(format!(
                    "edge id {} out of range for {} edges",
                    opts.edge_id, opts.n_edges
                ))
            })?;
        let fingerprint = session_fingerprint(&cfg);
        Ok(EdgeAggregator {
            peers: PeerTable::bind(
                &opts.listen_addr,
                Vec::new(),
                range.clone(),
                fingerprint,
                (opts.io_timeout, opts.round_timeout),
            )?,
            cfg,
            range,
            fingerprint,
            waited: false,
            registered: false,
            report: EdgeReport::default(),
            opts,
        })
    }

    /// The address the client-facing listener actually bound (resolves
    /// port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        self.peers.local_addr()
    }

    /// Global client ids this edge serves.
    pub fn client_range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// Number of currently registered client connections.
    pub fn connected(&self) -> usize {
        self.peers.live(HelloRole::Client).len()
    }

    /// Serve until the root shuts the session down: connect upstream
    /// (with capped exponential backoff), answer assignments, reconnect
    /// on loss. Returns the lifetime report.
    pub fn run(mut self) -> Result<EdgeReport, NetError> {
        let mut failures = 0u32;
        loop {
            match TcpStream::connect(&self.opts.root_addr) {
                Ok(stream) => match self.session(stream) {
                    Ok(SessionEnd::Shutdown) => {
                        self.peers.shutdown_all();
                        return Ok(self.report);
                    }
                    // Abrupt process death: no client goodbyes, no
                    // reconnect. The sockets dropped inside `session`;
                    // surviving clients fail over to the root on their
                    // own.
                    Ok(SessionEnd::Killed) => return Ok(self.report),
                    Ok(SessionEnd::Lost) => failures = 0,
                    Err(NetError::Rejected) => return Err(NetError::Rejected),
                    Err(_) => failures += 1,
                },
                Err(_) => failures += 1,
            }
            if failures > MAX_RECONNECTS {
                return Err(NetError::Disconnected);
            }
            std::thread::sleep(backoff(BACKOFF_BASE, failures));
        }
    }

    /// One upstream connection's lifetime: handshake as edge
    /// `opts.edge_id`, then serve assignments until shutdown or
    /// disconnect.
    fn session(&mut self, mut stream: TcpStream) -> Result<SessionEnd, NetError> {
        let edge_id = self.opts.edge_id;
        let hello = Hello {
            client_id: edge_id as u32,
            fingerprint: self.fingerprint,
            role: HelloRole::Edge,
        };
        register(&mut stream, hello, self.opts.io_timeout)?;
        if self.registered {
            self.report.reconnects += 1;
        }
        self.registered = true;

        loop {
            let (assign, down) = match read_upstream(&mut stream)? {
                Upstream::Shutdown => return Ok(SessionEnd::Shutdown),
                Upstream::Lost => return Ok(SessionEnd::Lost),
                Upstream::Assign(assign, down) => (assign, down),
                Upstream::Other(other, _) => {
                    return Err(NetError::Protocol(format!(
                        "unexpected control message {other:?}"
                    )))
                }
            };
            let kill = |p: FaultPlan| p.kills_edge(assign.round as usize, edge_id);
            if self.cfg.faults.is_some_and(kill) {
                // Scheduled edge kill: die exactly like a crashed process
                // would — every socket dropped mid-round, nothing
                // flushed, no goodbye downstream.
                self.peers.drop_all();
                return Ok(SessionEnd::Killed);
            }
            let combined = match assign.mode {
                RoundMode::Train => {
                    self.report.rounds_forwarded += 1;
                    self.train_round(assign.round, &down)
                }
                RoundMode::Eval => {
                    self.report.rounds_evaluated += 1;
                    self.eval_round(assign.round, &down)
                }
            };
            let frame = seal_edge_combined(&combined);
            let done = RoundDone::combined(assign.round, assign.mode, edge_id as u32, frame.len());
            let head = seal(MsgType::RoundDone, &done.encode());
            write_frame(&mut stream, &message(head, &[frame]))?;
        }
    }

    /// This edge's slice of round `round`'s cohort.
    fn cohort_slice(&self, round: u32) -> Vec<usize> {
        let mut cohort = sampled_cohort(&self.cfg, round as usize);
        cohort.retain(|c| self.range.contains(c));
        cohort
    }

    /// One train round over this edge's slice: broadcast the root's
    /// frames verbatim, gather the slice's replies, and relay every
    /// collected upload's frames, undecoded, in the combined upload.
    fn train_round(&mut self, round: u32, down: &[Vec<u8>]) -> EdgeCombined {
        // The edge registered upstream before its clients registered
        // here; block once, like the root's `wait_for_clients`, so the
        // session's first round does not race the clients' joins.
        if !self.waited {
            self.peers
                .wait_for(HelloRole::Client, self.opts.join_timeout, round);
            self.waited = true;
        }
        self.peers.accept_pending(round);
        let slice = self.cohort_slice(round);
        let mut faults = FaultRecord::for_sample(slice.len());
        // Clients the fault plan drops or the churn model takes away never
        // see the broadcast — same filter the simulator and flat root
        // apply.
        let staying = ledger_departures(&self.cfg, round as usize, &slice, &mut faults);

        let mut events: Vec<(usize, FaultKind)> = Vec::new();
        let mut entries = Vec::new();
        let (phase, unreached) = Phase::begin(
            &mut self.peers,
            HelloRole::Client,
            &staying,
            round,
            RoundMode::Train,
            down,
        );
        let phase = Phase {
            faults: self.cfg.faults.as_ref(),
            ..phase
        };
        let failures = gather(
            &mut self.peers,
            &phase,
            sync_sink(|reply| {
                if reply.done.diverged {
                    events.push((reply.id, FaultKind::LocalDivergence));
                }
                entries.push(reply.done.entry(reply.frames));
            }),
        );
        for id in unreached {
            faults.push(id, FaultKind::Dropout);
        }
        // A client's `Shutdown` is a dropout here; only the root ends a
        // session.
        ledger(&mut faults, events, failures);
        // Completion order is arbitrary; the frame lists ascending ids.
        entries.sort_by_key(|entry| entry.client_id);
        EdgeCombined {
            edge_id: self.opts.edge_id as u32,
            round,
            faults: fault_counters(&faults),
            entries,
        }
    }

    /// One evaluation pass: forward the post-aggregation global to every
    /// connected client in the slice and relay their reports as
    /// frameless entries.
    fn eval_round(&mut self, round: u32, down: &[Vec<u8>]) -> EdgeCombined {
        self.peers.accept_pending(round);
        let live = self.peers.live(HelloRole::Client);
        let (phase, _) = Phase::begin(
            &mut self.peers,
            HelloRole::Client,
            &live,
            round,
            RoundMode::Eval,
            down,
        );
        let mut entries = Vec::new();
        gather(
            &mut self.peers,
            &phase,
            sync_sink(|reply| entries.push(reply.done.entry(Vec::new()))),
        );
        entries.sort_by_key(|entry| entry.client_id);
        EdgeCombined {
            edge_id: self.opts.edge_id as u32,
            round,
            faults: TierFaultCounters::default(),
            entries,
        }
    }
}
