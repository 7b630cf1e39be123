//! The client side of the networked runtime: one federated client behind
//! a TCP connection, with reconnect-and-resume behaviour.
//!
//! A node owns its [`ClientState`] across connections: control variates,
//! participation counts and the fine-tuned selection agent all live here,
//! so a coordinator restart (or a transient network failure) costs the
//! session nothing client-side — the node reconnects with capped
//! exponential backoff, re-registers with the same id and fingerprint,
//! and carries on from whatever round the coordinator assigns next.
//!
//! The node needs no awareness of the server's concurrency: the
//! coordinator collects the cohort's uploads concurrently (DESIGN.md
//! §12), so this node's reply may start being read before slower peers
//! have finished training — or sit in kernel buffers until the readiness
//! sweep admits it. Either way the protocol this file speaks is
//! unchanged, and the round outcome is arrival-order-independent by
//! construction on the server side.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use spatl_fl::{decode_download, ClientState, FlConfig};
use spatl_wire::{
    decode_unmask_request, encode_unmask_shares, open, read_frame, seal, write_frame, MsgType,
    MAX_FRAME_PAYLOAD,
};

use crate::proto::{
    session_fingerprint, Hello, HelloRole, Join, RoundAssign, RoundDone, RoundMode,
};
use crate::NetError;

/// First reconnect delay of an edge, and a node's default.
pub(crate) const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Upper bound on the reconnect delay.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Consecutive connection failures an upstream dialer tolerates before
/// giving up; the count resets whenever a session is established.
pub(crate) const MAX_RECONNECTS: u32 = 40;

/// A node's write deadline towards its coordinator, and the read
/// deadline of the handshake's Join answer.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Capped exponential reconnect delay after `failures` consecutive
/// failed dials: `base` doubling per failure, at most `BACKOFF_CAP`.
pub(crate) fn backoff(base: Duration, failures: u32) -> Duration {
    let exp = failures.saturating_sub(1).min(16);
    base.saturating_mul(1u32 << exp).min(BACKOFF_CAP)
}

/// Register with the upstream endpoint on a fresh connection: send
/// `hello`, await the [`Join`] verdict. The handshake is bounded by
/// `io_timeout` — a listener that accepted the dial but never answers
/// must not park the node forever. Once registered, writes keep the
/// deadline and reads block freely: the gap until the next assignment is
/// bounded by the cohort's slowest trainer, and a dead upstream surfaces
/// as EOF, not a hang.
pub(crate) fn register(
    stream: &mut TcpStream,
    hello: Hello,
    io_timeout: Duration,
) -> Result<(), NetError> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(io_timeout))?;
    stream.set_read_timeout(Some(io_timeout))?;
    write_frame(stream, &seal(MsgType::Hello, &hello.encode()))?;
    let frame = read_frame(stream, MAX_FRAME_PAYLOAD)?
        .ok_or_else(|| NetError::Protocol("connection closed before Join".into()))?;
    let (msg, payload) = open(&frame)?;
    if msg != MsgType::Join {
        return Err(NetError::Protocol(format!("expected Join, got {msg:?}")));
    }
    if !Join::decode(payload)?.accepted {
        return Err(NetError::Rejected);
    }
    stream.set_read_timeout(None)?;
    Ok(())
}

/// What a registered endpoint read next from its upstream.
pub(crate) enum Upstream {
    /// [`MsgType::Shutdown`]: the session is over.
    Shutdown,
    /// The connection broke (EOF or a torn frame); reconnect.
    Lost,
    /// A round assignment and the broadcast frames that followed it.
    Assign(RoundAssign, Vec<Vec<u8>>),
    /// Any other control message, with its payload.
    Other(MsgType, Vec<u8>),
}

/// Block for the upstream's next control message; an assignment is read
/// whole, broadcast frames included.
pub(crate) fn read_upstream(stream: &mut TcpStream) -> Result<Upstream, NetError> {
    let frame = match read_frame(stream, MAX_FRAME_PAYLOAD) {
        Ok(Some(f)) => f,
        Ok(None) => return Ok(Upstream::Lost),
        Err(e) if e.is_transport_corruption() => return Ok(Upstream::Lost),
        Err(e) => return Err(e.into()),
    };
    let (msg, payload) = open(&frame)?;
    match msg {
        MsgType::Shutdown => Ok(Upstream::Shutdown),
        MsgType::RoundAssign => {
            let assign = RoundAssign::decode(payload)?;
            let mut frames = Vec::new();
            for _ in 0..assign.n_frames {
                match read_frame(stream, MAX_FRAME_PAYLOAD)? {
                    Some(f) => frames.push(f),
                    None => return Ok(Upstream::Lost),
                }
            }
            Ok(Upstream::Assign(assign, frames))
        }
        other => Ok(Upstream::Other(other, payload.to_vec())),
    }
}

/// `head ‖ frames` in one buffer, so a message leaves in one write: one
/// wake-up of the reader blocked on the other end instead of one per
/// frame.
pub(crate) fn message(mut head: Vec<u8>, frames: &[Vec<u8>]) -> Vec<u8> {
    head.reserve(frames.iter().map(Vec::len).sum());
    frames.iter().for_each(|f| head.extend_from_slice(f));
    head
}

/// Tunables of a [`ClientNode`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Coordinator address to connect to.
    pub addr: String,
    /// First reconnect delay; doubles per consecutive failure, up to 2 s.
    pub backoff_base: Duration,
    /// Secondary coordinator address to fail over to (DESIGN.md §8):
    /// in a tiered deployment this is the *root*, dialed when the home
    /// edge stops answering. `None` disables failover.
    pub fallback_addr: Option<String>,
    /// Consecutive primary-connection failures before the node dials
    /// `fallback_addr` instead. A fallback registration the root rejects
    /// (the home edge is alive again) sends the node back to the primary.
    pub fallback_after: u32,
}

impl NodeConfig {
    /// Defaults for a coordinator at `addr`: 50 ms base backoff, no
    /// failover.
    pub fn new(addr: impl Into<String>) -> Self {
        NodeConfig {
            addr: addr.into(),
            backoff_base: BACKOFF_BASE,
            fallback_addr: None,
            fallback_after: 3,
        }
    }
}

/// What a node did over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeReport {
    /// Rounds in which this node trained and uploaded an update.
    pub rounds_trained: usize,
    /// Evaluation passes answered.
    pub rounds_evaluated: usize,
    /// Sessions re-established after a lost connection.
    pub reconnects: usize,
    /// Train assignments answered from the reply cache instead of
    /// retraining (a coordinator replayed a round after a crash).
    pub replays: usize,
}

/// The node's reply to its last Train assignment, kept so a replayed
/// assignment of the same round (a coordinator recovering from its
/// write-ahead log) is answered from cache. `local_update` is not
/// idempotent — it advances control variates, participation counts and
/// the selection agent — so training the same round twice would fork the
/// client's state from what the simulator (and the pre-crash run) would
/// hold.
struct TrainReply {
    done: RoundDone,
    frames: Vec<Vec<u8>>,
}

/// How a served session ended.
enum SessionEnd {
    /// The coordinator broadcast [`MsgType::Shutdown`]: clean exit.
    Shutdown,
    /// The connection broke; the node should reconnect.
    Lost,
}

/// One federated client node: a [`ClientState`] plus the connect/serve
/// loop that keeps it registered with the coordinator.
pub struct ClientNode {
    cfg: FlConfig,
    state: ClientState,
    opts: NodeConfig,
    report: NodeReport,
    cache: Option<TrainReply>,
    /// Whether a session was ever established (so the next successful
    /// registration counts as a reconnect).
    registered: bool,
    /// The round whose upload this node already tore once — a planned
    /// reset fires on the first transmission attempt only, so the
    /// post-reconnect retry always goes through clean (a reset delays
    /// rounds, it never deadlocks them).
    torn_round: Option<u32>,
}

impl ClientNode {
    /// Wrap one client (its shard index is the wire client id). `cfg`
    /// must equal the coordinator's configuration — the handshake
    /// fingerprint enforces this.
    pub fn new(cfg: FlConfig, state: ClientState, opts: NodeConfig) -> Self {
        ClientNode {
            cfg,
            state,
            opts,
            report: NodeReport::default(),
            cache: None,
            registered: false,
            torn_round: None,
        }
    }

    /// Parameter count the broadcast global vector must carry for this
    /// session (encoder only under transfer-mode SPATL, encoder plus
    /// predictor otherwise).
    fn expected_params(&self) -> usize {
        let mut p = self.state.model.encoder.num_params();
        if !self.cfg.algorithm.uses_transfer() {
            p += self.state.model.predictor.num_params();
        }
        p
    }

    /// Serve until the coordinator shuts the session down. Reconnects
    /// with capped exponential backoff on connection loss; gives up after
    /// 40 consecutive failures. With a `fallback_addr`
    /// configured, `fallback_after` consecutive primary failures switch
    /// the dial target to the fallback (a dead edge's clients re-register
    /// directly at the root); a fallback rejection — the home edge is
    /// alive after all — sends the node back to the primary. Returns the
    /// final client state (for inspection) and the lifetime report.
    pub fn run(mut self) -> Result<(ClientState, NodeReport), NetError> {
        let fingerprint = session_fingerprint(&self.cfg);
        let mut failures = 0u32;
        // Fallback rejections get their own budget so an edge/root pair
        // that bounces the node back and forth cannot loop forever.
        let mut fallback_rejects = 0u32;
        loop {
            let use_fallback =
                self.opts.fallback_addr.is_some() && failures >= self.opts.fallback_after;
            let addr = match (&self.opts.fallback_addr, use_fallback) {
                (Some(fallback), true) => fallback.clone(),
                _ => self.opts.addr.clone(),
            };
            match TcpStream::connect(&addr) {
                Ok(stream) => match self.session(stream, fingerprint) {
                    Ok(SessionEnd::Shutdown) => return Ok((self.state, self.report)),
                    Ok(SessionEnd::Lost) => {
                        // A session was established, so the budget resets.
                        failures = 0;
                    }
                    Err(NetError::Rejected) if use_fallback => {
                        fallback_rejects += 1;
                        if fallback_rejects > MAX_RECONNECTS {
                            return Err(NetError::Rejected);
                        }
                        // Back to the primary: the home edge answered for
                        // this id at the root, so it should be dialable.
                        failures = 0;
                    }
                    Err(NetError::Rejected) => return Err(NetError::Rejected),
                    Err(_) => failures += 1,
                },
                Err(_) => failures += 1,
            }
            if failures > MAX_RECONNECTS {
                return Err(NetError::Disconnected);
            }
            // An established-then-lost session redials immediately: the
            // peer closed cleanly, and waiting a backoff period here can
            // cost a dead edge's clients the rest of the round they are
            // failing over into. Backoff applies only after failed dials.
            if failures > 0 {
                std::thread::sleep(backoff(self.opts.backoff_base, failures));
            }
        }
    }

    /// One connection's lifetime: handshake, then serve assignments until
    /// shutdown or disconnect.
    fn session(&mut self, mut stream: TcpStream, fingerprint: u64) -> Result<SessionEnd, NetError> {
        let hello = Hello {
            client_id: self.state.id as u32,
            fingerprint,
            role: HelloRole::Client,
        };
        register(&mut stream, hello, WRITE_TIMEOUT)?;
        if self.registered {
            self.report.reconnects += 1;
        }
        self.registered = true;

        loop {
            let (assign, frames) = match read_upstream(&mut stream)? {
                Upstream::Shutdown => return Ok(SessionEnd::Shutdown),
                Upstream::Lost => return Ok(SessionEnd::Lost),
                Upstream::Assign(assign, frames) => (assign, frames),
                Upstream::Other(MsgType::UnmaskRequest, payload) => {
                    // Masked dropout repair (DESIGN.md §14): the
                    // coordinator lost cohort members after they derived
                    // pairwise masks, and asks this survivor to reveal
                    // the pair seeds it shared with each of them. Only a
                    // masked session may ask; anything else is protocol
                    // confusion.
                    let privacy = match self.cfg.privacy {
                        Some(p) if p.mode == spatl_fl::PrivacyMode::Masked => p,
                        _ => {
                            return Err(NetError::Protocol(
                                "unmask request outside a masked session".into(),
                            ))
                        }
                    };
                    let (round, dropped) = decode_unmask_request(&payload)?;
                    let id = self.state.id;
                    let shares: Vec<_> = dropped
                        .iter()
                        .filter(|&&d| d as usize != id)
                        .map(|&d| spatl_fl::unmask_share(&privacy, round as usize, id, d as usize))
                        .collect();
                    write_frame(
                        &mut stream,
                        &seal(MsgType::UnmaskShare, &encode_unmask_shares(round, &shares)),
                    )?;
                    continue;
                }
                Upstream::Other(other, _) => {
                    return Err(NetError::Protocol(format!(
                        "unexpected control message {other:?}"
                    )))
                }
            };
            let global = decode_download(&self.cfg, &frames, self.expected_params())?;
            if assign.mode == RoundMode::Eval {
                let acc = self.state.sync_and_evaluate(&self.cfg, &global);
                let done = RoundDone::eval(assign.round, self.state.id as u32, acc);
                write_frame(&mut stream, &seal(MsgType::RoundDone, &done.encode()))?;
                self.report.rounds_evaluated += 1;
                continue;
            }
            // A round this node already trained (a coordinator replaying
            // from its write-ahead log, or a retry after a reset) is
            // answered from the cached reply — retraining would fork the
            // client state.
            let cached = self.cache.take().filter(|c| c.done.round == assign.round);
            let replayed = cached.is_some();
            let reply = cached.unwrap_or_else(|| {
                let outcome = self
                    .state
                    .local_update(&self.cfg, &global, assign.round as usize);
                TrainReply {
                    done: RoundDone::train(assign.round, &outcome),
                    frames: outcome.frames,
                }
            });
            // Cache before the first send attempt: if the send itself
            // dies mid-way, the reconnected session replays the reply.
            let reply = self.cache.insert(reply);
            let header = seal(MsgType::RoundDone, &reply.done.encode());
            let (round, id) = (assign.round as usize, self.state.id);
            if let Some(plan) = self.cfg.faults {
                // The fault plan, sender-side — so the coordinator
                // observes real torn frames and real duplicate
                // transmissions, not simulated ledger entries. A stall delays the
                // reply; a scheduled reset tears the first transmission
                // attempt mid-frame and drops the connection (the
                // reconnect retry goes through clean); a duplicate sends
                // the whole reply twice.
                if let Some(d) = plan.stalls(round, id) {
                    std::thread::sleep(d);
                }
                if plan.resets_upload(round, id) && self.torn_round != Some(assign.round) {
                    self.torn_round = Some(assign.round);
                    write_frame(&mut stream, &header)?;
                    if let Some(f0) = reply.frames.first() {
                        // Sealed frames are self-delimiting, so a strict
                        // prefix of the frame's bytes is exactly a torn
                        // frame.
                        let cut = plan.torn_cut(round, id, f0.len());
                        stream.write_all(&f0[..cut])?;
                        stream.flush()?;
                    }
                    // Die without goodbye: the server's FrameReader sees
                    // a torn frame, then EOF. The reconnect loop takes
                    // over.
                    return Ok(SessionEnd::Lost);
                }
            }
            let copies = 1 + self
                .cfg
                .faults
                .map_or(0, |p| usize::from(p.duplicates_upload(round, id)));
            let msg = message(header, &reply.frames);
            for _ in 0..copies {
                write_frame(&mut stream, &msg)?;
            }
            if replayed {
                self.report.replays += 1;
            } else {
                self.report.rounds_trained += 1;
            }
        }
    }
}
