//! The one way `spatl-net` collects replies (DESIGN.md §10): a reply
//! parser, a per-connection frame-assembly state machine, and the
//! concurrent gather that sweeps a phase's peers under one deadline.
//!
//! Every reply has the same shape on the wire — a [`RoundDone`] header
//! announcing `n_frames`, then that many sealed frames: a client upload
//! (`k` frames), an edge's combined reply (one `EdgeCombined` frame), an
//! evaluation report (none). Each connection advances
//! `Header → parked → frames` as bytes arrive. The *admission window*
//! sits after the header: a connection whose header arrived leaves its
//! frames in the kernel socket buffer until a slot is free, so at most
//! `window` replies are buffered in memory at once — TCP receive-window
//! backpressure bounds the senders, independent of cohort size. The
//! gather counts peer replies; the root's sinks [`unpack`] each into the
//! client replies it carries — a client's own, or an edge's relayed
//! entries — and [`meta_outcome`] reads either kind of `RoundDone`.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use spatl_fl::{FaultKind, FaultPlan, FaultRecord, LocalOutcome, RoundBytes, WireBytes};
use spatl_wire::{
    decode_edge_combined, open, seal, EdgeEntry, FramePoll, FrameReader, MsgType,
    TierFaultCounters, MAX_FRAME_PAYLOAD,
};

use crate::node::message;
use crate::peers::PeerTable;
use crate::proto::{HelloRole, RoundAssign, RoundDone, RoundMode};

/// Why a peer's reply did not reach the sink.
#[derive(Debug)]
pub(crate) enum CollectFailure {
    /// No complete reply before the phase deadline; the peer may still
    /// be training.
    Timeout,
    /// The connection is gone (EOF, reset, write failure), the stream
    /// stopped making protocol sense (wrong round, id or mode), or the
    /// quorum committed the phase without this peer.
    Disconnect,
    /// The peer sent a `Shutdown` frame instead of a reply.
    Shutdown,
    /// A `RoundDone` arrived intact at the framing layer but its payload
    /// did not decode.
    Corrupt(String),
    /// A complete reply arrived after this peer's reply for the phase was
    /// already handed over; the copy was discarded.
    Duplicate,
}

impl From<CollectFailure> for FaultKind {
    fn from(failure: CollectFailure) -> Self {
        match failure {
            CollectFailure::Timeout => FaultKind::DeadlineMissed,
            CollectFailure::Disconnect | CollectFailure::Shutdown => FaultKind::Dropout,
            // TCP retransmits damaged segments itself, so there is no
            // retry protocol here: corrupt is corrupt, full stop.
            CollectFailure::Corrupt(error) => FaultKind::CorruptUpload { error },
            CollectFailure::Duplicate => FaultKind::DuplicateUpload,
        }
    }
}

/// Whether any peer answered a phase with a `Shutdown` request.
pub(crate) fn shutdown_requested(failures: &[(usize, CollectFailure)]) -> bool {
    failures
        .iter()
        .any(|(_, f)| matches!(f, CollectFailure::Shutdown))
}

/// Ledger one phase: the sink's own `events` (completion order) and the
/// gather's `failures`, merged ascending by peer id so the ledger is
/// arrival-order-independent. The sort is stable: a client's own events
/// keep their causal order. Returns whether a peer requested shutdown.
pub(crate) fn ledger(
    faults: &mut FaultRecord,
    mut events: Vec<(usize, FaultKind)>,
    failures: Vec<(usize, CollectFailure)>,
) -> bool {
    let shutdown = shutdown_requested(&failures);
    events.extend(failures.into_iter().map(|(id, f)| (id, f.into())));
    events.sort_by_key(|(id, _)| *id);
    for (id, kind) in events {
        faults.push(id, kind);
    }
    shutdown
}

/// Turn one frame into the reply header expected from peer `id` in
/// `mode` of `round`.
fn parse_reply(
    frame: &[u8],
    round: u32,
    id: usize,
    mode: RoundMode,
) -> Result<RoundDone, CollectFailure> {
    let done = match open(frame) {
        Ok((MsgType::RoundDone, payload)) => {
            RoundDone::decode(payload).map_err(|e| CollectFailure::Corrupt(e.to_string()))?
        }
        Ok((MsgType::Shutdown, _)) => return Err(CollectFailure::Shutdown),
        _ => return Err(CollectFailure::Disconnect),
    };
    if done.round != round || done.client_id as usize != id || done.mode != mode {
        return Err(CollectFailure::Disconnect);
    }
    Ok(done)
}

/// A client's reply header and the frames that followed it.
pub(crate) type ClientReply = (RoundDone, Vec<Vec<u8>>);

/// Unpack one complete reply of a `role` peer into the client replies
/// it carries, and the fault counters an edge forwarded with them (zero
/// for a client). A client's reply is its own. An edge's must be the
/// header and the one `EdgeCombined` frame an edge sends for its id and
/// the phase's round, its entries ascending strictly over the clients
/// `c` it stands for (`stands_for(edge, c)`); each entry is turned back
/// into the reply its client sent the edge. Anything else is corrupt: an
/// entry relayed twice, or for a client the edge was not asked for,
/// would fold where a flat gather, which admits one reply per peer,
/// folds nobody.
pub(crate) fn unpack(
    reply: Reply,
    role: HelloRole,
    stands_for: impl Fn(usize, usize) -> bool,
) -> Result<(TierFaultCounters, impl Iterator<Item = ClientReply>), String> {
    let Reply { id, done, frames } = reply;
    let relayed = move |entry: EdgeEntry| RoundDone::relayed(done.round, done.mode, entry);
    if role == HelloRole::Client {
        let own = Some((done, frames)).into_iter();
        return Ok((
            TierFaultCounters::default(),
            own.chain(Vec::new().into_iter().map(relayed)),
        ));
    }
    let [frame] = frames.as_slice() else {
        return Err(format!("expected one combined frame, got {}", frames.len()));
    };
    if done != RoundDone::combined(done.round, done.mode, id as u32, frame.len()) {
        return Err(format!(
            "{done:?} does not head a {}-byte combined frame",
            frame.len()
        ));
    }
    let combined = match open(frame) {
        Ok((MsgType::EdgeCombined, payload)) => {
            decode_edge_combined(payload).map_err(|e| e.to_string())?
        }
        Ok((other, _)) => return Err(format!("expected EdgeCombined, got {other:?}")),
        Err(e) => return Err(e.to_string()),
    };
    if combined.edge_id as usize != id || combined.round != done.round {
        return Err(format!(
            "combined upload labelled edge {} round {}, expected edge {id} round {}",
            combined.edge_id, combined.round, done.round
        ));
    }
    let ids: Vec<usize> = combined
        .entries
        .iter()
        .map(|e| e.client_id as usize)
        .collect();
    if ids.windows(2).any(|w| w[0] >= w[1]) || !ids.iter().all(|&c| stands_for(id, c)) {
        return Err(format!(
            "edge {id} relayed {ids:?}: not ascending within its slice"
        ));
    }
    let entries = combined.entries.into_iter().map(relayed);
    Ok((combined.faults, None.into_iter().chain(entries)))
}

/// Rebuild the bookkeeping half of a [`LocalOutcome`] from a client's
/// [`RoundDone`] header — one the client sent, or one rebuilt from the
/// entry an edge relayed; every tensor field stays empty until the
/// upload's frames are decoded.
pub(crate) fn meta_outcome(done: &RoundDone) -> LocalOutcome {
    LocalOutcome::meta(
        done.client_id as usize,
        done.n_samples as usize,
        done.tau as usize,
        done.diverged,
        done.keep_ratio,
        done.flops_ratio,
        RoundBytes {
            download: done.bytes_download,
            upload: done.bytes_upload,
        },
        WireBytes {
            upload_payload: done.upload_payload,
            upload_framed: done.upload_framed,
            ..WireBytes::default()
        },
    )
}

/// What one poll of a connection produced.
enum GatherPoll {
    /// The socket would block and nothing new arrived.
    Idle,
    /// Bytes arrived but the reply is still incomplete.
    Progress,
    /// The complete reply: header plus every announced frame.
    Reply(RoundDone, Vec<Vec<u8>>),
    /// The connection failed.
    Failed(CollectFailure),
}

impl GatherPoll {
    fn waiting(progressed: bool) -> Self {
        if progressed {
            GatherPoll::Progress
        } else {
            GatherPoll::Idle
        }
    }
}

/// One connection's reply assembly across sweeps.
struct ConnGather {
    reader: FrameReader,
    /// The reply header, once it arrived.
    head: Option<RoundDone>,
    frames: Vec<Vec<u8>>,
    /// Whether this connection holds an admission slot.
    admitted: bool,
}

impl ConnGather {
    fn new() -> Self {
        ConnGather {
            reader: FrameReader::new(MAX_FRAME_PAYLOAD),
            head: None,
            frames: Vec::new(),
            admitted: false,
        }
    }

    /// Advance with whatever `stream` can deliver without blocking, up
    /// to the first would-block, completed reply or failure. Past its
    /// header the connection takes one of the `window` admission slots
    /// (counted in `in_flight`) or parks until one frees up.
    fn poll(
        &mut self,
        stream: &mut TcpStream,
        (round, id, mode): (u32, usize, RoundMode),
        in_flight: &mut usize,
        window: usize,
    ) -> GatherPoll {
        let mut progressed = false;
        loop {
            if let Some(done) = self.head {
                if !self.admitted {
                    if *in_flight >= window {
                        return GatherPoll::waiting(progressed);
                    }
                    *in_flight += 1;
                    self.admitted = true;
                }
                if self.frames.len() == done.n_frames as usize {
                    self.head = None;
                    self.admitted = false;
                    return GatherPoll::Reply(done, std::mem::take(&mut self.frames));
                }
            }
            match self.reader.poll(stream) {
                Ok(FramePoll::Pending) => return GatherPoll::waiting(progressed),
                Ok(FramePoll::Eof) | Err(_) => {
                    return GatherPoll::Failed(CollectFailure::Disconnect)
                }
                Ok(FramePoll::Frame(frame)) if self.head.is_some() => self.frames.push(frame),
                Ok(FramePoll::Frame(frame)) => match parse_reply(&frame, round, id, mode) {
                    Ok(done) => self.head = Some(done),
                    Err(failure) => return GatherPoll::Failed(failure),
                },
            }
            progressed = true;
        }
    }
}

/// One completed reply, as handed to a gather's sink.
pub(crate) struct Reply {
    /// The peer that sent it.
    pub(crate) id: usize,
    /// The reply header.
    pub(crate) done: RoundDone,
    /// The `done.n_frames` sealed frames that followed it.
    pub(crate) frames: Vec<Vec<u8>>,
}

/// What a gather collects: one reply phase of one round.
pub(crate) struct Phase<'a> {
    /// The peers whose replies are awaited, ascending.
    pub(crate) ids: Vec<usize>,
    /// Which kind of peer they are.
    pub(crate) role: HelloRole,
    /// The round being answered.
    pub(crate) round: u32,
    /// The mode being answered.
    pub(crate) mode: RoundMode,
    /// The assignment every peer was sent — `RoundAssign ‖ broadcast
    /// frames`, one message — resent to a client peer that reconnects
    /// mid-phase.
    pub(crate) assignment: Vec<u8>,
    /// The one deadline of the phase: whoever has not completed framing
    /// by then missed it.
    pub(crate) deadline: Instant,
    /// Settled replies that commit the phase early, cutting the rest
    /// (the peer count waits for everyone).
    pub(crate) quorum: usize,
    /// Replies buffered outside the kernel at once: admitted assemblies
    /// plus replies the sink has not settled — the phase's memory
    /// ceiling.
    pub(crate) window: usize,
    /// The fault plan the peers enact in this phase's replies (client
    /// train phases): duplicated copies are awaited so their ledger
    /// entries are deterministic, and — when the plan resets
    /// connections — a reset connection keeps its slot open for the
    /// in-phase retry.
    pub(crate) faults: Option<&'a FaultPlan>,
}

impl<'a> Phase<'a> {
    /// Start a phase: seal one `RoundAssign` for `frames` and write the
    /// assignment to every peer of `ids` as one message, ascending,
    /// before any reply is awaited. The phase waits for every peer
    /// reached, under the table's `round_timeout` from now; callers
    /// adjust `quorum`, `window` and `faults`. Also returns the peers
    /// *not* reached (now dropped from the table).
    pub(crate) fn begin(
        peers: &mut PeerTable,
        role: HelloRole,
        ids: &[usize],
        round: u32,
        mode: RoundMode,
        frames: &[Vec<u8>],
    ) -> (Self, Vec<usize>) {
        let deadline = Instant::now() + peers.round_timeout;
        let assign = RoundAssign::new(round, mode, frames.len()).encode();
        let assignment = message(seal(MsgType::RoundAssign, &assign), frames);
        let (ids, unreached): (Vec<usize>, Vec<usize>) = ids
            .iter()
            .partition(|&&id| peers.send_assignment(role, id, &assignment));
        let phase = Phase {
            quorum: ids.len(),
            ids,
            role,
            round,
            mode,
            assignment,
            deadline,
            window: window(0),
            faults: None,
        };
        (phase, unreached)
    }
}

/// The admission window for a sink that hands replies to `helpers`
/// threads (zero for a sink that settles each reply before returning).
pub(crate) fn window(helpers: usize) -> usize {
    4 * helpers + 16
}

/// Adapt a sink that settles each reply before it returns.
pub(crate) fn sync_sink(mut sink: impl FnMut(Reply)) -> impl FnMut(Option<Reply>) -> usize {
    move |reply| match reply {
        Some(reply) => {
            sink(reply);
            1
        }
        None => 0,
    }
}

/// One peer's collection state across sweeps.
struct Slot {
    id: usize,
    conn: ConnGather,
    /// Still being gathered.
    open: bool,
    /// Reply copies still expected: one, plus one more when the fault
    /// plan schedules a duplicated reply.
    copies: usize,
    /// A reply was handed to the sink; any further complete copy is a
    /// retransmit, discarded by this per-(round, peer) idempotence guard.
    submitted: bool,
    /// A failure was recorded; the slot must not reopen on reconnect.
    faulted: bool,
}

/// Collect the replies to one phase. A non-blocking sweep drives one
/// state machine per connection and hands each completed reply to `sink`
/// the moment its last frame arrives — completion order, so a sink must
/// not depend on it. `sink(Some(reply))` takes a reply and `sink(None)` is called once
/// per sweep; both return how many replies handed over so far have
/// *settled* since the last call, which frees their admission slots and
/// counts towards the quorum. The phase never hangs on one peer: the
/// deadline, or the quorum, ledgers whoever is missing. Returns the
/// failures, ascending by peer id.
///
/// Client peers that reconnect mid-phase are re-registered, sent the
/// assignment again and gathered afresh unless a failure is already on
/// record — a reply that then repeats one already handed over is a
/// [`CollectFailure::Duplicate`]. Edge peers never reopen (an edge has
/// no reply cache), and nothing is accepted while gathering them.
pub(crate) fn gather(
    peers: &mut PeerTable,
    phase: &Phase,
    mut sink: impl FnMut(Option<Reply>) -> usize,
) -> Vec<(usize, CollectFailure)> {
    let Phase {
        role, round, mode, ..
    } = *phase;
    let ids = &phase.ids;
    let copies = |id| {
        let dup = phase
            .faults
            .is_some_and(|p| p.duplicates_upload(round as usize, id));
        1 + usize::from(dup)
    };
    // Only a plan that resets connections makes a disconnect worth
    // waiting for; any other disconnect is a dropout at once.
    let resets = phase.faults.is_some_and(|p| p.reset > 0.0);
    let mut failures: Vec<(usize, CollectFailure)> = Vec::new();
    let mut slots: Vec<Slot> = ids
        .iter()
        .map(|&id| Slot {
            id,
            conn: ConnGather::new(),
            open: true,
            copies: copies(id),
            submitted: false,
            faulted: false,
        })
        .collect();
    let mut gathering = slots.len();
    // Admission slots held: assembling connections plus unsettled replies.
    let mut in_flight = 0usize;
    let mut settled = 0usize;

    let nonblocking = |peers: &mut PeerTable, id: usize, on: bool| {
        let ok = peers
            .stream(role, id)
            .is_some_and(|s| s.set_nonblocking(on).is_ok());
        if !ok {
            peers.drop_peer(role, id);
        }
    };
    for &id in ids {
        nonblocking(peers, id, true);
    }

    while gathering > 0 || in_flight > 0 {
        let mut progressed = false;

        if role == HelloRole::Client {
            for (joined, id) in peers.accept_pending(round) {
                let found = ids.binary_search(&id).ok().filter(|_| joined == role);
                let Some(slot) = found.map(|k| &mut slots[k]).filter(|s| !s.faulted) else {
                    continue;
                };
                progressed = true;
                if slot.conn.admitted {
                    in_flight -= 1;
                }
                if !slot.open {
                    slot.open = true;
                    gathering += 1;
                }
                // The peer re-runs its fault schedule on the retry, so
                // the expected copy count resets with the assembly.
                slot.conn = ConnGather::new();
                slot.copies = copies(id);
                if peers.send_assignment(role, id, &phase.assignment) {
                    nonblocking(peers, id, true);
                }
            }
        }

        let n = sink(None);
        in_flight -= n;
        settled += n;
        progressed |= n > 0;

        // Quorum commit: cut the stragglers. A slot that already
        // submitted stays open — it is only draining a scheduled
        // duplicate whose bytes are in flight, and severing it would
        // desync the peer for the next phase.
        let committed = gathering > 0 && settled >= phase.quorum;
        let expired = gathering > 0 && Instant::now() >= phase.deadline;
        if committed || expired {
            for slot in slots.iter_mut().filter(|s| s.open) {
                if slot.submitted && !expired {
                    continue;
                }
                progressed = true;
                slot.open = false;
                gathering -= 1;
                if slot.conn.admitted {
                    in_flight -= 1;
                }
                slot.faulted = true;
                peers.drop_peer(role, slot.id);
                // A submitted slot the deadline closes was only waiting
                // on its duplicate copy: nothing to ledger.
                if !slot.submitted {
                    let why = if expired {
                        CollectFailure::Timeout
                    } else {
                        CollectFailure::Disconnect
                    };
                    failures.push((slot.id, why));
                }
            }
        }

        for slot in slots.iter_mut().filter(|s| s.open) {
            let id = slot.id;
            let polled = match peers.stream(role, id) {
                Some(stream) => {
                    slot.conn
                        .poll(stream, (round, id, mode), &mut in_flight, phase.window)
                }
                // A plan that resets connections: the slot waits for the
                // reconnect, bounded by the deadline and the quorum cut.
                None if resets => continue,
                None => GatherPoll::Failed(CollectFailure::Disconnect),
            };
            let failure = match polled {
                GatherPoll::Idle => continue,
                GatherPoll::Progress => {
                    progressed = true;
                    continue;
                }
                GatherPoll::Reply(..) if slot.submitted => {
                    in_flight -= 1;
                    CollectFailure::Duplicate
                }
                GatherPoll::Reply(done, frames) => {
                    progressed = true;
                    slot.submitted = true;
                    slot.copies -= 1;
                    if slot.copies == 0 {
                        slot.open = false;
                        gathering -= 1;
                    }
                    // The admission slot passes from the assembly to the
                    // sink; it frees when the reply settles.
                    let n = sink(Some(Reply { id, done, frames }));
                    in_flight -= n;
                    settled += n;
                    continue;
                }
                GatherPoll::Failed(failure) => {
                    if slot.conn.admitted {
                        in_flight -= 1;
                    }
                    slot.conn = ConnGather::new();
                    failure
                }
            };
            progressed = true;
            if resets && matches!(failure, CollectFailure::Disconnect) {
                // A scheduled reset: drop the stream, keep the slot.
                peers.drop_peer(role, id);
                continue;
            }
            slot.open = false;
            gathering -= 1;
            slot.faulted = true;
            // A duplicate leaves the stream in sync for the next phase.
            if !matches!(failure, CollectFailure::Duplicate) {
                peers.drop_peer(role, id);
            }
            failures.push((id, failure));
        }

        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // Back to blocking mode for the next phase's writes.
    for &id in ids {
        nonblocking(peers, id, false);
    }
    failures.sort_by_key(|(id, _)| *id);
    failures
}
