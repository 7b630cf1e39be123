//! The peer table: the downstream connections a root or an edge has
//! registered, with the one handshake, assignment writer and goodbye
//! every networked round shares (DESIGN.md §10).
//!
//! A peer is addressed by its [`HelloRole`] and wire id. A flat root and
//! an edge hold client peers only; a tiered root holds its edges *and* —
//! the failover lane of DESIGN.md §8 — the clients of dead edges, on
//! one listener. Sockets are blocking with the io deadline while the
//! table writes to them; the gather flips the peers of a phase to
//! non-blocking for as long as it collects their replies.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

use spatl_wire::{open, read_frame, seal, write_frame, MsgType, MAX_FRAME_PAYLOAD};

use crate::proto::{Hello, HelloRole, Join};
use crate::NetError;

/// Listener plus id-indexed connection slots of one endpoint.
pub(crate) struct PeerTable {
    /// `None` once [`PeerTable::shutdown_all`] ended the session: a dial
    /// is then refused instead of waiting on a `Join` nobody sends.
    listener: Option<TcpListener>,
    addr: SocketAddr,
    /// One slot per edge peer, then one per client id of `clients`.
    slots: Vec<Option<TcpStream>>,
    /// Client-id slice homed behind each edge peer (tiered root only).
    homes: Vec<Range<usize>>,
    /// Client ids that may register here.
    clients: Range<usize>,
    fingerprint: u64,
    /// Write deadline (broadcasts) and handshake read deadline.
    io_timeout: Duration,
    /// How long one reply phase may take, from its broadcast.
    pub(crate) round_timeout: Duration,
}

impl PeerTable {
    /// Bind `addr` for one edge peer per entry of `homes` and the client
    /// ids of `clients`; nothing is accepted until asked.
    pub(crate) fn bind(
        addr: &str,
        homes: Vec<Range<usize>>,
        clients: Range<usize>,
        fingerprint: u64,
        (io_timeout, round_timeout): (Duration, Duration),
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(PeerTable {
            addr: listener.local_addr()?,
            listener: Some(listener),
            slots: (0..homes.len() + clients.len()).map(|_| None).collect(),
            homes,
            clients,
            fingerprint,
            io_timeout,
            round_timeout,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub(crate) fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.addr)
    }

    /// Client-id slice homed behind each edge peer.
    pub(crate) fn homes(&self) -> &[Range<usize>] {
        &self.homes
    }

    fn slot(&self, role: HelloRole, id: usize) -> Option<usize> {
        match role {
            HelloRole::Edge => (id < self.homes.len()).then_some(id),
            HelloRole::Client => self
                .clients
                .contains(&id)
                .then(|| self.homes.len() + id - self.clients.start),
        }
    }

    /// The live connection of peer `id`, if it has one.
    pub(crate) fn stream(&mut self, role: HelloRole, id: usize) -> Option<&mut TcpStream> {
        self.slot(role, id).and_then(|s| self.slots[s].as_mut())
    }

    /// Forget peer `id`'s connection (closing it).
    pub(crate) fn drop_peer(&mut self, role: HelloRole, id: usize) {
        if let Some(s) = self.slot(role, id) {
            self.slots[s] = None;
        }
    }

    /// Every id a `role` peer may register under.
    fn ids(&self, role: HelloRole) -> Range<usize> {
        match role {
            HelloRole::Edge => 0..self.homes.len(),
            HelloRole::Client => self.clients.clone(),
        }
    }

    /// Ids of the `role` peers that hold a live connection, ascending.
    pub(crate) fn live(&self, role: HelloRole) -> Vec<usize> {
        self.ids(role)
            .filter(|&id| self.slot(role, id).is_some_and(|s| self.slots[s].is_some()))
            .collect()
    }

    /// Accept until every `role` peer is registered or `timeout` elapses;
    /// returns how many are. Missing peers are not fatal — when sampled
    /// they are ledgered as dropouts.
    pub(crate) fn wait_for(&mut self, role: HelloRole, timeout: Duration, round: u32) -> usize {
        let deadline = Instant::now() + timeout;
        loop {
            self.accept_pending(round);
            let connected = self.live(role).len();
            if connected == self.ids(role).len() || Instant::now() >= deadline {
                return connected;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Register every connection pending on the listener; `round` is the
    /// next round index the `Join` verdicts advertise. A failed handshake
    /// (bad `Hello`, fingerprint mismatch, inadmissible id) rejects that
    /// socket and keeps accepting. Returns the peers registered.
    pub(crate) fn accept_pending(&mut self, round: u32) -> Vec<(HelloRole, usize)> {
        let mut joined = Vec::new();
        // Any accept error, `WouldBlock` included, ends the sweep.
        while let Some(Ok((stream, _))) = self.listener.as_ref().map(TcpListener::accept) {
            joined.extend(self.handshake(stream, round).ok());
        }
        joined
    }

    /// Read one sealed [`Hello`] off a fresh connection, answer with the
    /// [`Join`] verdict and, when accepted, register the stream — latest
    /// registration wins, so a reconnecting node replaces its dead
    /// predecessor. An edge is admitted by id. A client is admitted when
    /// its id is served here and no live edge is its home: a client
    /// dialing the tiered root while its edge is alive bounces back.
    fn handshake(
        &mut self,
        mut stream: TcpStream,
        round: u32,
    ) -> Result<(HelloRole, usize), NetError> {
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        let frame = read_frame(&mut stream, MAX_FRAME_PAYLOAD)?
            .ok_or_else(|| NetError::Protocol("connection closed before Hello".into()))?;
        let (msg, payload) = open(&frame)?;
        if msg != MsgType::Hello {
            return Err(NetError::Protocol(format!("expected Hello, got {msg:?}")));
        }
        let hello = Hello::decode(payload)?;
        let id = hello.client_id as usize;
        let orphaned = || {
            let home = self.homes.iter().position(|r| r.contains(&id));
            home.is_none_or(|e| self.slots[e].is_none())
        };
        let slot = self
            .slot(hello.role, id)
            .filter(|_| hello.fingerprint == self.fingerprint)
            .filter(|_| hello.role == HelloRole::Edge || orphaned());
        let verdict = Join {
            accepted: slot.is_some(),
            round,
        };
        write_frame(&mut stream, &seal(MsgType::Join, &verdict.encode()))?;
        self.slots[slot.ok_or(NetError::Rejected)?] = Some(stream);
        Ok((hello.role, id))
    }

    /// Write one round assignment — a sealed `RoundAssign` and its
    /// broadcast frames, built once per phase — to peer `id` in one
    /// write. Returns whether the peer was reached; one that cannot be
    /// written to is dropped.
    pub(crate) fn send_assignment(&mut self, role: HelloRole, id: usize, msg: &[u8]) -> bool {
        let sent = self
            .stream(role, id)
            .is_some_and(|stream| write_frame(stream, msg).is_ok());
        if !sent {
            self.drop_peer(role, id);
        }
        sent
    }

    /// Say [`MsgType::Shutdown`] to every registered peer, forget it,
    /// and stop listening.
    pub(crate) fn shutdown_all(&mut self) {
        self.listener = None;
        let bye = seal(MsgType::Shutdown, &[]);
        for slot in &mut self.slots {
            if let Some(mut stream) = slot.take() {
                let _ = write_frame(&mut stream, &bye);
            }
        }
    }

    /// Forget every peer without a goodbye (an edge the fault plan killed).
    pub(crate) fn drop_all(&mut self) {
        self.slots.iter_mut().for_each(|slot| *slot = None);
    }
}
