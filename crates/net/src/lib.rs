//! Networked federated runtime: a TCP coordinator and client nodes that
//! speak the `spatl-wire` protocol over real sockets.
//!
//! The in-process simulator (`spatl-fl`) and this crate share one round
//! engine — [`RoundDriver`](spatl_fl::RoundDriver) — so the *only* thing
//! that differs between a simulated round and a networked round is how
//! the sealed frames travel. A loopback run with the same seeds produces
//! a global model bit-identical to the simulator's (integration-tested
//! for all five algorithms).
//!
//! Architecture (DESIGN.md §10 is the narrative version):
//!
//! * One networked round. The root — flat or tiered, one round body —
//!   its failover lane and the edge all put a round on sockets the same
//!   way: a peer table (listener, registered connections, the handshake,
//!   the assignment writer), a reply parser (frame → [`RoundDone`] or a
//!   classified failure) and a concurrent gather that collects every
//!   reply of a phase — uploads, an edge's combined frame, evaluation
//!   reports — under one phase deadline, with upload dedup and in-round
//!   reconnect. A peer that disconnects or misses the deadline becomes
//!   a ledgered [`FaultRecord`](spatl_fl::FaultRecord) entry, never a
//!   hang.
//! * [`Coordinator`] — the root: registers nodes via the control-plane
//!   handshake ([`proto::Hello`]/[`proto::Join`]), then drives rounds:
//!   broadcast the sealed global state, gather, screen and aggregate
//!   through the shared driver, evaluate, record.
//! * [`EdgeAggregator`] — the middle tier of a 2-level tree (DESIGN.md
//!   §11): terminates one [`edge_partition`](spatl_fl::edge_partition)
//!   slice of the clients and relays their replies — each header as an
//!   entry, its upload frames undecoded — in one
//!   [`EdgeCombined`](spatl_wire::EdgeCombined) frame to the root per
//!   round, which folds them in the round body a flat root runs.
//! * [`ClientNode`] — owns one [`ClientState`](spatl_fl::ClientState),
//!   connects with capped exponential backoff (and reconnects after a
//!   coordinator restart, preserving client-side state), trains on
//!   assignment and streams its upload frames back.
//! * [`proto`] — the control-plane payload codecs
//!   (`Hello`/`Join`/`RoundAssign`/`RoundDone`; `Shutdown` is an empty
//!   payload).
//!
//! The binaries `spatl-server`, `spatl-client` and `spatl-edge` wrap the
//! endpoints for multi-process runs; see the README quickstart.

#![deny(missing_docs)]

use std::fmt;
use std::io;

use spatl::CheckpointError;
use spatl_fl::ConfigError;
use spatl_wire::{StreamError, WireError};

pub mod coordinator;
pub mod edge;
mod gather;
pub mod node;
mod peers;
pub mod proto;

pub use coordinator::{Coordinator, CoordinatorConfig};
pub use edge::{EdgeAggregator, EdgeConfig, EdgeReport};
pub use node::{ClientNode, NodeConfig, NodeReport};
pub use proto::{session_fingerprint, Hello, HelloRole, Join, RoundAssign, RoundDone, RoundMode};
pub use spatl_fl::Topology;

/// Everything that can go wrong at a networked endpoint.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (bind, connect, timeout configuration).
    Io(io::Error),
    /// Frame-transport failure while reading or writing a stream.
    Stream(StreamError),
    /// A frame arrived but its envelope or payload did not decode.
    Wire(WireError),
    /// The round log could not be created or recovered
    /// ([`Coordinator::bind`]).
    Checkpoint(CheckpointError),
    /// The session cannot run on the endpoint's topology
    /// ([`FlConfig::check`](spatl_fl::FlConfig::check)); refused before
    /// any socket is bound.
    Config(ConfigError),
    /// The peer violated the control-plane protocol (unexpected message
    /// type, mismatched round or client id).
    Protocol(String),
    /// The coordinator rejected this node's registration — the two
    /// processes were started with different run configurations
    /// (see [`session_fingerprint`]). Not retried: reconnecting with the
    /// same configuration would be rejected again.
    Rejected,
    /// The connection was lost and the reconnect budget is exhausted.
    Disconnected,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Stream(e) => write!(f, "frame transport error: {e}"),
            NetError::Wire(e) => write!(f, "wire decode error: {e}"),
            NetError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            NetError::Config(e) => write!(f, "{e}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Rejected => write!(
                f,
                "registration rejected: session fingerprint mismatch \
                 (server and client were started with different configurations)"
            ),
            NetError::Disconnected => write!(f, "connection lost and reconnect budget exhausted"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<StreamError> for NetError {
    fn from(e: StreamError) -> Self {
        NetError::Stream(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<ConfigError> for NetError {
    fn from(e: ConfigError) -> Self {
        NetError::Config(e)
    }
}

impl From<CheckpointError> for NetError {
    fn from(e: CheckpointError) -> Self {
        NetError::Checkpoint(e)
    }
}
