//! spatl-wire: the binary wire protocol for federated rounds.
//!
//! Every server↔client exchange in the SPATL simulation moves through
//! this crate: payload codecs serialize each algorithm's traffic into
//! little-endian bytes, a fixed 16-byte envelope frames them with a
//! magic, version, message-type tag, length and CRC-32, and [`SimNet`]
//! converts the resulting frame sizes into simulated transfer times.
//!
//! Module map:
//!
//! * [`bytes`] — the byte rules, once: the checked [`bytes::Reader`]
//!   cursor and the `put_*` writers every codec below is written over.
//! * [`envelope`] — frame header, [`seal`]/[`open`], [`MsgType`] tags.
//! * [`codec`] — payload layouts: dense f32, paired vectors (SCAFFOLD /
//!   FedNova, and SPATL's download), SPATL's channel-indexed upload.
//! * [`layout`] — [`SelectionLayout`], the channel-id ↔ flat-index map
//!   shared by both ends of a SPATL session.
//! * [`stream`] — [`read_frame`]/[`write_frame`] over byte streams, with
//!   a bounded maximum frame size.
//! * [`tier`] — the 2-tier relay: the [`EdgeCombined`] upload an edge
//!   forwards to its root, its clients' sealed frames inside.
//! * [`privacy`] — masked / fixed-point upload payloads and the
//!   unmask-share dropout-recovery frames (secure aggregation).
//! * [`sim`] — [`SimNet`] analytic transport model.
//! * [`crc32`] — the frame checksum (carry-less multiply where the CPU
//!   has it, slicing-by-16 tables everywhere).
//!
//! Design rules: explicit little-endian everywhere, no `unsafe` outside
//! the checksum's carry-less-multiply kernel, no self-describing
//! serialization on the hot path, and decoders return [`WireError`]
//! instead of panicking on any malformed input.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bytes;
pub mod codec;
pub mod crc32;
pub mod envelope;
pub mod error;
pub mod layout;
pub mod privacy;
pub mod sim;
pub mod stream;
pub mod tier;

pub use codec::{
    decode_dense, decode_pair, decode_spatl_update, encode_dense, encode_pair, encode_spatl_update,
    Pair, SpatlUpdate, SPATL_UPDATE_METADATA,
};
pub use envelope::{flip_bit, open, seal, MsgType, HEADER_LEN, MAGIC, WIRE_VERSION};
pub use error::WireError;
pub use layout::{IndexRange, SelectionLayout};
pub use privacy::{
    decode_fixed_dense, decode_masked_upload, decode_unmask_request, decode_unmask_shares,
    encode_fixed_dense, encode_masked_upload, encode_unmask_request, encode_unmask_shares,
    MASKED_METADATA,
};
pub use sim::{LinkSpec, SimNet};
pub use stream::{read_frame, write_frame, FramePoll, FrameReader, StreamError, MAX_FRAME_PAYLOAD};
pub use tier::{
    decode_edge_combined, encode_edge_combined, seal_edge_combined, EdgeCombined, EdgeEntry,
    TierFaultCounters,
};
