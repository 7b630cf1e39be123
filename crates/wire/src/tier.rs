//! Hierarchical-tier payload codec: the [`EdgeCombined`] frame an edge
//! aggregator sends its root coordinator once per round.
//!
//! A 2-tier topology puts an edge between the clients and the root. The
//! edge is a relay: it collects its slice of the cohort over the
//! ordinary client protocol and forwards **one** combined upload
//! upstream, decoding nothing. The payload has two parts:
//!
//! 1. **Entries** — one [`EdgeEntry`] per collected client: its
//!    `RoundDone` header without the round, mode and frame count (sample
//!    weight, τ, byte accounting, divergence flag, accuracy in eval
//!    rounds), and, in train rounds, its sealed upload frames
//!    *verbatim*. Client ids ascend strictly, inside the edge's slice —
//!    its sampled slice in a train round, its home slice in an eval
//!    round; a root refuses any other frame as corrupt. The root turns
//!    each entry back into its client's reply and runs it through the
//!    round body a flat root runs, so the tiered fold is the flat fold.
//! 2. **Fault counters** — the numeric half of the edge's per-round fault
//!    ledger ([`TierFaultCounters`]), added into the root's ledger so the
//!    tree-wide record composes. Individual fault *events* stay
//!    edge-local (they can be unbounded; the counters are what the
//!    experiment roster consumes).
//!
//! Layout of the [`MsgType::EdgeCombined`] payload (byte rules in
//! [`crate::bytes`]; every `n_*` is a counted `u32`):
//!
//! ```text
//! edge_id u32 · round u32 · fault counters 11×u32
//! n_entries u32 · entries…
//!   entry: client_id u32 · n_samples u64 · tau u64 · diverged u8
//!          keep_ratio f32 · flops_ratio f32 · accuracy f32
//!          bytes_download u64 · bytes_upload u64
//!          upload_payload u64 · upload_framed u64
//!          n_frames u32 · frames… (each: len u32 · bytes)
//! reserved u8 = 0
//! ```
//!
//! The reserved byte once flagged a pre-reduced robust summary that
//! followed it. Writers put 0 there and readers refuse anything else, so
//! a frame from an edge that still pre-reduces is `Malformed`, not
//! misread, and the layout (and `WIRE_VERSION`) stays as it was.

use crate::bytes::{put_count, put_f32s, put_u32, put_u32s, put_u64, put_u64s, Reader};
use crate::envelope::MsgType;
use crate::error::WireError;

/// The numeric half of one edge's per-round fault ledger — the counters
/// of `spatl_fl::FaultRecord` without the unbounded event list, which
/// stays on the edge. The root adds these into its own round ledger so
/// the tree-wide counters equal what a flat coordinator would have
/// recorded.
///
/// Three slots are retired: `stragglers`, `retries` and
/// `retry_exhausted` counted outcomes of a simulator-only fault model
/// that no runtime has any more. They keep their place in the layout, so
/// the `EdgeCombined` bytes do not change: writers put 0 there and
/// readers ignore what they find. Never reuse them for another counter —
/// an older edge may still send its own values in them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierFaultCounters {
    /// Clients of this edge's slice the round sampled.
    pub sampled: u32,
    /// Sampled clients that dropped out before training.
    pub dropouts: u32,
    /// Retired: written as 0, ignored on read.
    pub stragglers: u32,
    /// Participants excluded for missing the collection deadline.
    pub deadline_dropped: u32,
    /// Replies that arrived but did not decode.
    pub corrupted_uploads: u32,
    /// Retired: written as 0, ignored on read.
    pub retries: u32,
    /// Retired: written as 0, ignored on read.
    pub retry_exhausted: u32,
    /// Clients that self-reported a non-finite local delta.
    pub local_divergence: u32,
    /// Uploads a configured adversary plan tampered with.
    pub byzantine: u32,
    /// Uploads a screen policy quarantined (0 from a relaying edge: the
    /// root screens).
    pub quarantined: u32,
    /// Retransmitted uploads already folded this round and discarded by
    /// the per-(round, client) dedup guard.
    pub duplicates: u32,
}

/// One collected client's contribution inside an [`EdgeCombined`]: the
/// bookkeeping a flat coordinator reads from the client's `RoundDone`
/// header, plus (train rounds) the client's sealed upload frames,
/// byte-for-byte as the client produced them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeEntry {
    /// Global client id (strictly ascending within the frame).
    pub client_id: u32,
    /// Local training-set size (aggregation weight).
    pub n_samples: u64,
    /// Local optimisation steps taken.
    pub tau: u64,
    /// Whether local training produced a non-finite delta.
    pub diverged: bool,
    /// Fraction of shared parameters uploaded.
    pub keep_ratio: f32,
    /// FLOPs ratio of the (masked) local model.
    pub flops_ratio: f32,
    /// Validation accuracy (eval rounds; zero in train rounds).
    pub accuracy: f32,
    /// Analytic Eq. 13 download bytes this round cost the client.
    pub bytes_download: u64,
    /// Analytic Eq. 13 upload bytes.
    pub bytes_upload: u64,
    /// Measured upload tensor-payload bytes (client→edge link).
    pub upload_payload: u64,
    /// Measured upload bytes on the wire, framing included.
    pub upload_framed: u64,
    /// The client's sealed upload frames, verbatim. Empty in eval
    /// rounds, whose entries carry bookkeeping only.
    pub frames: Vec<Vec<u8>>,
}

/// One edge aggregator's combined upload for one round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeCombined {
    /// The edge's id (its `Hello.client_id` on the root link).
    pub edge_id: u32,
    /// Round this upload answers.
    pub round: u32,
    /// The edge's fault-ledger counters for the round.
    pub faults: TierFaultCounters,
    /// Per-client bookkeeping (and frames, in train rounds), ascending
    /// client id.
    pub entries: Vec<EdgeEntry>,
}

/// Serialize an [`EdgeCombined`] into [`MsgType::EdgeCombined`] payload
/// bytes (the caller seals it).
pub fn encode_edge_combined(msg: &EdgeCombined) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, msg.edge_id);
    put_u32(&mut out, msg.round);
    let f = &msg.faults;
    put_u32s(
        &mut out,
        &[
            f.sampled,
            f.dropouts,
            f.stragglers,
            f.deadline_dropped,
            f.corrupted_uploads,
            f.retries,
            f.retry_exhausted,
            f.local_divergence,
            f.byzantine,
            f.quarantined,
            f.duplicates,
        ],
    );
    put_count(&mut out, msg.entries.len());
    for e in &msg.entries {
        put_u32(&mut out, e.client_id);
        put_u64(&mut out, e.n_samples);
        put_u64(&mut out, e.tau);
        out.push(u8::from(e.diverged));
        put_f32s(&mut out, &[e.keep_ratio, e.flops_ratio, e.accuracy]);
        put_u64s(
            &mut out,
            &[
                e.bytes_download,
                e.bytes_upload,
                e.upload_payload,
                e.upload_framed,
            ],
        );
        put_count(&mut out, e.frames.len());
        for frame in &e.frames {
            put_count(&mut out, frame.len());
            out.extend_from_slice(frame);
        }
    }
    out.push(0); // reserved
    out
}

/// Wire bytes of an entry with no frames: the stride that bounds
/// `n_entries` by the payload.
const MIN_ENTRY_BYTES: usize = 4 + 8 + 8 + 1 + 3 * 4 + 4 * 8 + 4;
/// Wire bytes of a frame with no bytes (its length prefix): the stride
/// that bounds `n_frames`.
const MIN_FRAME_BYTES: usize = 4;

fn decode_entry(c: &mut Reader) -> Result<EdgeEntry, WireError> {
    Ok(EdgeEntry {
        client_id: c.u32()?,
        n_samples: c.u64()?,
        tau: c.u64()?,
        diverged: c.flag("diverged")?,
        keep_ratio: c.f32()?,
        flops_ratio: c.f32()?,
        accuracy: c.f32()?,
        bytes_download: c.u64()?,
        bytes_upload: c.u64()?,
        upload_payload: c.u64()?,
        upload_framed: c.u64()?,
        frames: c.counted(MIN_FRAME_BYTES, |c| {
            let len = c.count(1)?;
            Ok(c.take(len)?.to_vec())
        })?,
    })
}

/// Decode a [`MsgType::EdgeCombined`] payload.
pub fn decode_edge_combined(payload: &[u8]) -> Result<EdgeCombined, WireError> {
    let mut c = Reader::new(payload);
    let msg = EdgeCombined {
        edge_id: c.u32()?,
        round: c.u32()?,
        faults: TierFaultCounters {
            sampled: c.u32()?,
            dropouts: c.u32()?,
            stragglers: c.u32()?,
            deadline_dropped: c.u32()?,
            corrupted_uploads: c.u32()?,
            retries: c.u32()?,
            retry_exhausted: c.u32()?,
            local_divergence: c.u32()?,
            byzantine: c.u32()?,
            quarantined: c.u32()?,
            duplicates: c.u32()?,
        },
        entries: c.counted(MIN_ENTRY_BYTES, decode_entry)?,
    };
    match c.u8()? {
        0 => c.finish()?,
        other => {
            return Err(WireError::Malformed(format!(
                "edge-combined reserved byte must be 0, got {other}"
            )))
        }
    }
    Ok(msg)
}

/// Seal an [`EdgeCombined`] into a framed [`MsgType::EdgeCombined`]
/// envelope (convenience over [`encode_edge_combined`] + `seal`).
pub fn seal_edge_combined(msg: &EdgeCombined) -> Vec<u8> {
    crate::envelope::seal(MsgType::EdgeCombined, &encode_edge_combined(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{open, seal};

    fn sample() -> EdgeCombined {
        EdgeCombined {
            edge_id: 1,
            round: 7,
            faults: TierFaultCounters {
                sampled: 3,
                dropouts: 1,
                corrupted_uploads: 2,
                retries: 1,
                quarantined: 1,
                duplicates: 1,
                ..Default::default()
            },
            entries: vec![
                EdgeEntry {
                    client_id: 2,
                    n_samples: 18,
                    tau: 3,
                    diverged: false,
                    keep_ratio: 0.5,
                    flops_ratio: 0.75,
                    accuracy: 0.0,
                    bytes_download: 100,
                    bytes_upload: 50,
                    upload_payload: 48,
                    upload_framed: 64,
                    frames: vec![seal(MsgType::DenseUpdate, &[1, 2, 3]), Vec::new()],
                },
                EdgeEntry {
                    client_id: 3,
                    diverged: true,
                    ..Default::default()
                },
            ],
        }
    }

    #[test]
    fn round_trips() {
        let msg = sample();
        let decoded = decode_edge_combined(&encode_edge_combined(&msg)).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn minimal_round_trips() {
        let msg = EdgeCombined {
            edge_id: 0,
            round: 0,
            ..Default::default()
        };
        let decoded = decode_edge_combined(&encode_edge_combined(&msg)).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn sealed_frame_round_trips() {
        let msg = sample();
        let frame = seal_edge_combined(&msg);
        let (tag, payload) = open(&frame).unwrap();
        assert_eq!(tag, MsgType::EdgeCombined);
        assert_eq!(decode_edge_combined(payload).unwrap(), msg);
    }

    #[test]
    fn every_truncation_is_an_error() {
        let bytes = encode_edge_combined(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_edge_combined(&bytes[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_edge_combined(&sample());
        bytes.push(0);
        assert!(matches!(
            decode_edge_combined(&bytes),
            Err(WireError::Malformed(_))
        ));
    }

    /// Byte offset of the first entry: edge_id, round, 11 counters and
    /// n_entries.
    const FIRST_ENTRY: usize = 4 + 4 + 11 * 4 + 4;

    #[test]
    fn encoded_length_follows_the_layout() {
        let msg = sample();
        let bytes = encode_edge_combined(&msg);
        let entries: usize = msg
            .entries
            .iter()
            .map(|e| MIN_ENTRY_BYTES + e.frames.iter().map(|f| 4 + f.len()).sum::<usize>())
            .sum();
        assert_eq!(bytes.len(), FIRST_ENTRY + entries + 1);
        assert_eq!(
            bytes.last(),
            Some(&0),
            "the reserved byte closes the payload"
        );
    }

    #[test]
    fn every_nonzero_reserved_byte_is_malformed() {
        let mut bytes = encode_edge_combined(&sample());
        let last = bytes.len() - 1;
        for reserved in 1..=u8::MAX {
            bytes[last] = reserved;
            assert!(
                matches!(decode_edge_combined(&bytes), Err(WireError::Malformed(_))),
                "reserved byte {reserved} decoded"
            );
        }
    }

    #[test]
    fn a_diverged_byte_other_than_zero_or_one_is_malformed() {
        let mut bytes = encode_edge_combined(&sample());
        let diverged = FIRST_ENTRY + 4 + 8 + 8;
        assert_eq!(bytes[diverged], 0, "the first entry did not diverge");
        bytes[diverged] = 2;
        assert!(matches!(
            decode_edge_combined(&bytes),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn frames_are_relayed_verbatim_whatever_they_hold() {
        // The edge never opens a frame, so bytes that are no envelope at
        // all (and an empty frame) travel unchanged; the root judges them.
        let frames = vec![vec![0xFF; 3], Vec::new(), (0..=255).collect(), vec![0; 1]];
        let msg = EdgeCombined {
            entries: vec![EdgeEntry {
                frames: frames.clone(),
                ..Default::default()
            }],
            ..Default::default()
        };
        let decoded = decode_edge_combined(&encode_edge_combined(&msg)).unwrap();
        assert_eq!(decoded.entries[0].frames, frames);
    }

    #[test]
    fn float_bookkeeping_round_trips_bitwise() {
        let entry = EdgeEntry {
            keep_ratio: -0.0,
            flops_ratio: f32::from_bits(0x7FC0_0001),
            accuracy: f32::MIN_POSITIVE / 2.0,
            ..Default::default()
        };
        let msg = EdgeCombined {
            entries: vec![entry.clone()],
            ..Default::default()
        };
        let decoded = decode_edge_combined(&encode_edge_combined(&msg)).unwrap();
        let bits = |e: &EdgeEntry| [e.keep_ratio, e.flops_ratio, e.accuracy].map(f32::to_bits);
        assert_eq!(bits(&decoded.entries[0]), bits(&entry));
    }

    #[test]
    fn a_frame_count_past_the_payload_is_truncated() {
        let mut bytes = encode_edge_combined(&sample());
        let n_frames = FIRST_ENTRY + MIN_ENTRY_BYTES - 4;
        assert_eq!(bytes[n_frames..n_frames + 4], 2u32.to_le_bytes());
        bytes[n_frames..n_frames + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_edge_combined(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn a_frame_length_past_the_payload_is_truncated() {
        let mut bytes = encode_edge_combined(&sample());
        let len = FIRST_ENTRY + MIN_ENTRY_BYTES;
        let first = sample().entries[0].frames[0].len() as u32;
        assert_eq!(bytes[len..len + 4], first.to_le_bytes());
        bytes[len..len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_edge_combined(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupt_length_cannot_over_allocate() {
        // A u32::MAX entry count must fail fast as truncation, not OOM.
        let mut bytes = encode_edge_combined(&EdgeCombined::default());
        // n_entries sits after edge_id + round + 11 counters = 52 bytes.
        bytes[52..56].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_edge_combined(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }
}
