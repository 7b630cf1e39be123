//! The frame envelope: a fixed 16-byte header wrapping every payload.
//!
//! Layout (all multi-byte fields little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic        b"SPTL"
//! 4       1     version      WIRE_VERSION (currently 1)
//! 5       1     msg type     MsgType tag byte
//! 6       2     reserved     zero on encode, ignored on decode
//! 8       4     payload len  u32, bytes following the header
//! 12      4     crc32        IEEE CRC-32 of header bytes 0-11 + payload
//! 16      ...   payload
//! ```
//!
//! The reserved halfword keeps the payload 8-byte-aligned relative to the
//! frame start and leaves room for flags without a version bump.
//!
//! The CRC covers the first twelve header bytes as well as the payload.
//! Covering only the payload would leave two single-bit-flip blind spots:
//! the reserved halfword (ignored on decode, so a flip there would pass
//! silently) and tag flips between two *valid* tags (e.g. `DenseUpdate`
//! 0x02 ↔ `ScaffoldModel` 0x03), which would decode as the wrong message
//! kind instead of failing.

use crate::bytes::{put_count, put_u32, Reader};
use crate::crc32::Hasher;
use crate::error::WireError;

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SPTL";

/// Protocol version this build encodes and accepts.
pub const WIRE_VERSION: u8 = 1;

/// Size of the fixed header preceding every payload.
pub const HEADER_LEN: usize = 16;

/// Message kinds carried over the wire, one per direction/algorithm pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgType {
    /// Server→client: dense f32 model weights (FedAvg / FedProx download,
    /// FedNova download without momentum).
    DenseModel = 0x01,
    /// Client→server: dense f32 model delta (FedAvg / FedProx upload).
    DenseUpdate = 0x02,
    /// Server→client: weights + server control variate (SCAFFOLD download).
    ScaffoldModel = 0x03,
    /// Client→server: delta + client control-variate delta (SCAFFOLD upload).
    ScaffoldUpdate = 0x04,
    /// Server→client: weights + aggregated momentum (FedNova download).
    FedNovaModel = 0x05,
    /// Client→server: normalized delta + local momentum (FedNova upload).
    FedNovaUpdate = 0x06,
    /// Server→client: encoder parameters (SPATL download), optionally with
    /// the gradient-control vector.
    SpatlEncoder = 0x07,
    /// Client→server: salient values + selected channel ids (SPATL upload).
    SpatlUpdate = 0x08,
    // 0x09 and 0x0A are retired (they tagged the top-k sparse and
    // f16-quantized upload codecs): `from_tag` refuses them, and they are
    // never to be reused, so a frame from an older build cannot decode
    // as some other message.
    /// Either direction: batch-norm running statistics, sent as a dense f32
    /// auxiliary frame next to the main model/update frame.
    BnStats = 0x0B,
    /// Client→server control plane: a node introduces itself (client id +
    /// session fingerprint) when (re)connecting to a coordinator.
    Hello = 0x0C,
    /// Server→client control plane: the coordinator accepts (or rejects) a
    /// [`MsgType::Hello`] and reports the next round index.
    Join = 0x0D,
    /// Server→client control plane: round kickoff — round index, mode
    /// (train or evaluate) and the number of model frames that follow on
    /// the stream.
    RoundAssign = 0x0E,
    /// Client→server control plane: round completion — upload metadata
    /// (sample count, τ, ratios, accuracy) and the number of upload frames
    /// that follow on the stream.
    RoundDone = 0x0F,
    /// Either direction control plane: orderly session termination; the
    /// coordinator checkpoints its state before propagating it.
    Shutdown = 0x10,
    /// Edge→root: one relaying edge's combined upload for a round —
    /// per-client bookkeeping, every collected client's sealed upload
    /// frames verbatim (train rounds), the edge's fault-ledger counters,
    /// and one reserved zero byte. See `spatl_wire::tier`.
    EdgeCombined = 0x11,
    /// Client→server: a pairwise-masked upload — every lane of the clear
    /// upload re-expressed as 384-bit grid integers under the cohort's
    /// cancelling masks. See `spatl_wire::privacy`.
    MaskedUpload = 0x12,
    /// Client→server: a bounded-L2 fixed-point upload — `i32` grid values
    /// with calibrated discrete noise, byte-parallel to the clear layout.
    FixedUpload = 0x13,
    /// Server→client control plane: the coordinator names the cohort
    /// members that never reported and asks a survivor for its unmask
    /// shares.
    UnmaskRequest = 0x14,
    /// Client→server control plane: the survivor's pair bases for the
    /// dropped members, letting the coordinator cancel orphaned masks.
    UnmaskShare = 0x15,
}

impl MsgType {
    /// Parse a tag byte.
    pub fn from_tag(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0x01 => MsgType::DenseModel,
            0x02 => MsgType::DenseUpdate,
            0x03 => MsgType::ScaffoldModel,
            0x04 => MsgType::ScaffoldUpdate,
            0x05 => MsgType::FedNovaModel,
            0x06 => MsgType::FedNovaUpdate,
            0x07 => MsgType::SpatlEncoder,
            0x08 => MsgType::SpatlUpdate,
            0x0B => MsgType::BnStats,
            0x0C => MsgType::Hello,
            0x0D => MsgType::Join,
            0x0E => MsgType::RoundAssign,
            0x0F => MsgType::RoundDone,
            0x10 => MsgType::Shutdown,
            0x11 => MsgType::EdgeCombined,
            0x12 => MsgType::MaskedUpload,
            0x13 => MsgType::FixedUpload,
            0x14 => MsgType::UnmaskRequest,
            0x15 => MsgType::UnmaskShare,
            other => return Err(WireError::BadTag(other)),
        })
    }

    /// The wire tag byte.
    pub fn tag(self) -> u8 {
        self as u8
    }
}

/// Header bytes the CRC covers (everything before the CRC field itself).
const CRC_COVERED: usize = 12;

fn frame_crc(header: &[u8], payload: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(&header[..CRC_COVERED]);
    h.update(payload);
    h.finalize()
}

/// Wrap `payload` in a framed envelope.
pub fn seal(msg: MsgType, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&[WIRE_VERSION, msg.tag(), 0, 0]);
    put_count(&mut frame, payload.len());
    let crc = frame_crc(&frame, payload);
    put_u32(&mut frame, crc);
    frame.extend_from_slice(payload);
    frame
}

/// A frame's fixed header, parsed and validated.
#[derive(Debug)]
pub(crate) struct Header {
    pub(crate) msg: MsgType,
    /// Payload bytes the header advertises, already checked against the
    /// caller's cap.
    pub(crate) payload_len: usize,
    pub(crate) crc: u32,
}

/// The one header parser, for frames in memory ([`open`]) and frames
/// being assembled from a stream (`FrameReader`). Checks, in the order
/// every receiver reports them: room for a header, magic, version, tag,
/// then the advertised payload length against `cap` — what a buffer
/// holds, or what a stream reader may allocate. `over_cap` names that
/// last failure in the caller's error type.
pub(crate) fn parse_header<E: From<WireError>>(
    bytes: &[u8],
    cap: usize,
    over_cap: impl FnOnce(usize) -> E,
) -> Result<Header, E> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            available: bytes.len(),
        }
        .into());
    }
    let mut r = Reader::new(bytes);
    let magic: [u8; 4] = r.array()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic).into());
    }
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::Version {
            found: version,
            supported: WIRE_VERSION,
        }
        .into());
    }
    let msg = MsgType::from_tag(r.u8()?)?;
    r.take(2)?; // reserved
    let payload_len = r.u32()? as usize;
    if payload_len > cap {
        return Err(over_cap(payload_len));
    }
    let crc = r.u32()?;
    Ok(Header {
        msg,
        payload_len,
        crc,
    })
}

/// Validate a framed envelope and return `(msg type, payload bytes)`.
///
/// Checks, in order: length for a header, magic, version, tag, advertised
/// payload length against the buffer, and finally the payload CRC. The
/// error reports the *first* failed check, so version mismatches are
/// reported as such even when the rest of the frame is garbage.
pub fn open(frame: &[u8]) -> Result<(MsgType, &[u8]), WireError> {
    let actual = frame.len().saturating_sub(HEADER_LEN);
    let header = parse_header(frame, actual, |advertised| WireError::Truncated {
        needed: HEADER_LEN + advertised,
        available: frame.len(),
    })?;
    if header.payload_len < actual {
        return Err(WireError::LengthMismatch {
            advertised: header.payload_len,
            actual,
        });
    }
    let payload = &frame[HEADER_LEN..];
    let computed = frame_crc(frame, payload);
    if header.crc != computed {
        return Err(WireError::Crc {
            expected: header.crc,
            actual: computed,
        });
    }
    Ok((header.msg, payload))
}

/// Flip one bit of a frame in place — the canonical fault-injection
/// primitive for exercising the envelope's corruption detection.
/// `bit_index` is taken modulo the frame's bit length, so callers can feed
/// an arbitrary random draw without pre-clamping.
///
/// The CRC-32 covering both the header and the payload guarantees that
/// *any* single-bit flip of a sealed frame makes [`open`] fail with a
/// [`WireError::is_transport_corruption`] error — asserted exhaustively in
/// this module's tests.
pub fn flip_bit(frame: &mut [u8], bit_index: usize) {
    assert!(!frame.is_empty(), "cannot flip a bit of an empty frame");
    let bit = bit_index % (frame.len() * 8);
    frame[bit / 8] ^= 1 << (bit % 8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_round_trip() {
        let payload = b"hello federated world";
        let frame = seal(MsgType::DenseUpdate, payload);
        assert_eq!(frame.len(), HEADER_LEN + payload.len());
        let (msg, got) = open(&frame).unwrap();
        assert_eq!(msg, MsgType::DenseUpdate);
        assert_eq!(got, payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        let frame = seal(MsgType::Shutdown, &[]);
        let (msg, got) = open(&frame).unwrap();
        assert_eq!(msg, MsgType::Shutdown);
        assert!(got.is_empty());
    }

    #[test]
    fn short_frame_is_truncated() {
        let frame = seal(MsgType::DenseModel, b"abc");
        for cut in 0..frame.len() {
            let err = open(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_detected() {
        let mut frame = seal(MsgType::DenseModel, b"abc");
        frame[0] = b'X';
        assert!(matches!(open(&frame), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn version_bump_is_version_error_not_panic() {
        let mut frame = seal(MsgType::DenseModel, b"abc");
        frame[4] = WIRE_VERSION + 1;
        assert_eq!(
            open(&frame).unwrap_err(),
            WireError::Version {
                found: WIRE_VERSION + 1,
                supported: WIRE_VERSION
            }
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        // 0x09 and 0x0A are retired tags: unknown like any other.
        for tag in [0xEE, 0x09, 0x0A] {
            let mut frame = seal(MsgType::DenseModel, b"abc");
            frame[5] = tag;
            // Recompute nothing: the tag check runs before the CRC check, so
            // an invalid tag is reported as such even though the CRC no
            // longer matches the damaged header.
            assert_eq!(open(&frame).unwrap_err(), WireError::BadTag(tag));
        }
    }

    #[test]
    fn payload_corruption_fails_crc() {
        let mut frame = seal(MsgType::DenseModel, b"abcdefgh");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(matches!(open(&frame), Err(WireError::Crc { .. })));
    }

    #[test]
    fn trailing_garbage_is_length_mismatch() {
        let mut frame = seal(MsgType::DenseModel, b"abc");
        frame.push(0xFF);
        assert!(matches!(
            open(&frame),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn every_single_bit_flip_is_detected_as_transport_corruption() {
        // The guarantee fault injection leans on: no single-bit flip of a
        // sealed frame can decode successfully, and every failure is
        // classified as transport corruption (so receivers request a
        // retransmission instead of treating it as a protocol violation).
        let frame = seal(MsgType::DenseUpdate, &[0x00, 0x5A, 0xFF, 0x13, 0x37]);
        for bit in 0..frame.len() * 8 {
            let mut damaged = frame.clone();
            flip_bit(&mut damaged, bit);
            let err = open(&damaged).expect_err("flipped frame must not decode");
            assert!(
                err.is_transport_corruption(),
                "bit {bit} gave non-transport error {err:?}"
            );
        }
    }

    #[test]
    fn flip_bit_wraps_and_is_involutive() {
        let mut frame = seal(MsgType::DenseModel, b"xy");
        let original = frame.clone();
        let n_bits = frame.len() * 8;
        flip_bit(&mut frame, 3);
        flip_bit(&mut frame, 3 + n_bits); // same bit after wrap-around
        assert_eq!(frame, original);
    }

    #[test]
    fn all_tags_round_trip() {
        for tag in (0x01..=0x15).filter(|t| !matches!(t, 0x09 | 0x0A)) {
            let msg = MsgType::from_tag(tag).unwrap();
            assert_eq!(msg.tag(), tag);
        }
        for tag in [0x00, 0x09, 0x0A, 0x16] {
            assert_eq!(MsgType::from_tag(tag), Err(WireError::BadTag(tag)));
        }
    }

    #[test]
    fn retired_tags_fail_in_a_crc_valid_frame() {
        // A frame an older build sealed under a retired tag: every byte
        // is consistent, and the tag alone refuses it.
        for tag in [0x09, 0x0A] {
            let mut frame = seal(MsgType::DenseUpdate, b"abcd");
            frame[5] = tag;
            let crc = frame_crc(&frame, &frame[HEADER_LEN..]);
            frame[12..16].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(open(&frame).unwrap_err(), WireError::BadTag(tag));
        }
    }

    #[test]
    fn header_fields_sit_at_their_documented_offsets() {
        let payload = [7u8, 8, 9];
        let frame = seal(MsgType::SpatlUpdate, &payload);
        assert_eq!(&frame[0..4], &MAGIC);
        assert_eq!(frame[4], WIRE_VERSION);
        assert_eq!(frame[5], MsgType::SpatlUpdate.tag());
        assert_eq!(&frame[6..8], &[0, 0], "reserved halfword");
        assert_eq!(&frame[8..12], &3u32.to_le_bytes());
        let mut covered = frame[..CRC_COVERED].to_vec();
        covered.extend_from_slice(&payload);
        assert_eq!(&frame[12..16], &crate::crc32::crc32(&covered).to_le_bytes());
        assert_eq!(&frame[HEADER_LEN..], &payload);
    }
}
