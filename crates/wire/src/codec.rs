//! Payload codecs: the byte layouts inside the envelope, one per message
//! family. The byte rules (little-endian fields, counted or
//! length-implied vectors, exact consumption) live in [`crate::bytes`].
//!
//! Layout conventions, chosen so tensor payloads tie exactly to the
//! analytic communication model (`CommModel` in `spatl-fl`):
//!
//! * **dense** (`DenseModel` / `DenseUpdate`): raw `n × f32`, no count —
//!   the element count is the payload length / 4. Payload bytes = `4n`,
//!   exactly the analytic figure.
//! * **pair** (`ScaffoldModel` / `ScaffoldUpdate` / `FedNovaModel` /
//!   `FedNovaUpdate`): two equal-length `f32` vectors concatenated
//!   (weights‖control, delta‖control-delta, weights‖momentum,
//!   delta‖velocity). Payload bytes = `8n`, exactly analytic.
//!
//!   SPATL's `SpatlEncoder` download is dense (encoder weights) or pair
//!   (encoder‖gradient control), as the session's gradient-control
//!   switch — known to both ends — says: `4e` or `8e`, no flag byte.
//! * **SPATL update upload**: `u32` channel count, then the selected
//!   channel ids (`u32` each), then the salient values (`f32` each, count
//!   derived from the remaining bytes). Payload bytes =
//!   `4 + 4·channels + 4·values`: 4 bytes of metadata over analytic.
//!
//! Decoders validate structure (divisibility, counts, channel ordering) and return [`WireError::Malformed`] rather than panicking.

use crate::bytes::{put_counted_u32s, put_f32s, Reader};
use crate::error::WireError;

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

/// Encode a dense f32 vector: raw `4n` bytes.
pub fn encode_dense(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::new();
    put_f32s(&mut out, values);
    out
}

/// Decode a dense f32 vector.
pub fn decode_dense(payload: &[u8]) -> Result<Vec<f32>, WireError> {
    let mut r = Reader::new(payload);
    r.f32s(r.implied(4, "dense payload")?)
}

// ---------------------------------------------------------------------------
// Pair (SCAFFOLD, FedNova)
// ---------------------------------------------------------------------------

/// Two equal-length f32 vectors travelling together (weights‖control,
/// delta‖velocity, …).
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    /// First vector (model weights / update delta).
    pub primary: Vec<f32>,
    /// Second vector (control variate / momentum / velocity).
    pub secondary: Vec<f32>,
}

/// Encode two equal-length vectors: `8n` bytes.
pub fn encode_pair(primary: &[f32], secondary: &[f32]) -> Vec<u8> {
    assert_eq!(
        primary.len(),
        secondary.len(),
        "pair codec requires equal lengths"
    );
    let mut out = Vec::new();
    put_f32s(&mut out, primary);
    put_f32s(&mut out, secondary);
    out
}

/// Decode a pair payload; halves the payload to recover both vectors.
pub fn decode_pair(payload: &[u8]) -> Result<Pair, WireError> {
    let mut r = Reader::new(payload);
    let n = r.implied(8, "pair payload")?;
    Ok(Pair {
        primary: r.f32s(n)?,
        secondary: r.f32s(n)?,
    })
}

// ---------------------------------------------------------------------------
// SPATL update upload
// ---------------------------------------------------------------------------

/// Salient values plus the channel ids that select them (SPATL upload).
#[derive(Debug, Clone, PartialEq)]
pub struct SpatlUpdate {
    /// Selected channel ids, strictly increasing.
    pub channels: Vec<u32>,
    /// Salient parameter values, in flat-index order.
    pub values: Vec<f32>,
}

/// Metadata bytes the SPATL update spends beyond the analytic figure
/// (one `u32` channel count).
pub const SPATL_UPDATE_METADATA: usize = 4;

/// Encode the SPATL upload: `4 + 4·channels + 4·values` bytes.
pub fn encode_spatl_update(channels: &[u32], values: &[f32]) -> Vec<u8> {
    debug_assert!(
        channels.windows(2).all(|w| w[0] < w[1]),
        "channel ids must be strictly increasing"
    );
    let mut out = Vec::new();
    put_counted_u32s(&mut out, channels);
    put_f32s(&mut out, values);
    out
}

/// Decode the SPATL upload.
pub fn decode_spatl_update(payload: &[u8]) -> Result<SpatlUpdate, WireError> {
    let mut r = Reader::new(payload);
    let channels = r.counted_u32s()?;
    if !channels.windows(2).all(|w| w[0] < w[1]) {
        return Err(WireError::Malformed(
            "channel ids not strictly increasing".into(),
        ));
    }
    let values = r.f32s(r.implied(4, "spatl value bytes")?)?;
    Ok(SpatlUpdate { channels, values })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_round_trip_and_exact_size() {
        let xs = vec![1.0f32, -2.5, 0.0, f32::MIN_POSITIVE, 1e30];
        let payload = encode_dense(&xs);
        assert_eq!(payload.len(), 4 * xs.len());
        assert_eq!(decode_dense(&payload).unwrap(), xs);
        assert!(decode_dense(&[0u8; 3]).is_err());
        assert_eq!(decode_dense(&[]).unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn pair_round_trip_and_exact_size() {
        let a = vec![1.0f32, 2.0, 3.0];
        let b = vec![-1.0f32, -2.0, -3.0];
        let payload = encode_pair(&a, &b);
        assert_eq!(payload.len(), 8 * a.len());
        let pair = decode_pair(&payload).unwrap();
        assert_eq!(pair.primary, a);
        assert_eq!(pair.secondary, b);
        assert!(decode_pair(&[0u8; 12]).is_err());
    }

    #[test]
    fn spatl_update_round_trip_and_metadata() {
        let channels = vec![0u32, 3, 17];
        let values = vec![1.0f32, 2.0, 3.0, 4.0, 5.0];
        let payload = encode_spatl_update(&channels, &values);
        assert_eq!(
            payload.len(),
            SPATL_UPDATE_METADATA + 4 * channels.len() + 4 * values.len()
        );
        let d = decode_spatl_update(&payload).unwrap();
        assert_eq!(d.channels, channels);
        assert_eq!(d.values, values);
    }

    #[test]
    fn spatl_update_rejects_unsorted_channels() {
        let mut raw = encode_dense(&[]); // build raw bytes by hand
        raw.extend_from_slice(&2u32.to_le_bytes());
        raw.extend_from_slice(&5u32.to_le_bytes());
        raw.extend_from_slice(&5u32.to_le_bytes()); // duplicate channel
        assert!(matches!(
            decode_spatl_update(&raw),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn dense_rejects_every_ragged_remainder() {
        let whole = encode_dense(&[1.0, 2.0]);
        for extra in 1..4 {
            let mut raw = whole.clone();
            raw.extend(std::iter::repeat_n(0xAB, extra));
            assert!(
                matches!(decode_dense(&raw), Err(WireError::Malformed(_))),
                "{extra} trailing bytes"
            );
        }
    }

    #[test]
    fn pair_is_two_dense_halves_and_rejects_an_odd_element_count() {
        let (a, b) = ([0.5f32, -1.0, 2.0], [4.0f32, 8.0, -16.0]);
        assert_eq!(
            encode_pair(&a, &b),
            [encode_dense(&a), encode_dense(&b)].concat()
        );
        // Three f32s cannot split into two equal halves; neither can
        // bytes that are not whole f32s.
        for raw in [encode_dense(&[1.0, 2.0, 3.0]), vec![0u8; 10]] {
            assert!(
                matches!(decode_pair(&raw), Err(WireError::Malformed(_))),
                "{} bytes",
                raw.len()
            );
        }
        let empty = decode_pair(&[]).unwrap();
        assert!(empty.primary.is_empty() && empty.secondary.is_empty());
    }

    #[test]
    fn spatl_update_count_past_the_payload_is_truncated() {
        // Claims three channel ids, carries two.
        let mut raw = Vec::new();
        crate::bytes::put_count(&mut raw, 3);
        crate::bytes::put_u32s(&mut raw, &[1, 2]);
        assert!(matches!(
            decode_spatl_update(&raw),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn spatl_update_ragged_value_bytes_are_malformed() {
        let mut raw = encode_spatl_update(&[2, 9], &[0.25, 0.5]);
        raw.pop();
        assert!(matches!(
            decode_spatl_update(&raw),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn empty_spatl_update_is_its_metadata_alone() {
        let payload = encode_spatl_update(&[], &[]);
        assert_eq!(payload.len(), SPATL_UPDATE_METADATA);
        let d = decode_spatl_update(&payload).unwrap();
        assert!(d.channels.is_empty() && d.values.is_empty());
    }
}
