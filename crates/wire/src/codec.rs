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
//! * **top-k sparse**: `u32` dense length, `u32` k, then `k × u32`
//!   strictly-increasing indices, then `k × f32` values. Payload bytes =
//!   `8 + 8k`: 8 bytes of metadata over the analytic `8k`.
//! * **f16 quantized**: raw `n × u16` binary16 words. Payload bytes =
//!   `2n`, exactly half the dense figure.
//!
//! Decoders validate structure (divisibility, counts, index ordering and
//! range) and return [`WireError::Malformed`] rather than panicking.

use crate::bytes::{put_counted_u32s, put_f32s, put_u16, put_u32, Reader};
use crate::error::WireError;
use crate::f16::{f16_bits_to_f32, f32_to_f16_bits};

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

// ---------------------------------------------------------------------------
// Top-k sparse
// ---------------------------------------------------------------------------

/// A sparse view of a dense vector: `k` surviving entries.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTopK {
    /// Length of the dense vector this sparsifies.
    pub dense_len: u32,
    /// Flat indices of surviving entries, strictly increasing.
    pub indices: Vec<u32>,
    /// Values at those indices.
    pub values: Vec<f32>,
}

/// Metadata bytes the sparse codec spends beyond the analytic `8k`
/// (dense length + k, one `u32` each).
pub const SPARSE_METADATA: usize = 8;

impl SparseTopK {
    /// Keep the `k` largest-magnitude entries of `dense`.
    pub fn from_dense(dense: &[f32], k: usize) -> Self {
        let k = k.min(dense.len());
        let mut order: Vec<u32> = (0..dense.len() as u32).collect();
        // Largest magnitude first; stable total order via the index
        // tiebreak keeps encoding deterministic in the presence of ties.
        order.sort_by(|&a, &b| {
            let (ma, mb) = (dense[a as usize].abs(), dense[b as usize].abs());
            mb.total_cmp(&ma).then(a.cmp(&b))
        });
        let mut indices: Vec<u32> = order[..k].to_vec();
        indices.sort_unstable();
        let values = indices.iter().map(|&i| dense[i as usize]).collect();
        SparseTopK {
            dense_len: dense.len() as u32,
            indices,
            values,
        }
    }

    /// Scatter back to a dense vector, zeros elsewhere.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dense_len as usize];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }
}

/// Encode a sparse vector: `8 + 8k` bytes.
pub fn encode_topk(sparse: &SparseTopK) -> Vec<u8> {
    assert_eq!(
        sparse.indices.len(),
        sparse.values.len(),
        "sparse index/value counts must match"
    );
    let mut out = Vec::new();
    put_u32(&mut out, sparse.dense_len);
    put_counted_u32s(&mut out, &sparse.indices);
    put_f32s(&mut out, &sparse.values);
    out
}

/// Decode a sparse vector, validating index order and range.
pub fn decode_topk(payload: &[u8]) -> Result<SparseTopK, WireError> {
    let mut r = Reader::new(payload);
    let dense_len = r.u32()?;
    let k = r.count(8)?;
    let indices = r.u32s(k)?;
    if !indices.windows(2).all(|w| w[0] < w[1]) {
        return Err(WireError::Malformed(
            "sparse indices not strictly increasing".into(),
        ));
    }
    if let Some(&last) = indices.last() {
        if last >= dense_len {
            return Err(WireError::Malformed(format!(
                "sparse index {last} out of range for dense length {dense_len}"
            )));
        }
    }
    let values = r.f32s(k)?;
    r.finish()?;
    Ok(SparseTopK {
        dense_len,
        indices,
        values,
    })
}

// ---------------------------------------------------------------------------
// f16 quantized
// ---------------------------------------------------------------------------

/// Encode a dense vector at half precision: `2n` bytes.
pub fn encode_f16_dense(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 2);
    for &x in values {
        put_u16(&mut out, f32_to_f16_bits(x));
    }
    out
}

/// Decode a half-precision payload back to f32.
pub fn decode_f16_dense(payload: &[u8]) -> Result<Vec<f32>, WireError> {
    let mut r = Reader::new(payload);
    let words = r.u16s(r.implied(2, "f16 payload")?)?;
    Ok(words.into_iter().map(f16_bits_to_f32).collect())
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
    fn topk_selects_largest_magnitudes() {
        let dense = vec![0.1f32, -5.0, 0.0, 2.0, -0.3, 4.0];
        let s = SparseTopK::from_dense(&dense, 3);
        assert_eq!(s.indices, vec![1, 3, 5]);
        assert_eq!(s.values, vec![-5.0, 2.0, 4.0]);
        let back = s.to_dense();
        assert_eq!(back, vec![0.0, -5.0, 0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn topk_round_trip_and_size() {
        let dense: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.3).collect();
        let s = SparseTopK::from_dense(&dense, 10);
        let payload = encode_topk(&s);
        assert_eq!(payload.len(), SPARSE_METADATA + 8 * 10);
        assert_eq!(decode_topk(&payload).unwrap(), s);
    }

    #[test]
    fn topk_rejects_out_of_range_and_unsorted() {
        let s = SparseTopK {
            dense_len: 4,
            indices: vec![1, 9],
            values: vec![1.0, 2.0],
        };
        assert!(matches!(
            decode_topk(&encode_topk(&s)),
            Err(WireError::Malformed(_))
        ));
        let s = SparseTopK {
            dense_len: 10,
            indices: vec![5, 2],
            values: vec![1.0, 2.0],
        };
        assert!(matches!(
            decode_topk(&encode_topk(&s)),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn topk_k_clamps_to_len_and_handles_empty() {
        let s = SparseTopK::from_dense(&[1.0, 2.0], 10);
        assert_eq!(s.indices.len(), 2);
        let s = SparseTopK::from_dense(&[], 3);
        assert_eq!(s.indices.len(), 0);
        assert_eq!(decode_topk(&encode_topk(&s)).unwrap(), s);
    }

    #[test]
    fn f16_round_trip_size_and_tolerance() {
        let xs: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.37).collect();
        let payload = encode_f16_dense(&xs);
        assert_eq!(payload.len(), 2 * xs.len());
        let back = decode_f16_dense(&payload).unwrap();
        for (a, b) in xs.iter().zip(&back) {
            assert!((a - b).abs() <= a.abs() / 2048.0 + 1e-7, "{a} vs {b}");
        }
        assert!(decode_f16_dense(&[0u8; 3]).is_err());
    }
}
