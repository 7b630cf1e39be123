//! Privacy-mode payload codecs: masked uploads, fixed-point uploads and
//! the unmask-share control frames (DESIGN.md §14).
//!
//! * **masked upload** ([`MsgType::MaskedUpload`](crate::MsgType)): a
//!   5-or-9-byte header (`u32` coordinate count, `u8` lane flags, `u32`
//!   buffer length when the buffer lane rides along) followed by the raw
//!   `u64` words of every lane —
//!   [`GRID_WORDS`] words per coordinate for the grid lanes, one word per
//!   coordinate for the count lane. The words are uniformly masked, so
//!   no compression is possible (or attempted): payload bytes are
//!   `hdr + 48·n·lanes + 8·n`.
//! * **fixed upload** ([`MsgType::FixedUpload`](crate::MsgType)): raw
//!   `n × i32` little-endian — byte-for-byte parallel to the clear dense
//!   `n × f32` layout, so the analytic communication model needs no
//!   privacy-mode special case.
//! * **unmask request / share**: the dropout-recovery round trip — the
//!   coordinator lists the cohort members that never reported, the
//!   survivor answers with the pair base it shared with each.
//!
//! Decoders validate structure and return
//! [`WireError::Malformed`] / truncation errors, never panic.

use crate::bytes::{put_count, put_counted_u32s, put_i32s, put_u32, put_u64, put_u64s, Reader};
use crate::error::WireError;
use spatl_privacy::{MaskedCounts, MaskedUpload, MaskedVector, UnmaskShare, GRID_WORDS};

const FLAG_SECONDARY: u8 = 1 << 0;
const FLAG_COUNTS: u8 = 1 << 1;
const FLAG_BUFFERS: u8 = 1 << 2;

/// Header bytes a masked upload spends before its lane words: coordinate
/// count (`u32`) plus the lane-flag byte. A buffer lane adds another
/// `u32` for its own length.
pub const MASKED_METADATA: usize = 5;

/// Wire bytes of one coordinate of a grid lane.
const GRID_BYTES: usize = GRID_WORDS * 8;

/// Encode a masked upload. Payload bytes: `5 (+4 with buffers)` of
/// header, then `48n` per grid lane and `8n` for the count lane.
pub fn encode_masked_upload(up: &MaskedUpload) -> Vec<u8> {
    let n = up.delta.n_coords();
    let mut flags = 0u8;
    if up.secondary.is_some() {
        flags |= FLAG_SECONDARY;
    }
    if up.counts.is_some() {
        flags |= FLAG_COUNTS;
    }
    if up.buffers.is_some() {
        flags |= FLAG_BUFFERS;
    }
    let mut out = Vec::new();
    put_count(&mut out, n);
    out.push(flags);
    if let Some(buf) = &up.buffers {
        put_count(&mut out, buf.n_coords());
    }
    put_u64s(&mut out, up.delta.words());
    if let Some(sec) = &up.secondary {
        assert_eq!(sec.n_coords(), n, "secondary lane must match delta width");
        put_u64s(&mut out, sec.words());
    }
    if let Some(counts) = &up.counts {
        assert_eq!(counts.n_coords(), n, "count lane must match delta width");
        put_u64s(&mut out, counts.words());
    }
    if let Some(buf) = &up.buffers {
        put_u64s(&mut out, buf.words());
    }
    out
}

/// Decode a masked upload, validating lane widths and total length.
pub fn decode_masked_upload(payload: &[u8]) -> Result<MaskedUpload, WireError> {
    let mut r = Reader::new(payload);
    let n = r.count(GRID_BYTES)?;
    let flags = r.u8()?;
    if flags & !(FLAG_SECONDARY | FLAG_COUNTS | FLAG_BUFFERS) != 0 {
        return Err(WireError::Malformed(format!(
            "unknown masked-upload lane flags {flags:#04x}"
        )));
    }
    let buf_len = if flags & FLAG_BUFFERS != 0 {
        Some(r.count(GRID_BYTES)?)
    } else {
        None
    };
    let grid = |r: &mut Reader, coords: usize| {
        MaskedVector::from_words(r.u64s(coords * GRID_WORDS)?)
            .ok_or_else(|| WireError::Malformed("grid lane word count not a multiple of 6".into()))
    };
    let delta = grid(&mut r, n)?;
    let secondary = (flags & FLAG_SECONDARY != 0)
        .then(|| grid(&mut r, n))
        .transpose()?;
    let counts = (flags & FLAG_COUNTS != 0)
        .then(|| r.u64s(n).map(MaskedCounts::from_words))
        .transpose()?;
    let buffers = buf_len.map(|b| grid(&mut r, b)).transpose()?;
    r.finish()?;
    Ok(MaskedUpload {
        delta,
        secondary,
        counts,
        buffers,
    })
}

/// Encode a fixed-point upload: raw `4n` bytes of little-endian `i32`,
/// byte-parallel to the clear dense layout.
pub fn encode_fixed_dense(values: &[i32]) -> Vec<u8> {
    let mut out = Vec::new();
    put_i32s(&mut out, values);
    out
}

/// Decode a fixed-point upload.
pub fn decode_fixed_dense(payload: &[u8]) -> Result<Vec<i32>, WireError> {
    let mut r = Reader::new(payload);
    r.i32s(r.implied(4, "fixed payload")?)
}

/// Encode an unmask request: the round index and the cohort members that
/// never reported.
pub fn encode_unmask_request(round: u64, dropped: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + dropped.len() * 4);
    put_u64(&mut out, round);
    put_counted_u32s(&mut out, dropped);
    out
}

/// Decode an unmask request into `(round, dropped ids)`.
pub fn decode_unmask_request(payload: &[u8]) -> Result<(u64, Vec<u32>), WireError> {
    let mut r = Reader::new(payload);
    let out = (r.u64()?, r.counted_u32s()?);
    r.finish()?;
    Ok(out)
}

/// Wire bytes of one [`UnmaskShare`].
const SHARE_BYTES: usize = 4 + 4 + 8;

/// Encode a survivor's unmask shares for one round.
pub fn encode_unmask_shares(round: u64, shares: &[UnmaskShare]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + shares.len() * SHARE_BYTES);
    put_u64(&mut out, round);
    put_count(&mut out, shares.len());
    for s in shares {
        put_u32(&mut out, s.dropped);
        put_u32(&mut out, s.survivor);
        put_u64(&mut out, s.pair_base);
    }
    out
}

/// Decode a survivor's unmask shares into `(round, shares)`.
pub fn decode_unmask_shares(payload: &[u8]) -> Result<(u64, Vec<UnmaskShare>), WireError> {
    let mut r = Reader::new(payload);
    let round = r.u64()?;
    let shares = r.counted(SHARE_BYTES, |r| {
        Ok(UnmaskShare {
            dropped: r.u32()?,
            survivor: r.u32()?,
            pair_base: r.u64()?,
        })
    })?;
    r.finish()?;
    Ok((round, shares))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_upload(n: usize, secondary: bool, counts: bool, buf: usize) -> MaskedUpload {
        let mut up = MaskedUpload {
            delta: MaskedVector::zeros(n),
            secondary: secondary.then(|| MaskedVector::zeros(n)),
            counts: counts.then(|| MaskedCounts::zeros(n)),
            buffers: (buf > 0).then(|| MaskedVector::zeros(buf)),
        };
        for j in 0..n {
            up.delta.accumulate(j, (j as f32 + 1.0) * 0.01, 3, false);
            if let Some(sec) = &mut up.secondary {
                sec.accumulate(j, -0.5, 1, j % 2 == 0);
            }
            if let Some(c) = &mut up.counts {
                if j % 3 == 0 {
                    c.bump(j);
                }
            }
        }
        if let Some(b) = &mut up.buffers {
            for j in 0..buf {
                b.accumulate(j, 2.0, 1, false);
            }
        }
        up
    }

    #[test]
    fn masked_upload_round_trips_in_every_lane_shape() {
        for (sec, cnt, buf) in [
            (false, false, 0),
            (true, false, 0),
            (false, true, 0),
            (true, true, 4),
            (false, false, 2),
        ] {
            let up = sample_upload(6, sec, cnt, buf);
            let payload = encode_masked_upload(&up);
            let hdr = MASKED_METADATA + if buf > 0 { 4 } else { 0 };
            let grid_lanes = 1 + usize::from(sec);
            assert_eq!(
                payload.len(),
                hdr + 48 * 6 * grid_lanes + if cnt { 8 * 6 } else { 0 } + 48 * buf
            );
            assert_eq!(decode_masked_upload(&payload).unwrap(), up);
        }
    }

    #[test]
    fn masked_upload_rejects_damage() {
        let up = sample_upload(3, true, true, 2);
        let payload = encode_masked_upload(&up);
        assert!(decode_masked_upload(&payload[..payload.len() - 1]).is_err());
        let mut extra = payload.clone();
        extra.push(0);
        assert!(decode_masked_upload(&extra).is_err());
        let mut bad_flags = payload;
        bad_flags[4] |= 0x80;
        assert!(decode_masked_upload(&bad_flags).is_err());
    }

    #[test]
    fn fixed_dense_round_trips_at_clear_size() {
        let q = vec![0i32, -1, i32::MAX, i32::MIN, 12345];
        let payload = encode_fixed_dense(&q);
        assert_eq!(payload.len(), 4 * q.len(), "byte-parallel to clear f32");
        assert_eq!(decode_fixed_dense(&payload).unwrap(), q);
        assert!(decode_fixed_dense(&[0u8; 6]).is_err());
    }

    #[test]
    fn unmask_round_trip() {
        let (round, dropped) = (7u64, vec![2u32, 9]);
        let req = encode_unmask_request(round, &dropped);
        assert_eq!(decode_unmask_request(&req).unwrap(), (round, dropped));

        let shares = vec![
            UnmaskShare {
                dropped: 2,
                survivor: 4,
                pair_base: 0xDEAD_BEEF_CAFE_F00D,
            },
            UnmaskShare {
                dropped: 9,
                survivor: 4,
                pair_base: 42,
            },
        ];
        let frame = encode_unmask_shares(round, &shares);
        assert_eq!(decode_unmask_shares(&frame).unwrap(), (round, shares));
        assert!(decode_unmask_shares(&frame[..frame.len() - 3]).is_err());
        assert!(decode_unmask_request(&req[..7]).is_err());
    }
}
