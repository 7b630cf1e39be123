//! The byte rules of the protocol, stated once (DESIGN.md §6):
//!
//! * every integer and float is fixed-width **little-endian**;
//! * a vector is either *length-implied* (the rest of the payload, or a
//!   length both ends already know) or a `u32` **count** followed by its
//!   elements;
//! * a count read from a peer is **bounded by the bytes that remain**
//!   ([`Reader::count`]), so nothing sized from it — an allocation, a loop
//!   — can exceed the payload it arrived in;
//! * a flag is one byte, 0 or 1;
//! * a decoder consumes its payload exactly: running short is
//!   [`WireError::Truncated`], bytes left over are
//!   [`WireError::Malformed`] — inside a CRC-valid envelope a structurally
//!   wrong payload is the sender's doing, not the transport's, and must
//!   not look retryable.
//!
//! [`Reader`] and the `put_*` writers are the only place payload bytes
//! become integers or floats, for this crate's codecs and for the
//! control-plane frames of `spatl-net`.

use crate::error::WireError;

/// Checked cursor over a received payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `n` more bytes must be there.
    fn need(&self, n: usize) -> Result<(), WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated {
                needed: self.pos.saturating_add(n),
                available: self.buf.len(),
            });
        }
        Ok(())
    }

    /// The next `n` bytes, borrowed from the payload.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.need(n)?;
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// The next `N` bytes, by value.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// `n` fixed-width elements converted in bulk — the hot decoders' one
    /// pass over the payload.
    fn bulk<T, const N: usize>(
        &mut self,
        n: usize,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, WireError> {
        let len = n
            .checked_mul(N)
            .ok_or_else(|| WireError::Malformed("element count overflows".into()))?;
        let (chunks, _) = self.take(len)?.as_chunks::<N>();
        Ok(chunks.iter().map(|&c| from_le(c)).collect())
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// One `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// One `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// One `f32`.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// A flag byte: 0 or 1, anything else is malformed. `what` names the
    /// field in the error.
    pub fn flag(&mut self, what: &str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!(
                "{what} flag must be 0 or 1, got {other}"
            ))),
        }
    }

    /// A `u32` element count whose elements take at least `min_stride`
    /// bytes each on the wire. A count the remaining bytes cannot hold is
    /// rejected here, before anything is sized from it.
    pub fn count(&mut self, min_stride: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        self.need(n.saturating_mul(min_stride))?;
        Ok(n)
    }

    /// A counted sequence of structured elements: a `u32` count bounded
    /// by `min_stride` (see [`count`](Self::count)), then each element
    /// read by `each`. The pre-sized vector is therefore never larger
    /// than the payload could fill.
    pub fn counted<T>(
        &mut self,
        min_stride: usize,
        mut each: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.count(min_stride)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(each(self)?);
        }
        Ok(out)
    }

    /// `n` × `u32`.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, WireError> {
        self.bulk(n, u32::from_le_bytes)
    }

    /// `n` × `i32`.
    pub fn i32s(&mut self, n: usize) -> Result<Vec<i32>, WireError> {
        self.bulk(n, i32::from_le_bytes)
    }

    /// `n` × `u64`.
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, WireError> {
        self.bulk(n, u64::from_le_bytes)
    }

    /// `n` × `f32`.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
        self.bulk(n, f32::from_le_bytes)
    }

    /// A counted vector: `u32` count, then that many `u32`.
    pub fn counted_u32s(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.count(4)?;
        self.u32s(n)
    }

    /// A counted vector: `u32` count, then that many `f32`.
    pub fn counted_f32s(&mut self) -> Result<Vec<f32>, WireError> {
        let n = self.count(4)?;
        self.f32s(n)
    }

    /// Every remaining byte as a length-implied vector of `width`-byte
    /// elements: the element count, or `Malformed` when the bytes do not
    /// divide. `what` names the payload in the error.
    pub fn implied(&self, width: usize, what: &str) -> Result<usize, WireError> {
        let rest = self.remaining();
        if !rest.is_multiple_of(width) {
            return Err(WireError::Malformed(format!(
                "{what}: {rest} bytes is not a multiple of {width}"
            )));
        }
        Ok(rest / width)
    }

    /// The payload must be fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Malformed(format!(
                "{n} unconsumed trailing bytes"
            ))),
        }
    }
}

fn put_bulk<T: Copy, const N: usize>(out: &mut Vec<u8>, xs: &[T], to_le: impl Fn(T) -> [u8; N]) {
    out.reserve(xs.len() * N);
    for &x in xs {
        out.extend_from_slice(&to_le(x));
    }
}

/// Append one `u32`.
pub fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Append one `u64`.
pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Append one `f32`.
pub fn put_f32(out: &mut Vec<u8>, x: f32) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Append an element count as `u32`.
pub fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u32(out, n as u32);
}

/// Append `xs` as raw `u32`s (no count).
pub fn put_u32s(out: &mut Vec<u8>, xs: &[u32]) {
    put_bulk(out, xs, u32::to_le_bytes);
}

/// Append `xs` as raw `i32`s (no count).
pub fn put_i32s(out: &mut Vec<u8>, xs: &[i32]) {
    put_bulk(out, xs, i32::to_le_bytes);
}

/// Append `xs` as raw `u64`s (no count).
pub fn put_u64s(out: &mut Vec<u8>, xs: &[u64]) {
    put_bulk(out, xs, u64::to_le_bytes);
}

/// Append `xs` as raw `f32`s (no count).
pub fn put_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    put_bulk(out, xs, f32::to_le_bytes);
}

/// Append a counted vector: `u32` count, then the `u32`s.
pub fn put_counted_u32s(out: &mut Vec<u8>, xs: &[u32]) {
    put_count(out, xs.len());
    put_u32s(out, xs);
}

/// Append a counted vector: `u32` count, then the `f32`s.
pub fn put_counted_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    put_count(out, xs.len());
    put_f32s(out, xs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_vectors_round_trip_little_endian() {
        let mut out = Vec::new();
        out.push(1);
        put_u32(&mut out, 0x0304_0506);
        put_u64(&mut out, 0x0708_090A_0B0C_0D0E);
        put_f32(&mut out, -1.5);
        put_counted_u32s(&mut out, &[7, 8]);
        put_counted_f32s(&mut out, &[0.25]);
        put_i32s(&mut out, &[-1]);
        put_u64s(&mut out, &[u64::MAX]);
        assert_eq!(&out[1..5], &[0x06, 0x05, 0x04, 0x03]);

        let mut r = Reader::new(&out);
        assert!(r.flag("test").unwrap());
        assert_eq!(r.u32().unwrap(), 0x0304_0506);
        assert_eq!(r.u64().unwrap(), 0x0708_090A_0B0C_0D0E);
        assert_eq!(r.f32().unwrap(), -1.5);
        assert_eq!(r.counted_u32s().unwrap(), vec![7, 8]);
        assert_eq!(r.counted_f32s().unwrap(), vec![0.25]);
        assert_eq!(r.i32s(1).unwrap(), vec![-1]);
        assert_eq!(r.implied(8, "tail").unwrap(), 1);
        assert_eq!(r.u64s(1).unwrap(), vec![u64::MAX]);
        r.finish().unwrap();
    }

    #[test]
    fn running_short_is_truncated_and_leftovers_are_malformed() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(r.u32(), Err(WireError::Truncated { .. })));
        assert!(matches!(r.f32s(usize::MAX), Err(WireError::Malformed(_))));
        assert!(matches!(r.implied(2, "odd"), Err(WireError::Malformed(_))));
        assert_eq!(r.u8().unwrap(), 1);
        assert!(matches!(r.flag("two"), Err(WireError::Malformed(_))));
        assert!(matches!(r.finish(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn a_count_is_bounded_by_the_bytes_that_remain() {
        let mut bytes = Vec::new();
        put_count(&mut bytes, 3);
        bytes.extend_from_slice(&[7u8; 11]);
        // Three 4-byte elements need 12 bytes; 11 remain.
        assert!(matches!(
            Reader::new(&bytes).count(4),
            Err(WireError::Truncated { .. })
        ));
        assert_eq!(Reader::new(&bytes).count(3).unwrap(), 3);
        let triples = Reader::new(&bytes).counted(3, |r| r.array::<3>());
        assert_eq!(triples.unwrap(), vec![[7u8; 3]; 3]);
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        assert!(Reader::new(&huge).count(usize::MAX).is_err());
    }

    #[test]
    fn a_flag_is_zero_or_one_and_nothing_else() {
        for (byte, want) in [(0u8, Some(false)), (1, Some(true)), (2, None), (0xFF, None)] {
            let got = Reader::new(&[byte]).flag("probe");
            match want {
                Some(v) => assert_eq!(got.unwrap(), v),
                None => assert!(matches!(got, Err(WireError::Malformed(m)) if m.contains("probe"))),
            }
        }
        assert!(matches!(
            Reader::new(&[]).flag("probe"),
            Err(WireError::Truncated { .. })
        ));
    }
}
