//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-16.
//!
//! This is the same checksum gzip/zlib/PNG use, so frames can be verified
//! with standard tooling. Pure std, no `unsafe`.
//!
//! Every frame the system moves is checksummed twice (seal, open), so the
//! checksum runs at the model's size every round. The byte-at-a-time
//! table walk is a serial dependency of one lookup per byte; slicing
//! folds 16 input bytes per step through 16 independent lookups whose
//! results XOR together, which the CPU overlaps. `TABLES[k][b]` is the
//! CRC of byte `b` followed by `k` zero bytes, so the 16 lookups of a
//! block each advance their byte to the block's end.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step.
const SLICES: usize = 16;

/// 16 × 256 lookup tables (16 KiB of read-only data), built at compile
/// time. `TABLES[0]` is the classic byte-wise table.
const TABLES: [[u32; 256]; SLICES] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One byte through the classic table: the tail of every update, and the
/// whole of the test reference.
#[inline]
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
}

/// CRC-32 of `data` in one call.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finalize()
}

/// Incremental CRC-32 state, for checksumming a frame as it is written.
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// Fresh state.
    pub fn new() -> Self {
        Hasher { state: 0xFFFF_FFFF }
    }

    /// Fold `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let (blocks, tail) = data.as_chunks::<SLICES>();
        for block in blocks {
            let word = |at: usize| {
                u32::from_le_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
            };
            // Byte `i` of the block still has `15 - i` bytes to go.
            let four = |at: usize, w: u32| {
                TABLES[15 - at][(w & 0xFF) as usize]
                    ^ TABLES[14 - at][((w >> 8) & 0xFF) as usize]
                    ^ TABLES[13 - at][((w >> 16) & 0xFF) as usize]
                    ^ TABLES[12 - at][(w >> 24) as usize]
            };
            // The three words that do not wait for `crc` go first.
            let ahead = four(4, word(4)) ^ four(8, word(8)) ^ four(12, word(12));
            crc = ahead ^ four(0, word(0) ^ crc);
        }
        for &byte in tail {
            crc = step(crc, byte);
        }
        self.state = crc;
    }

    /// Final checksum value.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The byte-at-a-time reference the sliced update must agree with.
    fn bytewise(data: &[u8]) -> u32 {
        data.iter().fold(0xFFFF_FFFF, |crc, &b| step(crc, b)) ^ 0xFFFF_FFFF
    }

    /// Deterministic pseudo-random bytes (splitmix64).
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        let buf = noise(4096 + 16, 0xC4C3);
        for align in 0..16 {
            for len in (0..64).chain((64..=4096).step_by(61)).chain([4095, 4096]) {
                let data = &buf[align..align + len];
                assert_eq!(crc32(data), bytewise(data), "align {align} len {len}");
            }
        }
    }

    #[test]
    fn update_split_points_do_not_change_the_checksum() {
        let data = noise(1500, 7);
        let whole = bytewise(&data);
        let mut cuts = noise(4096, 99).into_iter().map(|b| b as usize % 97);
        for first in 0..=48 {
            let mut h = Hasher::new();
            let (head, mut rest) = data.split_at(first);
            h.update(head);
            while !rest.is_empty() {
                // Zero-length updates included: they must be inert.
                let n = cuts.next().expect("enough cuts").min(rest.len());
                h.update(&rest[..n]);
                rest = &rest[n..];
            }
            assert_eq!(h.finalize(), whole, "first cut at {first}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"spatl wire protocol frame";
        let mut h = Hasher::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), crc32(data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        for i in 0..64 {
            data[i] ^= 1 << (i % 8);
            assert_ne!(crc32(&data), base, "flip at byte {i} undetected");
            data[i] ^= 1 << (i % 8);
        }
    }
}
