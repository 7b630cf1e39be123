//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! This is the same checksum gzip/zlib/PNG use, so frames can be verified
//! with standard tooling.
//!
//! Every frame the system moves is checksummed twice (seal, open), so the
//! checksum runs at the model's size every round. Two paths compute it:
//!
//! * **Carry-less multiply** (x86-64 with `pclmulqdq`): four 128-bit
//!   accumulators each fold 16 bytes per step, so a 64-byte step is
//!   eight independent multiplies; at the end the four fold into one,
//!   then a Barrett reduction takes the 128 bits down to the 32-bit CRC.
//!   The fold constants are `x^k mod P` for the distances the folds
//!   span, derived below by `const fn` from the polynomial. This is the
//!   module's only `unsafe` code (the intrinsics).
//! * **Slicing-by-16** (every host; the tail under 16 bytes of every
//!   update; the whole update when `SPATL_FORCE_SCALAR` pins the
//!   portable paths): the byte-at-a-time table walk is a serial
//!   dependency of one lookup per byte; slicing folds 16 input bytes per
//!   step through 16 independent lookups whose results XOR together,
//!   which the CPU overlaps. `TABLES[k][b]` is the CRC of byte `b`
//!   followed by `k` zero bytes, so the 16 lookups of a block each
//!   advance their byte to the block's end.
//!
//! Both paths give the same state for every input, split anywhere.

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
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN && clmul_available() {
            // SAFETY: `clmul_available` confirmed PCLMULQDQ on this CPU.
            let (state, tail) = unsafe { clmul::fold(self.state, data) };
            self.state = sliced(state, tail);
            return;
        }
        self.state = sliced(self.state, data);
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

/// Fold `data` into the register state `crc` through the slicing-by-16
/// tables, then byte by byte for the last `len % 16` bytes.
fn sliced(mut crc: u32, data: &[u8]) -> u32 {
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
    crc
}

/// Is the carry-less-multiply path usable? PCLMULQDQ detected and the
/// portable path not pinned; decided once per process.
#[cfg(target_arch = "x86_64")]
fn clmul_available() -> bool {
    static CLMUL: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *CLMUL.get_or_init(|| {
        let pinned = std::env::var("SPATL_FORCE_SCALAR")
            .map(|v| {
                let v = v.trim();
                !v.is_empty() && v != "0"
            })
            .unwrap_or(false);
        is_x86_feature_detected!("pclmulqdq") && !pinned
    })
}

/// `x^k mod P` in the reflected 32-bit form the register holds (bit
/// `31 - i` is the coefficient of `x^i`): multiplying by `x` is a right
/// shift, and the `x^32` that falls off bit 0 comes back as `P - x^32`.
const fn xpow_mod(k: u32) -> u32 {
    let mut r = 1u32 << 31;
    let mut i = 0;
    while i < k {
        r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
        i += 1;
    }
    r
}

/// A 64-bit fold multiplier: `x^k mod P`, reflected, shifted up one bit
/// so that the 64×64 carry-less product of two reflected operands lands
/// where a reflected 128-bit register expects it.
const fn fold_key(k: u32) -> u64 {
    (xpow_mod(k) as u64) << 1
}

/// The full 33-bit polynomial `P`, reflected (`x^0` at bit 32 down to
/// `x^32` at bit 0).
const P_REFLECTED: u64 = ((POLY as u64) << 1) | 1;

/// Barrett's `μ = floor(x^64 / P)` (degree 32), reflected over 33 bits.
const fn barrett_mu() -> u64 {
    // Long division in the normal (unreflected) form: bit `i` is `x^i`.
    let p = (POLY.reverse_bits() as u128) | 1 << 32;
    let mut rem = 1u128 << 64;
    let mut q = 0u64;
    let mut i = 64;
    while i >= 32 {
        if rem >> i & 1 != 0 {
            q |= 1 << (i - 32);
            rem ^= p << (i - 32);
        }
        i -= 1;
    }
    // Reflect the 33-bit quotient: `x^i` moves to bit `32 - i`.
    let mut out = 0u64;
    let mut b = 0;
    while b <= 32 {
        if q >> b & 1 != 0 {
            out |= 1 << (32 - b);
        }
        b += 1;
    }
    out
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input the folding path takes: one load of its four
    /// 128-bit accumulators. Shorter updates go straight to the tables.
    pub(super) const MIN_LEN: usize = 64;

    /// Fold four 128-bit lanes 512 bits forward: `x^(512 ± 32)`.
    const K_512: (u64, u64) = (super::fold_key(4 * 128 + 32), super::fold_key(4 * 128 - 32));
    /// Fold one 128-bit lane 128 bits forward: `x^(128 ± 32)`.
    const K_128: (u64, u64) = (super::fold_key(128 + 32), super::fold_key(128 - 32));
    /// Fold 96 bits down to 64: `x^64`.
    const K_64: u64 = super::fold_key(64);

    /// `acc · k` (both 64-bit halves, each by its own constant) XOR
    /// `next`: 128 bits of state moved forward past `next`.
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    fn fold128(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The next 16 bytes of `data` as one register (unaligned load).
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    fn load(data: &[u8; 16]) -> __m128i {
        // SAFETY: `data` is 16 readable bytes; `loadu` has no alignment
        // requirement.
        unsafe { _mm_loadu_si128(data.as_ptr().cast()) }
    }

    /// Fold the whole 16-byte blocks of `data` (at least [`MIN_LEN`]
    /// bytes) into the register state `crc`; returns the new state and
    /// the unfolded tail (under 16 bytes) for the table path.
    ///
    /// # Safety
    ///
    /// The running CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(crc: u32, data: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = data.as_chunks::<16>();
        debug_assert!(blocks.len() >= 4, "at least {MIN_LEN} bytes");
        let (first, rest) = blocks.split_at(4);
        let mut x = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        // The state enters as the first 32 bits of the message.
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let k512 = _mm_set_epi64x(K_512.1 as i64, K_512.0 as i64);
        let (steps, rest) = rest.as_chunks::<4>();
        for step in steps {
            for (acc, block) in x.iter_mut().zip(step) {
                *acc = fold128(*acc, load(block), k512);
            }
        }
        let k128 = _mm_set_epi64x(K_128.1 as i64, K_128.0 as i64);
        let mut acc = fold128(x[0], x[1], k128);
        acc = fold128(acc, x[2], k128);
        acc = fold128(acc, x[3], k128);
        for block in rest {
            acc = fold128(acc, load(block), k128);
        }
        (reduce(acc, k128), tail)
    }

    /// 128 bits of folded state down to the 32-bit register: two folds
    /// to 64 bits, then Barrett's reduction mod `P` (reflected variant).
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    fn reduce(x: __m128i, k128: __m128i) -> u32 {
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        // 128 → 96 bits: the low half times x^(128-32) into the high half.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k128),
            _mm_srli_si128::<8>(x),
        );
        // 96 → 64 bits: the low 32 times x^64 into the upper 64.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K_64 as i64)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // CRC is the upper 32 bits of the 64-bit R xor T2.
        let pu = _mm_set_epi64x(super::barrett_mu() as i64, super::P_REFLECTED as i64);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32
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

    /// The table path alone, from a fresh state.
    fn table_only(data: &[u8]) -> u32 {
        sliced(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn both_paths_match_bytewise_at_every_alignment_to_a_kilobyte() {
        let buf = noise(1024 + 64, 0xC1C1);
        for align in 0..64 {
            for len in 0..=1024 {
                let data = &buf[align..align + len];
                let want = bytewise(data);
                assert_eq!(crc32(data), want, "align {align} len {len}");
                assert_eq!(table_only(data), want, "table, align {align} len {len}");
            }
        }
    }

    #[test]
    fn both_paths_match_bytewise_on_a_mebibyte() {
        let data = noise(1 << 20, 0x1F1B);
        let want = bytewise(&data);
        assert_eq!(crc32(&data), want);
        assert_eq!(table_only(&data), want);
    }

    /// The folding path itself, whatever `SPATL_FORCE_SCALAR` says.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_fold_matches_bytewise() {
        if !is_x86_feature_detected!("pclmulqdq") {
            return;
        }
        let buf = noise(4096 + 64, 0xF01D);
        for align in 0..64 {
            for len in (clmul::MIN_LEN..=400).chain([1023, 1024, 1025, 4096]) {
                let data = &buf[align..align + len];
                // SAFETY: PCLMULQDQ detected above.
                let (state, tail) = unsafe { clmul::fold(0xFFFF_FFFF, data) };
                let got = sliced(state, tail) ^ 0xFFFF_FFFF;
                assert_eq!(got, bytewise(data), "align {align} len {len}");
            }
        }
    }

    #[test]
    fn update_split_at_every_pair_of_offsets() {
        let data = noise(300, 0x5B17);
        let whole = bytewise(&data);
        for i in 0..=data.len() {
            for j in i..=data.len() {
                let mut h = Hasher::new();
                h.update(&data[..i]);
                h.update(&data[i..j]);
                h.update(&data[j..]);
                assert_eq!(h.finalize(), whole, "cuts at {i} and {j}");
            }
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
