//! Exact 384-bit fixed-point vectors on the `2^-149` grid.
//!
//! The streaming fold in `spatl-fl` accumulates every weighted f32 term
//! as an integer on the grid `2^-149` (the f32 subnormal LSB), which is
//! what makes it order-independent. Secure aggregation piggybacks on the
//! same representation: a client encodes its update as one 384-bit
//! two's-complement integer per coordinate (`±m·2^e · w` shifted onto
//! the grid, exactly the decomposition `ExactSums::add` performs), adds
//! uniformly random pairwise masks mod `2^384`, and the server folds the
//! masked words with plain wrapping addition. Integer addition mod
//! `2^384` is associative and commutative, so the fold stays
//! order-independent, the masks of a full cohort cancel *exactly*, and
//! the unmasked per-coordinate sums are the same integers the clear fold
//! would have produced — down to the last bit.
//!
//! Width: one finite weighted term is at most `2^24 · 2^64 · 2^253 =
//! 2^341`; a cohort of at most `2^16` clients keeps the true sum under
//! `2^357`, far inside the `±2^383` range of the 384-bit representation,
//! so the wrapped words are interpretable as a signed integer with no
//! ambiguity.

use rand_chacha::ChaCha8Rng;

/// 64-bit words per coordinate: 384 bits of two's-complement headroom.
pub const GRID_WORDS: usize = 6;

/// Mask words drawn per bulk fill: 64 grid coordinates, 3 KiB of stack
/// scratch that stays in L1 while it is added into the lane.
const MASK_CHUNK_WORDS: usize = 64 * GRID_WORDS;

/// Base-`2^32` digits per coordinate the fold's finalize ladder reads
/// (the low `11·32 = 352` bits; the remaining 32 bits are the signed
/// carry word).
pub const GRID_DIGITS: usize = 11;

/// A vector of exact grid integers: `GRID_WORDS` little-endian `u64`
/// words per coordinate, arithmetic mod `2^384`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedVector {
    words: Vec<u64>,
    n: usize,
}

impl MaskedVector {
    /// The zero vector over `n` coordinates.
    pub fn zeros(n: usize) -> Self {
        MaskedVector {
            words: vec![0; n * GRID_WORDS],
            n,
        }
    }

    /// Rebuild from raw words (wire decode); `words.len()` must be a
    /// multiple of [`GRID_WORDS`].
    pub fn from_words(words: Vec<u64>) -> Option<Self> {
        if !words.len().is_multiple_of(GRID_WORDS) {
            return None;
        }
        let n = words.len() / GRID_WORDS;
        Some(MaskedVector { words, n })
    }

    /// Number of coordinates.
    pub fn n_coords(&self) -> usize {
        self.n
    }

    /// The raw little-endian words (wire encode).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Accumulate `±v·w` into coordinate `j` exactly — the same
    /// sign/mantissa/exponent decomposition the server's carry-save fold
    /// performs, so a full-cohort sum of these integers is bit-for-bit
    /// the integer the clear fold would hold. Zero terms are inert;
    /// non-finite values cannot be represented on the grid and contribute
    /// nothing (see the crate docs for the screening caveat).
    pub fn accumulate(&mut self, j: usize, v: f32, w: u64, negate: bool) {
        debug_assert!(j < self.n);
        if w == 0 || v == 0.0 || !v.is_finite() {
            return;
        }
        let bits = v.to_bits();
        let negative = (bits >> 31 == 1) ^ negate;
        let e = ((bits >> 23) & 0xff) as i32;
        let m = (bits & 0x7f_ffff) as u64;
        // v = ±m′·2^e′ with m′ < 2^24 and e′ ∈ [-149, 104].
        let (mant, exp) = if e == 0 {
            (m, -149)
        } else {
            (m | 0x80_0000, e - 150)
        };
        let prod = (mant as u128) * (w as u128); // < 2^88
        let bitpos = (exp + 149) as usize; // 0..=253 on the grid
        let mut part = [0u64; GRID_WORDS];
        let q = bitpos / 64;
        let r = bitpos % 64;
        let lo = prod as u64;
        let hi = (prod >> 64) as u64;
        if r == 0 {
            part[q] = lo;
            part[q + 1] = hi;
        } else {
            part[q] = lo << r;
            part[q + 1] = (lo >> (64 - r)) | (hi << r);
            if q + 2 < GRID_WORDS {
                part[q + 2] = hi >> (64 - r);
            }
        }
        if negative {
            negate_words(&mut part);
        }
        let base = j * GRID_WORDS;
        add_words(&mut self.words[base..base + GRID_WORDS], &part);
    }

    /// Wrapping `self += other` per coordinate (the server's fold).
    pub fn add_assign(&mut self, other: &MaskedVector) {
        assert_eq!(self.n, other.n, "masked lanes must agree on width");
        for j in 0..self.n {
            let base = j * GRID_WORDS;
            let mut part = [0u64; GRID_WORDS];
            part.copy_from_slice(&other.words[base..base + GRID_WORDS]);
            add_words(&mut self.words[base..base + GRID_WORDS], &part);
        }
    }

    /// Apply one pairwise mask stream over every coordinate: draw
    /// [`GRID_WORDS`] uniform words per coordinate from `rng` and
    /// wrapping-add them (`add = true`, the lower pair id) or subtract
    /// them (`add = false`, the higher id). Two parties drawing from the
    /// same stream with opposite signs cancel exactly mod `2^384`.
    pub fn apply_mask(&mut self, rng: &mut ChaCha8Rng, add: bool) {
        let mut scratch = [0u64; MASK_CHUNK_WORDS];
        for lane in self.words.chunks_mut(MASK_CHUNK_WORDS) {
            let mask = &mut scratch[..lane.len()];
            rng.fill_u64s(mask);
            let coords = lane.as_chunks_mut::<GRID_WORDS>().0;
            for (w, m) in coords.iter_mut().zip(mask.as_chunks().0) {
                if add {
                    add_words(w, m);
                } else {
                    sub_words(w, m);
                }
            }
        }
    }

    /// Coordinate `j` as the canonical Euclidean digit representation the
    /// fold's finalize ladder consumes: the low 352 bits as 11 base-`2^32`
    /// digits, plus the signed top word `floor(S / 2^352)`. Valid as long
    /// as the true (unmasked) sum fits in `±2^383`, which the width
    /// argument in the module docs guarantees.
    pub fn digits(&self, j: usize) -> ([u32; GRID_DIGITS], i64) {
        let w = &self.words[j * GRID_WORDS..(j + 1) * GRID_WORDS];
        let mut digits = [0u32; GRID_DIGITS];
        for (k, d) in digits.iter_mut().enumerate() {
            *d = (w[k / 2] >> (32 * (k % 2))) as u32;
        }
        let top = ((w[GRID_WORDS - 1] >> 32) as u32) as i32 as i64;
        (digits, top)
    }
}

/// A vector of wrapping `u64` counters, one word per coordinate — the
/// blind analogue of SPATL's per-index vote counts. Masked the same way
/// (mod `2^64`), so the selection pattern never appears in clear on the
/// wire, yet the full-cohort sum is the exact vote count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedCounts {
    words: Vec<u64>,
}

impl MaskedCounts {
    /// Zero counts over `n` coordinates.
    pub fn zeros(n: usize) -> Self {
        MaskedCounts { words: vec![0; n] }
    }

    /// Rebuild from raw words (wire decode).
    pub fn from_words(words: Vec<u64>) -> Self {
        MaskedCounts { words }
    }

    /// Number of coordinates.
    pub fn n_coords(&self) -> usize {
        self.words.len()
    }

    /// The raw words (wire encode).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Count one vote at coordinate `j`.
    pub fn bump(&mut self, j: usize) {
        self.words[j] = self.words[j].wrapping_add(1);
    }

    /// Wrapping `self += other` per coordinate.
    pub fn add_assign(&mut self, other: &MaskedCounts) {
        assert_eq!(
            self.words.len(),
            other.words.len(),
            "count lanes must agree on width"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a = a.wrapping_add(*b);
        }
    }

    /// Apply one pairwise mask stream: one uniform word per coordinate,
    /// added or subtracted mod `2^64`.
    pub fn apply_mask(&mut self, rng: &mut ChaCha8Rng, add: bool) {
        let mut scratch = [0u64; MASK_CHUNK_WORDS];
        for lane in self.words.chunks_mut(MASK_CHUNK_WORDS) {
            let mask = &mut scratch[..lane.len()];
            rng.fill_u64s(mask);
            for (w, &m) in lane.iter_mut().zip(mask.iter()) {
                *w = if add {
                    w.wrapping_add(m)
                } else {
                    w.wrapping_sub(m)
                };
            }
        }
    }

    /// The unmasked count at coordinate `j`. Only meaningful once every
    /// mask has cancelled; the true count is far below `u32::MAX`.
    pub fn count(&self, j: usize) -> u32 {
        self.words[j] as u32
    }
}

/// `words += part` with carry propagation, mod `2^(64·len)`.
fn add_words(words: &mut [u64], part: &[u64; GRID_WORDS]) {
    let mut carry = 0u64;
    for (w, &p) in words.iter_mut().zip(part.iter()) {
        let (s1, c1) = w.overflowing_add(p);
        let (s2, c2) = s1.overflowing_add(carry);
        *w = s2;
        carry = u64::from(c1) + u64::from(c2);
    }
}

/// `words -= part` with borrow propagation, mod `2^(64·len)`.
fn sub_words(words: &mut [u64], part: &[u64; GRID_WORDS]) {
    let mut borrow = 0u64;
    for (w, &p) in words.iter_mut().zip(part.iter()) {
        let (d1, b1) = w.overflowing_sub(p);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *w = d2;
        borrow = u64::from(b1) + u64::from(b2);
    }
}

/// Two's-complement negation in place, mod `2^(64·len)`.
fn negate_words(part: &mut [u64; GRID_WORDS]) {
    let mut carry = 1u64;
    for w in part.iter_mut() {
        let (s, c) = (!*w).overflowing_add(carry);
        *w = s;
        carry = u64::from(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the grid integer of `±v·w` as an i128 (valid for the
    /// small test magnitudes used here).
    fn grid_int(v: f32, w: u64) -> i128 {
        let bits = v.to_bits();
        let neg = bits >> 31 == 1;
        let e = ((bits >> 23) & 0xff) as i32;
        let m = (bits & 0x7f_ffff) as u64;
        let (mant, exp) = if e == 0 {
            (m, -149)
        } else {
            (m | 0x80_0000, e - 150)
        };
        let val = (mant as i128 * w as i128) << (exp + 149);
        if neg {
            -val
        } else {
            val
        }
    }

    /// Reconstruct coordinate `j` as an i128, asserting the upper words
    /// are pure sign extension (true for every test magnitude here).
    fn low_i128(v: &MaskedVector, j: usize) -> i128 {
        let w = &v.words()[j * GRID_WORDS..(j + 1) * GRID_WORDS];
        let low = (w[0] as u128 | (w[1] as u128) << 64) as i128;
        let ext = if low < 0 { u64::MAX } else { 0 };
        assert!(
            w[2..].iter().all(|&x| x == ext),
            "value exceeds the i128 test range"
        );
        low
    }

    #[test]
    fn accumulate_matches_reference_integers() {
        // Magnitudes ≲ 1e-28 keep the grid integers inside the i128
        // reference range (bit position + 88-bit product < 127 bits).
        let mut v = MaskedVector::zeros(3);
        v.accumulate(0, 2.5e-30, 3, false);
        v.accumulate(0, -1.25e-30, 2, false);
        v.accumulate(1, 1.5e-45, 1, false);
        v.accumulate(2, -7.25e-31, 5, true); // negated: +7.25e-31·5
        assert_eq!(
            low_i128(&v, 0),
            grid_int(2.5e-30, 3) + grid_int(-1.25e-30, 2)
        );
        assert_eq!(low_i128(&v, 1), 1); // one grid LSB
        assert_eq!(low_i128(&v, 2), -grid_int(-7.25e-31, 5));
    }

    #[test]
    fn zero_and_nonfinite_are_inert() {
        let mut v = MaskedVector::zeros(1);
        v.accumulate(0, 0.0, 9, false);
        v.accumulate(0, -0.0, 9, false);
        v.accumulate(0, 123.0, 0, false);
        v.accumulate(0, f32::NAN, 1, false);
        v.accumulate(0, f32::INFINITY, 1, false);
        assert_eq!(v, MaskedVector::zeros(1));
    }

    #[test]
    fn negative_sums_carry_a_signed_top_word() {
        let mut v = MaskedVector::zeros(1);
        v.accumulate(0, -1.0e-30, 1, false);
        let (_, top) = v.digits(0);
        assert_eq!(top, -1, "two's-complement sign extension");
        assert_eq!(low_i128(&v, 0), grid_int(-1.0e-30, 1));
    }

    #[test]
    fn masks_cancel_exactly_in_any_fold_order() {
        use rand::SeedableRng;
        let n = 17;
        let mut a = MaskedVector::zeros(n);
        let mut b = MaskedVector::zeros(n);
        for j in 0..n {
            a.accumulate(j, (j as f32 - 8.0) * 0.37, 3, false);
            b.accumulate(j, (j as f32).sin(), 5, false);
        }
        let mut clear = MaskedVector::zeros(n);
        clear.add_assign(&a);
        clear.add_assign(&b);

        a.apply_mask(&mut ChaCha8Rng::seed_from_u64(0xFEED), true);
        b.apply_mask(&mut ChaCha8Rng::seed_from_u64(0xFEED), false);

        let mut fold = MaskedVector::zeros(n);
        fold.add_assign(&b); // reversed arrival order
        fold.add_assign(&a);
        assert_eq!(fold, clear, "pairwise masks cancel bit-exactly");
    }

    #[test]
    fn count_masks_cancel() {
        use rand::SeedableRng;
        let mut a = MaskedCounts::zeros(4);
        let mut b = MaskedCounts::zeros(4);
        a.bump(0);
        a.bump(2);
        b.bump(2);
        a.apply_mask(&mut ChaCha8Rng::seed_from_u64(1), false);
        b.apply_mask(&mut ChaCha8Rng::seed_from_u64(1), true);
        let mut fold = MaskedCounts::zeros(4);
        fold.add_assign(&a);
        fold.add_assign(&b);
        assert_eq!(
            (0..4).map(|j| fold.count(j)).collect::<Vec<_>>(),
            vec![1, 0, 2, 0]
        );
    }

    #[test]
    fn extreme_magnitudes_coexist() {
        let mut v = MaskedVector::zeros(1);
        v.accumulate(0, f32::MAX, u64::MAX, false);
        v.accumulate(0, f32::MIN_POSITIVE * f32::EPSILON, 1, false);
        v.accumulate(0, f32::MAX, u64::MAX, true);
        assert_eq!(low_i128(&v, 0), 1, "huge terms cancel to one grid LSB");
    }
}
