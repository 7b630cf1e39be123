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
/// scratch (plus as much again of carry counters) that stays in L1 while
/// every stream is added into the lane.
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

    /// Apply every pairwise mask stream in `streams` over every
    /// coordinate: draw [`GRID_WORDS`] uniform words per coordinate from
    /// each generator and wrapping-add them (`true`, the lower pair id)
    /// or subtract them (`false`, the higher id). Two parties drawing
    /// from the same stream with opposite signs cancel exactly mod
    /// `2^384`; one stream is how a dropout's orphaned mask is removed.
    ///
    /// One pass over the lane, 64 coordinates (3 KiB) at a time.
    /// Each stream's words go in limb by limb as plain wrapping adds (or
    /// subtracts), with the carry (or borrow) out of each limb counted in
    /// a signed counter; once every stream is in, one carry chain per
    /// coordinate moves the counters into the next limb. The lane holds
    /// the same integers mod `2^384` whatever the order of the adds, so
    /// the result is bit-identical to applying the streams one by one.
    pub fn apply_masks(&mut self, streams: &mut [(ChaCha8Rng, bool)]) {
        // No stream (every unmask share refused) leaves the lane as it
        // is; skip the carry walk over it.
        if streams.is_empty() {
            return;
        }
        let mut mask = [0u64; MASK_CHUNK_WORDS];
        let mut carries = [0i64; MASK_CHUNK_WORDS];
        for lane in self.words.chunks_mut(MASK_CHUNK_WORDS) {
            let mask = &mut mask[..lane.len()];
            let carries = &mut carries[..lane.len()];
            carries.fill(0);
            for (rng, add) in streams.iter_mut() {
                rng.fill_u64s(mask);
                add_counting(lane, mask, carries, *add);
            }
            let coords = lane.as_chunks_mut::<GRID_WORDS>().0;
            for (w, c) in coords.iter_mut().zip(carries.as_chunks().0) {
                settle_carries(w, c, streams.len());
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

    /// Apply every pairwise mask stream in `streams`: one uniform word
    /// per coordinate from each, added (`true`) or subtracted (`false`)
    /// mod `2^64`, in one pass over the lane.
    pub fn apply_masks(&mut self, streams: &mut [(ChaCha8Rng, bool)]) {
        let mut mask = [0u64; MASK_CHUNK_WORDS];
        for lane in self.words.chunks_mut(MASK_CHUNK_WORDS) {
            let mask = &mut mask[..lane.len()];
            for (rng, add) in streams.iter_mut() {
                rng.fill_u64s(mask);
                for (w, &m) in lane.iter_mut().zip(mask.iter()) {
                    *w = if *add {
                        w.wrapping_add(m)
                    } else {
                        w.wrapping_sub(m)
                    };
                }
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

/// `lane += mask` (or `-=`) word by word, each word mod `2^64` on its
/// own, counting the carry (`+1`) or borrow (`-1`) out of every word in
/// `carries`. The limbs stay independent, so the loop vectorises; AVX2
/// hosts take a copy compiled for it.
fn add_counting(lane: &mut [u64], mask: &[u64], carries: &mut [i64], add: bool) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 detected on this CPU.
        return unsafe { add_counting_avx2(lane, mask, carries, add) };
    }
    add_counting_portable(lane, mask, carries, add);
}

/// [`add_counting_portable`] compiled for AVX2: four words per compare.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn add_counting_avx2(lane: &mut [u64], mask: &[u64], carries: &mut [i64], add: bool) {
    add_counting_portable(lane, mask, carries, add);
}

#[inline(always)]
fn add_counting_portable(lane: &mut [u64], mask: &[u64], carries: &mut [i64], add: bool) {
    let words = lane.iter_mut().zip(mask).zip(carries.iter_mut());
    if add {
        for ((w, &m), c) in words {
            let s = w.wrapping_add(m);
            *c += i64::from(s < m);
            *w = s;
        }
    } else {
        for ((w, &m), c) in words {
            *c -= i64::from(*w < m);
            *w = w.wrapping_sub(m);
        }
    }
}

/// Move the counted carries of one coordinate into the limbs above them:
/// limb `k` holds `w[k] + 2^64·c[k]` (plus whatever reaches it from
/// below), so one signed carry chain restores six canonical words. The
/// carry out of the top limb is dropped (arithmetic mod `2^384`).
fn settle_carries(w: &mut [u64; GRID_WORDS], c: &[i64; GRID_WORDS], streams: usize) {
    let mut carry = 0i64;
    for (w, &c) in w.iter_mut().zip(c) {
        debug_assert!(
            c.unsigned_abs() <= streams as u64,
            "a limb carries at most once per stream"
        );
        let t = i128::from(*w) + i128::from(carry);
        *w = t as u64;
        carry = c + (t >> 64) as i64;
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

        a.apply_masks(&mut [(ChaCha8Rng::seed_from_u64(0xFEED), true)]);
        b.apply_masks(&mut [(ChaCha8Rng::seed_from_u64(0xFEED), false)]);

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
        a.apply_masks(&mut [(ChaCha8Rng::seed_from_u64(1), false)]);
        b.apply_masks(&mut [(ChaCha8Rng::seed_from_u64(1), true)]);
        let mut fold = MaskedCounts::zeros(4);
        fold.add_assign(&a);
        fold.add_assign(&b);
        assert_eq!(
            (0..4).map(|j| fold.count(j)).collect::<Vec<_>>(),
            vec![1, 0, 2, 0]
        );
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

    /// The reference the fused pass must match: each stream on its own,
    /// one coordinate at a time, drawn word by word through `next_u64`
    /// and carried through all six words at once.
    fn per_stream_reference(lane: &mut MaskedVector, streams: &mut [(ChaCha8Rng, bool)]) {
        use rand::RngCore;
        for (rng, add) in streams.iter_mut() {
            for w in lane.words.as_chunks_mut::<GRID_WORDS>().0 {
                let m: [u64; GRID_WORDS] = std::array::from_fn(|_| rng.next_u64());
                if *add {
                    add_words(w, &m);
                } else {
                    sub_words(w, &m);
                }
            }
        }
    }

    /// Lane lengths across the 64-coordinate step (empty, one, one short,
    /// exact, one over) and the masked workload's model width.
    const LANE_LENGTHS: [usize; 6] = [0, 1, 63, 64, 65, 17_730];

    /// `count` streams, stream `s` seeded from `seed` and adding when bit
    /// `s` of `dirs` is set (0 streams up to a 17-member cohort's 16 and
    /// one more).
    fn streams(seed: u64, dirs: u32, count: usize) -> Vec<(ChaCha8Rng, bool)> {
        use rand::SeedableRng;
        (0..count)
            .map(|s| {
                let rng = ChaCha8Rng::seed_from_u64(crate::mix(seed ^ s as u64));
                (rng, dirs >> s & 1 == 1)
            })
            .collect()
    }

    /// A lane preloaded so that carries and borrows cross every word:
    /// all ones, every word `0x8000…`, or splitmix noise.
    fn preloaded(n: usize, kind: u64, seed: u64) -> MaskedVector {
        let words = (0..(n * GRID_WORDS) as u64)
            .map(|i| match kind {
                0 => u64::MAX,
                1 => 1 << 63,
                _ => crate::mix(seed ^ i),
            })
            .collect();
        MaskedVector::from_words(words).expect("whole coordinates")
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4))]

        /// The fused pass is the per-stream carry chain, word for word,
        /// for every stream count, lane length, direction mix and preload.
        #[test]
        fn fused_pass_matches_per_stream_reference(seed in 0u64..u64::MAX, dirs in 0u32..(1 << 17)) {
            for count in 0..=17 {
                for n in LANE_LENGTHS {
                    for kind in 0..3 {
                        let mut fused = preloaded(n, kind, seed);
                        let mut want = fused.clone();
                        fused.apply_masks(&mut streams(seed, dirs, count));
                        per_stream_reference(&mut want, &mut streams(seed, dirs, count));
                        proptest::prop_assert!(
                            fused == want,
                            "{} streams, {} coords, preload {}", count, n, kind
                        );
                    }
                }
            }
        }

        /// The count lane's pass is the per-stream wrapping sum.
        #[test]
        fn count_pass_matches_per_stream_reference(seed in 0u64..u64::MAX, dirs in 0u32..(1 << 17)) {
            use rand::RngCore;
            for count in 0..=17 {
                for n in LANE_LENGTHS {
                    let start: Vec<u64> = (0..n as u64).map(|i| crate::mix(seed ^ i)).collect();
                    let mut fused = MaskedCounts::from_words(start.clone());
                    fused.apply_masks(&mut streams(seed, dirs, count));
                    let mut want = start;
                    for (rng, add) in &mut streams(seed, dirs, count) {
                        for w in &mut want {
                            let m = rng.next_u64();
                            *w = if *add { w.wrapping_add(m) } else { w.wrapping_sub(m) };
                        }
                    }
                    proptest::prop_assert!(
                        fused.words() == want.as_slice(),
                        "{} streams, {} coords", count, n
                    );
                }
            }
        }
    }

    /// The AVX2 copy of the counting add is the portable one, carries
    /// and borrows included.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_counting_add_matches_portable() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let noise = |k: u64| -> Vec<u64> {
            (0..MASK_CHUNK_WORDS as u64)
                .map(|i| crate::mix(k ^ i))
                .collect()
        };
        for add in [true, false] {
            for len in [0, 1, 3, 4, 5, 17, MASK_CHUNK_WORDS] {
                let mask = noise(7);
                let mut lane = noise(3);
                let mut carries: Vec<i64> = noise(5).iter().map(|&x| (x % 5) as i64 - 2).collect();
                let (mut lane2, mut carries2) = (lane.clone(), carries.clone());
                add_counting_portable(&mut lane[..len], &mask[..len], &mut carries[..len], add);
                // SAFETY: AVX2 detected above.
                unsafe {
                    add_counting_avx2(&mut lane2[..len], &mask[..len], &mut carries2[..len], add)
                };
                assert_eq!((lane, carries), (lane2, carries2), "add {add} len {len}");
            }
        }
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
