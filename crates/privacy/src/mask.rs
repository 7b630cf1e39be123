//! Pairwise mask derivation and the masked-upload container.
//!
//! Every unordered cohort pair `{a, b}` shares a per-round base seed
//! ([`pair_base`]). Each lane of the upload (update values, the
//! secondary control/velocity lane, SPATL's vote counts, batch-norm
//! buffers) derives its own ChaCha8 keystream from that base; the lower
//! id *adds* the stream's words, the higher id *subtracts* them, so a
//! full cohort's masks cancel exactly under the server's wrapping fold.
//!
//! In a deployment the base would be agreed in the handshake (a DH
//! exchange, as in xaynet's PET protocol); this reproduction derives it
//! from the session's `privacy.seed`, which both endpoints hold, and
//! models the *dropout protocol* faithfully: when a cohort member never
//! reports, the coordinator asks the survivors for unmask shares — each
//! survivor reveals the pair base it shared with the dropped client
//! ([`UnmaskShare`]) — and subtracts the orphaned masks before finalize.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::grid::{MaskedCounts, MaskedVector};

/// SplitMix64 finalizer: the avalanche permutation both mask and noise
/// derivations chain.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shared base seed of cohort pair `{a, b}` for one round. Symmetric
/// in `a`/`b` (the pair is unordered) and domain-separated by round, so
/// no mask stream ever repeats across rounds.
pub fn pair_base(privacy_seed: u64, round: u64, a: u64, b: u64) -> u64 {
    let (lo, hi) = (a.min(b), a.max(b));
    mix(privacy_seed ^ mix(round ^ mix(lo ^ mix(hi ^ 0x5EC0_A665))))
}

/// The lanes of a masked upload, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskLane {
    /// The update-value lane (weighted deltas on the grid).
    Delta,
    /// The algorithm's secondary exact lane: SCAFFOLD / SPATL control
    /// deltas, or FedNova's momentum velocity.
    Secondary,
    /// SPATL's per-index vote counts (one wrapping `u64` per coordinate).
    Count,
    /// Batch-norm buffer lane.
    Buffers,
}

impl MaskLane {
    fn tag(self) -> u64 {
        match self {
            MaskLane::Delta => 1,
            MaskLane::Secondary => 2,
            MaskLane::Count => 3,
            MaskLane::Buffers => 4,
        }
    }
}

/// The generator one pair masks one lane with: ChaCha8 domain-separated
/// from the pair base by the lane tag.
pub fn lane_rng(base: u64, lane: MaskLane) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(mix(base ^ lane.tag().wrapping_mul(0xA24B_AED4_963E_E407)))
}

/// The keystream of [`lane_rng`] one word at a time, drawn through a
/// 128-word buffer that [`ChaCha8Rng::fill_u64s`] refills — the same bulk
/// path, and the same widest kernel, [`MaskedVector::apply_masks`] runs.
pub fn lane_stream(base: u64, lane: MaskLane) -> impl FnMut() -> u64 {
    let mut rng = lane_rng(base, lane);
    let mut buf = [0u64; 128];
    let mut at = buf.len();
    move || {
        if at >= buf.len() {
            rng.fill_u64s(&mut buf);
            at = 0;
        }
        let word = buf[at];
        at += 1;
        word
    }
}

/// One client's server-blind upload: every lane the clear upload would
/// have carried, re-expressed as exact grid integers under the cohort's
/// pairwise masks. The clear metadata that rides alongside (sample
/// count, τ, the diverged flag) is what the round protocol already
/// reveals in its `RoundDone` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedUpload {
    /// Masked update-value lane over the shared parameter vector.
    pub delta: MaskedVector,
    /// Masked secondary lane (control deltas or velocity), when the
    /// algorithm has one.
    pub secondary: Option<MaskedVector>,
    /// Masked SPATL vote counts.
    pub counts: Option<MaskedCounts>,
    /// Masked batch-norm buffer lane.
    pub buffers: Option<MaskedVector>,
}

impl MaskedUpload {
    /// Apply (`true`) or remove (`false`) the masks of every pair in
    /// `pairs`, given by its pair base, across every lane this upload
    /// carries: one pass per lane over all of the pairs' streams. A
    /// client masks with its whole cohort at once; the coordinator
    /// removes a dropout's orphaned masks with the survivors' shares.
    pub fn apply_pairs(&mut self, pairs: &[(u64, bool)]) {
        let streams = |lane: MaskLane| -> Vec<(ChaCha8Rng, bool)> {
            pairs
                .iter()
                .map(|&(base, add)| (lane_rng(base, lane), add))
                .collect()
        };
        self.delta.apply_masks(&mut streams(MaskLane::Delta));
        if let Some(sec) = &mut self.secondary {
            sec.apply_masks(&mut streams(MaskLane::Secondary));
        }
        if let Some(counts) = &mut self.counts {
            counts.apply_masks(&mut streams(MaskLane::Count));
        }
        if let Some(buf) = &mut self.buffers {
            buf.apply_masks(&mut streams(MaskLane::Buffers));
        }
    }

    /// Mask this upload for `me` against every other cohort member: the
    /// lower id of each pair adds the stream, the higher subtracts it.
    pub fn mask_for_cohort(&mut self, privacy_seed: u64, round: u64, me: usize, cohort: &[usize]) {
        let pairs: Vec<(u64, bool)> = cohort
            .iter()
            .filter(|&&peer| peer != me)
            .map(|&peer| {
                let base = pair_base(privacy_seed, round, me as u64, peer as u64);
                (base, me < peer)
            })
            .collect();
        self.apply_pairs(&pairs);
    }

    /// Wrapping-fold another masked upload into this one, lane by lane.
    /// Panics if the two uploads disagree on lane shape — the session
    /// config fixes the shape, so a mismatch is a protocol error.
    pub fn add_assign(&mut self, other: &MaskedUpload) {
        self.delta.add_assign(&other.delta);
        match (&mut self.secondary, &other.secondary) {
            (Some(a), Some(b)) => a.add_assign(b),
            (None, None) => {}
            _ => panic!("masked uploads disagree on the secondary lane"),
        }
        match (&mut self.counts, &other.counts) {
            (Some(a), Some(b)) => a.add_assign(b),
            (None, None) => {}
            _ => panic!("masked uploads disagree on the count lane"),
        }
        match (&mut self.buffers, &other.buffers) {
            (Some(a), Some(b)) => a.add_assign(b),
            (None, None) => {}
            _ => panic!("masked uploads disagree on the buffer lane"),
        }
    }
}

/// One survivor's unmask share for one dropped cohort member: the pair
/// base the two shared this round. The coordinator validates it against
/// its own derivation before applying it — a corrupted share must not be
/// able to poison the fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnmaskShare {
    /// The cohort member that never reported.
    pub dropped: u32,
    /// The surviving member revealing the pair base.
    pub survivor: u32,
    /// The shared per-round pair base seed.
    pub pair_base: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_base_is_symmetric_and_round_separated() {
        assert_eq!(pair_base(7, 3, 1, 5), pair_base(7, 3, 5, 1));
        assert_ne!(pair_base(7, 3, 1, 5), pair_base(7, 4, 1, 5));
        assert_ne!(pair_base(7, 3, 1, 5), pair_base(8, 3, 1, 5));
        assert_ne!(pair_base(7, 3, 1, 5), pair_base(7, 3, 1, 6));
    }

    #[test]
    fn lane_streams_are_domain_separated() {
        let mut a = lane_stream(42, MaskLane::Delta);
        let mut b = lane_stream(42, MaskLane::Secondary);
        let xs: Vec<u64> = (0..8).map(|_| a()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn lane_stream_is_the_lane_rng_stream() {
        use rand::RngCore;
        let mut buffered = lane_stream(42, MaskLane::Count);
        let mut rng = lane_rng(42, MaskLane::Count);
        for i in 0..200 {
            assert_eq!(buffered(), rng.next_u64(), "word {i}");
        }
    }

    /// The masked words each member of a four-client cohort puts on the
    /// wire, one digest per member over all four lanes. Pinned constants:
    /// a keystream that drifts by one word stops cancelling against a
    /// peer running an older build.
    #[test]
    fn cohort_mask_words_are_pinned() {
        let cohort = [2usize, 5, 9, 13];
        let n = 1_000;
        let digests: Vec<u64> = cohort
            .iter()
            .map(|&me| {
                let mut up = MaskedUpload {
                    delta: MaskedVector::zeros(n),
                    secondary: Some(MaskedVector::zeros(n)),
                    counts: Some(MaskedCounts::zeros(n)),
                    buffers: Some(MaskedVector::zeros(n)),
                };
                up.mask_for_cohort(99, 4, me, &cohort);
                let lanes = [
                    up.delta.words(),
                    up.secondary.as_ref().unwrap().words(),
                    up.counts.as_ref().unwrap().words(),
                    up.buffers.as_ref().unwrap().words(),
                ];
                lanes
                    .iter()
                    .flat_map(|l| l.iter())
                    .fold(0, |h, &w| mix(h ^ w))
            })
            .collect();
        assert_eq!(
            digests,
            [
                3_091_981_010_753_656_079,
                2_455_697_893_187_778_113,
                7_038_767_183_552_248_779,
                7_920_611_327_403_765_040,
            ]
        );
    }

    #[test]
    fn full_cohort_masks_cancel_over_three_members() {
        let cohort = [2usize, 5, 9];
        let n = 13;
        let mut clear = MaskedVector::zeros(n);
        let mut fold: Option<MaskedUpload> = None;
        for (k, &me) in cohort.iter().enumerate() {
            let mut up = MaskedUpload {
                delta: MaskedVector::zeros(n),
                secondary: None,
                counts: Some(MaskedCounts::zeros(n)),
                buffers: None,
            };
            for j in 0..n {
                let v = ((j + k) as f32).cos() * 0.3;
                up.delta.accumulate(j, v, 1 + k as u64, false);
                clear.accumulate(j, v, 1 + k as u64, false);
            }
            up.counts.as_mut().unwrap().bump(k);
            up.mask_for_cohort(99, 4, me, &cohort);
            match &mut fold {
                None => fold = Some(up),
                Some(f) => f.add_assign(&up),
            }
        }
        let fold = fold.unwrap();
        assert_eq!(fold.delta, clear);
        for j in 0..n {
            let expect = u32::from(j < cohort.len());
            assert_eq!(fold.counts.as_ref().unwrap().count(j), expect);
        }
    }

    #[test]
    fn dropout_is_recoverable_from_pair_bases() {
        let cohort = [0usize, 1, 2, 3];
        let n = 7;
        let dropped = 2usize;
        let mut clear = MaskedVector::zeros(n);
        let mut fold: Option<MaskedUpload> = None;
        for &me in &cohort {
            let mut up = MaskedUpload {
                delta: MaskedVector::zeros(n),
                secondary: None,
                counts: None,
                buffers: None,
            };
            for j in 0..n {
                up.delta.accumulate(j, 0.01 * (me as f32 + 1.0), 2, false);
            }
            up.mask_for_cohort(5, 0, me, &cohort);
            if me == dropped {
                continue; // never reports
            }
            for j in 0..n {
                clear.accumulate(j, 0.01 * (me as f32 + 1.0), 2, false);
            }
            match &mut fold {
                None => fold = Some(up),
                Some(f) => f.add_assign(&up),
            }
        }
        let mut fold = fold.unwrap();
        assert_ne!(fold.delta, clear, "orphaned masks poison the fold");
        // Unmask: every survivor reveals its pair base with the dropped
        // member; the coordinator removes the orphaned streams, each with
        // the survivor's sign flipped (survivor `s` applied
        // `add = s < dropped`), in one pass.
        let shares: Vec<(u64, bool)> = cohort
            .iter()
            .filter(|&&s| s != dropped)
            .map(|&s| (pair_base(5, 0, s as u64, dropped as u64), s > dropped))
            .collect();
        fold.apply_pairs(&shares);
        assert_eq!(fold.delta, clear, "unmask shares recover the clear sum");
    }
}
