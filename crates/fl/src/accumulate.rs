//! Streaming, order-independent round aggregation.
//!
//! Every [`AggregatorKind::WeightedMean`] rule as a **streaming
//! accumulator**: [`StreamState::fold`] absorbs one upload at a time into
//! fixed-size state and [`StreamState::finalize`] applies the round in
//! one pass, so a 10 000-client round needs O(model) server memory, not
//! O(cohort · model) (DESIGN.md §12).
//!
//! # Order independence
//!
//! A concurrent coordinator cannot promise arrival order, and f32
//! addition is not associative — a naive running f32 (or f64) sum would
//! make the global model depend on which socket drained first. The fold
//! is therefore built on [`ExactSums`]: a per-coordinate *integer*
//! accumulator over the fixed-point grid `2^-149` (the f32 subnormal
//! LSB). Each weighted term `±m·2^e · w` (mantissa `m < 2^24`, integer
//! weight `w < 2^64`) is an exact integer on that grid; integer addition
//! **is** associative and commutative, so any permutation or
//! interleaving of `fold` calls yields the same integers, and the
//! deterministic `finalize` ladder yields a bit-identical model.
//! Per-upload f32 pre-terms (FedNova's `δ/τ`, SCAFFOLD's control
//! fallback) depend only on that upload plus the round's broadcast
//! snapshot, never on fold order.
//!
//! The integer can be 341 bits wide, but the terms real updates produce
//! sit in a narrow band of exponents, so a coordinate is stored as one
//! `i128` **fast lane** positioned over that band ([`LANE_LSB`],
//! [`TERM_BITS`]) plus, for the rare term outside it, a lazily
//! allocated 384-bit **wide row**; which of the two a term goes to is a
//! function of its own exponent and weight. The value is the exact sum
//! of both, so the split is invisible in the result (DESIGN.md §12 has
//! the window-placement and overflow arguments).
//!
//! Cohort-level scalars (total samples, `τ_eff`, survivor counts) are
//! accumulated as exact `u128` side-sums and applied once at finalize.
//! Non-finite uploads cannot be represented on the grid; they are
//! tracked in commutative per-coordinate bitsets and reproduce the IEEE
//! verdict (`NaN` dominates, opposing infinities collide to `NaN`) at
//! finalize.
//!
//! # Two reducers, one door
//!
//! A cohort is reduced by exactly two routines. The **exact-lane fold**
//! is [`fold_terms`], generic over the lanes it writes ([`CohortSums`]):
//! [`StreamState::fold`] runs it over [`ExactSums`], a masked client
//! over the 384-bit grid lanes, and one [`RoundTotals::apply`] finalizes
//! either. The **robust fold** is one routine in
//! [`compose`](crate::compose). Every round
//! reaches them through [`RoundAccumulator`], which streams when it can
//! and spills — buffers, slots by client id, hands the cohort to
//! [`GlobalState::aggregate`] — only where the rule needs the cohort
//! first, trading the O(cohort · model) ceiling back in explicitly.
//!
//! [`GlobalState::aggregate`]: crate::GlobalState::aggregate
//! [`AggregatorKind::WeightedMean`]: crate::AggregatorKind::WeightedMean

use std::collections::BTreeSet;

use spatl_privacy::{
    pair_base, quantized_l2, MaskedCounts, MaskedUpload, MaskedVector, PrivacyConfig, PrivacyMode,
    UnmaskShare, GRID_DIGITS,
};

use crate::client::ETA_EFF;
use crate::{
    AggregatorKind, Algorithm, FaultKind, FaultRecord, FlConfig, GlobalState, LocalOutcome, Weight,
};

/// `2^-149` — the grid LSB — as an exactly-represented f64.
const GRID: f64 = f64::from_bits(874u64 << 52);

/// `2^32` as f64, the finalize ladder's radix.
const RADIX: f64 = 4294967296.0;

/// Grid bit of the fast lane's least significant bit: a lane holding the
/// integer `L` stands for `L · 2^LANE_LSB` grid units, i.e. `L · 2^-69`.
///
/// Placement: a normal f32 `±m·2^e` (`2^23 ≤ m < 2^24`) has its mantissa
/// LSB on grid bit `e + 149`, so the lane can hold every `|v| ≥ 2^-46`
/// (`1.4e-14`; a delta of two f32 weights is a multiple of the smaller
/// one's ulp, so only weights below `2^-22` yield smaller non-zero
/// ones), and by [`TERM_BITS`] every `|v| < 2^(27 - bits(w))`: `2^26` at
/// unit weight, `2^7` at a million samples. Anything else takes a wide
/// row.
const LANE_LSB: u32 = 80;

/// Bits one fast-lane term may occupy above [`LANE_LSB`]. An `i128`
/// holds `|L| < 2^127`; terms below `2^96` leave room for `2^31` of them
/// per coordinate — the same addition budget the carry-save limbs had.
const TERM_BITS: u32 = 96;

/// `2^(32·⌊LANE_LSB/32⌋ - 149)`: what the lane's own base-`2^32` digits
/// are worth, the low `⌊LANE_LSB/32⌋` digits of the full form being zero.
const LANE_UNIT: f64 = f64::from_bits(((874 + 32 * (LANE_LSB / 32)) as u64) << 52);

/// Bits by which the lane sits above a digit boundary.
const LANE_SUB: u32 = LANE_LSB % 32;
const _: () = assert!(LANE_SUB != 0, "lane_digits shifts by 32 - LANE_SUB");

/// Coordinates per lazily allocated page of full-width rows.
const PAGE: usize = 256;

/// Per-coordinate non-finite markers, allocated only when a poisoned
/// upload actually arrives (the honest-path fold never pays for them).
struct NonFinite {
    nan: Vec<u64>,
    pos: Vec<u64>,
    neg: Vec<u64>,
}

/// The finalize ladder: Horner evaluation in f64, most significant
/// first, of `start·2^(32·n) + Σ digits[k]·2^(32k)`. Multiplying by the
/// radix is exact and so is every step whose running value stays an
/// integer within `±2^53`, which gives callers two liberties that leave
/// the result's bits alone: trailing zero digits may be replaced by a
/// power-of-two scale, and the ladder may `start` from any leading part
/// of the number that fits `±2^53` instead of from its signed top word.
fn ladder(start: f64, digits: &[u32]) -> f64 {
    let mut val = start;
    for &d in digits.iter().rev() {
        val = val * RADIX + d as f64;
    }
    val
}

/// The base-`2^32` digits of `lane · 2^LANE_SUB` and their signed top
/// word: the only digits of `lane · 2^LANE_LSB` that are neither zero
/// (below) nor sign extension (above).
fn lane_digits(lane: i128) -> ([u32; 5], i64) {
    let digits = [
        (lane as u32) << LANE_SUB,
        (lane >> (32 - LANE_SUB)) as u32,
        (lane >> (64 - LANE_SUB)) as u32,
        (lane >> (96 - LANE_SUB)) as u32,
        (lane >> (128 - LANE_SUB)) as u32,
    ];
    (digits, (lane >> 127) as i64)
}

/// A fast lane's sum as f64, with the bits the full 11-digit ladder
/// gives: the digits below the lane are zero (hence [`LANE_UNIT`]), and
/// the ladder starts from the longest leading part of the lane that
/// fits `±2^53` — everything above its lowest digit when `|sum| < 1`,
/// above its lowest two when `|sum| < 2^32`.
fn lane_value(lane: i128) -> f64 {
    let (digits, top) = lane_digits(lane);
    // ⌊lane·2^LANE_SUB / 2^(32k)⌋ is `lane >> (32k - LANE_SUB)`.
    let leading = |k: u32| (lane >> (32 * k - LANE_SUB)) as i64 as f64;
    let magnitude_bits = 128 - (lane ^ (lane >> 127)).leading_zeros();
    let val = if magnitude_bits <= 53 + 32 - LANE_SUB {
        ladder(leading(1), &digits[..1])
    } else if magnitude_bits <= 53 + 64 - LANE_SUB {
        ladder(leading(2), &digits[..2])
    } else {
        ladder(top as f64, &digits)
    };
    val * LANE_UNIT
}

/// The fast-lane integer of `v · w`, or `None` when the term does not
/// fit the window (`span` = widest admissible shift for this `w`) —
/// which also catches zeros, subnormals and non-finite values, whose
/// exponent fields land outside it from either side.
#[inline(always)]
fn lane_term(v: f32, w: u64, span: u32) -> Option<i128> {
    let bits = v.to_bits();
    // A normal v = ±m·2^(e-150) has its mantissa LSB on grid bit e - 1.
    let shift = ((bits >> 23) & 0xff).wrapping_sub(LANE_LSB + 1);
    if shift > span {
        return None;
    }
    let mant = ((bits & 0x7f_ffff) | 0x80_0000) as u128;
    let mag = ((mant * w as u128) << shift) as i128;
    Some(if bits >> 31 == 1 { -mag } else { mag })
}

/// Exact weighted f32 sums over `p` coordinates in O(p) memory.
///
/// Its [`CohortSums::add`] accumulates `v·w` into coordinate `j` exactly
/// (no rounding, any order); `value(j)` converts the exact integer sum to
/// the nearest-enough f64 deterministically. See the module docs for the
/// representation and the commutativity argument.
pub(crate) struct ExactSums {
    /// One fast lane per coordinate (16 bytes).
    lanes: Vec<i128>,
    /// `wide[j / PAGE]`: full-width (384-bit) rows for the terms that
    /// fall outside the lane window. Empty until the first such term,
    /// then one slot per page, each allocated when first hit.
    wide: Vec<Option<MaskedVector>>,
    nonfinite: Option<Box<NonFinite>>,
    /// Terms that took the lane / a wide row (zeros are neither).
    #[cfg(test)]
    placed: (u64, u64),
}

impl ExactSums {
    /// Zeroed sums for `p` coordinates.
    pub(crate) fn new(p: usize) -> Self {
        ExactSums {
            lanes: vec![0; p],
            wide: Vec::new(),
            nonfinite: None,
            #[cfg(test)]
            placed: (0, 0),
        }
    }

    /// Zeroed sums for `p` coordinates, in a finished round's lanes when
    /// they have the right length: a memset over mapped pages instead of
    /// a fresh mapping faulted in page by page during the first fold.
    fn recycled(p: usize, old: Option<ExactSums>) -> Self {
        match old {
            Some(mut sums) if sums.lanes.len() == p => {
                sums.lanes.fill(0);
                ExactSums {
                    lanes: sums.lanes,
                    ..ExactSums::new(0)
                }
            }
            _ => ExactSums::new(p),
        }
    }

    /// Widest lane shift a term of weight `w` may have: `m·w < 2^(24 +
    /// bits(w))`, so a shift up to `TERM_BITS - 24 - bits(w)` keeps the
    /// term below `2^TERM_BITS`. At least 8 for any `w`.
    fn span(w: u64) -> u32 {
        TERM_BITS - 24 - (64 - w.leading_zeros())
    }

    /// Everything the lane window turns away: inert zeros, non-finite
    /// markers, and the finite terms too small or too large for the
    /// lane, which land exactly in the coordinate's wide row.
    #[cold]
    fn add_wide(&mut self, j: usize, v: f32, w: u64) {
        if v == 0.0 {
            return;
        }
        let p = self.lanes.len();
        assert!(j < p, "coordinate {j} out of range for {p} sums");
        if !v.is_finite() {
            let words = p.div_ceil(64);
            let nf = self.nonfinite.get_or_insert_with(|| {
                Box::new(NonFinite {
                    nan: vec![0; words],
                    pos: vec![0; words],
                    neg: vec![0; words],
                })
            });
            let bit = 1u64 << (j % 64);
            if v.is_nan() {
                nf.nan[j / 64] |= bit;
            } else if v > 0.0 {
                nf.pos[j / 64] |= bit;
            } else {
                nf.neg[j / 64] |= bit;
            }
            return;
        }
        if self.wide.is_empty() {
            self.wide.resize_with(p.div_ceil(PAGE), || None);
        }
        self.wide[j / PAGE]
            .get_or_insert_with(|| MaskedVector::zeros(PAGE))
            .accumulate(j % PAGE, v, w, false);
        #[cfg(test)]
        {
            self.placed.1 += 1;
        }
    }

    /// The wide row page covering coordinate `j`, if any term ever
    /// needed one there.
    fn page(&self, j: usize) -> Option<&MaskedVector> {
        self.wide.get(j / PAGE).and_then(Option::as_ref)
    }

    /// Coordinate `j`'s exact sum — lane plus the row of `page` — in the
    /// canonical form the ladder reads: 11 base-`2^32` digits and the
    /// signed top word.
    fn digits(&self, j: usize, page: &MaskedVector) -> ([u32; GRID_DIGITS], i64) {
        let (lane, top) = lane_digits(self.lanes[j]);
        // Sign-extend the lane's digits to full width around their slot.
        let mut digits = [top as u32; GRID_DIGITS];
        let low = (LANE_LSB / 32) as usize;
        digits[..low].fill(0);
        digits[low..low + lane.len()].copy_from_slice(&lane);
        let (row, row_top) = page.digits(j % PAGE);
        let mut carry = 0u64;
        for (d, r) in digits.iter_mut().zip(row) {
            let t = *d as u64 + r as u64 + carry;
            *d = t as u32;
            carry = t >> 32;
        }
        (digits, top + row_top + carry as i64)
    }
}

/// A cohort's per-coordinate sums, written by [`fold_terms`] and read by
/// [`RoundTotals::apply`]: [`ExactSums`] for a clear fold, the 384-bit
/// grid lanes for a masked one. Both hold the same integers and reduce
/// to the same digits and the same [`ladder`], so a masked round
/// finalizes bit-identically to the clear fold of the same uploads.
pub(crate) trait CohortSums {
    /// SPATL's per-index vote counters in the matching representation.
    type Votes;

    /// Coordinates covered.
    fn n_coords(&self) -> usize;

    /// Accumulate `v · w` into coordinate `j`, exactly.
    fn add(&mut self, j: usize, v: f32, w: u64);

    /// [`add`](Self::add) `values[j] · w` for every `j` both `values`
    /// and the sums cover (zip-prefix): the dense fold's loop, with the
    /// weight's share of `add` loop-invariant.
    fn add_dense(&mut self, values: impl IntoIterator<Item = f32>, w: u64) {
        let n = self.n_coords();
        for (j, v) in values.into_iter().take(n).enumerate() {
            self.add(j, v, w);
        }
    }

    /// Count one vote at coordinate `j`.
    fn vote(votes: &mut Self::Votes, j: usize);

    /// The accumulated sum of coordinate `j` as f64 (relative error
    /// ≤ 2^-52 from the exact integer value; deterministic).
    fn value(&self, j: usize) -> f64;
}

impl CohortSums for ExactSums {
    type Votes = Vec<u32>;

    fn n_coords(&self) -> usize {
        self.lanes.len()
    }

    #[inline]
    fn add(&mut self, j: usize, v: f32, w: u64) {
        if w == 0 {
            return;
        }
        match lane_term(v, w, Self::span(w)) {
            Some(term) => {
                self.lanes[j] += term;
                #[cfg(test)]
                {
                    self.placed.0 += 1;
                }
            }
            None => self.add_wide(j, v, w),
        }
    }

    fn vote(votes: &mut Vec<u32>, j: usize) {
        votes[j] += 1;
    }

    /// Non-finite terms override: `NaN` if any NaN (or both infinities)
    /// was added, else the signed infinity.
    fn value(&self, j: usize) -> f64 {
        if let Some(nf) = &self.nonfinite {
            let (word, bit) = (j / 64, j % 64);
            let nan = nf.nan[word] >> bit & 1 == 1;
            let pos = nf.pos[word] >> bit & 1 == 1;
            let neg = nf.neg[word] >> bit & 1 == 1;
            if nan || (pos && neg) {
                return f64::NAN;
            }
            if pos {
                return f64::INFINITY;
            }
            if neg {
                return f64::NEG_INFINITY;
            }
        }
        match self.page(j) {
            None => lane_value(self.lanes[j]),
            Some(page) => {
                let (digits, top) = self.digits(j, page);
                ladder(top as f64, &digits) * GRID
            }
        }
    }
}

/// The grid lanes a client builds before masking. Non-finite values
/// cannot be represented on the grid and contribute nothing.
impl CohortSums for MaskedVector {
    type Votes = MaskedCounts;

    fn n_coords(&self) -> usize {
        MaskedVector::n_coords(self)
    }

    fn add(&mut self, j: usize, v: f32, w: u64) {
        self.accumulate(j, v, w, false);
    }

    fn vote(votes: &mut MaskedCounts, j: usize) {
        votes.bump(j);
    }

    fn value(&self, j: usize) -> f64 {
        let (digits, top) = self.digits(j);
        ladder(top as f64, &digits) * GRID
    }
}

/// The lanes one finalize reads, however they were accumulated.
struct Folded<'a, S> {
    delta: &'a S,
    /// Control deltas (SCAFFOLD, SPATL with gradient control) or
    /// velocities (FedNova) — no algorithm has both.
    secondary: Option<&'a S>,
    /// SPATL per-index vote counts (empty for dense algorithms).
    count: &'a [u32],
    buffers: Option<&'a S>,
}

/// The lanes one upload is written to: [`Folded`]'s write side.
pub(crate) struct Lanes<'a, S: CohortSums> {
    pub(crate) delta: &'a mut S,
    pub(crate) secondary: Option<&'a mut S>,
    pub(crate) votes: Option<&'a mut S::Votes>,
    pub(crate) buffers: Option<&'a mut S>,
}

/// The exact-lane fold: every algorithm's published rule as "which
/// entry, which coordinate of which lane, at which weight", written once
/// for the clear fold and the masked-upload builder. `control` is the
/// broadcast control variate the client trained against. A diverged
/// upload contributes nothing; the rest only reaches commutative state.
///
/// A dense tensor shorter than the lanes or an out-of-range selected
/// index is a caller bug and panics;
/// [`decode_upload`](crate::decode_upload) checks both.
pub(crate) fn fold_terms<S: CohortSums>(
    cfg: &FlConfig,
    control: &[f32],
    o: &LocalOutcome,
    lanes: Lanes<'_, S>,
) {
    if o.diverged {
        return;
    }
    let Lanes {
        delta,
        secondary,
        votes,
        buffers,
    } = lanes;
    let p = delta.n_coords();
    let scale = 1.0 / (o.tau.max(1) as f32 * ETA_EFF);
    // SCAFFOLD's option-II control step, derived from the delta and the
    // control the client trained against.
    let control_step = |c: f32, d: f32| -c - d * scale;
    match cfg.algorithm {
        Algorithm::FedAvg | Algorithm::FedProx { .. } => {
            let w = o.n_samples as u64;
            delta.add_dense(o.delta[..p].iter().copied(), w);
        }
        Algorithm::FedNova => {
            let w = o.n_samples as u64;
            let tau = o.tau.max(1) as f32;
            delta.add_dense(o.delta[..p].iter().map(|d| d / tau), w);
            if let Some(v) = &o.velocity {
                let vel = secondary.expect("FedNova allocates velocity");
                vel.add_dense(v.iter().copied(), w);
            }
        }
        Algorithm::Scaffold => {
            let d = &o.delta[..p];
            delta.add_dense(d.iter().copied(), 1);
            let cd = secondary.expect("SCAFFOLD allocates control");
            // Prefer the client's explicit Δcᵢ (what the wire
            // carries); fall back to the server-side derivation for
            // synthetic outcomes that skip the upload path.
            match &o.control_delta {
                Some(cdv) => cd.add_dense(cdv[..p].iter().copied(), 1),
                None => {
                    let steps = control.iter().zip(d);
                    cd.add_dense(steps.map(|(&c, &d)| control_step(c, d)), 1);
                }
            }
        }
        Algorithm::Spatl(opts) => {
            let votes = votes.expect("SPATL allocates votes");
            let mut cd = secondary.filter(|_| opts.gradient_control);
            match &o.selected {
                Some(sel) => {
                    for (&i, &v) in sel.indices.iter().zip(&sel.values) {
                        let j = i as usize;
                        delta.add(j, v, 1);
                        S::vote(votes, j);
                        if let Some(cd) = &mut cd {
                            cd.add(j, control_step(control[j], v), 1);
                        }
                    }
                }
                None => {
                    // Selection disabled: dense upload votes everywhere.
                    let d = &o.delta[..p];
                    delta.add_dense(d.iter().copied(), 1);
                    for j in 0..p {
                        S::vote(votes, j);
                    }
                    if let Some(cd) = cd {
                        let steps = control.iter().zip(d);
                        cd.add_dense(steps.map(|(&c, &d)| control_step(c, d)), 1);
                    }
                }
            }
        }
    }
    if let Some(buf) = buffers {
        buf.add_dense(o.buffers.iter().copied(), 1);
    }
}

/// The run parameters and cohort-level side-sums the finalize rules
/// need besides the per-coordinate lanes; a clear and a masked fold
/// both read them off the uploads' clear headers.
struct RoundTotals {
    cfg: FlConfig,
    n_clients_total: usize,
    p: usize,
    buf_len: usize,
    valid: usize,
    total_samples: u128,
    tau_weighted: u128,
    any_velocity: bool,
}

impl RoundTotals {
    fn new(cfg: &FlConfig, global: &GlobalState, n_clients_total: usize) -> Self {
        RoundTotals {
            cfg: *cfg,
            n_clients_total,
            p: global.shared.len(),
            buf_len: global.buffers.len(),
            valid: 0,
            total_samples: 0,
            tau_weighted: 0,
            any_velocity: false,
        }
    }

    /// Count one upload's clear header in (a masked upload carries the
    /// same one). Nothing of a diverged upload counts.
    fn admit(&mut self, o: &LocalOutcome) {
        if o.diverged {
            return;
        }
        self.valid += 1;
        if self.cfg.algorithm.spec().weight == Weight::Samples {
            self.total_samples += o.n_samples as u128;
            self.tau_weighted += o.n_samples as u128 * o.tau as u128;
        }
        // Read by FedNova's rule only. The masked wire always carries the
        // velocity lane, exactly as the clear pair codec always does.
        self.any_velocity |= o.velocity.is_some() || o.masked.is_some();
    }

    /// Apply the accumulated round to `global`. Returns `true` if an
    /// update was applied; `false` is a no-op round (nothing folded, all
    /// folds diverged, or zero total sample weight) with `global`
    /// untouched — never NaN from an empty cohort.
    fn apply<S: CohortSums>(&self, sums: Folded<'_, S>, global: &mut GlobalState) -> bool {
        if self.valid == 0 {
            return false;
        }
        let p = self.p;
        let inv_n = 1.0 / self.n_clients_total as f64;
        let shared = &mut global.shared[..p];
        match self.cfg.algorithm {
            Algorithm::FedAvg | Algorithm::FedProx { .. } => {
                if self.total_samples == 0 {
                    // Every survivor has an empty shard: dividing by the
                    // total would poison the model with NaN — skip.
                    return false;
                }
                let inv_total = 1.0 / self.total_samples as f64;
                for (j, x) in shared.iter_mut().enumerate() {
                    *x += (sums.delta.value(j) * inv_total) as f32;
                }
            }
            Algorithm::FedNova => {
                if self.total_samples == 0 {
                    return false;
                }
                let total = self.total_samples as f64;
                let tau_eff = self.tau_weighted as f64 / total;
                for (j, x) in shared.iter_mut().enumerate() {
                    *x += (tau_eff * sums.delta.value(j) / total) as f32;
                }
                if let (true, Some(vel)) = (self.any_velocity, sums.secondary) {
                    global.momentum = (0..p).map(|j| (vel.value(j) / total) as f32).collect();
                }
            }
            Algorithm::Scaffold => {
                let inv_s = 1.0 / self.valid as f64;
                for (j, x) in shared.iter_mut().enumerate() {
                    *x += (sums.delta.value(j) * inv_s) as f32;
                }
                if let Some(cd) = sums.secondary {
                    for (j, c) in global.control[..p].iter_mut().enumerate() {
                        *c += (inv_n * cd.value(j)) as f32;
                    }
                }
            }
            Algorithm::Spatl(opts) => {
                // Only voted coordinates move: an unvoted one has no
                // delta term, and its control sum is exactly zero.
                let cd = sums.secondary.filter(|_| opts.gradient_control);
                for (j, &votes) in sums.count.iter().enumerate().take(p) {
                    if votes == 0 {
                        continue;
                    }
                    shared[j] += (sums.delta.value(j) / votes as f64) as f32;
                    if let Some(cd) = cd {
                        global.control[j] += (inv_n * cd.value(j)) as f32;
                    }
                }
            }
        }
        // Batch-norm buffers: mean across folded uploads (zip-prefix
        // semantics — an upload shorter than the session shape only
        // contributes its prefix, exactly as the batch rule's zip did).
        if let (true, Some(buf)) = (self.buf_len > 0, sums.buffers) {
            let inv = 1.0 / self.valid as f64;
            global.buffers = (0..self.buf_len)
                .map(|j| (buf.value(j) * inv) as f32)
                .collect();
        }
        true
    }
}

/// Streaming state of one round's `WeightedMean` aggregation: every
/// algorithm's published rule, folded one upload at a time.
///
/// Construct from the pre-round global state (the broadcast snapshot),
/// [`fold`](StreamState::fold) each surviving upload in **any order**,
/// then [`finalize`](StreamState::finalize) once. Memory is O(model),
/// independent of how many uploads are folded.
pub struct StreamState {
    totals: RoundTotals,
    /// Broadcast control variate — the fallback `Δcᵢ = −c − δᵢ/(τᵢ·η)`
    /// must read the control the *clients trained against*, which a
    /// streaming server must snapshot before the first fold.
    control_bcast: Vec<f32>,
    delta: ExactSums,
    /// SPATL per-index vote counts (empty for dense algorithms).
    count: Vec<u32>,
    /// Control deltas or FedNova velocities, when the algorithm has them.
    secondary: Option<ExactSums>,
    buffers: Option<ExactSums>,
}

impl StreamState {
    /// Fixed-size accumulator for one round, snapshotting what the fold
    /// needs from the broadcast `global`.
    pub fn new(cfg: &FlConfig, global: &GlobalState, n_clients_total: usize) -> Self {
        Self::recycling(cfg, global, n_clients_total, None)
    }

    /// [`StreamState::new`], taking over the allocations of a finished
    /// round's state wherever their sizes still fit this round's shape.
    fn recycling(
        cfg: &FlConfig,
        global: &GlobalState,
        n_clients_total: usize,
        spare: Option<StreamState>,
    ) -> Self {
        let totals = RoundTotals::new(cfg, global, n_clients_total);
        let (p, buf_len) = (totals.p, totals.buf_len);
        // The same lane shape a masked upload is built with.
        let spec = cfg.algorithm.spec();
        let uses_control = cfg.algorithm.uses_control();
        let (mut control_bcast, delta, mut count, secondary, buffers) = match spare {
            Some(old) => (
                old.control_bcast,
                Some(old.delta),
                old.count,
                old.secondary,
                old.buffers,
            ),
            None => (Vec::new(), None, Vec::new(), None, None),
        };
        control_bcast.clear();
        if uses_control {
            control_bcast.extend_from_slice(&global.control);
        }
        count.clear();
        count.resize(if spec.count_lane { p } else { 0 }, 0);
        StreamState {
            totals,
            control_bcast,
            delta: ExactSums::recycled(p, delta),
            count,
            secondary: spec
                .secondary_lane
                .then(|| ExactSums::recycled(p, secondary)),
            buffers: (buf_len > 0).then(|| ExactSums::recycled(buf_len, buffers)),
        }
    }

    /// How many non-diverged uploads have been folded.
    pub fn folded(&self) -> usize {
        self.totals.valid
    }

    /// Absorb one upload: header into the side-sums, terms into the
    /// lanes. Diverged uploads are skipped (the rules reject them);
    /// everything else updates only commutative state, so fold order
    /// never changes the finalized model.
    pub fn fold(&mut self, o: &LocalOutcome) {
        self.totals.admit(o);
        let lanes = Lanes {
            delta: &mut self.delta,
            secondary: self.secondary.as_mut(),
            votes: Some(&mut self.count),
            buffers: self.buffers.as_mut(),
        };
        fold_terms(&self.totals.cfg, &self.control_bcast, o, lanes);
    }

    /// Apply the accumulated round to `global`. Returns `true` if an
    /// update was applied; `false` is a no-op round (nothing folded, all
    /// folds diverged, or zero total sample weight) with `global`
    /// untouched — never NaN from an empty cohort.
    pub fn finalize(self, global: &mut GlobalState) -> bool {
        self.apply_to(global)
    }

    fn apply_to(&self, global: &mut GlobalState) -> bool {
        self.totals.apply(
            Folded {
                delta: &self.delta,
                secondary: self.secondary.as_ref(),
                count: &self.count,
                buffers: self.buffers.as_ref(),
            },
            global,
        )
    }
}

/// Why a round's uploads had to be buffered instead of streamed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillReason {
    /// The aggregation rule needs the whole cohort per coordinate
    /// (median / trimmed mean) or a cohort statistic before any upload
    /// can be weighed (NormClippedMean's median RMS).
    RobustAggregator,
    /// A [`ScreenPolicy`](crate::ScreenPolicy) is configured: stage-2
    /// median-RMS screening is a cohort statistic.
    Screening,
    /// Fixed-point privacy is configured: every upload's quantized L2
    /// norm is checked against the session bound before the batch fold.
    RangeBound,
}

enum Mode {
    /// O(model): uploads fold into [`StreamState`] the moment they
    /// arrive and their tensors are dropped.
    Stream(Box<StreamState>),
    /// O(model) and server-blind: masked grid lanes wrapping-fold into
    /// one [`MaskedUpload`]; the masks cancel (or are removed by unmask
    /// shares) before the stream state finalizes.
    Masked(Box<MaskedRound>),
    /// O(cohort · model) ceiling: uploads buffer until the round closes,
    /// then are deterministically slotted by client id and batch-folded.
    Spill {
        reason: SpillReason,
        outcomes: Vec<LocalOutcome>,
    },
}

/// One round's server-blind aggregation: the wrapping fold of the
/// cohort's masked uploads plus the clear-metadata side-sums the
/// finalize rules need (sample totals, τ, the survivor count).
///
/// The server never sees a client's tensors: it folds 384-bit masked
/// words, repairs dropouts with validated unmask shares, and only the
/// *cohort sum* ever becomes f32 — read off the unmasked lanes by the
/// same [`RoundTotals::apply`] and the same ladder as a clear fold's
/// sums, so a full-participation masked round is bit-identical to it.
struct MaskedRound {
    totals: RoundTotals,
    privacy: PrivacyConfig,
    round: usize,
    /// The masking cohort (pure function both endpoints derive): who
    /// promised pairwise masks this round.
    cohort: Vec<usize>,
    /// Cohort members whose masked upload arrived.
    arrived: Vec<usize>,
    /// `(dropped, survivor)` pairs whose orphaned mask has been removed.
    removed: BTreeSet<(u32, u32)>,
    agg: Option<MaskedUpload>,
}

impl MaskedRound {
    fn new(cfg: &FlConfig, global: &GlobalState, n_clients_total: usize, round: usize) -> Self {
        let privacy = cfg.privacy.expect("masked round requires a privacy config");
        MaskedRound {
            totals: RoundTotals::new(cfg, global, n_clients_total),
            privacy,
            round,
            cohort: crate::privacy::masking_cohort(cfg, round),
            arrived: Vec::new(),
            removed: BTreeSet::new(),
            agg: None,
        }
    }

    /// Wrapping-fold one masked upload and count its clear header in
    /// (the diverged flag, sample count, τ), as a clear fold would.
    fn fold(&mut self, o: &LocalOutcome) {
        let up = o
            .masked
            .as_deref()
            .expect("a masked round only folds masked uploads");
        self.totals.admit(o);
        self.arrived.push(o.client_id);
        match &mut self.agg {
            None => self.agg = Some(up.clone()),
            Some(agg) => agg.add_assign(up),
        }
    }

    /// Cohort members that promised masks but never delivered — the
    /// dropouts whose pair masks must be removed before finalize.
    fn missing(&self) -> Vec<u32> {
        self.cohort
            .iter()
            .filter(|c| !self.arrived.contains(c))
            .map(|&c| c as u32)
            .collect()
    }

    /// Validate and apply survivors' unmask shares: each removes one
    /// orphaned pair mask from the fold. A share is rejected (silently —
    /// a corrupted share must not poison the fold) unless its survivor
    /// arrived, its dropped member is really missing, and its pair base
    /// matches the server's own derivation. Duplicates are idempotent.
    /// The accepted shares' streams come off the fold in one pass.
    fn apply_shares(&mut self, shares: &[UnmaskShare]) {
        let missing = self.missing();
        let mut pairs = Vec::new();
        for share in shares {
            let (d, s) = (share.dropped, share.survivor);
            if !missing.contains(&d) || !self.arrived.contains(&(s as usize)) {
                continue;
            }
            let expect = pair_base(self.privacy.seed, self.round as u64, d as u64, s as u64);
            if share.pair_base != expect || !self.removed.insert((d, s)) {
                continue;
            }
            // The survivor applied `add = s < d`; removal flips it.
            pairs.push((share.pair_base, s > d));
        }
        if let Some(agg) = &mut self.agg {
            agg.apply_pairs(&pairs);
        }
    }

    /// Finalize from the unmasked fold. A round with unremoved orphan
    /// masks is a no-op — folding garbage into the model would be
    /// strictly worse than skipping the round.
    fn finish(mut self, global: &mut GlobalState, faults: &mut FaultRecord) -> bool {
        let missing = self.missing();
        for &d in &missing {
            let pairs = self
                .arrived
                .iter()
                .filter(|&&s| self.removed.contains(&(d, s as u32)))
                .count();
            if pairs < self.arrived.len() {
                faults.no_op = true;
                return false;
            }
            if pairs > 0 {
                faults.push(d as usize, FaultKind::MaskRecovered { pairs });
            }
        }
        let Some(agg) = self.agg.take() else {
            return false;
        };
        let count: Vec<u32> = match &agg.counts {
            Some(counts) => (0..counts.n_coords()).map(|j| counts.count(j)).collect(),
            None => Vec::new(),
        };
        self.totals.apply(
            Folded {
                delta: &agg.delta,
                secondary: agg.secondary.as_ref(),
                count: &count,
                buffers: agg.buffers.as_ref(),
            },
            global,
        )
    }
}

/// One round's aggregation front-end: feed uploads in **any order** as
/// they arrive, close once.
///
/// Built by [`RoundDriver::begin_accumulation`], closed by
/// [`RoundDriver::finish_accumulation`]; simulator, flat coordinator and
/// tiered root all go through it, so it is the only place a cohort is
/// reduced. The mode is decided at open (masked sessions fold blind):
///
/// * **Stream** — `WeightedMean` with no screen to run: O(model) memory.
/// * **Spill** — robust aggregators, a screen to run, or the fixed-point
///   range bound: uploads are buffered (documented O(cohort · model)
///   ceiling), sorted by client id at close (so arrival order still
///   cannot change the result), and batch-folded.
///
/// [`RoundDriver::begin_accumulation`]: crate::RoundDriver::begin_accumulation
/// [`RoundDriver::finish_accumulation`]: crate::RoundDriver::finish_accumulation
pub struct RoundAccumulator {
    mode: Mode,
    folded: usize,
}

impl RoundAccumulator {
    /// Decide the mode from the run configuration and snapshot what the
    /// stream fold needs from the broadcast global state. `round` is the
    /// absolute round index — the masked mode's pair masks and cohort
    /// derivation are domain-separated by it. `spare` is a previous
    /// round's finished stream state, if the caller kept one: its
    /// allocations are reused where they fit.
    pub(crate) fn new(
        cfg: &FlConfig,
        global: &GlobalState,
        n_clients_total: usize,
        round: usize,
        spare: Option<Box<StreamState>>,
    ) -> Self {
        let spill = |reason| Mode::Spill {
            reason,
            outcomes: Vec::new(),
        };
        let robust = !matches!(cfg.aggregator, AggregatorKind::WeightedMean);
        let mode = match cfg.privacy.map(|privacy| privacy.mode) {
            Some(PrivacyMode::Masked) => {
                let masked = MaskedRound::new(cfg, global, n_clients_total, round);
                Mode::Masked(Box::new(masked))
            }
            Some(PrivacyMode::FixedPoint) => spill(SpillReason::RangeBound),
            None if cfg.screen.is_some() => spill(SpillReason::Screening),
            None if robust => spill(SpillReason::RobustAggregator),
            None => {
                let spare = spare.map(|b| *b);
                let state = StreamState::recycling(cfg, global, n_clients_total, spare);
                Mode::Stream(Box::new(state))
            }
        };
        RoundAccumulator { mode, folded: 0 }
    }

    /// `None` when streaming (O(model)); the spill reason otherwise.
    pub fn spill_reason(&self) -> Option<SpillReason> {
        match &self.mode {
            Mode::Stream(_) | Mode::Masked(_) => None,
            Mode::Spill { reason, .. } => Some(*reason),
        }
    }

    /// The accumulator's mode as the stable string `spatl-exp summary` and the
    /// round record surface: `stream`, `masked`, `spill-screening`,
    /// `spill-robust` or `spill-range`.
    pub fn mode_name(&self) -> &'static str {
        match &self.mode {
            Mode::Stream(_) => "stream",
            Mode::Masked(_) => "masked",
            Mode::Spill { reason, .. } => match reason {
                SpillReason::Screening => "spill-screening",
                SpillReason::RobustAggregator => "spill-robust",
                SpillReason::RangeBound => "spill-range",
            },
        }
    }

    /// Masked mode: cohort members whose pairwise masks are in the fold's
    /// promise set but whose upload never arrived — the dropouts the
    /// coordinator must collect unmask shares for. Empty in every other
    /// mode (nothing to repair).
    pub fn missing_maskers(&self) -> Vec<u32> {
        match &self.mode {
            Mode::Masked(mr) => mr.missing(),
            _ => Vec::new(),
        }
    }

    /// Masked mode: validate and apply survivors' unmask shares,
    /// removing dropped members' orphaned pair masks from the fold.
    /// Invalid or duplicate shares are ignored; other modes are a no-op.
    pub fn apply_unmask_shares(&mut self, shares: &[UnmaskShare]) {
        if let Mode::Masked(mr) = &mut self.mode {
            mr.apply_shares(shares);
        }
    }

    /// Masked mode, in-process transports: synthesize the unmask shares
    /// every arrived survivor would answer with for every missing cohort
    /// member. The networked coordinator asks real survivors over the
    /// wire first and falls back to this only for its own loopback
    /// tests; the simulator (which *is* every client) always uses it.
    pub fn local_unmask_shares(&self) -> Vec<UnmaskShare> {
        match &self.mode {
            Mode::Masked(mr) => {
                let mut shares = Vec::new();
                for &d in &mr.missing() {
                    for &s in &mr.arrived {
                        shares.push(crate::privacy::unmask_share(
                            &mr.privacy,
                            mr.round,
                            s,
                            d as usize,
                        ));
                    }
                }
                shares
            }
            _ => Vec::new(),
        }
    }

    /// Uploads absorbed so far (diverged riders included — they count as
    /// survivors exactly as they did in the batch path).
    pub fn folded(&self) -> usize {
        self.folded
    }

    /// Absorb one decoded upload. In stream mode its tensors are
    /// consumed immediately; in spill mode it is buffered until
    /// [`RoundDriver::finish_accumulation`].
    ///
    /// [`RoundDriver::finish_accumulation`]: crate::RoundDriver::finish_accumulation
    pub fn fold(&mut self, outcome: LocalOutcome) {
        self.folded += 1;
        match &mut self.mode {
            Mode::Stream(state) => state.fold(&outcome),
            Mode::Masked(mr) => mr.fold(&outcome),
            Mode::Spill { outcomes, .. } => outcomes.push(outcome),
        }
    }

    /// Close the round against `global`: finalize the stream, or sort
    /// the spill by client id, screen it, and batch-fold. Returns
    /// `(survivors, applied)` for the fault ledger, and the finished
    /// stream state for the next round's
    /// [`new`](RoundAccumulator::new) to recycle.
    pub(crate) fn finish(
        self,
        cfg: &FlConfig,
        global: &mut GlobalState,
        n_clients_total: usize,
        faults: &mut FaultRecord,
    ) -> (usize, bool, Option<Box<StreamState>>) {
        match self.mode {
            Mode::Stream(state) => {
                let survivors = self.folded;
                let applied = state.apply_to(global);
                (survivors, applied, Some(state))
            }
            Mode::Masked(mr) => {
                let survivors = self.folded;
                let applied = mr.finish(global, faults);
                (survivors, applied, None)
            }
            Mode::Spill { mut outcomes, .. } => {
                // Deterministic slotting: whatever order the transport
                // delivered, the batch fold always sees ascending ids.
                outcomes.sort_by_key(|o| o.client_id);
                // Fixed-point privacy: enforce the session's L2 ball on
                // the quantized upload — the defense that still works
                // when per-client values are noise-obscured. Violators
                // are ledgered like any other quarantine.
                let outcomes = match cfg.privacy {
                    Some(privacy) if privacy.mode == PrivacyMode::FixedPoint => outcomes
                        .into_iter()
                        .filter(|o| match &o.fixed {
                            Some(q) => {
                                let norm = quantized_l2(q, privacy.frac_bits);
                                let inside = norm <= privacy.l2_bound as f64;
                                if !inside {
                                    faults.push(
                                        o.client_id,
                                        FaultKind::Quarantined {
                                            reason: crate::ScreenReason::RangeBound {
                                                norm: norm as f32,
                                                bound: privacy.l2_bound,
                                            },
                                        },
                                    );
                                }
                                inside
                            }
                            None => true,
                        })
                        .collect(),
                    _ => outcomes,
                };
                let outcomes = match &cfg.screen {
                    Some(policy) => crate::screen_updates(policy, outcomes, faults),
                    None => outcomes,
                };
                let survivors = outcomes.len();
                let applied = global.aggregate(cfg, &outcomes, n_clients_total);
                (survivors, applied, None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The previous representation, kept as the differential oracle: 11
    /// carry-save `i64` limbs per coordinate (88 bytes), every term
    /// decomposed into 32-bit chunks, normalized at `value`.
    struct LimbSums {
        limbs: Vec<i64>,
    }

    impl LimbSums {
        fn new(p: usize) -> Self {
            LimbSums {
                limbs: vec![0; p * GRID_DIGITS],
            }
        }

        /// Finite terms only (the non-finite markers did not change).
        fn add(&mut self, j: usize, v: f32, w: u64) {
            if w == 0 || v == 0.0 {
                return;
            }
            let bits = v.to_bits();
            let negative = bits >> 31 == 1;
            let e = ((bits >> 23) & 0xff) as i32;
            let m = (bits & 0x7f_ffff) as u64;
            let (mant, exp) = if e == 0 {
                (m, -149)
            } else {
                (m | 0x80_0000, e - 150)
            };
            let prod = (mant as u128) * (w as u128);
            let bitpos = (exp + 149) as usize;
            let base = j * GRID_DIGITS + bitpos / 32;
            let mut rest = prod << (bitpos % 32);
            let mut k = 0;
            while rest != 0 {
                let chunk = (rest & 0xffff_ffff) as i64;
                self.limbs[base + k] += if negative { -chunk } else { chunk };
                rest >>= 32;
                k += 1;
            }
        }

        fn value(&self, j: usize) -> f64 {
            let limbs = &self.limbs[j * GRID_DIGITS..(j + 1) * GRID_DIGITS];
            let mut digits = [0u32; GRID_DIGITS];
            let mut carry: i128 = 0;
            for (k, &limb) in limbs.iter().enumerate() {
                let t = limb as i128 + carry;
                digits[k] = t as u32;
                carry = t >> 32;
            }
            let mut val = carry as f64;
            for &d in digits.iter().rev() {
                val = val * RADIX + d as f64;
            }
            val * GRID
        }
    }

    /// Deterministic splitmix64 stream (the vendored proptest stub has
    /// no combinator strategies; cases draw a seed and derive from this).
    struct Gen(u64);

    impl Gen {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, self.below(i as u64 + 1) as usize);
            }
        }

        /// A finite f32 with the given biased exponent field (0 =
        /// subnormal or zero, 254 = the binade of `f32::MAX`).
        fn with_exponent(&mut self, e: u32) -> f32 {
            let sign = (self.next_u64() & 1) as u32;
            let mant = match self.below(4) {
                0 => 0,
                1 => 0x7f_ffff,
                _ => self.next_u64() as u32 & 0x7f_ffff,
            };
            f32::from_bits(sign << 31 | e << 23 | mant)
        }

        /// Exponent fields that stress the representation: both ends of
        /// f32, and a few either side of the lane window's two edges for
        /// the weight in play.
        fn edgy_exponent(&mut self, w: u64) -> u32 {
            let low_edge = LANE_LSB + 1;
            let high_edge = low_edge + ExactSums::span(w.max(1));
            let around = |edge: u32, g: &mut Gen| (edge + g.below(5) as u32).saturating_sub(2);
            match self.below(6) {
                0 => self.below(3) as u32,
                1 => 254 - self.below(3) as u32,
                2 => around(low_edge, self),
                3 => around(high_edge, self).min(254),
                _ => low_edge + self.below(48) as u32,
            }
        }

        fn weight(&mut self) -> u64 {
            match self.below(6) {
                0 => 1,
                1 => u64::MAX,
                2 => 1 << self.below(64),
                3 => self.next_u64(),
                _ => 1 + self.below(100_000),
            }
        }
    }

    fn assert_same_bits(compact: &ExactSums, oracle: &LimbSums, p: usize, what: &str) {
        for j in 0..p {
            assert_eq!(
                compact.value(j).to_bits(),
                oracle.value(j).to_bits(),
                "{what}: coordinate {j}: compact {:e} vs oracle {:e}",
                compact.value(j),
                oracle.value(j)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The compact sums and the 11-limb oracle agree bit for bit on
        /// `value`, whatever the terms and whatever order either sees
        /// them in — including columns that cancel to exactly zero and
        /// coordinates that mix lane and wide-row terms.
        #[test]
        fn compact_sums_match_the_limb_oracle(seed in 0u64..u64::MAX) {
            let mut g = Gen(seed);
            let p = 1 + g.below(PAGE as u64 + 40) as usize;
            let mut terms: Vec<(usize, f32, u64)> = Vec::new();
            for _ in 0..g.below(400) {
                let w = g.weight();
                let e = g.edgy_exponent(w);
                let term = (g.below(p as u64) as usize, g.with_exponent(e), w);
                terms.push(term);
                if g.below(3) == 0 {
                    // Its exact negation: the pair cancels to zero.
                    terms.push((term.0, -term.1, term.2));
                }
            }
            let mut oracle = LimbSums::new(p);
            for &(j, v, w) in &terms {
                oracle.add(j, v, w);
            }
            let mut compact = ExactSums::new(p);
            g.shuffle(&mut terms);
            for &(j, v, w) in &terms {
                compact.add(j, v, w);
            }
            assert_same_bits(&compact, &oracle, p, "scatter");

            // The dense entry point, on the same terms regrouped by weight.
            let mut dense = ExactSums::new(p);
            let w = g.weight();
            let column: Vec<f32> = (0..p)
                .map(|_| {
                    let e = g.edgy_exponent(w);
                    g.with_exponent(e)
                })
                .collect();
            let mut oracle = LimbSums::new(p);
            for (j, &v) in column.iter().enumerate() {
                oracle.add(j, v, w);
            }
            dense.add_dense(column.iter().copied(), w);
            assert_same_bits(&dense, &oracle, p, "dense");
        }
    }

    #[test]
    fn a_million_term_column_matches_the_oracle() {
        // 2^20 additions into one coordinate at the top of the lane
        // window for this weight: the headroom argument, exercised.
        let mut g = Gen(20);
        let w = 48u64;
        let top = LANE_LSB + 1 + ExactSums::span(w);
        let mut compact = ExactSums::new(2);
        let mut oracle = LimbSums::new(2);
        for n in 0..1u32 << 20 {
            // Mostly one sign, so the sum really grows.
            let e = top - (n % 3);
            let v = f32::from_bits((u32::from(n % 16 == 0)) << 31 | e << 23 | 0x7f_ffff);
            compact.add(0, v, w);
            oracle.add(0, v, w);
            let small = g.with_exponent(LANE_LSB + 1 + (n % 40));
            compact.add(1, small, 1);
            oracle.add(1, small, 1);
        }
        assert_eq!(compact.placed, (1 << 21, 0), "every term took the lane");
        assert_same_bits(&compact, &oracle, 2, "2^20 terms");
    }

    #[test]
    fn trained_vgg11_deltas_take_the_fast_lane() {
        // The sim_spatl_vgg11 shape — VGG-11 at width 0.25, four clients,
        // one batch-16 epoch — with deltas that really came out of SGD:
        // a dense sample-weighted FedAvg fold, and SPATL's sparse scatter
        // with its derived control steps.
        use crate::{Simulation, SpatlOptions};
        use spatl_data::{synth_cifar10, SynthConfig};
        use spatl_models::{ModelConfig, ModelKind};
        use spatl_tensor::TensorRng;

        for algorithm in [Algorithm::FedAvg, Algorithm::Spatl(SpatlOptions::default())] {
            let mut cfg = FlConfig::new(algorithm);
            cfg.n_clients = 4;
            cfg.local_epochs = 1;
            cfg.seed = 11;
            let mut rng = TensorRng::seed_from(cfg.seed);
            let shards = (0..cfg.n_clients as u64)
                .map(|i| {
                    synth_cifar10(&SynthConfig::cifar10_like(), 48, 100 + i).split(0.75, &mut rng)
                })
                .collect();
            let mut model_cfg = ModelConfig::cifar(ModelKind::Vgg11);
            model_cfg.width_mult = 0.25;
            let mut sim = Simulation::new(cfg, model_cfg, shards);
            let global = sim.global.clone();
            let mut state = StreamState::new(&cfg, &global, cfg.n_clients);
            for k in 0..cfg.n_clients {
                let o = sim.clients[k].local_update(&cfg, &global, 0);
                let decoded = sim
                    .driver
                    .decode_client_upload(&o, &o.frames)
                    .expect("client upload decodes");
                assert_eq!(decoded.selected.is_some(), algorithm != Algorithm::FedAvg);
                state.fold(&decoded);
            }
            let lanes = [Some(&state.delta), state.secondary.as_ref()];
            let (lane, wide) = lanes
                .into_iter()
                .flatten()
                .fold((0, 0), |(l, w), s| (l + s.placed.0, w + s.placed.1));
            assert!(
                lane > 1_000_000 && lane as f64 >= 0.99 * (lane + wide) as f64,
                "{}: {lane} lane terms, {wide} wide",
                algorithm.name()
            );
        }
    }

    #[test]
    fn every_lane_value_tier_has_the_full_ladders_bits() {
        // `lane_value` starts its ladder from a converted prefix when
        // the lane is small enough; sweep every magnitude across both
        // tier boundaries, both signs, against the 11-digit ladder.
        let mut g = Gen(0x71E2);
        let mut sums = ExactSums::new(1);
        let no_rows = MaskedVector::zeros(1);
        for bits in 0..127u32 {
            for _ in 0..50 {
                let low = (g.next_u64() as u128) << 64 | g.next_u64() as u128;
                let magnitude = (1u128 << bits | low & ((1u128 << bits) - 1)) as i128;
                for lane in [magnitude, -magnitude, magnitude - 1, -magnitude - 1] {
                    sums.lanes[0] = lane;
                    let (digits, top) = sums.digits(0, &no_rows);
                    let full = ladder(top as f64, &digits) * GRID;
                    assert_eq!(lane_value(lane).to_bits(), full.to_bits(), "lane {lane:#x}");
                }
            }
        }
    }

    #[test]
    fn recycled_state_starts_from_zero() {
        let cfg = FlConfig::new(Algorithm::Scaffold);
        let global = GlobalState {
            shared: vec![0.0; 4],
            control: vec![0.5; 4],
            momentum: Vec::new(),
            buffers: vec![1.0; 2],
        };
        let mut first = StreamState::new(&cfg, &global, 2);
        first.delta.add_dense([1.0, f32::NAN, 1e-30, 2.0], 1);
        first.buffers.as_mut().unwrap().add(1, 3.0, 1);
        let lanes = first.delta.lanes.as_ptr();
        let again = StreamState::recycling(&cfg, &global, 2, Some(first));
        assert_eq!(again.delta.lanes.as_ptr(), lanes, "same allocation");
        for j in 0..4 {
            assert_eq!(again.delta.value(j).to_bits(), 0f64.to_bits());
        }
        assert_eq!(again.buffers.as_ref().unwrap().value(1), 0.0);
        // A different shape gets fresh lanes of the right length.
        let wider = GlobalState {
            shared: vec![0.0; 5],
            control: vec![0.0; 5],
            ..global
        };
        let other = StreamState::recycling(&cfg, &wider, 2, Some(again));
        assert_eq!(other.delta.lanes.len(), 5);
        assert_eq!(other.control_bcast, wider.control);
    }

    #[test]
    fn lane_window_edges_are_where_the_docs_say() {
        // Unit weight: |v| in [2^-46, 2^26) takes the lane.
        let mut s = ExactSums::new(1);
        for (v, lane) in [
            (2f32.powi(-46), true),
            (2f32.powi(-47), false),
            (2f32.powi(25), true),
            (2f32.powi(26), false),
            (f32::MIN_POSITIVE / 2.0, false),
            (f32::MAX, false),
        ] {
            let before = s.placed;
            s.add(0, v, 1);
            let took_lane = s.placed.0 == before.0 + 1;
            assert_eq!(took_lane, lane, "{v:e}");
            assert_eq!(s.placed.0 + s.placed.1, before.0 + before.1 + 1);
        }
        // A million samples: still every |v| < 2^7.
        assert!(lane_term(100.0, 1 << 19, ExactSums::span(1 << 19)).is_some());
        assert!(lane_term(200.0, 1 << 19, ExactSums::span(1 << 19)).is_none());
        // The widest weight keeps a (narrow) window and stays exact.
        assert_eq!(ExactSums::span(u64::MAX), 8);
    }

    #[test]
    fn exact_sums_match_rational_arithmetic() {
        let mut s = ExactSums::new(2);
        s.add(0, 0.5, 3); // 1.5
        s.add(0, -0.25, 2); // -0.5 → 1.0
        s.add(1, 1.5e-45, 1); // one grid LSB ≈ 2^-149
        assert_eq!(s.value(0), 1.0);
        assert_eq!(s.value(1), GRID);
    }

    #[test]
    fn exact_sums_are_permutation_invariant_where_f32_is_not() {
        // A classic cancellation case: (big + tiny) - big loses the tiny
        // term in f32/f64 running sums depending on order; the integer
        // grid keeps it bit-exactly in every order.
        let terms: [(f32, u64); 4] = [(3e7, 1), (0.125, 7), (-3e7, 1), (1e-30, 9)];
        let mut fwd = ExactSums::new(1);
        let mut rev = ExactSums::new(1);
        for &(v, w) in &terms {
            fwd.add(0, v, w);
        }
        for &(v, w) in terms.iter().rev() {
            rev.add(0, v, w);
        }
        assert_eq!(fwd.value(0).to_bits(), rev.value(0).to_bits());
        let expect = 0.125f64 * 7.0 + 1e-30 * 9.0;
        assert!((fwd.value(0) - expect).abs() <= expect * 1e-15);
    }

    #[test]
    fn exact_sums_extreme_magnitudes_coexist() {
        let mut s = ExactSums::new(1);
        s.add(0, f32::MAX, u64::MAX);
        s.add(0, f32::MIN_POSITIVE * f32::EPSILON, 1); // subnormal region
        s.add(0, -f32::MAX, u64::MAX);
        let tiny = (f32::MIN_POSITIVE * f32::EPSILON) as f64;
        assert_eq!(s.value(0), tiny, "the huge terms cancel exactly");
    }

    #[test]
    fn non_finite_verdicts_are_commutative() {
        for flip in [false, true] {
            let mut s = ExactSums::new(3);
            let adds: [(usize, f32); 4] = [
                (0, f32::NAN),
                (1, f32::INFINITY),
                (2, f32::INFINITY),
                (2, f32::NEG_INFINITY),
            ];
            let iter: Box<dyn Iterator<Item = &(usize, f32)>> = if flip {
                Box::new(adds.iter().rev())
            } else {
                Box::new(adds.iter())
            };
            for &(j, v) in iter {
                s.add(j, v, 1);
            }
            assert!(s.value(0).is_nan());
            assert_eq!(s.value(1), f64::INFINITY);
            assert!(s.value(2).is_nan(), "±∞ collide to NaN");
        }
    }

    #[test]
    fn zero_weight_and_zero_value_are_inert() {
        let mut s = ExactSums::new(1);
        s.add(0, 123.0, 0);
        s.add(0, f32::NAN, 0);
        s.add(0, 0.0, 99);
        s.add(0, -0.0, 99);
        s.add_dense([123.0, 5.0], 0);
        assert_eq!(s.value(0), 0.0);
        assert_eq!(s.placed, (0, 0));
    }
}
