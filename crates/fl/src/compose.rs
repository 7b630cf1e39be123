//! Hierarchical composition: how a 2-tier (edge → root) topology
//! reproduces — or provably approximates — flat aggregation.
//!
//! The tree topology splits the client population into contiguous edge
//! slices ([`edge_partition`]). Each edge collects its slice of the
//! round's cohort, screens locally, and forwards one combined upload
//! upstream (`spatl_wire::tier::EdgeCombined`). The root then composes
//! the edges' contributions under one of two regimes, chosen per
//! aggregator by [`exact_composition`]:
//!
//! * **Exact** ([`AggregatorKind::WeightedMean`],
//!   [`AggregatorKind::NormClippedMean`]): edges forward the survivors'
//!   original sealed upload frames verbatim; the root decodes them and
//!   folds each into the same [`RoundAccumulator`](crate::RoundAccumulator)
//!   a flat root opens (DESIGN.md §12) — opened "over edges", so its
//!   close skips the screen the edges already ran and is otherwise the
//!   flat close: same mode choice, same range bound, same ledger fields.
//!   The fold is order-independent, so which edge delivered first cannot
//!   matter, and the result is bit-identical to the flat coordinator for
//!   every algorithm, dropouts included (survivor renormalisation happens
//!   once, at the root, over exactly the survivor set a flat coordinator
//!   would have seen). The median-RMS clip of `NormClippedMean` needs the
//!   *global* cohort's median, which is a second reason these aggregators
//!   cannot be pre-reduced at the edge.
//!
//! * **Reduced** ([`AggregatorKind::CoordinateMedian`],
//!   [`AggregatorKind::CoordinateTrimmedMean`]): each edge pre-reduces
//!   its cohort per coordinate ([`reduce_cohort`]) and the root applies
//!   the same statistic across the edge summaries
//!   ([`aggregate_reduced`]) — a median-of-medians / trimmed-mean-of-
//!   trimmed-means. This is *not* bit-identical to flat, but it is
//!   bounded: both statistics satisfy `stat(S) ∈ [min S, max S]`, so
//!   the composed statistic and the flat statistic both lie inside the
//!   per-coordinate envelope of the clients' contributions, giving
//!   `|composed_j − flat_j| ≤ max_j − min_j` per round and
//!   coordinate (for FedNova the envelope is widened by evaluating each
//!   client's normalised direction under both the global τ_eff and its
//!   edge's local τ_eff_e). The property tests in `tests/compose.rs`
//!   assert exactly this bound. Flat robust aggregation is the same two
//!   calls with the whole cohort as one edge ([`GlobalState::aggregate`]).
//!
//! Screening is delegated to the tier closest to the clients: edges run
//! the configured [`ScreenPolicy`](crate::ScreenPolicy) over their local
//! cohort and the root does not re-screen. With no policy configured
//! (the default) this is vacuously identical to flat; with an active
//! policy the stage-2 median-RMS reference is each edge's local cohort
//! rather than the global one — a documented semantic difference of the
//! tree topology (DESIGN.md §11).

use std::ops::Range;

use spatl_wire::{EdgeEntry, EdgeReduced, EdgeSelection, TierFaultCounters};

use crate::client::ETA_EFF;
use crate::screen::median_in_place;
use crate::{
    AggregatorKind, Algorithm, FaultRecord, FlConfig, GlobalState, LocalOutcome, RoundBytes,
    UploadLane, WireBytes,
};

/// Who a root terminates: clients directly (the flat star) or edge
/// aggregators speaking the combined-upload frame (DESIGN.md §11).
/// [`FlConfig::check`](crate::FlConfig::check) judges a session against
/// the topology it will run on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Topology {
    /// Every connection is one client node.
    #[default]
    Flat,
    /// Every connection is one `spatl-edge` aggregator; clients connect
    /// to the edges. Client ids are split over the edges in contiguous
    /// near-equal slices ([`edge_partition`]), and each connection's
    /// `Hello.client_id` is its *edge* id.
    Tiered {
        /// Number of edge aggregators.
        edges: usize,
    },
}

/// Split `n_clients` into `n_edges` contiguous, near-equal slices — the
/// canonical client→edge assignment every tier participant (root, edge
/// binaries, experiment roster) derives independently from the shared
/// session flags. The first `n_clients % n_edges` slices are one client
/// larger.
///
/// # Panics
/// Unless `1 <= n_edges <= n_clients`, which
/// [`FlConfig::check`](crate::FlConfig::check) guarantees for a checked
/// tiered session.
pub fn edge_partition(n_clients: usize, n_edges: usize) -> Vec<Range<usize>> {
    assert!(n_edges > 0, "a tiered topology needs at least one edge");
    assert!(
        n_edges <= n_clients,
        "cannot spread {n_clients} clients over {n_edges} edges"
    );
    let base = n_clients / n_edges;
    let extra = n_clients % n_edges;
    let mut ranges = Vec::with_capacity(n_edges);
    let mut start = 0;
    for e in 0..n_edges {
        let len = base + usize::from(e < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Whether `aggregator` composes exactly across tiers (edges forward the
/// survivors' original frames and the root folds them as a flat root
/// would) or via a pre-reduced, bounded-ε summary.
pub fn exact_composition(aggregator: &AggregatorKind) -> bool {
    matches!(
        aggregator,
        AggregatorKind::WeightedMean | AggregatorKind::NormClippedMean
    )
}

/// The robust per-coordinate statistic of `cfg.aggregator`, applied to a
/// scratch sample (sorted in place): the median, or the trimmed mean
/// (falling back to the median when trimming would consume the sample).
fn robust_stat(aggregator: &AggregatorKind, xs: &mut [f32]) -> f32 {
    match aggregator {
        AggregatorKind::CoordinateMedian => median_in_place(xs),
        AggregatorKind::CoordinateTrimmedMean { trim_ratio } => {
            let n = xs.len();
            let k = (trim_ratio * n as f32).floor() as usize;
            if n <= 2 * k {
                return median_in_place(xs);
            }
            xs.sort_unstable_by(f32::total_cmp);
            let kept = &xs[k..n - k];
            kept.iter().sum::<f32>() / kept.len() as f32
        }
        other => unreachable!(
            "reduced composition is only defined for robust aggregators, not {}",
            other.name()
        ),
    }
}

/// The robust reduction of one cohort — an edge's slice, or the whole
/// flat cohort: each algorithm's rule re-expressed around the
/// per-coordinate robust statistic `stat`, for [`aggregate_reduced`] to
/// compose across summaries. Sample weights are deliberately ignored — a
/// Byzantine client could lie about its shard size to buy weight — so
/// the honest-round result differs (slightly) from the published rules:
///
/// * deltas: `stat({δᵢ})`; for FedNova over the *normalised* directions
///   `τ_eff·δᵢ/τᵢ` (τ_eff keeps its data-weighted definition over the
///   survivors), with `stat` over the uploaded momentum buffers.
/// * SCAFFOLD control: `stat({Δcᵢ})`, applied as `(|S|/N)·stat` — the
///   published `(1/N)·Σ` is `(|S|/N)·mean`, the mean swapped for `stat`.
/// * SPATL (Eq. 12): per index, `stat` over the clients whose selection
///   uploaded that index; gradient control as SCAFFOLD's, with the
///   per-index participation count for `|S|`.
/// * batch-norm buffers: `stat` per coordinate, over the uploads whose
///   buffer vector matches the session shape.
///
/// `broadcast` is the global state the clients trained against (an
/// edge's decode of the round's download frames): it supplies the
/// control variate for the SCAFFOLD / SPATL control-step derivation and
/// the buffer shape.
///
/// Returns `None` when no survivor is aggregatable (everyone diverged,
/// or zero total sample weight under FedNova) — the edge then reports
/// `survivors = 0` and contributes nothing to the round.
///
/// Panics if `cfg.aggregator` composes exactly ([`exact_composition`]);
/// exact aggregators forward frames instead of reducing.
pub fn reduce_cohort(
    cfg: &FlConfig,
    cohort: &[LocalOutcome],
    broadcast: &GlobalState,
) -> Option<EdgeReduced> {
    assert!(
        !exact_composition(&cfg.aggregator),
        "reduce_cohort called for exactly-composable aggregator {}",
        cfg.aggregator.name()
    );
    let valid: Vec<&LocalOutcome> = cohort.iter().filter(|o| !o.diverged).collect();
    if valid.is_empty() {
        return None;
    }
    let p = broadcast.shared.len();
    let mut red = EdgeReduced {
        survivors: valid.len() as u32,
        n_samples: valid.iter().map(|o| o.n_samples as u64).sum(),
        ..Default::default()
    };
    let mut sample: Vec<f32> = Vec::with_capacity(valid.len());

    match cfg.algorithm {
        Algorithm::FedAvg | Algorithm::FedProx { .. } => {
            red.delta = (0..p)
                .map(|j| {
                    sample.clear();
                    sample.extend(valid.iter().map(|o| o.delta[j]));
                    robust_stat(&cfg.aggregator, &mut sample)
                })
                .collect();
        }
        Algorithm::FedNova => {
            let total: f32 = valid.iter().map(|o| o.n_samples as f32).sum();
            if total <= 0.0 {
                return None;
            }
            let tau_eff: f32 = valid
                .iter()
                .map(|o| (o.n_samples as f32 / total) * o.tau as f32)
                .sum();
            red.tau_eff = tau_eff;
            red.delta = (0..p)
                .map(|j| {
                    sample.clear();
                    sample.extend(
                        valid
                            .iter()
                            .map(|o| tau_eff * o.delta[j] / o.tau.max(1) as f32),
                    );
                    robust_stat(&cfg.aggregator, &mut sample)
                })
                .collect();
            if valid.iter().any(|o| o.velocity.is_some()) {
                red.velocity = (0..p)
                    .map(|j| {
                        sample.clear();
                        sample.extend(
                            valid
                                .iter()
                                .filter_map(|o| o.velocity.as_ref().and_then(|v| v.get(j)))
                                .copied(),
                        );
                        if sample.is_empty() {
                            0.0
                        } else {
                            robust_stat(&cfg.aggregator, &mut sample)
                        }
                    })
                    .collect();
            }
        }
        Algorithm::Scaffold => {
            let mut delta = Vec::with_capacity(p);
            let mut control_delta = Vec::with_capacity(p);
            let mut cd_sample: Vec<f32> = Vec::with_capacity(valid.len());
            for j in 0..p {
                sample.clear();
                cd_sample.clear();
                for o in &valid {
                    sample.push(o.delta[j]);
                    let scale = 1.0 / (o.tau.max(1) as f32 * ETA_EFF);
                    cd_sample.push(match &o.control_delta {
                        Some(cd) => cd[j],
                        None => -broadcast.control[j] - o.delta[j] * scale,
                    });
                }
                delta.push(robust_stat(&cfg.aggregator, &mut sample));
                control_delta.push(robust_stat(&cfg.aggregator, &mut cd_sample));
            }
            red.delta = delta;
            red.control_delta = control_delta;
        }
        Algorithm::Spatl(opts) => {
            let votes = VoteTable::build(p, |vote| {
                for o in &valid {
                    let scale = 1.0 / (o.tau.max(1) as f32 * ETA_EFF);
                    match &o.selected {
                        Some(sel) => {
                            for (k, &i) in sel.indices.iter().enumerate() {
                                vote(i as usize, (sel.values[k], scale));
                            }
                        }
                        None => {
                            for j in 0..p {
                                vote(j, (o.delta[j], scale));
                            }
                        }
                    }
                }
            });
            let mut sel = EdgeSelection::default();
            let mut cd_sample: Vec<f32> = Vec::with_capacity(valid.len());
            for j in 0..p {
                let v = votes.row(j);
                if v.is_empty() {
                    continue;
                }
                sample.clear();
                sample.extend(v.iter().map(|&(val, _)| val));
                sel.indices.push(j as u32);
                sel.values.push(robust_stat(&cfg.aggregator, &mut sample));
                sel.counts.push(v.len() as u32);
                if opts.gradient_control {
                    cd_sample.clear();
                    cd_sample.extend(v.iter().map(|&(val, sc)| -broadcast.control[j] - val * sc));
                    sel.control_values
                        .push(robust_stat(&cfg.aggregator, &mut cd_sample));
                }
            }
            red.selection = Some(sel);
        }
    }

    if !broadcast.buffers.is_empty() {
        let senders: Vec<&&LocalOutcome> = valid
            .iter()
            .filter(|o| o.buffers.len() == broadcast.buffers.len())
            .collect();
        if !senders.is_empty() {
            red.buffers = (0..broadcast.buffers.len())
                .map(|j| {
                    sample.clear();
                    sample.extend(senders.iter().map(|o| o.buffers[j]));
                    robust_stat(&cfg.aggregator, &mut sample)
                })
                .collect();
        }
    }
    Some(red)
}

/// Root-side reduced composition: apply the robust statistic *across*
/// the edges' [`EdgeReduced`] summaries — median-of-medians /
/// trimmed-mean-of-trimmed-means — and fold the result into the global
/// state under each algorithm's rule. Edges reporting zero survivors
/// (or a shape that does not match the session) contribute nothing.
///
/// Returns `true` when an update was applied; `false` means a no-op
/// round (no edge carried an aggregatable summary) and the global state
/// is untouched.
pub fn aggregate_reduced(
    global: &mut GlobalState,
    cfg: &FlConfig,
    edges: &[EdgeReduced],
    n_clients_total: usize,
) -> bool {
    let p = global.shared.len();
    let inv_n = 1.0 / n_clients_total as f32;
    let mut sample: Vec<f32> = Vec::with_capacity(edges.len());

    // Dense summaries carry one delta per edge plus the upload's second
    // lane; a count lane means per-index selections instead.
    let spec = cfg.algorithm.spec();
    if !spec.count_lane {
        let active: Vec<&EdgeReduced> = edges
            .iter()
            .filter(|e| e.survivors > 0 && e.delta.len() == p)
            .collect();
        if active.is_empty() {
            return false;
        }
        for j in 0..p {
            sample.clear();
            sample.extend(active.iter().map(|e| e.delta[j]));
            global.shared[j] += robust_stat(&cfg.aggregator, &mut sample);
        }
        if spec.upload_lane == Some(UploadLane::ControlDelta) {
            let total_survivors: u32 = active.iter().map(|e| e.survivors).sum();
            let s_over_n = total_survivors as f32 * inv_n;
            let carriers: Vec<&&EdgeReduced> = active
                .iter()
                .filter(|e| e.control_delta.len() == p)
                .collect();
            if !carriers.is_empty() {
                for j in 0..p {
                    sample.clear();
                    sample.extend(carriers.iter().map(|e| e.control_delta[j]));
                    global.control[j] += s_over_n * robust_stat(&cfg.aggregator, &mut sample);
                }
            }
        }
        if spec.upload_lane == Some(UploadLane::Velocity) {
            let carriers: Vec<&&EdgeReduced> =
                active.iter().filter(|e| e.velocity.len() == p).collect();
            if !carriers.is_empty() {
                let mut momentum = vec![0.0f32; p];
                #[allow(clippy::needless_range_loop)] // j indexes every summary
                for j in 0..p {
                    sample.clear();
                    sample.extend(carriers.iter().map(|e| e.velocity[j]));
                    momentum[j] = robust_stat(&cfg.aggregator, &mut sample);
                }
                global.momentum = momentum;
            }
        }
    } else {
        // Merge the edges' per-index summaries: for each index any
        // edge selected, the statistic runs over the edge values and
        // the participation count is the sum of the edge counts.
        let each_entry = |f: &mut dyn FnMut(&EdgeSelection, usize)| {
            for e in edges.iter().filter(|e| e.survivors > 0) {
                let Some(sel) = &e.selection else { continue };
                for (k, &i) in sel.indices.iter().enumerate() {
                    if (i as usize) < p {
                        f(sel, k);
                    }
                }
            }
        };
        let mut votes = VoteTable::build(p, |vote| {
            each_entry(&mut |sel, k| vote(sel.indices[k] as usize, sel.values[k]));
        });
        let mut cd_votes = VoteTable::build(p, |vote| {
            each_entry(&mut |sel, k| {
                if let Some(&cv) = sel.control_values.get(k) {
                    vote(sel.indices[k] as usize, cv);
                }
            });
        });
        if votes.is_empty() {
            return false;
        }
        let mut counts = vec![0u64; p];
        each_entry(&mut |sel, k| counts[sel.indices[k] as usize] += sel.counts[k] as u64);
        for (j, &count) in counts.iter().enumerate() {
            if votes.row(j).is_empty() {
                continue;
            }
            global.shared[j] += robust_stat(&cfg.aggregator, votes.row_mut(j));
            if spec.secondary_lane && !cd_votes.row(j).is_empty() {
                global.control[j] +=
                    count as f32 * inv_n * robust_stat(&cfg.aggregator, cd_votes.row_mut(j));
            }
        }
    }

    if !global.buffers.is_empty() {
        let senders: Vec<&EdgeReduced> = edges
            .iter()
            .filter(|e| e.survivors > 0 && e.buffers.len() == global.buffers.len())
            .collect();
        if !senders.is_empty() {
            let mut acc = vec![0.0f32; global.buffers.len()];
            #[allow(clippy::needless_range_loop)] // j indexes every summary
            for j in 0..global.buffers.len() {
                sample.clear();
                sample.extend(senders.iter().map(|e| e.buffers[j]));
                acc[j] = robust_stat(&cfg.aggregator, &mut sample);
            }
            global.buffers = acc;
        }
    }
    true
}

/// Per-coordinate vote lists in one flat buffer (compressed sparse rows):
/// coordinate `j`'s votes are `items[offsets[j]..offsets[j + 1]]`, in the
/// order the walk cast them — what `vec![Vec::new(); p]` held, without
/// one allocation per coordinate.
struct VoteTable<T> {
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy + Default> VoteTable<T> {
    /// Run `walk` twice, handing it a `vote(coordinate, value)` sink:
    /// once to count each coordinate's votes, once to place them.
    fn build(p: usize, walk: impl Fn(&mut dyn FnMut(usize, T))) -> Self {
        let mut offsets = vec![0usize; p + 1];
        walk(&mut |j, _| offsets[j + 1] += 1);
        for j in 0..p {
            offsets[j + 1] += offsets[j];
        }
        let mut items = vec![T::default(); offsets[p]];
        let mut next = offsets[..p].to_vec();
        walk(&mut |j, v| {
            items[next[j]] = v;
            next[j] += 1;
        });
        VoteTable { offsets, items }
    }

    fn row(&self, j: usize) -> &[T] {
        &self.items[self.offsets[j]..self.offsets[j + 1]]
    }

    fn row_mut(&mut self, j: usize) -> &mut [T] {
        &mut self.items[self.offsets[j]..self.offsets[j + 1]]
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Snapshot the numeric counters of a fault ledger for the wire — the
/// edge→root half of tree-wide ledger composition. Events stay local.
/// The retired slots (`stragglers`, `retries`, `retry_exhausted`) are
/// written as 0.
pub fn fault_counters(record: &FaultRecord) -> TierFaultCounters {
    TierFaultCounters {
        sampled: record.sampled as u32,
        dropouts: record.dropouts as u32,
        deadline_dropped: record.deadline_dropped as u32,
        corrupted_uploads: record.corrupted_uploads as u32,
        local_divergence: record.local_divergence as u32,
        byzantine: record.byzantine as u32,
        quarantined: record.quarantined as u32,
        duplicates: record.duplicates as u32,
        ..TierFaultCounters::default()
    }
}

/// Fold one edge's counters into the root's round ledger (the root→tree
/// half of ledger composition): with every edge live, the root's
/// counters equal what a flat coordinator would have recorded. The
/// retired slots are ignored.
pub fn fold_fault_counters(into: &mut FaultRecord, counters: &TierFaultCounters) {
    into.sampled += counters.sampled as usize;
    into.dropouts += counters.dropouts as usize;
    into.deadline_dropped += counters.deadline_dropped as usize;
    into.corrupted_uploads += counters.corrupted_uploads as usize;
    into.local_divergence += counters.local_divergence as usize;
    into.byzantine += counters.byzantine as usize;
    into.quarantined += counters.quarantined as usize;
    into.duplicates += counters.duplicates as usize;
}

/// Build the wire bookkeeping entry for one collected client, from the
/// metadata half of its outcome. `frames` carries the client's sealed
/// upload frames under exact composition, and is empty otherwise.
pub fn outcome_entry(meta: &LocalOutcome, accuracy: f32, frames: Vec<Vec<u8>>) -> EdgeEntry {
    EdgeEntry {
        client_id: meta.client_id as u32,
        n_samples: meta.n_samples as u64,
        tau: meta.tau as u64,
        diverged: meta.diverged,
        keep_ratio: meta.keep_ratio,
        flops_ratio: meta.flops_ratio,
        accuracy,
        bytes_download: meta.bytes.download,
        bytes_upload: meta.bytes.upload,
        upload_payload: meta.wire.upload_payload,
        upload_framed: meta.wire.upload_framed,
        frames,
    }
}

/// Rebuild the bookkeeping half of a [`LocalOutcome`] from a forwarded
/// entry — the tier analogue of reading a client's `RoundDone` header;
/// tensor fields stay empty until the entry's frames are decoded.
pub fn entry_outcome(entry: &EdgeEntry) -> LocalOutcome {
    LocalOutcome::meta(
        entry.client_id as usize,
        entry.n_samples as usize,
        entry.tau as usize,
        entry.diverged,
        entry.keep_ratio,
        entry.flops_ratio,
        RoundBytes {
            download: entry.bytes_download,
            upload: entry.bytes_upload,
        },
        WireBytes {
            upload_payload: entry.upload_payload,
            upload_framed: entry.upload_framed,
            ..WireBytes::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;
    use spatl_tensor::TensorRng;

    /// `reduce_cohort`'s SPATL arm with one `Vec` per coordinate, as it
    /// was written before the vote tables went flat (gradient control on).
    fn reduce_per_coordinate(
        cfg: &FlConfig,
        cohort: &[LocalOutcome],
        broadcast: &GlobalState,
    ) -> EdgeSelection {
        let p = broadcast.shared.len();
        let mut votes: Vec<Vec<(f32, f32)>> = vec![Vec::new(); p];
        for o in cohort.iter().filter(|o| !o.diverged) {
            let scale = 1.0 / (o.tau.max(1) as f32 * ETA_EFF);
            match &o.selected {
                Some(sel) => {
                    for (k, &i) in sel.indices.iter().enumerate() {
                        votes[i as usize].push((sel.values[k], scale));
                    }
                }
                None => {
                    for (j, v) in votes.iter_mut().enumerate() {
                        v.push((o.delta[j], scale));
                    }
                }
            }
        }
        let mut sel = EdgeSelection::default();
        for (j, v) in votes.iter().enumerate().filter(|(_, v)| !v.is_empty()) {
            let mut sample: Vec<f32> = v.iter().map(|&(val, _)| val).collect();
            let mut cd: Vec<f32> = v
                .iter()
                .map(|&(val, sc)| -broadcast.control[j] - val * sc)
                .collect();
            sel.indices.push(j as u32);
            sel.values.push(robust_stat(&cfg.aggregator, &mut sample));
            sel.counts.push(v.len() as u32);
            sel.control_values
                .push(robust_stat(&cfg.aggregator, &mut cd));
        }
        sel
    }

    /// `aggregate_reduced`'s selection merge with one `Vec` per
    /// coordinate, as it was written before the vote tables went flat.
    fn merge_per_coordinate(
        global: &mut GlobalState,
        cfg: &FlConfig,
        edges: &[EdgeReduced],
        n_clients_total: usize,
    ) -> bool {
        let p = global.shared.len();
        let inv_n = 1.0 / n_clients_total as f32;
        let mut votes: Vec<Vec<f32>> = vec![Vec::new(); p];
        let mut cd_votes: Vec<Vec<f32>> = vec![Vec::new(); p];
        let mut counts = vec![0u64; p];
        let mut any = false;
        for e in edges.iter().filter(|e| e.survivors > 0) {
            let Some(sel) = &e.selection else { continue };
            for (k, &i) in sel.indices.iter().enumerate() {
                let j = i as usize;
                if j >= p {
                    continue;
                }
                any = true;
                votes[j].push(sel.values[k]);
                counts[j] += sel.counts[k] as u64;
                if let Some(&cv) = sel.control_values.get(k) {
                    cd_votes[j].push(cv);
                }
            }
        }
        for j in 0..p {
            if votes[j].is_empty() {
                continue;
            }
            global.shared[j] += robust_stat(&cfg.aggregator, &mut votes[j]);
            if !cd_votes[j].is_empty() {
                global.control[j] +=
                    counts[j] as f32 * inv_n * robust_stat(&cfg.aggregator, &mut cd_votes[j]);
            }
        }
        any
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A random ascending subset of `0..n`.
    fn subset(rng: &mut TensorRng, n: usize) -> Vec<u32> {
        (0..n as u32).filter(|_| rng.flip(0.4)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The flat vote tables give the per-coordinate tables' bits, on
        /// both sides of the reduced composition: random SPATL cohorts
        /// (dense and selected uploads, diverged clients) reduced at an
        /// edge, and random edge summaries merged at the root (indices
        /// past the session vector, missing control values, empty edges).
        fn flat_vote_tables_match_per_coordinate_tables(seed in 0u64..u64::MAX) {
            let mut rng = TensorRng::seed_from(seed);
            let p = 1 + rng.below(40);
            let mut cfg = FlConfig::new(Algorithm::Spatl(crate::SpatlOptions::default()));
            cfg.aggregator = if rng.flip(0.5) {
                AggregatorKind::CoordinateMedian
            } else {
                AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.2 }
            };
            let vector = |rng: &mut TensorRng, n: usize| -> Vec<f32> {
                (0..n).map(|_| rng.normal(0.0, 1.0)).collect()
            };
            let broadcast = GlobalState {
                shared: vector(&mut rng, p),
                control: vector(&mut rng, p),
                momentum: Vec::new(),
                buffers: Vec::new(),
            };

            let cohort: Vec<LocalOutcome> = (0..1 + rng.below(6))
                .map(|id| {
                    let mut o = LocalOutcome::meta(
                        id,
                        10,
                        1 + rng.below(5),
                        rng.flip(0.15),
                        1.0,
                        1.0,
                        RoundBytes::default(),
                        WireBytes::default(),
                    );
                    o.delta = vector(&mut rng, p);
                    if rng.flip(0.7) {
                        let indices = subset(&mut rng, p);
                        o.selected = Some(crate::SelectedUpdate {
                            values: vector(&mut rng, indices.len()),
                            channels: 0,
                            channel_ids: Vec::new(),
                            indices,
                        });
                    }
                    o
                })
                .collect();
            let flat = reduce_cohort(&cfg, &cohort, &broadcast).and_then(|r| r.selection);
            if cohort.iter().all(|o| o.diverged) {
                prop_assert!(flat.is_none());
            } else {
                let flat = flat.expect("a SPATL reduction carries a selection");
                let old = reduce_per_coordinate(&cfg, &cohort, &broadcast);
                prop_assert_eq!(&flat.indices, &old.indices);
                prop_assert_eq!(&flat.counts, &old.counts);
                prop_assert_eq!(bits(&flat.values), bits(&old.values));
                prop_assert_eq!(bits(&flat.control_values), bits(&old.control_values));
            }

            let edges: Vec<EdgeReduced> = (0..1 + rng.below(4))
                .map(|_| {
                    let indices = subset(&mut rng, p + 3);
                    let k = indices.len();
                    let controls = if rng.flip(0.8) { k } else { rng.below(k + 1) };
                    EdgeReduced {
                        survivors: rng.below(4) as u32,
                        selection: rng.flip(0.9).then(|| EdgeSelection {
                            values: vector(&mut rng, k),
                            counts: (0..k).map(|_| 1 + rng.below(5) as u32).collect(),
                            control_values: vector(&mut rng, controls),
                            indices,
                        }),
                        ..Default::default()
                    }
                })
                .collect();
            let n_total = 1 + rng.below(20);
            let (mut flat, mut old) = (broadcast.clone(), broadcast.clone());
            let applied = aggregate_reduced(&mut flat, &cfg, &edges, n_total);
            prop_assert_eq!(applied, merge_per_coordinate(&mut old, &cfg, &edges, n_total));
            prop_assert_eq!(bits(&flat.shared), bits(&old.shared));
            prop_assert_eq!(bits(&flat.control), bits(&old.control));
        }
    }

    #[test]
    fn partition_covers_contiguously_and_near_equally() {
        for (n, k) in [(4, 2), (5, 2), (7, 3), (3, 3), (10, 4)] {
            let ranges = edge_partition(n, k);
            assert_eq!(ranges.len(), k);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[k - 1].end, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
                assert!(w[0].len() >= w[1].len(), "larger slices first");
            }
            let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "near-equal: {sizes:?}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot spread")]
    fn partition_rejects_more_edges_than_clients() {
        edge_partition(2, 3);
    }

    #[test]
    fn exactness_follows_the_aggregator() {
        assert!(exact_composition(&AggregatorKind::WeightedMean));
        assert!(exact_composition(&AggregatorKind::NormClippedMean));
        assert!(!exact_composition(&AggregatorKind::CoordinateMedian));
        assert!(!exact_composition(&AggregatorKind::CoordinateTrimmedMean {
            trim_ratio: 0.25
        }));
    }

    #[test]
    fn entry_round_trips_outcome_bookkeeping() {
        let mut o = LocalOutcome {
            client_id: 3,
            n_samples: 18,
            tau: 4,
            delta: vec![1.0],
            selected: None,
            compressed: None,
            control_delta: None,
            velocity: None,
            buffers: Vec::new(),
            diverged: true,
            masked: None,
            fixed: None,
            bytes: RoundBytes {
                download: 11,
                upload: 7,
            },
            wire: WireBytes {
                download_payload: 0,
                download_framed: 0,
                upload_payload: 5,
                upload_framed: 9,
            },
            frames: Vec::new(),
            keep_ratio: 0.5,
            flops_ratio: 0.25,
        };
        let entry = outcome_entry(&o, 0.0, Vec::new());
        let back = entry_outcome(&entry);
        o.delta.clear(); // tensors do not travel in the entry
        assert_eq!(back.client_id, o.client_id);
        assert_eq!(back.n_samples, o.n_samples);
        assert_eq!(back.tau, o.tau);
        assert_eq!(back.diverged, o.diverged);
        assert_eq!(back.bytes, o.bytes);
        assert_eq!(back.wire, o.wire);
        assert_eq!(back.keep_ratio, o.keep_ratio);
        assert_eq!(back.flops_ratio, o.flops_ratio);
    }

    #[test]
    fn ledger_counters_compose_additively() {
        let mut a = FaultRecord::for_sample(3);
        a.dropouts = 1;
        a.quarantined = 2;
        let mut b = FaultRecord::for_sample(2);
        b.corrupted_uploads = 1;
        b.deadline_dropped = 1;
        b.duplicates = 1;
        let mut root = FaultRecord::default();
        fold_fault_counters(&mut root, &fault_counters(&a));
        fold_fault_counters(&mut root, &fault_counters(&b));
        assert_eq!(root.sampled, 5);
        assert_eq!(root.dropouts, 1);
        assert_eq!(root.quarantined, 2);
        assert_eq!(root.corrupted_uploads, 1);
        assert_eq!(root.deadline_dropped, 1);
        assert_eq!(root.duplicates, 1);
    }

    #[test]
    fn retired_counter_slots_are_written_as_zero_and_ignored() {
        let mut live = FaultRecord::for_sample(4);
        live.dropouts = 2;
        let counters = fault_counters(&live);
        let retired = (counters.stragglers, counters.retries);
        assert_eq!((retired, counters.retry_exhausted), ((0, 0), 0));
        // A combined upload from an older edge may still fill them.
        let old_edge = TierFaultCounters {
            stragglers: 3,
            retries: 6,
            retry_exhausted: 7,
            ..counters
        };
        let (mut a, mut b) = (FaultRecord::default(), FaultRecord::default());
        fold_fault_counters(&mut a, &counters);
        fold_fault_counters(&mut b, &old_edge);
        assert_eq!(a, b);
        assert_eq!((a.sampled, a.dropouts), (4, 2));
    }
}
