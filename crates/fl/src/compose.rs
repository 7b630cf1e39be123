//! The 2-tier topology and the robust per-coordinate fold.
//!
//! A tiered session splits the client population into contiguous edge
//! slices ([`edge_partition`]). An edge is a relay: it gathers its slice
//! of the round's cohort, ledgers what the reply headers tell it, and
//! forwards every collected reply — its header as an entry, its sealed
//! frames verbatim — upstream in one `spatl_wire::tier::EdgeCombined`,
//! with its ledger's counters ([`fault_counters`]). The root unpacks
//! that frame back into its clients' replies and runs them through the
//! round body a flat root runs, into the same
//! [`RoundAccumulator`](crate::RoundAccumulator), adding the counters
//! to its ledger ([`fold_fault_counters`]). So the screen, every
//! aggregator, the range bound and the failover lane run once, at the
//! root, over the whole surviving cohort: a tiered round is
//! bit-identical to a flat one by construction (DESIGN.md §11).
//!
//! The coordinate median and trimmed mean need the whole cohort per
//! coordinate; [`GlobalState::aggregate`] hands them to this module's
//! robust fold, which writes each coordinate's statistic straight into
//! the global state.

use std::ops::Range;

use spatl_wire::TierFaultCounters;

use crate::client::ETA_EFF;
use crate::screen::median_in_place;
use crate::{AggregatorKind, Algorithm, FaultRecord, FlConfig, GlobalState, LocalOutcome};

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

/// The robust per-coordinate statistic of `aggregator`, applied to a
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
            "the robust fold is only defined for per-coordinate statistics, not {}",
            other.name()
        ),
    }
}

/// Fold one surviving cohort under `cfg.aggregator`'s per-coordinate
/// statistic `stat` (the coordinate median or trimmed mean): each
/// algorithm's rule re-expressed around `stat`, written straight into
/// `global`. Sample weights are deliberately ignored — a Byzantine
/// client could lie about its shard size to buy weight — so the
/// honest-round result differs (slightly) from the published rules:
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
/// Control steps derive from the control variate the cohort trained
/// against: coordinate `j`'s is read before coordinate `j` is written.
///
/// Returns `false`, with `global` untouched, when nothing is
/// aggregatable: everyone diverged, zero total sample weight under
/// FedNova, or no SPATL index selected by anyone.
pub(crate) fn robust_fold(
    global: &mut GlobalState,
    cfg: &FlConfig,
    cohort: &[LocalOutcome],
    n_clients_total: usize,
) -> bool {
    let valid: Vec<&LocalOutcome> = cohort.iter().filter(|o| !o.diverged).collect();
    if valid.is_empty() {
        return false;
    }
    let stat = |xs: &mut [f32]| robust_stat(&cfg.aggregator, xs);
    let p = global.shared.len();
    let inv_n = 1.0 / n_clients_total as f32;
    let mut sample: Vec<f32> = Vec::with_capacity(valid.len());
    let mut cd_sample: Vec<f32> = Vec::with_capacity(valid.len());

    match cfg.algorithm {
        Algorithm::FedAvg | Algorithm::FedProx { .. } => {
            for j in 0..p {
                sample.clear();
                sample.extend(valid.iter().map(|o| o.delta[j]));
                global.shared[j] += stat(&mut sample);
            }
        }
        Algorithm::FedNova => {
            let total: f32 = valid.iter().map(|o| o.n_samples as f32).sum();
            if total <= 0.0 {
                return false;
            }
            let tau_eff: f32 = valid
                .iter()
                .map(|o| (o.n_samples as f32 / total) * o.tau as f32)
                .sum();
            for j in 0..p {
                sample.clear();
                sample.extend(
                    valid
                        .iter()
                        .map(|o| tau_eff * o.delta[j] / o.tau.max(1) as f32),
                );
                global.shared[j] += stat(&mut sample);
            }
            if valid.iter().any(|o| o.velocity.is_some()) {
                global.momentum = (0..p)
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
                            stat(&mut sample)
                        }
                    })
                    .collect();
            }
        }
        Algorithm::Scaffold => {
            let s_over_n = valid.len() as f32 * inv_n;
            for j in 0..p {
                sample.clear();
                cd_sample.clear();
                for o in &valid {
                    sample.push(o.delta[j]);
                    let scale = 1.0 / (o.tau.max(1) as f32 * ETA_EFF);
                    cd_sample.push(match &o.control_delta {
                        Some(cd) => cd[j],
                        None => -global.control[j] - o.delta[j] * scale,
                    });
                }
                global.shared[j] += stat(&mut sample);
                global.control[j] += s_over_n * stat(&mut cd_sample);
            }
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
            if votes.is_empty() {
                return false;
            }
            for j in 0..p {
                let v = votes.row(j);
                if v.is_empty() {
                    continue;
                }
                sample.clear();
                sample.extend(v.iter().map(|&(val, _)| val));
                if opts.gradient_control {
                    cd_sample.clear();
                    cd_sample.extend(v.iter().map(|&(val, sc)| -global.control[j] - val * sc));
                    global.control[j] += v.len() as f32 * inv_n * stat(&mut cd_sample);
                }
                global.shared[j] += stat(&mut sample);
            }
        }
    }

    let senders: Vec<&&LocalOutcome> = valid
        .iter()
        .filter(|o| o.buffers.len() == global.buffers.len())
        .collect();
    if !global.buffers.is_empty() && !senders.is_empty() {
        for (j, b) in global.buffers.iter_mut().enumerate() {
            sample.clear();
            sample.extend(senders.iter().map(|o| o.buffers[j]));
            *b = stat(&mut sample);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoundBytes, WireBytes};

    use proptest::prelude::*;
    use spatl_tensor::TensorRng;

    /// The robust fold's SPATL arm with one `Vec` per coordinate, as it
    /// was written before the vote table went flat (gradient control on):
    /// the oracle for [`robust_fold`]'s SPATL bits.
    fn fold_per_coordinate(
        global: &mut GlobalState,
        cfg: &FlConfig,
        cohort: &[LocalOutcome],
        n_clients_total: usize,
    ) -> bool {
        let p = global.shared.len();
        let inv_n = 1.0 / n_clients_total as f32;
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
        if votes.iter().all(Vec::is_empty) {
            return false;
        }
        for (j, v) in votes.iter().enumerate().filter(|(_, v)| !v.is_empty()) {
            let mut sample: Vec<f32> = v.iter().map(|&(val, _)| val).collect();
            let mut cd: Vec<f32> = v
                .iter()
                .map(|&(val, sc)| -global.control[j] - val * sc)
                .collect();
            global.shared[j] += robust_stat(&cfg.aggregator, &mut sample);
            global.control[j] += v.len() as f32 * inv_n * robust_stat(&cfg.aggregator, &mut cd);
        }
        true
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

        /// The flat vote table gives the per-coordinate tables' bits:
        /// random SPATL cohorts (dense and selected uploads, diverged
        /// clients) folded by [`robust_fold`] and by the oracle.
        #[test]
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
            let n_total = 1 + rng.below(20);
            let (mut flat, mut old) = (broadcast.clone(), broadcast.clone());
            let applied = robust_fold(&mut flat, &cfg, &cohort, n_total);
            let expected = fold_per_coordinate(&mut old, &cfg, &cohort, n_total);
            prop_assert_eq!(applied, expected);
            prop_assert_eq!(bits(&flat.shared), bits(&old.shared));
            prop_assert_eq!(bits(&flat.control), bits(&old.control));
        }
    }

    const MEDIAN: AggregatorKind = AggregatorKind::CoordinateMedian;

    /// A `p`-coordinate global state: shared at `base`, control at zero,
    /// no momentum, `buffers` batch-norm slots at zero.
    fn state(p: usize, base: f32, buffers: usize) -> GlobalState {
        GlobalState {
            shared: vec![base; p],
            control: vec![0.0; p],
            momentum: Vec::new(),
            buffers: vec![0.0; buffers],
        }
    }

    fn state_bits(g: &GlobalState) -> [Vec<u32>; 4] {
        [&g.shared, &g.control, &g.momentum, &g.buffers].map(|v| bits(v))
    }

    /// A dense upload from client `id`: `n_samples` samples, `tau` steps.
    fn upload(id: usize, n_samples: usize, tau: usize, delta: &[f32]) -> LocalOutcome {
        let (bytes, wire) = (RoundBytes::default(), WireBytes::default());
        let mut o = LocalOutcome::meta(id, n_samples, tau, false, 1.0, 1.0, bytes, wire);
        o.delta = delta.to_vec();
        o
    }

    fn config(algorithm: Algorithm, aggregator: AggregatorKind) -> FlConfig {
        let mut cfg = FlConfig::new(algorithm);
        cfg.aggregator = aggregator;
        cfg
    }

    fn spatl() -> Algorithm {
        Algorithm::Spatl(crate::SpatlOptions::default())
    }

    #[test]
    fn median_is_the_middle_value_or_the_midpoint() {
        assert_eq!(robust_stat(&MEDIAN, &mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(robust_stat(&MEDIAN, &mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(robust_stat(&MEDIAN, &mut [-7.0]), -7.0);
    }

    #[test]
    fn trimmed_mean_drops_the_same_count_from_each_tail() {
        let trimmed = AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.25 };
        // n = 8, k = 2: [-50, 1 | 2, 3, 4, 5 | 6, 100].
        let mut xs = [100.0, 1.0, 2.0, 3.0, -50.0, 4.0, 5.0, 6.0];
        assert_eq!(robust_stat(&trimmed, &mut xs), 3.5);
        // n = 3, k = 0: nothing is trimmed.
        assert_eq!(robust_stat(&trimmed, &mut [1.0, 2.0, 9.0]), 4.0);
    }

    #[test]
    fn trimmed_mean_at_ratio_zero_is_the_plain_mean() {
        let plain = AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.0 };
        assert_eq!(robust_stat(&plain, &mut [1.0, 2.0, 3.0, 10.0]), 4.0);
    }

    #[test]
    fn an_all_diverged_cohort_leaves_the_global_untouched() {
        let cfg = config(Algorithm::FedAvg, MEDIAN);
        let mut cohort = vec![upload(0, 10, 1, &[1.0, 2.0]), upload(1, 10, 1, &[3.0, 4.0])];
        for o in &mut cohort {
            o.diverged = true;
        }
        let mut global = state(2, 0.5, 0);
        assert!(!robust_fold(&mut global, &cfg, &cohort, 4));
        assert_eq!(state_bits(&global), state_bits(&state(2, 0.5, 0)));
    }

    #[test]
    fn the_median_fold_outvotes_one_scaled_upload_and_ignores_weights() {
        let cfg = config(Algorithm::FedAvg, MEDIAN);
        let honest = [
            upload(0, 10, 1, &[0.1, -0.2]),
            upload(1, 10, 1, &[0.3, -0.4]),
        ];
        let attacker = upload(2, 10, 1, &[1000.0, 1000.0]);
        let mut cohort = vec![honest[0].clone(), honest[1].clone(), attacker];
        let mut global = state(2, 1.0, 0);
        assert!(robust_fold(&mut global, &cfg, &cohort, 3));
        assert_eq!(bits(&global.shared), bits(&[1.0 + 0.3, 1.0 - 0.2]));

        // A client that lies about its shard size buys no weight.
        cohort[2].n_samples = 1_000_000;
        let mut lied = state(2, 1.0, 0);
        assert!(robust_fold(&mut lied, &cfg, &cohort, 3));
        assert_eq!(bits(&lied.shared), bits(&global.shared));
    }

    #[test]
    fn spatl_coordinates_nobody_selected_keep_their_value() {
        let cfg = config(spatl(), MEDIAN);
        let select = |id: usize, indices: Vec<u32>, value: f32| {
            let mut o = upload(id, 10, 1, &[]);
            o.selected = Some(crate::SelectedUpdate {
                values: vec![value; indices.len()],
                channels: 0,
                channel_ids: Vec::new(),
                indices,
            });
            o
        };
        let cohort = [select(0, vec![0], 1.0), select(1, vec![0, 2], 3.0)];
        let mut global = state(4, 0.5, 0);
        assert!(robust_fold(&mut global, &cfg, &cohort, 2));
        assert_eq!(global.shared[0], 0.5 + 2.0, "median of two votes");
        assert_eq!(global.shared[2], 0.5 + 3.0, "median of one vote");
        for j in [1, 3] {
            assert_eq!(global.shared[j], 0.5, "coordinate {j} had no vote");
            assert_eq!(global.control[j], 0.0, "coordinate {j} had no vote");
        }

        // A cohort that selected nothing at all has nothing to fold.
        let empty = [select(0, Vec::new(), 1.0), select(1, Vec::new(), 1.0)];
        let mut untouched = state(4, 0.5, 0);
        assert!(!robust_fold(&mut untouched, &cfg, &empty, 2));
        assert_eq!(state_bits(&untouched), state_bits(&state(4, 0.5, 0)));
    }

    #[test]
    fn fednova_with_zero_total_weight_is_a_no_op() {
        let cfg = config(Algorithm::FedNova, MEDIAN);
        let cohort = [upload(0, 0, 2, &[1.0]), upload(1, 0, 3, &[2.0])];
        let mut global = state(1, 0.25, 0);
        assert!(!robust_fold(&mut global, &cfg, &cohort, 2));
        assert_eq!(state_bits(&global), state_bits(&state(1, 0.25, 0)));
    }

    #[test]
    fn fednova_takes_the_median_of_normalised_directions() {
        let cfg = config(Algorithm::FedNova, MEDIAN);
        // τ_eff = ½·1 + ½·3 = 2; directions 2·2/1 = 4 and 2·6/3 = 4.
        let cohort = [upload(0, 10, 1, &[2.0]), upload(1, 10, 3, &[6.0])];
        let mut global = state(1, 0.0, 0);
        assert!(robust_fold(&mut global, &cfg, &cohort, 2));
        assert_eq!(global.shared, [4.0]);
    }

    #[test]
    fn fednova_momentum_is_the_statistic_of_the_uploaded_velocities() {
        let cfg = config(Algorithm::FedNova, MEDIAN);
        let mut cohort = [
            upload(0, 10, 1, &[0.0, 0.0]),
            upload(1, 10, 1, &[0.0, 0.0]),
            upload(2, 10, 1, &[0.0, 0.0]),
        ];
        cohort[0].velocity = Some(vec![1.0, -1.0]);
        cohort[1].velocity = Some(vec![3.0, -5.0]);
        // Client 2 sent no velocity: the statistic runs over the two that did.
        let mut global = state(2, 0.0, 0);
        assert!(robust_fold(&mut global, &cfg, &cohort, 3));
        assert_eq!(global.momentum, [2.0, -3.0]);
    }

    #[test]
    fn spatl_control_steps_scale_by_each_index_vote_count() {
        let cfg = config(spatl(), MEDIAN);
        let select = |id: usize, indices: Vec<u32>| {
            let mut o = upload(id, 10, 1, &[]);
            o.selected = Some(crate::SelectedUpdate {
                values: vec![0.0; indices.len()],
                channels: 0,
                channel_ids: Vec::new(),
                indices,
            });
            o
        };
        let cohort = [select(0, vec![0, 1]), select(1, vec![0])];
        let mut global = state(2, 0.0, 0);
        global.control = vec![-1.0, -1.0];
        assert!(robust_fold(&mut global, &cfg, &cohort, 4));
        // Zero-valued votes step the control by -c_j = +1, scaled by the
        // index's votes over N: 2/4 at index 0, 1/4 at index 1.
        assert_eq!(global.control, [-1.0 + 0.5, -1.0 + 0.25]);
    }

    #[test]
    fn scaffold_control_steps_are_scaled_by_the_cohort_share() {
        let cfg = config(Algorithm::Scaffold, MEDIAN);
        let mut cohort = [upload(0, 10, 1, &[0.0]), upload(1, 10, 1, &[0.0])];
        cohort[0].control_delta = Some(vec![1.0]);
        cohort[1].control_delta = Some(vec![3.0]);
        let mut global = state(1, 0.0, 0);
        // Two of four clients: (|S|/N)·median = ½·2.
        assert!(robust_fold(&mut global, &cfg, &cohort, 4));
        assert_eq!(global.control, [1.0]);
    }

    #[test]
    fn buffers_fold_only_over_uploads_of_the_session_shape() {
        let cfg = config(Algorithm::FedAvg, MEDIAN);
        let mut cohort = [
            upload(0, 10, 1, &[0.0]),
            upload(1, 10, 1, &[0.0]),
            upload(2, 10, 1, &[0.0]),
        ];
        cohort[0].buffers = vec![1.0, 10.0];
        cohort[1].buffers = vec![5.0, 20.0];
        cohort[2].buffers = vec![900.0];
        let mut global = state(1, 0.0, 2);
        assert!(robust_fold(&mut global, &cfg, &cohort, 3));
        assert_eq!(global.buffers, [3.0, 15.0]);
    }

    #[test]
    fn vote_table_rows_keep_the_walk_order() {
        let casts = [(2, 'a'), (0, 'b'), (2, 'c'), (2, 'd')];
        let table = VoteTable::build(4, |vote| {
            for &(j, v) in &casts {
                vote(j, v);
            }
        });
        assert_eq!(table.row(0), ['b']);
        assert!(table.row(1).is_empty() && table.row(3).is_empty());
        assert_eq!(table.row(2), ['a', 'c', 'd']);
        assert!(!table.is_empty());
        assert!(VoteTable::<char>::build(3, |_| {}).is_empty());
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
