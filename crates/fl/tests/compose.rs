//! Property tests for hierarchical (edge → root) composition.
//!
//! Three guarantees from DESIGN.md §11, checked over randomized cohorts
//! covering all five algorithms:
//!
//! 1. **Exact composition is bit-identical**: merging two edges'
//!    already-collected survivors and folding them in ascending
//!    client-id order reproduces the flat coordinator's aggregation
//!    bit-for-bit — including survivor renormalisation when clients on
//!    one edge drop out — for the exactly-composable aggregators.
//! 2. **A single-edge reduction is the flat robust aggregation**: the
//!    edge-side statistic ([`reduce_cohort`]) composed through the
//!    root-side statistic ([`aggregate_reduced`]) with one edge is
//!    bit-identical to flat robust aggregation — pinning the private
//!    server statistic and the compose-module statistic together.
//! 3. **Two-edge reduced composition is range-bounded**: the composed
//!    per-coordinate step and the flat robust step both lie inside the
//!    envelope of the surviving clients' normalised contributions, so
//!    `|composed − flat| ≤ max − min` per coordinate (the
//!    FedNova envelope is widened to cover both the global and the
//!    edge-local τ_eff normalisations).

use proptest::prelude::*;
use spatl_fl::{
    aggregate_reduced, edge_partition, exact_composition, reduce_cohort, AggregatorKind, Algorithm,
    CommModel, FlConfig, GlobalState, LocalOutcome, SelectedUpdate, SpatlOptions, WireBytes,
};

/// Deterministic splitmix64 stream: the vendored proptest stub has no
/// combinator strategies, so each case draws shape scalars plus one seed
/// and derives the cohort from this generator.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn f32(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + unit * (hi - lo)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

fn algorithms() -> [Algorithm; 5] {
    [
        Algorithm::FedAvg,
        Algorithm::FedProx { mu: 0.01 },
        Algorithm::Scaffold,
        Algorithm::FedNova,
        Algorithm::Spatl(SpatlOptions::default()),
    ]
}

struct Case {
    cfg: FlConfig,
    global: GlobalState,
    cohort: Vec<LocalOutcome>,
}

/// Build one randomized case: global state of `p` shared and `b` buffer
/// coordinates, and `n` client outcomes exercising every optional field
/// (divergence, explicit control deltas, velocities, sparse selections,
/// matched and mismatched buffer vectors).
fn build_case(seed: u64, algorithm: Algorithm, aggregator: AggregatorKind) -> Case {
    let mut g = Gen(seed);
    let p = 2 + g.below(3);
    let n = 4 + g.below(5);
    let b = g.below(3);

    let mut cohort = Vec::with_capacity(n);
    for id in 0..n {
        let delta: Vec<f32> = (0..p).map(|_| g.f32(-1.0, 1.0)).collect();
        let selected = if g.chance(0.6) {
            let indices: Vec<u32> = (0..p as u32).filter(|_| g.chance(0.6)).collect();
            let values = indices.iter().map(|&i| delta[i as usize] * 0.5).collect();
            Some(SelectedUpdate {
                channels: indices.len(),
                channel_ids: Vec::new(),
                indices,
                values,
            })
        } else {
            None
        };
        cohort.push(LocalOutcome {
            client_id: id,
            n_samples: 1 + g.below(40),
            tau: 1 + g.below(5),
            selected,
            compressed: None,
            control_delta: if g.chance(0.5) {
                Some((0..p).map(|_| g.f32(-1.0, 1.0)).collect())
            } else {
                None
            },
            velocity: if g.chance(0.5) {
                Some((0..p).map(|_| g.f32(-1.0, 1.0)).collect())
            } else {
                None
            },
            buffers: if g.chance(0.8) {
                (0..b).map(|j| 0.1 * (id + j) as f32).collect()
            } else {
                Vec::new()
            },
            diverged: g.chance(0.15),
            delta,
            masked: None,
            fixed: None,
            bytes: CommModel::dense(0),
            wire: WireBytes::default(),
            frames: Vec::new(),
            keep_ratio: 1.0,
            flops_ratio: 1.0,
        });
    }

    let mut cfg = FlConfig::new(algorithm);
    cfg.n_clients = n;
    cfg.aggregator = aggregator;
    Case {
        cfg,
        global: GlobalState {
            shared: (0..p).map(|_| g.f32(-1.0, 1.0)).collect(),
            control: (0..p).map(|_| g.f32(-0.5, 0.5)).collect(),
            momentum: Vec::new(),
            buffers: (0..b).map(|_| g.f32(0.0, 1.0)).collect(),
        },
        cohort,
    }
}

fn assert_bits_equal(a: &[f32], c: &[f32], what: &str) {
    assert_eq!(a.len(), c.len(), "{what}: length");
    for (j, (x, y)) in a.iter().zip(c).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{j}]: {x} vs {y}");
    }
}

fn assert_state_bits_equal(a: &GlobalState, c: &GlobalState) {
    assert_bits_equal(&a.shared, &c.shared, "shared");
    assert_bits_equal(&a.control, &c.control, "control");
    assert_bits_equal(&a.momentum, &c.momentum, "momentum");
    assert_bits_equal(&a.buffers, &c.buffers, "buffers");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Guarantee 1: with an exactly-composable aggregator, the root's
    /// merge-and-sort of the edges' survivors replays the flat fold
    /// bit-for-bit, dropouts on one edge included.
    #[test]
    fn exact_two_edge_merge_is_bit_identical(
        seed in 0u64..u64::MAX,
        alg_idx in 0usize..5,
        agg_idx in 0usize..2,
        drop_bits in 0u32..512,
    ) {
        let aggregator = [AggregatorKind::WeightedMean, AggregatorKind::NormClippedMean][agg_idx];
        prop_assert!(exact_composition(&aggregator));
        let case = build_case(seed, algorithms()[alg_idx], aggregator);
        let n = case.cohort.len();
        // Dropouts: clients whose upload never arrives (arbitrarily many
        // of them on either edge) simply leave the cohort.
        let survivors_flat: Vec<LocalOutcome> = case
            .cohort
            .iter()
            .enumerate()
            .filter(|&(i, _)| drop_bits >> i & 1 == 0)
            .map(|(_, o)| o.clone())
            .collect();

        let mut flat = case.global.clone();
        let applied_flat = flat.aggregate(&case.cfg, &survivors_flat, n);

        // Tiered: two edges collect their slices; the root receives the
        // second edge's combined upload first (worst-case arrival order),
        // merges, sorts ascending by client id and folds.
        let ranges = edge_partition(n, 2);
        let mut merged: Vec<LocalOutcome> = Vec::new();
        for range in ranges.iter().rev() {
            merged.extend(
                survivors_flat
                    .iter()
                    .filter(|o| range.contains(&o.client_id))
                    .cloned(),
            );
        }
        merged.sort_by_key(|o| o.client_id);
        let mut tiered = case.global.clone();
        let applied_tiered = tiered.aggregate(&case.cfg, &merged, n);

        prop_assert_eq!(applied_flat, applied_tiered);
        assert_state_bits_equal(&flat, &tiered);
    }

    /// Guarantee 2: a single edge's reduction composed at the root IS the
    /// flat robust aggregation, bit for bit — the compose-module
    /// statistic and the server's private statistic cannot drift apart
    /// without this test failing.
    #[test]
    fn single_edge_reduction_reproduces_flat_robust(
        seed in 0u64..u64::MAX,
        alg_idx in 0usize..5,
        agg_idx in 0usize..2,
    ) {
        let aggregator = [
            AggregatorKind::CoordinateMedian,
            AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.25 },
        ][agg_idx];
        prop_assert!(!exact_composition(&aggregator));
        let case = build_case(seed, algorithms()[alg_idx], aggregator);
        let n = case.cohort.len();
        let mut flat = case.global.clone();
        let applied_flat = flat.aggregate(&case.cfg, &case.cohort, n);

        let mut composed = case.global.clone();
        match reduce_cohort(&case.cfg, &case.cohort, &case.global) {
            Some(red) => {
                let applied = aggregate_reduced(&mut composed, &case.cfg, &[red], n);
                prop_assert_eq!(applied_flat, applied);
            }
            None => prop_assert!(!applied_flat, "edge empty but flat aggregated"),
        }
        assert_state_bits_equal(&flat, &composed);
    }

    /// Guarantee 3: two-edge reduced composition stays inside the
    /// envelope of the surviving clients' normalised contributions, per
    /// coordinate — and therefore within `max − min` of the
    /// flat robust step.
    #[test]
    fn two_edge_reduced_composition_is_range_bounded(
        seed in 0u64..u64::MAX,
        alg_idx in 0usize..5,
        agg_idx in 0usize..2,
    ) {
        let aggregator = [
            AggregatorKind::CoordinateMedian,
            AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.25 },
        ][agg_idx];
        let case = build_case(seed, algorithms()[alg_idx], aggregator);
        let n = case.cohort.len();
        let p = case.global.shared.len();
        let ranges = edge_partition(n, 2);

        let mut flat = case.global.clone();
        let applied_flat = flat.aggregate(&case.cfg, &case.cohort, n);

        let mut composed = case.global.clone();
        let edges: Vec<_> = ranges
            .iter()
            .map(|r| {
                let slice: Vec<LocalOutcome> = case
                    .cohort
                    .iter()
                    .filter(|o| r.contains(&o.client_id))
                    .cloned()
                    .collect();
                reduce_cohort(&case.cfg, &slice, &case.global)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect();
        let applied = aggregate_reduced(&mut composed, &case.cfg, &edges, n);
        prop_assert_eq!(applied_flat, applied, "no-op rounds must agree");
        if !applied {
            assert_state_bits_equal(&flat, &composed);
            return Ok(());
        }

        // Per-coordinate envelope of the survivors' normalised
        // contributions. For FedNova the contribution of client i is
        // τ_eff·δᵢ[j]/τᵢ, whose normaliser differs between the flat fold
        // (survivor-wide τ_eff) and client i's edge (local τ_eff_e); the
        // envelope covers both.
        let valid: Vec<&LocalOutcome> = case.cohort.iter().filter(|o| !o.diverged).collect();
        let mut tau_effs: Vec<f32> = Vec::new();
        if matches!(case.cfg.algorithm, Algorithm::FedNova) {
            let global_total: f32 = valid.iter().map(|o| o.n_samples as f32).sum();
            tau_effs.push(
                valid
                    .iter()
                    .map(|o| (o.n_samples as f32 / global_total) * o.tau as f32)
                    .sum(),
            );
            for r in &ranges {
                let edge: Vec<&&LocalOutcome> =
                    valid.iter().filter(|o| r.contains(&o.client_id)).collect();
                let total: f32 = edge.iter().map(|o| o.n_samples as f32).sum();
                if total > 0.0 {
                    tau_effs.push(
                        edge.iter()
                            .map(|o| (o.n_samples as f32 / total) * o.tau as f32)
                            .sum(),
                    );
                }
            }
        }
        for j in 0..p {
            let mut contributions: Vec<f32> = Vec::new();
            for o in &valid {
                match case.cfg.algorithm {
                    Algorithm::FedNova => {
                        for &te in &tau_effs {
                            contributions.push(te * o.delta[j] / o.tau.max(1) as f32);
                        }
                    }
                    Algorithm::Spatl(_) => match &o.selected {
                        Some(sel) => {
                            if let Some(k) = sel.indices.iter().position(|&i| i as usize == j) {
                                contributions.push(sel.values[k]);
                            }
                        }
                        None => contributions.push(o.delta[j]),
                    },
                    _ => contributions.push(o.delta[j]),
                }
            }
            if contributions.is_empty() {
                continue;
            }
            let lo = contributions.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = contributions
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max);
            let tol = 1e-4 * (1.0 + (hi - lo).abs());
            for (name, state) in [("composed", &composed), ("flat", &flat)] {
                let step = state.shared[j] - case.global.shared[j];
                // SPATL leaves unselected coordinates untouched; a zero
                // step on a coordinate nobody's edge carried is in-bounds.
                if matches!(case.cfg.algorithm, Algorithm::Spatl(_)) && step == 0.0 {
                    continue;
                }
                prop_assert!(
                    step >= lo - tol && step <= hi + tol,
                    "{} step {} outside envelope [{}, {}] at j={}",
                    name, step, lo, hi, j
                );
            }
            let gap = (composed.shared[j] - flat.shared[j]).abs();
            prop_assert!(
                gap <= (hi - lo) + 2.0 * tol,
                "|composed - flat| = {} exceeds range = {} at j={}",
                gap, hi - lo, j
            );
        }
        for state in [&composed, &flat] {
            for v in [&state.shared, &state.control, &state.momentum, &state.buffers] {
                prop_assert!(v.iter().all(|x| x.is_finite()), "non-finite state");
            }
        }
    }
}
