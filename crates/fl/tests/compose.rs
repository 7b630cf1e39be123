//! Tests for hierarchical (edge → root) composition and the flat robust
//! fold beneath it (DESIGN.md §11).
//!
//! 1. **A tier folds as flat**: merging two edges' collected uploads and
//!    folding them in ascending client-id order reproduces the flat
//!    coordinator's aggregation bit-for-bit — including survivor
//!    renormalisation when clients on one edge drop out — under every
//!    aggregator, since every aggregator folds at the root.
//! 2. **The flat robust fold is pinned**: a digest of
//!    [`GlobalState::aggregate`]'s bits under the coordinate median and
//!    trimmed means holds the robust statistic fixed.

use proptest::prelude::*;
use spatl_fl::{
    edge_partition, AggregatorKind, Algorithm, CommModel, FlConfig, GlobalState, LocalOutcome,
    SelectedUpdate, SpatlOptions, WireBytes,
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

/// Fold `bits` into an FNV-1a digest.
fn digest_bits(h: &mut u64, bits: impl IntoIterator<Item = u32>) {
    for b in bits {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// The flat robust fold, pinned: `GlobalState::aggregate` under the
/// coordinate median and two trimmed means, for all five algorithms,
/// over seeded cohorts with dropouts and diverged uploads, digested bit
/// for bit. A rewrite of the robust statistic must leave this digest
/// unchanged.
#[test]
fn flat_robust_fold_bits_are_pinned() {
    let rules = [
        AggregatorKind::CoordinateMedian,
        AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.2 },
        AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.25 },
    ];
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for seed in 0..64u64 {
        for aggregator in rules {
            for algorithm in algorithms() {
                let case = build_case(seed, algorithm, aggregator);
                let n = case.cohort.len();
                let drop_bits = Gen(seed ^ 0xD20F).next_u64();
                let survivors: Vec<LocalOutcome> = case
                    .cohort
                    .into_iter()
                    .filter(|o| drop_bits >> o.client_id & 3 != 0)
                    .collect();
                let mut global = case.global;
                let applied = global.aggregate(&case.cfg, &survivors, n);
                digest_bits(&mut h, [u32::from(applied)]);
                for v in [
                    &global.shared,
                    &global.control,
                    &global.momentum,
                    &global.buffers,
                ] {
                    digest_bits(&mut h, v.iter().map(|x| x.to_bits()));
                }
            }
        }
    }
    assert_eq!(h, 0xD55B_F58B_0325_63BB, "flat robust fold digest");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Guarantee 1: under every aggregator, the root's merge-and-sort of
    /// the edges' survivors replays the flat fold bit-for-bit, dropouts
    /// on one edge included.
    #[test]
    fn exact_two_edge_merge_is_bit_identical(
        seed in 0u64..u64::MAX,
        alg_idx in 0usize..5,
        agg_idx in 0usize..4,
        drop_bits in 0u32..512,
    ) {
        let aggregator = [
            AggregatorKind::WeightedMean,
            AggregatorKind::NormClippedMean,
            AggregatorKind::CoordinateMedian,
            AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.25 },
        ][agg_idx];
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
}
