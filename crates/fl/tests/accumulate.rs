//! Property tests for the streaming round accumulator (DESIGN.md §12).
//!
//! The concurrent coordinator folds uploads into [`RoundAccumulator`] in
//! whatever order decode workers finish them, so the accumulator carries
//! the repo's determinism contract on its back. Four guarantees, checked
//! over randomized cohorts covering all five algorithms (SCAFFOLD
//! control deltas, FedNova velocities, SPATL sparse selections and
//! batch-norm buffers included):
//!
//! 1. **Permutation invariance of the stream fold**: with the exact
//!    aggregator (`WeightedMean`, no screen) the accumulator streams,
//!    and any permutation of the arrival order finalizes to a
//!    bit-identical global state and ledger — not bounded-ε: the carry-
//!    save integer sums make the fold exactly commutative.
//! 2. **Worker-interleaving invariance**: arrival orders produced by a
//!    pool of decode workers (per-worker FIFO, random cross-worker
//!    scheduling) are a subset of permutations, but they are the orders
//!    the coordinator actually generates — checked separately so a
//!    future non-commutative "optimisation" keyed on worker locality
//!    cannot slip through.
//! 3. **Spill determinism**: robust aggregators and screened rounds
//!    buffer, then slot by client id before folding — so arrival order
//!    cannot change the result there either, bit for bit (stronger than
//!    the bounded-ε the contract minimally requires).
//! 4. **Screening equivalence**: a screened round's stage-2 median-RMS
//!    quarantine decisions (the full fault ledger, event for event) and
//!    the post-aggregation global are identical between the buffered
//!    accumulator fed in any order and the historic batch path
//!    (`screen_updates` + `aggregate` over the ascending cohort), on
//!    adversarial cohorts carrying scale attacks and non-finite uploads.

use proptest::prelude::*;
use spatl_fl::{
    screen_updates, AggregatorKind, Algorithm, CommModel, FaultRecord, FlConfig, GlobalState,
    LocalOutcome, RoundDriver, ScreenPolicy, SelectedUpdate, SpatlOptions, SpillReason, WireBytes,
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

    /// Fisher–Yates shuffle driven by this stream.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
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
/// the stream fold branches on — divergence riders, explicit SCAFFOLD
/// control deltas next to the server-side fallback, present and absent
/// FedNova velocities, sparse and dense SPATL uploads, short and full
/// batch-norm vectors, and sample weights spanning five orders of
/// magnitude (the carry-save sums must not care).
fn build_case(seed: u64, algorithm: Algorithm, aggregator: AggregatorKind) -> Case {
    let mut g = Gen(seed);
    let p = 2 + g.below(4);
    let n = 5 + g.below(6);
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
        let n_samples = if g.chance(0.2) {
            // A hospital-sized shard next to phone-sized ones: the f32
            // batch fold loses low bits here; the integer fold must not.
            100_000 + g.below(900_000)
        } else {
            1 + g.below(40)
        };
        cohort.push(LocalOutcome {
            client_id: id,
            n_samples,
            tau: 1 + g.below(30),
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

/// Run one full accumulation round — fresh driver, uploads folded in
/// exactly the order given — and return the post-round global state,
/// whether an update was applied, and the fault ledger.
fn fold_in_order(
    cfg: &FlConfig,
    global: &GlobalState,
    order: &[LocalOutcome],
) -> (GlobalState, bool, FaultRecord) {
    let mut driver = RoundDriver::new(*cfg, global.clone(), None);
    let mut faults = FaultRecord::for_sample(order.len());
    let mut acc = driver.begin_accumulation();
    for o in order {
        acc.fold(o.clone());
    }
    let applied = driver.finish_accumulation(acc, &mut faults);
    (driver.global, applied, faults)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Guarantee 1: streaming-mode finalize is bit-identical under any
    /// permutation of the arrival order, for every algorithm.
    #[test]
    fn stream_fold_is_permutation_invariant(
        seed in 0u64..u64::MAX,
        alg_idx in 0usize..5,
        perm_seed in 0u64..u64::MAX,
    ) {
        let case = build_case(seed, algorithms()[alg_idx], AggregatorKind::WeightedMean);

        // This configuration must stream: the whole point is O(model).
        let driver = RoundDriver::new(case.cfg, case.global.clone(), None);
        prop_assert_eq!(driver.begin_accumulation().spill_reason(), None);

        let (reference, applied_ref, faults_ref) =
            fold_in_order(&case.cfg, &case.global, &case.cohort);

        let mut g = Gen(perm_seed);
        for _ in 0..3 {
            let mut order = case.cohort.clone();
            g.shuffle(&mut order);
            let (state, applied, faults) = fold_in_order(&case.cfg, &case.global, &order);
            prop_assert_eq!(applied, applied_ref);
            prop_assert_eq!(&faults, &faults_ref);
            assert_state_bits_equal(&state, &reference);
        }
    }

    /// Guarantee 2: the arrival orders a decode worker pool actually
    /// produces — per-worker FIFO queues drained by a random scheduler —
    /// finalize bit-identically to the ascending-id fold.
    #[test]
    fn worker_interleavings_are_bit_identical(
        seed in 0u64..u64::MAX,
        alg_idx in 0usize..5,
        workers in 1usize..5,
        sched_seed in 0u64..u64::MAX,
    ) {
        let case = build_case(seed, algorithms()[alg_idx], AggregatorKind::WeightedMean);
        let (reference, applied_ref, faults_ref) =
            fold_in_order(&case.cfg, &case.global, &case.cohort);

        let mut g = Gen(sched_seed);
        // Deal uploads round-robin onto worker queues, then drain by
        // picking a random non-empty queue each step: every upload keeps
        // its position relative to queue-mates (a worker decodes its
        // jobs in order) while cross-worker completion order is free.
        let mut queues: Vec<std::collections::VecDeque<LocalOutcome>> =
            (0..workers).map(|_| Default::default()).collect();
        for (i, o) in case.cohort.iter().enumerate() {
            queues[i % workers].push_back(o.clone());
        }
        let mut order = Vec::with_capacity(case.cohort.len());
        while order.len() < case.cohort.len() {
            let k = g.below(workers);
            if let Some(o) = queues[k].pop_front() {
                order.push(o);
            }
        }

        let (state, applied, faults) = fold_in_order(&case.cfg, &case.global, &order);
        prop_assert_eq!(applied, applied_ref);
        prop_assert_eq!(&faults, &faults_ref);
        assert_state_bits_equal(&state, &reference);
    }

    /// Guarantee 3: robust aggregators spill, and the sorted spill makes
    /// them arrival-order independent too — bit-identical, not just
    /// bounded-ε.
    #[test]
    fn buffered_spill_is_arrival_order_independent(
        seed in 0u64..u64::MAX,
        alg_idx in 0usize..5,
        agg_idx in 0usize..3,
        perm_seed in 0u64..u64::MAX,
    ) {
        let aggregator = [
            AggregatorKind::NormClippedMean,
            AggregatorKind::CoordinateMedian,
            AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.2 },
        ][agg_idx];
        let case = build_case(seed, algorithms()[alg_idx], aggregator);

        let driver = RoundDriver::new(case.cfg, case.global.clone(), None);
        prop_assert_eq!(
            driver.begin_accumulation().spill_reason(),
            Some(SpillReason::RobustAggregator)
        );

        let (reference, applied_ref, faults_ref) =
            fold_in_order(&case.cfg, &case.global, &case.cohort);

        let mut g = Gen(perm_seed);
        let mut order = case.cohort.clone();
        g.shuffle(&mut order);
        let (state, applied, faults) = fold_in_order(&case.cfg, &case.global, &order);
        prop_assert_eq!(applied, applied_ref);
        prop_assert_eq!(&faults, &faults_ref);
        assert_state_bits_equal(&state, &reference);
    }

    /// Guarantee 4: a screened round quarantines the same clients for
    /// the same reasons whatever the arrival order, and matches the
    /// historic batch path (`screen_updates` + `aggregate`, ascending)
    /// event for event — on a cohort carrying a ×100 scale attacker and
    /// a non-finite upload that *claims* to be healthy.
    #[test]
    fn screened_rounds_quarantine_identically_in_any_order(
        seed in 0u64..u64::MAX,
        alg_idx in 0usize..5,
        perm_seed in 0u64..u64::MAX,
    ) {
        let mut case = build_case(seed, algorithms()[alg_idx], AggregatorKind::WeightedMean);
        case.cfg.screen = Some(ScreenPolicy::default());

        // Mirror AdversaryPlan's attack shapes by hand so the screen has
        // something to catch. Client 0: scale attack — every uploaded
        // vector inflated ×100, well past the 4× median-RMS tolerance.
        {
            let o = &mut case.cohort[0];
            o.diverged = false;
            for v in &mut o.delta {
                *v *= 100.0;
            }
            if let Some(sel) = &mut o.selected {
                for v in &mut sel.values {
                    *v *= 100.0;
                }
            }
            if let Some(cd) = &mut o.control_delta {
                for v in &mut cd.iter_mut() {
                    *v *= 100.0;
                }
            }
        }
        // Client 1: non-finite poison that does not self-report — the
        // stage-1 finiteness screen, not the diverged flag, must act.
        {
            let o = &mut case.cohort[1];
            o.diverged = false;
            o.delta[0] = f32::NAN;
            if let Some(sel) = &mut o.selected {
                if let Some(v) = sel.values.first_mut() {
                    *v = f32::NAN;
                }
            }
        }

        let driver = RoundDriver::new(case.cfg, case.global.clone(), None);
        prop_assert_eq!(
            driver.begin_accumulation().spill_reason(),
            Some(SpillReason::Screening)
        );

        // Historic batch path over the ascending cohort: the reference
        // the buffered accumulator must reproduce exactly.
        let policy = case.cfg.screen.as_ref().unwrap();
        let mut batch_faults = FaultRecord::for_sample(case.cohort.len());
        let survivors = screen_updates(policy, case.cohort.clone(), &mut batch_faults);
        let mut batch_global = case.global.clone();
        let applied_batch =
            batch_global.aggregate(&case.cfg, &survivors, case.cfg.n_clients);

        let mut g = Gen(perm_seed);
        for _ in 0..3 {
            let mut order = case.cohort.clone();
            g.shuffle(&mut order);
            let (state, applied, faults) = fold_in_order(&case.cfg, &case.global, &order);
            prop_assert_eq!(applied, applied_batch);
            prop_assert_eq!(&faults.events, &batch_faults.events);
            prop_assert_eq!(faults.quarantined, batch_faults.quarantined);
            prop_assert_eq!(faults.survivors, survivors.len());
            assert_state_bits_equal(&state, &batch_global);
        }
    }
}

/// The accumulator's mode is a pure function of the run configuration:
/// stream when the exact aggregator runs unscreened, spill otherwise —
/// and a configured screen takes precedence in the reason it reports.
#[test]
fn accumulator_mode_tracks_configuration() {
    let case = build_case(7, Algorithm::FedAvg, AggregatorKind::WeightedMean);

    let driver = RoundDriver::new(case.cfg, case.global.clone(), None);
    assert_eq!(driver.begin_accumulation().spill_reason(), None);

    let mut screened = case.cfg;
    screened.screen = Some(ScreenPolicy::default());
    let driver = RoundDriver::new(screened, case.global.clone(), None);
    assert_eq!(
        driver.begin_accumulation().spill_reason(),
        Some(SpillReason::Screening)
    );

    let mut robust = case.cfg;
    robust.aggregator = AggregatorKind::CoordinateMedian;
    let driver = RoundDriver::new(robust, case.global.clone(), None);
    assert_eq!(
        driver.begin_accumulation().spill_reason(),
        Some(SpillReason::RobustAggregator)
    );

    // Screen + robust aggregator: the screen is why the round buffers
    // (the robust fold would have buffered anyway).
    let mut both = robust;
    both.screen = Some(ScreenPolicy::default());
    let driver = RoundDriver::new(both, case.global.clone(), None);
    assert_eq!(
        driver.begin_accumulation().spill_reason(),
        Some(SpillReason::Screening)
    );
}

/// Empty and all-diverged rounds are honest no-ops: nothing applied,
/// `no_op` ledgered, the global state untouched bit for bit.
#[test]
fn empty_and_all_diverged_rounds_are_no_ops() {
    for alg in algorithms() {
        let mut case = build_case(11, alg, AggregatorKind::WeightedMean);

        let (state, applied, faults) = fold_in_order(&case.cfg, &case.global, &[]);
        assert!(!applied, "{}: empty round applied", alg.name());
        assert!(faults.no_op);
        assert_state_bits_equal(&state, &case.global);

        for o in &mut case.cohort {
            o.diverged = true;
        }
        let (state, applied, faults) = fold_in_order(&case.cfg, &case.global, &case.cohort);
        assert!(!applied, "{}: all-diverged round applied", alg.name());
        assert!(faults.no_op);
        assert_state_bits_equal(&state, &case.global);
    }
}
