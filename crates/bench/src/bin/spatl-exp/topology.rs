//! EXP-TOPOLOGY — flat star vs 2-tier hierarchical aggregation
//! (DESIGN.md §11).
//!
//! Two claims are exercised in process (the networked analogue lives in
//! `crates/net/tests/tier.rs`):
//!
//! 1. **A tier is the flat round behind relays** — for every aggregator
//!    and all five algorithms, a tiered root's fold is *bit-identical* to
//!    a flat root's, a round-0 dropout included. The flat arm folds each
//!    client's decoded upload frames; the 2-tier arm ships each edge's
//!    collected uploads through an encoded and decoded `EdgeCombined`
//!    payload and folds their frames into the accumulator a flat root
//!    opens, as the tiered root does. Rounds-to-target is therefore
//!    identical, and the table shows it.
//! 2. **Fault-ledger composition** — per-edge fault counters folded at
//!    the root equal the flat round's ledger, counter for counter.

use serde_json::json;
use spatl::fl::{
    edge_partition, entry_outcome, fault_counters, fold_fault_counters, outcome_entry, GlobalState,
    LocalOutcome,
};
use spatl::prelude::*;
use spatl::wire::{decode_edge_combined, encode_edge_combined, EdgeCombined};
use spatl_bench::{cli, col, Fmt, Scale, Section};

const EDGES: usize = 2;

fn builder(algorithm: Algorithm, clients: usize, rounds: usize, samples: usize) -> Simulation {
    ExperimentBuilder::new(algorithm)
        .model(ModelKind::Cnn2)
        .clients(clients)
        .samples_per_client(samples)
        .rounds(rounds)
        .local_epochs(1)
        .batch_size(8)
        .seed(11)
        .build()
}

/// One in-process federated run where aggregation is composed over
/// `n_edges` contiguous slices, the way the runtime does: a flat root
/// (`n_edges == 1`) folds every decoded upload; a tiered root folds the
/// frames each edge forwards in its combined payload; then evaluate-all.
/// `drop_client` removes one client's upload in round 0 — the edge-side
/// dropout whose survivor renormalisation must compose. Returns the final
/// global, the per-round mean accuracies and the total dropout count the
/// composed ledger saw.
fn run_composed(
    mut session: Simulation,
    rounds: usize,
    n_edges: usize,
    drop_client: Option<usize>,
) -> (GlobalState, Vec<f32>, usize) {
    let cfg = session.driver.cfg;
    let ranges = edge_partition(cfg.n_clients, n_edges);
    let mut accs = Vec::new();
    let mut dropouts_total = 0usize;
    for round in 0..rounds {
        let sampled = session.driver.sample_round();
        let broadcast = session.driver.global.clone();
        let mut outcomes: Vec<LocalOutcome> = Vec::new();
        let mut root_ledger = FaultRecord::default();
        let mut edge_ledgers = Vec::new();
        for range in &ranges {
            let slice: Vec<usize> = sampled
                .iter()
                .copied()
                .filter(|c| range.contains(c))
                .collect();
            let mut ledger = FaultRecord::for_sample(slice.len());
            for &id in &slice {
                if round == 0 && drop_client == Some(id) {
                    ledger.push(id, FaultKind::Dropout);
                    continue;
                }
                outcomes.push(session.clients[id].local_update(&cfg, &broadcast, round));
            }
            edge_ledgers.push(ledger);
        }
        // The root folds each edge's counters into the round's ledger —
        // claim 2: events stay local, counters compose additively.
        for ledger in &edge_ledgers {
            fold_fault_counters(&mut root_ledger, &fault_counters(ledger));
        }
        dropouts_total += root_ledger.dropouts;

        let mut acc = session.driver.begin_accumulation();
        if n_edges == 1 {
            // Flat arm: a flat root folds each decoded upload.
            for o in &outcomes {
                let decoded = session.driver.decode_client_upload(o, &o.frames);
                acc.fold(decoded.expect("client upload decodes"));
            }
        } else {
            // 2-tier arm: each edge relays its uploads' sealed frames in
            // one combined payload; the root decodes the payload, then
            // each entry's frames, into the same accumulator.
            for (edge, (range, ledger)) in ranges.iter().zip(&edge_ledgers).enumerate() {
                let entries = outcomes
                    .iter()
                    .filter(|o| range.contains(&o.client_id))
                    .map(|o| outcome_entry(o, 0.0, o.frames.clone()))
                    .collect();
                let payload = encode_edge_combined(&EdgeCombined {
                    edge_id: edge as u32,
                    round: round as u32,
                    faults: fault_counters(ledger),
                    entries,
                });
                let combined = decode_edge_combined(&payload).expect("combined upload decodes");
                for entry in &combined.entries {
                    let meta = entry_outcome(entry);
                    let decoded = session.driver.decode_client_upload(&meta, &entry.frames);
                    acc.fold(decoded.expect("forwarded upload decodes"));
                }
            }
        }
        session.driver.finish_accumulation(acc, &mut root_ledger);
        let global = session.driver.global.clone();
        let mean = session
            .clients
            .iter_mut()
            .map(|c| c.sync_and_evaluate(&cfg, &global))
            .sum::<f32>()
            / cfg.n_clients as f32;
        accs.push(mean);
    }
    (session.driver.global, accs, dropouts_total)
}

fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn rounds_to(accs: &[f32], target: f32) -> Option<usize> {
    accs.iter().position(|a| *a >= target).map(|i| i + 1)
}

pub fn run(scale: Scale) -> Vec<Section> {
    let clients = scale.pick(4, 8);
    let rounds = scale.pick(3, 6);
    let samples = scale.pick(18, 48);
    // Three quick rounds on 18 samples a client stay below chance (the
    // best round of each weighted-mean row reads 6–18 %), so the quick
    // target is one every such row reaches and both r→tgt columns carry
    // a number to compare.
    let target = scale.pick(0.05, 0.40);

    let mut section = Section::new(
        format!(
            "flat vs 2-tier aggregation ({clients} clients, {EDGES} edges, {rounds} rounds, \
             target {:.0}%)",
            target * 100.0
        ),
        vec![
            col("algorithm", "algorithm", Fmt::Text),
            col("aggregator", "aggregator", Fmt::Text),
            col("flat r→tgt", "rounds_to_target_flat", Fmt::Text),
            col("2-tier r→tgt", "rounds_to_target_tiered", Fmt::Text),
            col("bit-identical", "bit_identical", Fmt::YesNo),
        ],
    );

    // Both claims for every aggregator and algorithm, with a round-0
    // dropout on edge 0 so the survivor renormalisation has to compose
    // too.
    let dropped = 1usize;
    for (agg, agg_name) in [
        (AggregatorKind::WeightedMean, "weighted-mean"),
        (AggregatorKind::NormClippedMean, "norm-clipped"),
        (AggregatorKind::CoordinateMedian, "coord-median"),
        (
            AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.25 },
            "trimmed-mean(0.25)",
        ),
    ] {
        for (alg, name) in cli::algorithms() {
            let session = || {
                let mut s = builder(alg, clients, rounds, samples);
                s.driver.cfg.aggregator = agg;
                s
            };
            let (flat_global, flat_accs, flat_drops) =
                run_composed(session(), rounds, 1, Some(dropped));
            let (tier_global, tier_accs, tier_drops) =
                run_composed(session(), rounds, EDGES, Some(dropped));
            let identical = bit_identical(&flat_global.shared, &tier_global.shared)
                && bit_identical(&flat_global.control, &tier_global.control)
                && bit_identical(&flat_global.momentum, &tier_global.momentum)
                && bit_identical(&flat_global.buffers, &tier_global.buffers)
                && bit_identical(&flat_accs, &tier_accs);
            assert!(identical, "{name} / {agg_name}: a tier must fold as flat");
            assert_eq!(flat_drops, tier_drops, "{name}: ledgers must compose");
            section.push(json!({
                "algorithm": name,
                "aggregator": agg_name,
                "rounds_to_target_flat": rounds_to(&flat_accs, target),
                "rounds_to_target_tiered": rounds_to(&tier_accs, target),
                "bit_identical": identical,
                "dropouts_composed": tier_drops,
            }));
        }
    }

    vec![section]
}
