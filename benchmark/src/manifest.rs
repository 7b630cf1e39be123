//! The metric tables, and `BENCHMARK.json` rendered from them so the
//! manifest at the repository root cannot drift from what a run prints
//! (`tests/harness.rs` compares the two).

use crate::workloads;
use serde_json::{json, Value};

/// Seconds one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 24;

/// `(name, unit, better, bound)`: the metrics a user of the system sees.
/// `bound` is the share of the parent's median a metric may worsen by
/// before a change counts as a regression.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("round_s", "s", "lower", 0.25),
    ("cpu_s_per_round", "s", "lower", 0.25),
    ("upload_bytes_per_round", "B", "lower", 0.25),
    ("download_bytes_per_round", "B", "lower", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.2),
];

/// `(name, unit, better)`: single-layer metrics, reported by the traced
/// run. They carry no bound; README.md says which end-to-end metric each
/// should move, on which workload.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("fl.sample_ms", "ms", "lower"),
    ("fl.broadcast_encode_ms", "ms", "lower"),
    ("fl.broadcast_decode_ms", "ms", "lower"),
    ("fl.local_update_wall_ms", "ms", "lower"),
    ("fl.local_update_busy_ms", "ms", "lower"),
    ("fl.upload_encode_ms", "ms", "lower"),
    ("fl.upload_decode_ms", "ms", "lower"),
    ("fl.upload_decode_ns_per_coord", "ns", "lower"),
    ("fl.fold_ms", "ms", "lower"),
    ("fl.fold_ns_per_coord", "ns", "lower"),
    ("fl.finish_ms", "ms", "lower"),
    ("fl.eval_ms", "ms", "lower"),
    ("fl.upload_coords_per_round", "count", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("round.median_s", "s", "lower"),
    ("round.tail_s", "s", "lower"),
    ("round.samples", "count", "higher"),
    ("sim.final_acc", "fraction", "higher"),
    ("tensor.matmul_nt_gflops", "GFLOP/s", "higher"),
    ("tensor.matmul_tn_gflops", "GFLOP/s", "higher"),
    ("tensor.matmul_small_gflops", "GFLOP/s", "higher"),
    ("tensor.im2col_gb_s", "GB/s", "higher"),
    ("wire.seal_mb_s", "MB/s", "higher"),
    ("wire.open_mb_s", "MB/s", "higher"),
    ("wire.frame_reader_mb_s", "MB/s", "higher"),
    ("wire.dense_decode_mb_s", "MB/s", "higher"),
    ("wire.selected_decode_mb_s", "MB/s", "higher"),
    ("privacy.mask_stream_mb_s", "MB/s", "higher"),
    ("privacy.grid_accumulate_ns_per_coord", "ns", "lower"),
    ("privacy.grid_add_ns_per_coord", "ns", "lower"),
    ("nn.forward_ms_per_batch", "ms", "lower"),
    ("nn.backward_ms_per_batch", "ms", "lower"),
    ("nn.optim_step_ms", "ms", "lower"),
    ("data.batches_ms_per_epoch", "ms", "lower"),
    ("models.clone_ms", "ms", "lower"),
    ("graph.extract_ms", "ms", "lower"),
    ("agent.evaluate_ms", "ms", "lower"),
    ("agent.finetune_ms", "ms", "lower"),
    ("agent.project_to_budget_ms", "ms", "lower"),
    ("pruning.apply_sparsities_ms", "ms", "lower"),
    ("pruning.salient_indices_ms", "ms", "lower"),
    ("net.join_ms_per_client", "ms", "lower"),
    ("net.broadcast_ms", "ms", "lower"),
    ("net.collect_ms", "ms", "lower"),
    ("net.fold_tail_ms", "ms", "lower"),
    ("net.eval_pass_ms", "ms", "lower"),
    ("net.uploads_per_s", "1/s", "higher"),
    ("net.ns_per_coord", "ns", "lower"),
    ("gen.busy_share", "fraction", "lower"),
];

/// `BENCHMARK.json` as the acceptance driver expects it: exactly the keys
/// `command`, `paths`, `run_seconds`, `workloads`, `end_to_end`,
/// `per_layer`.
pub fn benchmark_json() -> Value {
    let workloads: Vec<Value> = workloads::all()
        .iter()
        .map(|w| json!({"name": w.name, "why": w.why}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| {
            json!({"name": name, "unit": unit, "better": better, "bound": bound})
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| json!({"name": name, "unit": unit, "better": better}))
        .collect();
    json!({
        "command": [
            "cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", "benchmark/Cargo.toml", "--bin", "roundbench", "--"
        ],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer
    })
}
