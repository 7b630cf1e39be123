//! The harness's own arithmetic, the manifest, and a `--quick` smoke run
//! of every workload in both modes.

use roundbench::manifest::{benchmark_json, END_TO_END, PER_LAYER};
use roundbench::stats::{median, tail};
use roundbench::sys::Sample;
use roundbench::trace::{
    coverage, covered_us, merge_intervals, per_round_ms, self_time_us, totals, Tracer,
};
use serde_json::Value;
use std::process::Command;

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&v, 10), (90.0, 90.0));
    let v: Vec<f64> = (1..=40).map(f64::from).collect();
    assert_eq!(tail(&v, 10), (75.0, 30.0));
    // Too few samples for any tail claim: the maximum, flagged as p0.
    assert_eq!(tail(&[5.0, 9.0, 7.0], 10), (0.0, 9.0));
}

#[test]
fn unstolen_wall_clock_subtracts_steal_and_never_goes_negative() {
    let round = |wall_s, steal_s| Sample {
        wall_s,
        cpu_s: 0.0,
        steal_s,
    };
    assert_eq!(round(0.5, 0.0).unstolen_s(), 0.5);
    assert_eq!(round(0.5, 0.125).unstolen_s(), 0.375);
    // The steal column ticks in 10 ms steps and may overshoot a short round.
    assert_eq!(round(0.004, 0.01).unstolen_s(), 0.0);
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    let mut tr = Tracer::new();
    let root = tr.record("round", 0, None, 0.0, 100.0, 0);
    // Two parallel clients overlap on [20, 40]; a serial phase follows.
    tr.record("client", 0, Some(root), 10.0, 40.0, 1);
    tr.record("client", 0, Some(root), 20.0, 60.0, 1);
    tr.record("fold", 0, Some(root), 70.0, 90.0, 5);
    // A grandchild must not be counted against the root.
    tr.record("inner", 0, Some(1), 12.0, 14.0, 0);
    // A child leaking past its parent is clipped.
    tr.record("late", 0, Some(root), 95.0, 120.0, 0);
    let spans = tr.spans();
    assert_eq!(covered_us(spans, root), 50.0 + 20.0 + 5.0);
    assert_eq!(self_time_us(spans, root), 25.0);
    assert!((coverage(spans, root) - 0.75).abs() < 1e-12);
    assert_eq!(self_time_us(spans, 1), 28.0);
}

#[test]
fn merge_intervals_unions_nested_and_touching_spans() {
    // A client span that nests two others (help-first pool), a touching
    // neighbour, a gap, and a degenerate interval.
    let merged = merge_intervals(vec![
        (30.0, 40.0),
        (0.0, 100.0),
        (10.0, 20.0),
        (100.0, 110.0),
        (150.0, 160.0),
        (170.0, 170.0),
    ]);
    assert_eq!(merged, vec![(0.0, 110.0), (150.0, 160.0)]);
    assert!(merge_intervals(Vec::new()).is_empty());
}

#[test]
fn per_round_sums_and_totals_group_by_name() {
    let mut tr = Tracer::new();
    tr.record("fl.fold", 0, None, 0.0, 1000.0, 10);
    tr.record("fl.fold", 0, None, 2000.0, 2500.0, 5);
    tr.record("fl.fold", 1, None, 5000.0, 7000.0, 20);
    tr.record("fl.eval", 1, None, 7000.0, 7100.0, 0);
    assert_eq!(per_round_ms(tr.spans(), "fl.fold"), vec![1.5, 2.0]);
    assert_eq!(totals(tr.spans(), "fl.fold"), (3500.0, 35));
    assert!(per_round_ms(tr.spans(), "absent").is_empty());
}

#[test]
fn manifest_matches_the_committed_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse BENCHMARK.json");
    assert_eq!(
        serde_json::to_string(&committed).unwrap(),
        serde_json::to_string(&benchmark_json()).unwrap(),
        "regenerate with `roundbench manifest > BENCHMARK.json`"
    );
}

#[test]
fn manifest_respects_the_contract_limits() {
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let mut names: Vec<&str> = Vec::new();
    for &(n, u, better, bound) in END_TO_END {
        assert!(name_ok(n) && unit_ok(u), "{n} {u}");
        assert!(better == "lower" || better == "higher");
        assert!(bound > 0.0 && bound <= 0.25, "{n} bound {bound}");
        names.push(n);
    }
    for &(n, u, better) in PER_LAYER {
        assert!(name_ok(n) && unit_ok(u), "{n} {u}");
        assert!(better == "lower" || better == "higher");
        names.push(n);
    }
    for w in roundbench::workloads::all() {
        assert!(name_ok(w.name));
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        names.push(w.name);
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert!(END_TO_END
        .iter()
        .any(|&(n, u, b, _)| (n, u, b) == ("setup_s", "s", "lower")));
}

/// Run the built binary in `--quick` mode and return its result object.
fn quick_run(workload: &str, trace: &str) -> Value {
    // Run from the repository root so the trace lands in benchmark/out.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = Command::new(env!("CARGO_BIN_EXE_roundbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--trace",
            trace,
            "--quick",
        ])
        .current_dir(root)
        .output()
        .expect("run roundbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_str(stdout.lines().last().expect("a result line")).expect("result JSON")
}

#[test]
fn quick_smoke_every_workload_in_both_modes() {
    for w in roundbench::workloads::all() {
        for (trace, expected) in [("0", END_TO_END.len()), ("1", PER_LAYER.len())] {
            let r = quick_run(w.name, trace);
            assert_eq!(r["correct"].as_bool(), Some(true), "{} {trace}", w.name);
            assert_eq!(r["failed"].as_u64(), Some(0));
            assert!(r["attempted"].as_u64().unwrap() >= 1);
            let Value::Map(metrics) = &r["metrics"] else {
                panic!("metrics is not an object");
            };
            assert_eq!(metrics.len(), expected, "{} trace={trace}", w.name);
            for (name, m) in metrics {
                assert!(m["value"].as_f64().is_some_and(f64::is_finite), "{name}");
                assert!(m["unit"].as_str().is_some(), "{name}");
            }
        }
    }
}
