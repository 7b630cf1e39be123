//! `roundbench`: run one workload of the round benchmark.
//!
//! ```text
//! roundbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! roundbench manifest        # print BENCHMARK.json
//! roundbench list            # print the workload names
//! ```
//!
//! `--trace 0` (default) is the end-to-end run, tracing off; `--trace 1`
//! is the separate traced run that reports the per-layer metrics. Every
//! metric is printed by name with its unit, then provenance, and the last
//! line of standard output is the result object. Exit code 0 means every
//! output check held and no upload failed.

use roundbench::manifest::{benchmark_json, END_TO_END, PER_LAYER, RUN_SECONDS};
use roundbench::report::RunOutput;
use roundbench::workloads::{self, Kind, DEFAULT_SEED, PINNED_THREADS};
use roundbench::{net, sim, sys};
use serde_json::json;
use std::process::ExitCode;

fn arg_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
    eprintln!("roundbench: {problem}");
    eprintln!(
        "usage: roundbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            println!(
                "{}",
                serde_json::to_string_pretty(&benchmark_json()).expect("serialise manifest")
            );
            return ExitCode::SUCCESS;
        }
        Some("list") => {
            for w in workloads::all() {
                println!("{}", w.name);
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }

    // Pinned before the first parallel call latches the pool size; child
    // processes inherit it.
    std::env::set_var("SPATL_THREADS", PINNED_THREADS);

    let Some(name) = arg_value(&args, "--workload") else {
        return usage("missing --workload");
    };
    let Some(workload) = workloads::find(name) else {
        return usage(&format!("unknown workload {name:?}"));
    };
    let Ok(seed) = arg_value(&args, "--seed").map_or(Ok(DEFAULT_SEED), str::parse::<u64>) else {
        return usage("--seed takes a non-negative whole number");
    };
    let seconds = arg_value(&args, "--seconds").map_or(Ok(RUN_SECONDS as f64), str::parse);
    let Some(seconds) = seconds.ok().filter(|s: &f64| s.is_finite() && *s >= 0.0) else {
        return usage("--seconds takes a non-negative number");
    };
    let trace = match arg_value(&args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage("--trace takes 0 or 1"),
    };
    let quick = args.iter().any(|a| a == "--quick");
    let seconds = if quick { 0.0 } else { seconds };

    if args.first().map(String::as_str) == Some("coordinator-child") {
        let Kind::Net(spec) = workload.kind else {
            return usage("coordinator-child needs a net workload");
        };
        net::coordinator_child(&if quick { spec.quick() } else { spec }, seed);
        return ExitCode::SUCCESS;
    }

    // Read before `net_*` pins itself to one core.
    let nproc = sys::nproc();
    let trace_path = format!("benchmark/out/{name}.trace.json");
    let out = match workload.kind {
        Kind::Sim(spec) => {
            let spec = if quick { spec.quick() } else { spec };
            if trace {
                sim::run_traced(&spec, seed, seconds, &trace_path)
            } else {
                sim::run_end_to_end(&spec, seed, seconds)
            }
        }
        Kind::Net(spec) => {
            let spec = if quick { spec.quick() } else { spec };
            net::run(name, &spec, seed, seconds, trace, quick, &trace_path)
        }
    };
    report(name, seed, seconds, trace, quick, nproc, &out)
}

/// Print the run: failed checks, every metric by name with its unit,
/// provenance, and the result object as the last line.
fn report(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    nproc: usize,
    out: &RunOutput,
) -> ExitCode {
    // The printed set must be exactly the manifest's, in either mode.
    let mut wanted: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
    };
    let mut printed: Vec<(&str, &str)> = out
        .metrics
        .entries()
        .iter()
        .map(|&(n, u, _)| (n, u))
        .collect();
    printed.sort_unstable();
    wanted.sort_unstable();
    assert_eq!(
        printed, wanted,
        "run reported a different metric set than the manifest"
    );

    let held = out.checks.iter().filter(|c| c.ok).count();
    println!(
        "# {name} seed={seed} trace={} checks {held}/{} ops {}/{} failed",
        u8::from(trace),
        out.checks.len(),
        out.failed,
        out.attempted
    );
    for c in out.checks.iter().filter(|c| !c.ok) {
        println!("CHECK FAILED: {}", c.what);
    }
    for &(metric, unit, value) in out.metrics.entries() {
        println!("{metric:<40} {value:>16.6} {unit}");
    }
    let provenance = json!({
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "git_revision": sys::git_revision(),
        "nproc": nproc,
        "spatl_threads": PINNED_THREADS,
        "kernel": spatl::tensor::active_kernel(),
        "ops_attempted": out.attempted,
        "ops_failed": out.failed,
        "parameters": out.workload
    });
    println!(
        "provenance {}",
        serde_json::to_string(&provenance).expect("serialise provenance")
    );
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
