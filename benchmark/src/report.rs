//! What a run hands back, and how it is printed.

use crate::trace::Span;
use serde_json::{json, Value};

/// One output check: what was verified and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    /// What the check asserts.
    pub what: String,
    /// Whether it held.
    pub ok: bool,
}

impl Check {
    /// Record a check result.
    pub fn new(what: impl Into<String>, ok: bool) -> Self {
        Check {
            what: what.into(),
            ok,
        }
    }
}

/// Named measurements in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, &'static str, f64)>);

impl Metrics {
    /// Append `name = value unit`.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push((name, unit, value));
    }

    /// Report 0 for every per-layer metric of the manifest not pushed so
    /// far: the layer does no work on this workload (no socket on
    /// `sim_*`, no model on `net_*`), which is what a zero says.
    pub fn zero_the_rest(&mut self) {
        for &(name, unit, _) in crate::manifest::PER_LAYER {
            if !self.0.iter().any(|&(n, _, _)| n == name) {
                self.push(name, unit, 0.0);
            }
        }
    }

    /// `(name, unit, value)` triples in report order.
    pub fn entries(&self) -> &[(&'static str, &'static str, f64)] {
        &self.0
    }
}

/// Uploads of one round that were not folded: every sampled upload of a
/// no-op round, otherwise the sampled clients that did not survive.
pub fn failed_uploads(sampled: u64, survivors: u64, no_op: bool) -> u64 {
    if no_op {
        sampled
    } else {
        sampled - survivors.min(sampled)
    }
}

/// Everything one benchmark run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// Output checks performed.
    pub checks: Vec<Check>,
    /// Client uploads sampled over the measured rounds.
    pub attempted: u64,
    /// Uploads that were not folded (every upload of a no-op round too).
    pub failed: u64,
    /// The metrics of the requested mode.
    pub metrics: Metrics,
    /// Workload parameters and raw per-round timings.
    pub workload: Value,
}

impl RunOutput {
    /// Bundle a run's results.
    pub fn new(
        checks: Vec<Check>,
        attempted: u64,
        failed: u64,
        metrics: Metrics,
        workload: Value,
    ) -> Self {
        RunOutput {
            checks,
            attempted,
            failed,
            metrics,
            workload,
        }
    }

    /// A run is correct when every check held and no upload failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The one-line result object the acceptance driver parses: exactly
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .entries()
            .iter()
            .map(|&(name, unit, value)| (name.to_string(), json!({"value": value, "unit": unit})))
            .collect();
        let obj = json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Map(metrics)
        });
        serde_json::to_string(&obj).expect("serialise result")
    }
}

/// Write the span list of a traced run; the directory is created on
/// demand. A trace that cannot be written is reported, not fatal — the
/// metrics were already computed from the in-memory spans.
pub fn write_trace(path: &str, spans: &[Span]) {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let body = serde_json::to_string(&json!({ "schema": 1, "spans": spans }))
            .expect("serialise trace");
        std::fs::write(path, body)
    };
    if let Err(e) = write() {
        eprintln!("roundbench: could not write trace {path}: {e}");
    }
}
