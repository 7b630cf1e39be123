//! Shared support for the experiment runner (`spatl-exp`) and the
//! Criterion benches that regenerate the SPATL paper's tables and figures.
//!
//! An experiment produces [`Section`]s — a title, the columns stated once,
//! and one JSON record per row. The runner renders every section through
//! [`Table`] and writes them as one [`Artefact`] under `results/`; the
//! summary renders the artefacts it finds through the same code, so what
//! an experiment outputs and how it is shown is decided here only.

use std::fmt;
use std::fs;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use spatl::prelude::{FaultRecord, RunResult};

pub mod cli;

/// Experiment scale selected via the `SPATL_EXP_SCALE` environment
/// variable: `quick` (CI-sized), `full` (default; minutes per experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized runs: fewest rounds/clients that still show the shape.
    Quick,
    /// Paper-shaped runs at reproduction scale.
    Full,
}

impl Scale {
    /// Read the scale from the environment.
    pub fn from_env() -> Result<Scale, String> {
        Scale::parse(std::env::var("SPATL_EXP_SCALE").ok().as_deref())
    }

    /// The scale a `SPATL_EXP_SCALE` value names: unset or `full` is
    /// [`Scale::Full`], `quick` is [`Scale::Quick`]; anything else is an
    /// error, so a misspelt `quick` cannot launch the long run.
    pub fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("full") => Ok(Scale::Full),
            Some("quick") => Ok(Scale::Quick),
            Some(other) => Err(format!(
                "SPATL_EXP_SCALE is '{other}' (expected unset, 'full' or 'quick')"
            )),
        }
    }

    /// The name [`Scale::parse`] accepts for this scale.
    pub fn name(&self) -> &'static str {
        self.pick("quick", "full")
    }

    /// Pick `quick` or `full` value.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Results directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("SPATL_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a JSON artefact for an experiment.
pub fn write_json(name: &str, value: &Value) {
    let path = results_dir().join(format!("{name}.json"));
    fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialise"),
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\n[results written to {}]", path.display());
}

/// How a [`Column`] turns a record's value into a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fmt {
    /// Strings as they are, numbers in their shortest form.
    Text,
    /// A fraction as a percentage with one decimal.
    Pct,
    /// A signed fraction as percentage points.
    Pp,
    /// Bytes as decimal megabytes.
    Mb,
    /// Bytes as binary mebibytes (bare number).
    Mib,
    /// Seconds with one decimal.
    Secs,
    /// A ratio as `1.23x`.
    Times,
    /// A bare number with three decimals.
    Fixed3,
    /// A bare number in scientific notation.
    Sci,
    /// A series of numbers, three decimals each.
    Series,
    /// A boolean as `yes` / `NO`.
    YesNo,
}

/// One table column: its header, the record key it shows and how.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Header text.
    pub header: String,
    /// Key of the record field the column shows.
    pub key: String,
    /// Cell format.
    pub fmt: Fmt,
}

/// Shorthand constructor for a [`Column`].
pub fn col(header: &str, key: &str, fmt: Fmt) -> Column {
    Column {
        header: header.to_string(),
        key: key.to_string(),
        fmt,
    }
}

impl Column {
    /// The cell this column shows for `record` — `-` when the record
    /// lacks the key (artefacts of an older checkout), the value is null
    /// (JSON's spelling of "not reached" and of non-finite floats) or it
    /// has the wrong type.
    pub fn cell(&self, record: &Value) -> String {
        let dash = || "-".to_string();
        let number = |v: &Value| v.as_f64().filter(|x| x.is_finite());
        let value = &record[self.key.as_str()];
        match (self.fmt, value) {
            (Fmt::Text, Value::Str(s)) => s.clone(),
            // A float that came from an `f32` prints the way the `f32` did.
            (Fmt::Text, Value::Float(x)) if f64::from(*x as f32) == *x => (*x as f32).to_string(),
            (Fmt::Text, Value::Null | Value::Seq(_) | Value::Map(_)) => dash(),
            (Fmt::Text, other) => other.to_string(),
            (Fmt::YesNo, Value::Bool(b)) => if *b { "yes" } else { "NO" }.to_string(),
            (Fmt::Series, Value::Seq(xs)) => xs
                .iter()
                .map(|x| number(x).map_or_else(dash, |x| format!("{x:.3}")))
                .collect::<Vec<_>>()
                .join(" "),
            (fmt, v) => number(v).map_or_else(dash, |x| match fmt {
                Fmt::Pct => pct(x as f32),
                Fmt::Pp => format!("{:+.1}pp", x as f32 * 100.0),
                Fmt::Mb => mb(x as u64),
                Fmt::Mib => format!("{:.2}", x / (1024.0 * 1024.0)),
                Fmt::Secs => format!("{x:.1}s"),
                Fmt::Times => format!("{x:.2}x"),
                Fmt::Fixed3 => format!("{x:.3}"),
                Fmt::Sci => format!("{x:.2e}"),
                Fmt::Text | Fmt::Series | Fmt::YesNo => dash(),
            }),
        }
    }
}

/// One table of an experiment: title, columns and one record per row.
/// Records may carry more keys than the columns show — the artefact keeps
/// them all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Section {
    /// Heading printed above the table.
    pub title: String,
    /// The columns, in display order.
    pub columns: Vec<Column>,
    /// One JSON object per row.
    pub rows: Vec<Value>,
}

impl Section {
    /// An empty section.
    pub fn new(title: impl Into<String>, columns: Vec<Column>) -> Section {
        Section {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    fn cells(&self, record: &Value) -> Vec<String> {
        self.columns.iter().map(|c| c.cell(record)).collect()
    }

    /// Append a row's record, echoing the row to stderr: at full scale a
    /// row takes minutes, and this is every experiment's progress report.
    pub fn push(&mut self, record: Value) {
        eprintln!("  {}", self.cells(&record).join(" | "));
        self.rows.push(record);
    }

    /// The section's rows laid out under its columns.
    pub fn table(&self) -> Table {
        let headers: Vec<&str> = self.columns.iter().map(|c| c.header.as_str()).collect();
        let mut table = Table::new(&headers);
        for record in &self.rows {
            table.row(self.cells(record));
        }
        table
    }
}

/// What one experiment run leaves under `results/`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Artefact {
    /// Registry name of the experiment.
    pub experiment: String,
    /// [`Scale::name`] of the run.
    pub scale: String,
    /// The experiment's tables.
    pub sections: Vec<Section>,
}

impl Artefact {
    /// Read `results/<name>.json`: `None` when the file does not exist,
    /// an error when it is not in the section schema.
    pub fn read(name: &str) -> Option<Result<Artefact, String>> {
        let path = results_dir().join(format!("{name}.json"));
        let text = fs::read_to_string(&path).ok()?;
        Some(serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display())))
    }
}

impl fmt::Display for Artefact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {} ({} scale)", self.experiment, self.scale)?;
        for section in &self.sections {
            write!(f, "\n## {}\n{}", section.title, section.table())?;
        }
        Ok(())
    }
}

/// The fields every federated run reports: accuracy, the Eq. 13 and
/// on-the-wire cost, and the fault ledger's totals. Experiments [`extend`]
/// it with their own keys.
pub fn run_record(result: &RunResult) -> Value {
    let ledger = |f: fn(&FaultRecord) -> usize| -> usize {
        result.history.iter().map(|r| f(&r.faults)).sum()
    };
    let rounds = |f: fn(&&spatl::fl::RoundRecord) -> bool| result.history.iter().filter(f).count();
    json!({
        "best_acc": result.best_acc(),
        "final_acc": result.final_acc(),
        "curve": result.history.iter().map(|r| r.mean_acc).collect::<Vec<_>>(),
        "total_bytes": result.total_bytes(),
        "framed_bytes": result.total_framed_bytes(),
        "transfer_s": result.total_transfer_s(),
        "bytes_per_round_per_client": result.bytes_per_round_per_client,
        "diverged_rounds": rounds(|r| r.diverged_clients > 0),
        "sampled": ledger(|f| f.sampled),
        "dropped": ledger(|f| f.dropouts),
        "survived": ledger(|f| f.survivors),
        "no_op_rounds": rounds(|r| r.faults.no_op),
        "quarantined": ledger(|f| f.quarantined),
    })
}

/// `record` with the entries of `more` appended (both JSON objects with
/// distinct keys).
pub fn extend(record: Value, more: Value) -> Value {
    let (Value::Map(mut entries), Value::Map(more)) = (record, more) else {
        panic!("extend: both records must be JSON objects");
    };
    entries.extend(more);
    Value::Map(entries)
}

/// Minimal fixed-width table printer for paper-style rows.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }
}

/// Aligned columns, one line per row.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            format!("| {} |", joined.join(" | "))
        };
        writeln!(f, "{}", line(&self.headers))?;
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            writeln!(f, "{}", line(row))?;
        }
        Ok(())
    }
}

/// Format bytes as MB with two decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2} MB", bytes as f64 / 1e6)
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(x: f32) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks_values() {
        assert_eq!(Scale::Quick.pick(1, 10), 1);
        assert_eq!(Scale::Full.pick(1, 10), 10);
    }

    #[test]
    fn scale_accepts_only_its_two_names() {
        assert_eq!(Scale::parse(None), Ok(Scale::Full));
        for scale in [Scale::Quick, Scale::Full] {
            assert_eq!(Scale::parse(Some(scale.name())), Ok(scale));
        }
        for typo in ["Quick", "qiuck", "", "FULL"] {
            let err = Scale::parse(Some(typo)).unwrap_err();
            assert!(err.contains("'quick'") && err.contains("'full'"), "{err}");
        }
    }

    #[test]
    fn table_rejects_bad_arity() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(vec!["1".into()]);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mb(2_100_000), "2.10 MB");
        assert_eq!(pct(0.425), "42.5%");
    }

    fn sample_section() -> Section {
        let mut section = Section::new(
            "sample",
            vec![
                col("name", "name", Fmt::Text),
                col("ratio", "ratio", Fmt::Text),
                col("acc", "acc", Fmt::Pct),
                col("Δ", "delta", Fmt::Pp),
                col("bytes", "bytes", Fmt::Mb),
                col("rounds", "rounds", Fmt::Text),
                col("exact", "exact", Fmt::YesNo),
                col("curve", "curve", Fmt::Series),
                col("eps", "eps", Fmt::Sci),
            ],
        );
        section.push(json!({
            "name": "SPATL",
            "ratio": 0.4f32,
            "acc": 0.425f32,
            "delta": -0.031f32,
            "bytes": 2_100_000u64,
            "rounds": Some(3usize),
            "exact": true,
            "curve": [0.1f32, 0.25, f32::NAN],
            "eps": 9.54e-1f32,
            "not_shown": "kept in the artefact",
        }));
        section.push(json!({ "name": "FedAvg", "rounds": None::<usize>, "acc": f32::NAN }));
        section
    }

    #[test]
    fn cells_follow_their_format_and_dash_what_is_absent() {
        let table = sample_section().table().to_string();
        let rows: Vec<Vec<&str>> = table
            .lines()
            .skip(2)
            .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
            .collect();
        assert_eq!(
            rows[0],
            [
                "SPATL",
                "0.4",
                "42.5%",
                "-3.1pp",
                "2.10 MB",
                "3",
                "yes",
                "0.100 0.250 -",
                "9.54e-1"
            ]
        );
        // Missing keys, nulls and non-finite numbers all render `-`.
        assert_eq!(rows[1], ["FedAvg", "-", "-", "-", "-", "-", "-", "-", "-"]);
    }

    #[test]
    fn artefact_read_back_renders_the_same_tables() {
        let fresh = Artefact {
            experiment: "sample".to_string(),
            scale: Scale::Quick.name().to_string(),
            sections: vec![sample_section()],
        };
        let text = serde_json::to_string_pretty(&json!(fresh)).expect("serialise");
        let back: Artefact = serde_json::from_str(&text).expect("parse");
        assert_eq!(back.to_string(), fresh.to_string());
        assert_eq!(back.sections[0].columns, fresh.sections[0].columns);
        assert_eq!(
            back.sections[0].rows[0]["not_shown"],
            "kept in the artefact"
        );

        // An artefact of an older checkout (a bare array of records) is
        // an error to report, not a panic.
        assert!(serde_json::from_str::<Artefact>("[{\"algorithm\": \"SPATL\"}]").is_err());
    }

    #[test]
    fn extend_appends_the_keys_columns_then_find() {
        let record = extend(
            json!({ "algorithm": "SPATL" }),
            json!({ "best_acc": 0.5f32 }),
        );
        assert_eq!(record["algorithm"], "SPATL");
        assert_eq!(col("best", "best_acc", Fmt::Pct).cell(&record), "50.0%");
    }
}
