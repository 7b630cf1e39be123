//! `spatl-exp` — the one experiment runner: every table, figure and
//! robustness sweep of the reproduction is a row of [`REGISTRY`].
//!
//! ```text
//! spatl-exp list                    # the experiment names
//! spatl-exp table1 churn            # run experiments, in the order given
//! spatl-exp all                     # run every experiment
//! spatl-exp summary                 # re-render the artefacts under results/
//! ```
//!
//! An experiment body returns its [`Section`]s; the runner prints them and
//! writes `results/<artefact>.json`. `SPATL_EXP_SCALE=quick|full` picks
//! the scale (default `full`), `SPATL_RESULTS_DIR` the output directory.

use std::process::ExitCode;

use serde_json::json;
use spatl_bench::{write_json, Artefact, Scale, Section};

mod ablation_budget;
mod ablations;
mod adversary;
mod churn;
mod faults;
mod femnist;
mod learning_curves;
mod local_acc;
mod privacy;
mod rl_finetune;
mod rounds_to_target;
mod scaling;
mod table1;
mod table2;
mod table3_transfer;
mod table4_pruning;
mod table_inference;

/// One reproducible experiment.
struct Experiment {
    /// Name on the command line.
    name: &'static str,
    /// File stem of its artefact under `results/`.
    artefact: &'static str,
    /// What it reproduces.
    about: &'static str,
    /// The experiment itself: seeds and settings are fixed in the body.
    run: fn(Scale) -> Vec<Section>,
}

#[rustfmt::skip]
static REGISTRY: [Experiment; 17] = [
    Experiment { name: "table1", artefact: "table1_comm_cost", about: "Table I — communication cost to a target accuracy", run: table1::run },
    Experiment { name: "table2", artefact: "table2_convergence", about: "Table II — convergence at larger client scales", run: table2::run },
    Experiment { name: "table3_transfer", artefact: "table3_transfer", about: "Table III — transferability of the learned encoder", run: table3_transfer::run },
    Experiment { name: "table4_pruning", artefact: "table4_pruning", about: "Table IV — RL agent vs SFP / FPGM / DSA pruning", run: table4_pruning::run },
    Experiment { name: "table_inference", artefact: "table_inference", about: "§V-D — inference acceleration of deployed clients", run: table_inference::run },
    Experiment { name: "learning_curves", artefact: "fig_learning_curves", about: "Fig. 3 — accuracy per round across settings", run: learning_curves::run },
    Experiment { name: "local_acc", artefact: "fig_local_acc", about: "per-client accuracy after training", run: local_acc::run },
    Experiment { name: "rounds_to_target", artefact: "fig_rounds_to_target", about: "rounds to a target accuracy across settings", run: rounds_to_target::run },
    Experiment { name: "ablations", artefact: "fig_ablations", about: "Figs. 4–5 — selection / transfer / gradient-control ablations", run: ablations::run },
    Experiment { name: "ablation_budget", artefact: "fig_ablation_budget", about: "sensitivity to the FLOPs budget", run: ablation_budget::run },
    Experiment { name: "rl_finetune", artefact: "fig_rl_finetune", about: "Fig. 6 — agent pre-training and cross-architecture fine-tuning", run: rl_finetune::run },
    Experiment { name: "femnist", artefact: "fig_femnist", about: "the FEMNIST / 2-layer-CNN setting", run: femnist::run },
    Experiment { name: "scaling", artefact: "scaling", about: "cost as the client population grows", run: scaling::run },
    Experiment { name: "faults", artefact: "faults_dropout_sweep", about: "accuracy under client dropout", run: faults::run },
    Experiment { name: "adversary", artefact: "adversary_sweep", about: "accuracy under Byzantine clients", run: adversary::run },
    Experiment { name: "privacy", artefact: "privacy_sweep", about: "server-blind aggregation: exactness, cost, attack survival", run: privacy::run },
    Experiment { name: "churn", artefact: "churn", about: "trace-driven client availability", run: churn::run },
];

const USAGE: &str = "usage: spatl-exp <name>… | all | list | summary   (see `spatl-exp list`)";

fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The `list` output: one line per experiment.
fn list() -> String {
    REGISTRY
        .iter()
        .map(|e| format!("{:<18} {}\n", e.name, e.about))
        .collect()
}

/// Run one experiment, print its sections and write its artefact.
fn run(exp: &Experiment, scale: Scale) {
    eprintln!("[{}: {}, {} scale]", exp.name, exp.about, scale.name());
    let artefact = Artefact {
        experiment: exp.name.to_string(),
        scale: scale.name().to_string(),
        sections: (exp.run)(scale),
    };
    print!("\n{artefact}");
    write_json(exp.artefact, &json!(artefact));
}

/// Render every artefact found under the results directory, in registry
/// order — the measured side of EXPERIMENTS.md.
fn summary() {
    println!("# SPATL reproduction — measured summary");
    for exp in &REGISTRY {
        match Artefact::read(exp.artefact) {
            None => {}
            Some(Ok(artefact)) => print!("\n{artefact}"),
            Some(Err(e)) => eprintln!("skipped (not in the section schema): {e}"),
        }
    }
}

/// `all`, `list` and `summary`, or the name of an experiment.
fn resolves(word: &str) -> bool {
    matches!(word, "all" | "list" | "summary") || find(word).is_some()
}

fn dispatch(words: &[String]) -> Result<(), String> {
    if words.is_empty() {
        return Err("nothing to run".to_string());
    }
    // Resolve every word first: a typo in the last one must not cost the
    // minutes the experiments before it take.
    if let Some(word) = words.iter().find(|w| !resolves(w)) {
        return Err(format!("unknown experiment '{word}'"));
    }
    let scale = Scale::from_env()?;
    for word in words {
        match word.as_str() {
            "list" => print!("{}", list()),
            "summary" => summary(),
            "all" => REGISTRY.iter().for_each(|e| run(e, scale)),
            name => run(find(name).expect("resolved above"), scale),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let words: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&words) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_and_artefacts_are_unique() {
        let names: HashSet<&str> = REGISTRY.iter().map(|e| e.name).collect();
        let artefacts: HashSet<&str> = REGISTRY.iter().map(|e| e.artefact).collect();
        assert_eq!(names.len(), REGISTRY.len());
        assert_eq!(artefacts.len(), REGISTRY.len());
    }

    #[test]
    fn list_prints_every_experiment() {
        let expected = [
            "table1",
            "table2",
            "table3_transfer",
            "table4_pruning",
            "table_inference",
            "learning_curves",
            "local_acc",
            "rounds_to_target",
            "ablations",
            "ablation_budget",
            "rl_finetune",
            "femnist",
            "scaling",
            "faults",
            "adversary",
            "privacy",
            "churn",
        ];
        let listed: Vec<String> = list()
            .lines()
            .map(|l| l.split_whitespace().next().expect("a name").to_string())
            .collect();
        assert_eq!(listed, expected);
    }

    /// Every `spatl-exp …` command line the README shows must resolve.
    #[test]
    fn readme_commands_resolve() {
        let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let text = std::fs::read_to_string(readme).expect("read README.md");
        let mut seen = 0;
        for line in text.lines() {
            let Some((_, rest)) = line.split_once("/spatl-exp ") else {
                continue;
            };
            let command = rest.split('#').next().expect("split yields one item");
            for word in command.split_whitespace() {
                assert!(resolves(word), "README names unknown experiment '{word}'");
                seen += 1;
            }
        }
        assert!(seen >= 4, "README reproduce block not found ({seen} words)");
    }
}
