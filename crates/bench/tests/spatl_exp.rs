//! End-to-end smoke of the `spatl-exp` runner: run one experiment at quick
//! scale into a scratch results directory, then render it back with
//! `summary`. The churn body asserts bit-identical replay of its runs, so
//! this is also the cheapest determinism check of the experiment bodies.

use std::process::Command;

fn spatl_exp(results: &std::path::Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spatl-exp"));
    cmd.env("SPATL_RESULTS_DIR", results)
        .env("SPATL_EXP_SCALE", "quick");
    cmd
}

#[test]
fn churn_runs_and_summary_renders_its_sections() {
    let results = std::env::temp_dir().join(format!("spatl-exp-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&results);

    let run = spatl_exp(&results).arg("churn").output().expect("spawn");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(results.join("churn.json").is_file());

    let summary = spatl_exp(&results).arg("summary").output().expect("spawn");
    assert!(summary.status.success());
    let rendered = String::from_utf8_lossy(&summary.stdout);
    for needle in ["# churn (quick scale)", "cross-device", "population sweep"] {
        assert!(rendered.contains(needle), "no '{needle}' in:\n{rendered}");
    }
    // What the run printed is what `summary` renders from the artefact.
    let printed = stdout
        .split("\n[results written")
        .next()
        .expect("split yields one item");
    assert!(printed.contains("## churn-realistic cohorts"), "{printed}");
    assert!(rendered.contains(printed.trim()), "{rendered}");

    let typo = spatl_exp(&results)
        .env("SPATL_EXP_SCALE", "Quick")
        .arg("churn")
        .output()
        .expect("spawn");
    assert_eq!(typo.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&typo.stderr).contains("SPATL_EXP_SCALE"));

    std::fs::remove_dir_all(&results).expect("clean up");
}
