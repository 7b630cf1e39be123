//! Smoke tests for the `spatl-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spatl-cli"))
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = cli().output().expect("spawn cli");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn unknown_command_is_rejected() {
    let out = cli().arg("frobnicate").output().expect("spawn cli");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn bad_flag_value_is_rejected() {
    let out = cli()
        .args(["run", "--clients", "banana"])
        .output()
        .expect("spawn cli");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid value"));
}

#[test]
fn unknown_flag_is_rejected() {
    // `--round` (for `--rounds`) must not silently run the default.
    let out = cli()
        .args(["run", "--round", "5"])
        .output()
        .expect("spawn cli");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --round"), "stderr: {err}");
}

#[test]
fn session_that_cannot_run_is_a_usage_error() {
    for (args, says) in [
        (["run", "--clients", "0"], "need at least one client"),
        (["run", "--beta", "0"], "beta must be positive"),
    ] {
        let started = std::time::Instant::now();
        let out = cli().args(args).output().expect("spawn cli");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        let errors: Vec<&str> = err.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{args:?}: {err}");
        assert!(errors[0].contains(says), "{args:?}: {err}");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "{args:?} must fail before synthesising anything"
        );
    }
}

#[test]
fn tiny_run_completes_and_writes_results() {
    let dir = std::env::temp_dir().join("spatl-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("run.json");
    let out = cli()
        .args([
            "run",
            "--algorithm",
            "fedavg",
            "--clients",
            "2",
            "--rounds",
            "1",
            "--samples-per-client",
            "16",
            "--local-epochs",
            "1",
            "--out",
            out_file.to_str().unwrap(),
        ])
        .output()
        .expect("spawn cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("round   1"), "stdout: {stdout}");
    let loaded = spatl::load_result(&out_file).expect("read results back");
    assert_eq!(loaded.history.len(), 1);
    assert_eq!(loaded.algorithm, "FedAvg");
}

#[test]
fn prune_without_agent_uses_uniform_budget() {
    let out = cli()
        .args(["prune", "--model", "resnet20", "--budget", "0.6"])
        .output()
        .expect("spawn cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("FLOPs"), "stdout: {stdout}");
}
