//! A networked session that cannot run is a usage error, not a crash:
//! every flag combination below makes `spatl-server`, `spatl-edge` or
//! `spatl-client` print exactly one `error:` line and exit 2, without a
//! panic — decided by `FlConfig::check`, the flag parser or the server's
//! own range checks before any data is synthesised or any socket bound,
//! so each returns at once.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `bin args…`, killing it if it outlives `limit`; returns the exit
/// code, stderr and wall-clock.
fn run(bin: &str, args: &[&str], limit: Duration) -> (Option<i32>, String, Duration) {
    let started = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            break status;
        }
        if started.elapsed() > limit {
            child.kill().expect("kill runaway child");
            break child.wait().expect("reap child");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let elapsed = started.elapsed();
    let mut stderr = String::new();
    let pipe = child.stderr.as_mut().expect("piped stderr");
    pipe.read_to_string(&mut stderr).expect("read stderr");
    (status.code(), stderr, elapsed)
}

fn refused(bin: &str, args: &[&str], says: &str) {
    let (code, stderr, elapsed) = run(bin, args, Duration::from_secs(10));
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(code, Some(2), "{args:?} exited {code:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert_eq!(errors.len(), 1, "{args:?} wants one error line: {stderr}");
    assert!(errors[0].contains(says), "{args:?}: {stderr}");
    assert!(
        elapsed < Duration::from_secs(1),
        "{args:?} took {elapsed:?}: it must fail before building anything"
    );
}

const SERVER: &str = env!("CARGO_BIN_EXE_spatl-server");
const EDGE: &str = env!("CARGO_BIN_EXE_spatl-edge");
const CLIENT: &str = env!("CARGO_BIN_EXE_spatl-client");

#[test]
fn server_refuses_sessions_that_cannot_run() {
    for (args, says) in [
        (
            &["--privacy", "fixed", "--algorithm", "scaffold"][..],
            "fixed-point DP sums carry a single dense delta lane",
        ),
        (&["--clients", "0"], "need at least one client"),
        (&["--chaos-reset", "1.5"], "reset must be a probability"),
        (
            &["--privacy", "masked", "--privacy-frac-bits", "0"],
            "privacy frac_bits must be in 1..=30",
        ),
        (
            &["--churn", "custom", "--churn-period", "0"],
            "period must be at least 1, got 0",
        ),
        (
            &["--edges", "5", "--clients", "4"],
            "cannot spread 4 clients over 5 edges",
        ),
        (
            &["--privacy", "masked", "--edges", "2"],
            "pairwise masking cannot compose through edge aggregation",
        ),
        (
            &[
                "--chaos-seed",
                "3",
                "--chaos-stall-ms",
                "5",
                "--churn-duty",
                "0.1",
                "--privacy-noise",
                "0.5",
            ],
            "flag --chaos-stall-ms has no effect without --chaos-stall",
        ),
        (&["--quorum", "0"], "--quorum must be in (0, 1], got 0"),
        (&["--quorum", "1.5"], "--quorum must be in (0, 1], got 1.5"),
        (
            &["--edges", "2", "--quorum", "0.5"],
            "--quorum has no effect with --edges",
        ),
        (
            &["--decode-workers", "0"],
            "--decode-workers must be at least 1",
        ),
        // Resuming is `--wal`'s job; an edge's own flags are not the root's.
        (&["--checkpoint", "ckpt.json"], "unknown flag --checkpoint"),
        (&["--resume-rounds", "2"], "unknown flag --resume-rounds"),
        (&["--edge-id", "1"], "unknown flag --edge-id"),
        (&["--root-addr", "127.0.0.1:1"], "unknown flag --root-addr"),
    ] {
        let mut argv = vec!["--addr", "127.0.0.1:0", "--join-timeout", "1"];
        argv.extend(args);
        refused(SERVER, &argv, says);
    }
}

#[test]
fn edge_refuses_sessions_that_cannot_run() {
    let edge = ["--addr", "127.0.0.1:0", "--root-addr", "127.0.0.1:1"];
    refused(
        EDGE,
        &[&edge[..], &["--edges", "0"]].concat(),
        "edges must be at least 1",
    );
    refused(
        EDGE,
        &[&edge[..], &["--edges", "3", "--clients", "2"]].concat(),
        "cannot spread 2 clients over 3 edges",
    );
    refused(
        EDGE,
        &[&edge[..], &["--edges", "2", "--edge-id", "2"]].concat(),
        "--edge-id 2 out of range for --edges 2",
    );
    // The round log and the quorum are the root's; an edge has neither.
    refused(
        EDGE,
        &[&edge[..], &["--edges", "2", "--wal", "edge.wal"]].concat(),
        "unknown flag --wal",
    );
    refused(
        EDGE,
        &[&edge[..], &["--edges", "2", "--quorum", "0.5"]].concat(),
        "unknown flag --quorum",
    );
}

#[test]
fn client_refuses_sessions_that_cannot_run() {
    refused(
        CLIENT,
        &["--addr", "127.0.0.1:1", "--id", "9", "--clients", "4"],
        "--id 9 out of range for --clients 4",
    );
    refused(
        CLIENT,
        &["--addr", "127.0.0.1:1", "--churn-flake", "0.5"],
        "flag --churn-flake has no effect without --churn",
    );
}
