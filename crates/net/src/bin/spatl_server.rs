//! `spatl-server` — the networked federated coordinator.
//!
//! Binds a TCP listener, waits for the configured cohort of
//! `spatl-client` processes to register, runs the federated rounds over
//! the wire, then shuts the cohort down. Per-round records are printed
//! as they complete and written as a JSON artefact under `results/`.
//!
//! ```text
//! spatl-server --addr 127.0.0.1:7878 --clients 4 --rounds 3 \
//!              --seed 7 --algorithm spatl
//! ```
//!
//! Both endpoints must be started with the same session flags
//! (`--clients`, `--rounds`, `--seed`, `--algorithm`, `--samples`,
//! `--local-epochs`, `--batch`): the control-plane fingerprint rejects a
//! client whose configuration differs. A session that cannot run
//! (`FlConfig::check`, a `--quorum` outside (0, 1] or beside `--edges`,
//! `--decode-workers 0`) is one `error:` line and exit status 2, before
//! any data is synthesised or any socket bound.
//!
//! `--wal PATH` keeps a durable round log. Restarting the server with
//! the same flags and the same `--wal` resumes the session where the
//! log ends — after the last committed round, or inside the round it
//! was killed in. The artefact's `rounds` then counts the whole session,
//! `resumed_at` names the round this process started at (0 when it did
//! not resume), and the summed fields (`framed_bytes`, `sampled`,
//! `survivors`, …) cover rounds `resumed_at..rounds`.

use spatl_bench::cli::{Args, NetOpts, RuntimeOpts, TierOpts};
use spatl_net::{Coordinator, CoordinatorConfig, NetError};

fn main() -> Result<(), NetError> {
    let mut flags: Vec<&str> = NetOpts::FLAGS.to_vec();
    flags.extend(RuntimeOpts::FLAGS);
    flags.extend(["quorum", "out", "decode-workers"]);
    flags.extend(TierOpts::ROOT_FLAGS);
    let args = Args::parse(&flags);
    let runtime = RuntimeOpts::from_args(&args);
    let tier = TierOpts::from_args(&args);
    let opts = NetOpts::from_args(&args).unwrap_or_else(|msg| usage_error(msg));
    let quorum: f64 = args.get_or("quorum", 1.0);
    if !(quorum > 0.0 && quorum <= 1.0) {
        usage_error(format!("--quorum must be in (0, 1], got {quorum}"));
    }
    if tier.edges > 0 && args.get("quorum").is_some() {
        usage_error("--quorum has no effect with --edges: a tiered root awaits every edge");
    }
    let decode_workers: Option<usize> = args
        .get("decode-workers")
        .map(|_| args.get_or("decode-workers", 0));
    if decode_workers == Some(0) {
        usage_error("--decode-workers must be at least 1");
    }
    let session = opts
        .build_session(tier.topology())
        .unwrap_or_else(|e| usage_error(e));

    let coordinator_opts = CoordinatorConfig {
        addr: opts.addr.clone(),
        join_timeout: runtime.join_timeout,
        round_timeout: runtime.round_timeout,
        io_timeout: runtime.io_timeout,
        quorum,
        topology: tier.topology(),
        wal: tier.wal.as_ref().map(std::path::PathBuf::from),
        decode_workers,
    };
    let mut coordinator = Coordinator::bind(session.driver, coordinator_opts)?;
    eprintln!(
        "[server] listening on {} for {} clients ({} rounds, {}{})",
        coordinator.local_addr()?,
        opts.clients,
        opts.rounds,
        opts.algorithm.name(),
        if tier.edges > 0 {
            format!(", {} edges", tier.edges)
        } else {
            String::new()
        },
    );
    // A coordinator resumed from its round log starts past round 0; the
    // history (and so the artefact's sums) covers only the rounds run here.
    let resumed_at = coordinator.driver.round_index();
    if let Some(round) = coordinator.resumed_mid_round() {
        eprintln!("[server] round log recovery: replaying interrupted round {round}");
    }

    let joined = coordinator.wait_for_clients();
    if tier.edges > 0 {
        eprintln!("[server] {joined}/{} edges registered", tier.edges);
    } else {
        eprintln!("[server] {joined}/{} clients registered", opts.clients);
    }
    while coordinator.driver.round_index() < coordinator.driver.cfg.rounds
        && !coordinator.shutdown_requested()
    {
        let r = coordinator.run_round();
        eprintln!(
            "[server] round {:>3}  acc {:.3}  wire {:>10} B  predicted {:.3}s  measured {:.3}s  \
             survivors {}/{}",
            r.round,
            r.mean_acc,
            r.wire.total_framed(),
            r.transfer_wall_s,
            r.measured_wall_s,
            r.faults.survivors,
            r.faults.sampled,
        );
    }
    let completed = !coordinator.shutdown_requested();
    coordinator.finish()?;

    let history = &coordinator.driver.history;
    let artefact = serde_json::json!({
        "algorithm": coordinator.driver.cfg.algorithm.name(),
        "clients": coordinator.driver.cfg.n_clients,
        "seed": coordinator.driver.cfg.seed,
        "completed": completed,
        "rounds": coordinator.driver.round_index(),
        "resumed_at": resumed_at,
        "final_acc": history.last().map(|r| f64::from(r.mean_acc)).unwrap_or(0.0),
        "measured_wall_s": history.iter().map(|r| r.measured_wall_s).sum::<f64>(),
        "predicted_wall_s": history.iter().map(|r| r.transfer_wall_s).sum::<f64>(),
        "framed_bytes": history.iter().map(|r| r.wire.total_framed()).sum::<u64>(),
        "sampled": history.iter().map(|r| r.faults.sampled).sum::<usize>(),
        "survivors": history.iter().map(|r| r.faults.survivors).sum::<usize>(),
        "duplicates": history.iter().map(|r| r.faults.duplicates).sum::<usize>(),
    });
    spatl_bench::write_json(args.get("out").unwrap_or("net_loopback"), &artefact);
    eprintln!(
        "[server] {} after {} rounds",
        if completed { "completed" } else { "shut down" },
        coordinator.driver.round_index()
    );
    Ok(())
}

/// Print a configuration error and exit 2 — before anything is built.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}
