//! `spatl-client` — one networked federated client node.
//!
//! Rebuilds the session deterministically from the same flags the server
//! was started with, takes the shard selected by `--id`, connects to the
//! coordinator (retrying with capped exponential backoff), and serves
//! training/evaluation assignments until the coordinator shuts the
//! session down.
//!
//! ```text
//! spatl-client --addr 127.0.0.1:7878 --id 0 --clients 4 --rounds 3 \
//!              --seed 7 --algorithm spatl
//! ```
//!
//! In a tiered session, `--fallback-addr <root>` names the root
//! coordinator: after `--fallback-after` consecutive failures to reach
//! the home edge at `--addr`, the client re-registers directly at the
//! root (rejected and bounced back while the edge is alive).

use spatl_bench::cli::{Args, NetOpts};
use spatl_net::{ClientNode, NetError, NodeConfig, Topology};

fn main() -> Result<(), NetError> {
    let mut flags: Vec<&str> = NetOpts::FLAGS.to_vec();
    flags.extend(["id", "fallback-addr", "fallback-after"]);
    let args = Args::parse(&flags);
    let opts = NetOpts::from_args(&args).unwrap_or_else(|msg| usage_error(msg));
    let id: usize = args.get_or("id", 0);
    if id >= opts.clients {
        usage_error(format!(
            "--id {id} out of range for --clients {}",
            opts.clients
        ));
    }
    let mut session = opts
        .build_session(Topology::Flat)
        .unwrap_or_else(|e| usage_error(e));
    let state = session.clients.swap_remove(id);
    let cfg = session.driver.cfg;

    eprintln!(
        "[client {id}] connecting to {} ({})",
        opts.addr,
        cfg.algorithm.name()
    );
    // In a tiered session `--addr` points at this client's home edge and
    // `--fallback-addr` at the root: when the edge dies the client
    // re-registers directly at the root and trains over the root link.
    let mut node_opts = NodeConfig::new(opts.addr.clone());
    node_opts.fallback_addr = args.get("fallback-addr").map(str::to_string);
    node_opts.fallback_after = args.get_or("fallback-after", node_opts.fallback_after);
    let node = ClientNode::new(cfg, state, node_opts);
    let (_, report) = node.run()?;
    eprintln!(
        "[client {id}] done: trained {} rounds, evaluated {}, reconnected {} times",
        report.rounds_trained, report.rounds_evaluated, report.reconnects
    );
    Ok(())
}

/// Print a configuration error and exit 2 — before anything is built.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}
