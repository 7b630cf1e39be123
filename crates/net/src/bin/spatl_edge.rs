//! `spatl-edge` — one edge aggregator of a 2-tier federated session.
//!
//! Derives the session's configuration from the same flags the root
//! server and the clients were started with (it builds no data and no
//! model: an edge only relays), binds a client-facing listener on
//! `--addr`, connects upstream to the root at `--root-addr`, and relays
//! its [`edge_partition`] slice's uploads in one combined upload per
//! round until the root shuts the session down (DESIGN.md §11).
//!
//! ```text
//! spatl-edge --root-addr 127.0.0.1:7878 --addr 127.0.0.1:7900 \
//!            --edges 2 --edge-id 0 --clients 4 --rounds 3 \
//!            --seed 7 --algorithm spatl
//! ```
//!
//! Clients whose ids fall in this edge's slice are started with
//! `spatl-client --addr 127.0.0.1:7900 ...` — they cannot tell an edge
//! from a root coordinator.
//!
//! [`edge_partition`]: spatl_fl::edge_partition

use spatl_bench::cli::{Args, NetOpts, RuntimeOpts, TierOpts};
use spatl_net::{EdgeAggregator, EdgeConfig, NetError, Topology};

fn main() -> Result<(), NetError> {
    let mut flags: Vec<&str> = NetOpts::FLAGS.to_vec();
    flags.extend(RuntimeOpts::FLAGS);
    flags.extend(TierOpts::EDGE_FLAGS);
    let args = Args::parse(&flags);
    let runtime = RuntimeOpts::from_args(&args);
    let tier = TierOpts::from_args(&args);
    let opts = NetOpts::from_args(&args).unwrap_or_else(|msg| usage_error(msg));
    if tier.edges > 0 && tier.edge_id >= tier.edges {
        let (id, edges) = (tier.edge_id, tier.edges);
        usage_error(format!("--edge-id {id} out of range for --edges {edges}"));
    }
    let cfg = opts
        .config(Topology::Tiered { edges: tier.edges })
        .unwrap_or_else(|e| usage_error(e));
    let root_addr = &tier.root_addr;
    let mut edge_opts = EdgeConfig::new(tier.edge_id, tier.edges, root_addr, opts.addr);
    edge_opts.join_timeout = runtime.join_timeout;
    edge_opts.round_timeout = runtime.round_timeout;
    edge_opts.io_timeout = runtime.io_timeout;
    let edge = EdgeAggregator::bind(cfg, edge_opts)?;
    let range = edge.client_range();
    eprintln!(
        "[edge {}] listening on {} for clients {}..{}, root at {} ({})",
        tier.edge_id,
        edge.local_addr()?,
        range.start,
        range.end,
        root_addr,
        opts.algorithm.name(),
    );
    let report = edge.run()?;
    eprintln!(
        "[edge {}] done: forwarded {} rounds, evaluated {}, reconnected {} times",
        tier.edge_id, report.rounds_forwarded, report.rounds_evaluated, report.reconnects
    );
    Ok(())
}

/// Print a configuration error and exit 2 — before anything is built.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}
