//! Command-line surface the experiment runner and the networked-runtime
//! binaries (`spatl-server` / `spatl-client` / `spatl-edge`) share: the
//! canonical algorithm rosters — one list per ordering convention — and
//! the networked session's flag groups over the workspace's one flag
//! parser, [`spatl::cli`] (its [`Args`] is re-exported here).

use std::time::Duration;

use spatl::cli::parse_algorithm;
pub use spatl::cli::Args;
use spatl::prelude::{
    Algorithm, ChurnPlan, ConfigError, ExperimentBuilder, FaultPlan, FlConfig, PrivacyConfig,
    Simulation, Topology,
};

/// The paper's five algorithms, SPATL first (the ordering the
/// figure-style experiments print).
pub fn algorithms() -> Vec<(Algorithm, &'static str)> {
    in_order([4, 0, 1, 2, 3])
}

/// The same five algorithms, baselines first (the ordering the
/// table-style experiments print, SPATL as the closing row).
pub fn algorithms_baseline_first() -> Vec<(Algorithm, &'static str)> {
    in_order([0, 3, 1, 2, 4])
}

/// [`Algorithm::roster`] (FedAvg, FedProx, SCAFFOLD, FedNova, SPATL) in
/// `order`, each labelled with its name.
fn in_order(order: [usize; 5]) -> Vec<(Algorithm, &'static str)> {
    let roster = Algorithm::roster();
    order.map(|i| (roster[i], roster[i].name())).to_vec()
}

/// The flag set shared by `spatl-server` and `spatl-client`:
/// `--addr`, `--clients`, `--rounds`, `--seed`, `--algorithm`, plus the
/// session-shape flags both ends must agree on for the fingerprint to
/// match (`--samples`, `--local-epochs`, `--batch`).
#[derive(Debug, Clone)]
pub struct NetOpts {
    /// Coordinator address (listen address server-side, target
    /// client-side).
    pub addr: String,
    /// Number of federated clients in the session.
    pub clients: usize,
    /// Communication rounds to run.
    pub rounds: usize,
    /// Session seed (model init, sampling, shards).
    pub seed: u64,
    /// The federated algorithm.
    pub algorithm: Algorithm,
    /// Synthetic samples per client shard.
    pub samples: usize,
    /// Local epochs per round.
    pub local_epochs: usize,
    /// Local batch size.
    pub batch: usize,
    /// Seeded fault plan the `--chaos-*` flags fill, part of the session
    /// fingerprint — every endpoint of a run must be given the same
    /// chaos flags.
    pub faults: Option<FaultPlan>,
    /// Client churn plan, also fingerprinted across the endpoints.
    pub churn: Option<ChurnPlan>,
    /// Server-blind aggregation config (pairwise masking or fixed-point
    /// DP sums), also fingerprinted across the endpoints.
    pub privacy: Option<PrivacyConfig>,
}

impl NetOpts {
    /// Flags [`NetOpts::from_args`] consumes (the chaos and churn flags
    /// included — they shape the session fingerprint, so every networked
    /// binary accepts them); binaries append their own extras before
    /// calling [`Args::parse`].
    pub const FLAGS: [&'static str; 26] = [
        "addr",
        "clients",
        "rounds",
        "seed",
        "algorithm",
        "samples",
        "local-epochs",
        "batch",
        "chaos-reset",
        "chaos-stall",
        "chaos-stall-ms",
        "chaos-duplicate",
        "chaos-kill-edge",
        "chaos-seed",
        "churn",
        "churn-period",
        "churn-duty",
        "churn-arrival-span",
        "churn-flake",
        "churn-abrupt",
        "churn-seed",
        "privacy",
        "privacy-seed",
        "privacy-frac-bits",
        "privacy-l2-bound",
        "privacy-noise",
    ];

    /// Read the shared runtime flags out of parsed [`Args`], defaulting
    /// to a 4-client × 3-round FedAvg loopback session. `Err` is the
    /// usage error to print: an unknown name, a malformed value, or a
    /// sub-flag given without the mode flag it modifies.
    pub fn from_args(args: &Args) -> Result<NetOpts, String> {
        check_sub_flags(args)?;
        Ok(NetOpts {
            addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
            clients: args.get_or("clients", 4),
            rounds: args.get_or("rounds", 3),
            seed: args.get_or("seed", 7),
            algorithm: parse_algorithm(args.get("algorithm").unwrap_or("fedavg"))?,
            samples: args.get_or("samples", 24),
            local_epochs: args.get_or("local-epochs", 1),
            batch: args.get_or("batch", 8),
            faults: parse_chaos(args)?,
            churn: parse_churn(args)?,
            privacy: parse_privacy(args)?,
        })
    }

    /// The session these flags describe, checked for `topology` before
    /// any data is synthesised — the one place the flags map to a
    /// configuration.
    fn builder(&self, topology: Topology) -> Result<ExperimentBuilder, ConfigError> {
        let mut b = ExperimentBuilder::new(self.algorithm)
            .clients(self.clients)
            .rounds(self.rounds)
            .samples_per_client(self.samples)
            .local_epochs(self.local_epochs)
            .batch_size(self.batch)
            .seed(self.seed);
        if let Some(plan) = self.faults {
            b = b.faults(plan);
        }
        if let Some(plan) = self.churn {
            b = b.churn(plan);
        }
        if let Some(privacy) = self.privacy {
            b = b.privacy(privacy);
        }
        b.check(topology)?;
        Ok(b)
    }

    /// The session's configuration alone, for an endpoint that trains
    /// nothing (`spatl-edge`): the same fingerprint as
    /// [`build_session`](Self::build_session)'s, without its data or
    /// model.
    pub fn config(&self, topology: Topology) -> Result<FlConfig, ConfigError> {
        self.builder(topology).map(|b| b.config())
    }

    /// Deterministic session factory every networked endpoint shares: the
    /// same flags produce the same model initialisation, the same data
    /// shards and the same control-plane fingerprint, on the server and
    /// every client process.
    pub fn build_session(&self, topology: Topology) -> Result<Simulation, ConfigError> {
        self.builder(topology).map(ExperimentBuilder::build)
    }
}

/// The flags that switch the fault plan on; the other `--chaos-*` flags
/// only tune a plan one of these creates.
const CHAOS_MODES: [&str; 4] = [
    "chaos-reset",
    "chaos-stall",
    "chaos-duplicate",
    "chaos-kill-edge",
];

/// `Err` naming the first sub-flag given without a mode flag it modifies
/// (`--chaos-seed` without a chaos mode, `--chaos-stall-ms` without
/// `--chaos-stall`, `--churn-*` without `--churn`, `--privacy-*` without
/// `--privacy`), which would otherwise be dropped without a word.
fn check_sub_flags(args: &Args) -> Result<(), String> {
    for flag in NetOpts::FLAGS {
        let modes: &[&str] = match flag {
            "chaos-seed" => &CHAOS_MODES,
            "chaos-stall-ms" => &["chaos-stall"],
            _ if flag.starts_with("churn-") => &["churn"],
            _ if flag.starts_with("privacy-") => &["privacy"],
            _ => continue,
        };
        if args.get(flag).is_some() && modes.iter().all(|m| args.get(m).is_none()) {
            let modes: Vec<String> = modes.iter().map(|m| format!("--{m}")).collect();
            let modes = modes.join(" or ");
            return Err(format!("flag --{flag} has no effect without {modes}"));
        }
    }
    Ok(())
}

/// Build the fault plan out of the `--chaos-*` flags; `None` when no
/// chaos flag was given at all (the common, fault-free case). No flag
/// sets the plan's dropout coin.
/// `--chaos-kill-edge` takes `round:edge` (e.g. `1:0` kills edge 0 from
/// round 1 onward).
fn parse_chaos(args: &Args) -> Result<Option<FaultPlan>, String> {
    if CHAOS_MODES.iter().all(|f| args.get(f).is_none()) {
        return Ok(None);
    }
    let defaults = FaultPlan::default();
    let kill_edge = match args.get("chaos-kill-edge") {
        None => None,
        Some(v) => Some(
            v.split_once(':')
                .and_then(|(r, e)| Some((r.parse().ok()?, e.parse().ok()?)))
                .ok_or_else(|| format!("flag --chaos-kill-edge wants 'round:edge', got '{v}'"))?,
        ),
    };
    Ok(Some(FaultPlan {
        reset: args.get_or("chaos-reset", defaults.reset),
        stall: args.get_or("chaos-stall", defaults.stall),
        stall_ms: args.get_or("chaos-stall-ms", defaults.stall_ms),
        duplicate: args.get_or("chaos-duplicate", defaults.duplicate),
        kill_edge,
        seed: args.get_or("chaos-seed", defaults.seed),
        ..defaults
    }))
}

/// Build the churn plan out of the `--churn*` flags; `None` when
/// `--churn` is absent. `--churn` names the base profile
/// (`cross-silo`, `cross-device` or `custom`) and the remaining flags
/// override its individual fields.
fn parse_churn(args: &Args) -> Result<Option<ChurnPlan>, String> {
    let base = match args.get("churn") {
        None => return Ok(None),
        Some("cross-silo") => ChurnPlan::cross_silo(),
        Some("cross-device") => ChurnPlan::cross_device(),
        Some("custom") => ChurnPlan::default(),
        Some(other) => {
            return Err(format!(
                "flag --churn has unknown profile '{other}' \
                 (expected cross-silo|cross-device|custom)"
            ))
        }
    };
    Ok(Some(ChurnPlan {
        period: args.get_or("churn-period", base.period),
        duty: args.get_or("churn-duty", base.duty),
        arrival_span: args.get_or("churn-arrival-span", base.arrival_span),
        flake: args.get_or("churn-flake", base.flake),
        abrupt: args.get_or("churn-abrupt", base.abrupt),
        seed: args.get_or("churn-seed", base.seed),
    }))
}

/// Build the privacy config out of the `--privacy*` flags; `None` when
/// `--privacy` is absent (clear uploads — the historical fingerprint).
/// `--privacy` names the protocol (`masked` or `fixed`) and the
/// remaining flags override its individual fields.
fn parse_privacy(args: &Args) -> Result<Option<PrivacyConfig>, String> {
    let base = match args.get("privacy") {
        None => return Ok(None),
        Some("masked") => PrivacyConfig::masked(0),
        Some("fixed") => PrivacyConfig::fixed(0, 1.0),
        Some(other) => {
            return Err(format!(
                "flag --privacy has unknown mode '{other}' (expected masked|fixed)"
            ))
        }
    };
    Ok(Some(PrivacyConfig {
        mode: base.mode,
        seed: args.get_or("privacy-seed", base.seed),
        frac_bits: args.get_or("privacy-frac-bits", base.frac_bits),
        l2_bound: args.get_or("privacy-l2-bound", base.l2_bound),
        noise: args.get_or("privacy-noise", base.noise),
    }))
}

/// The runtime-deadline flag set shared by `spatl-server` and
/// `spatl-edge`: how long to wait for the cohort to register
/// (`--join-timeout`), for a round to complete (`--round-timeout`) and
/// for a single blocking read/write (`--io-timeout`), all in seconds.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeOpts {
    /// Registration wait before the first round starts short-handed.
    pub join_timeout: Duration,
    /// Shared per-round collection deadline.
    pub round_timeout: Duration,
    /// Per-operation socket deadline (handshakes, writes).
    pub io_timeout: Duration,
}

impl RuntimeOpts {
    /// Flags [`RuntimeOpts::from_args`] consumes.
    pub const FLAGS: [&'static str; 3] = ["join-timeout", "round-timeout", "io-timeout"];

    /// Read the runtime flags out of parsed [`Args`] (defaults: 30 s
    /// join, 300 s round, 30 s io).
    pub fn from_args(args: &Args) -> RuntimeOpts {
        RuntimeOpts {
            join_timeout: Duration::from_secs(args.get_or("join-timeout", 30)),
            round_timeout: Duration::from_secs(args.get_or("round-timeout", 300)),
            io_timeout: Duration::from_secs(args.get_or("io-timeout", 30)),
        }
    }
}

/// The topology flags of `spatl-server` and `spatl-edge`: how many edge
/// aggregators the session runs (`--edges`, 0 = flat, both binaries),
/// where the root keeps its durable round log (`--wal`, root only), and
/// which edge a `spatl-edge` process is (`--edge-id`) and where its root
/// listens (`--root-addr`, edge only). Plain data — the binaries
/// translate it into their runtime's own configuration types.
#[derive(Debug, Clone)]
pub struct TierOpts {
    /// Number of edge aggregators between clients and root; 0 keeps the
    /// flat star topology.
    pub edges: usize,
    /// Which edge this process is (0-based).
    pub edge_id: usize,
    /// Root coordinator address an edge connects upstream to.
    pub root_addr: String,
    /// Durable write-ahead round log path; `None` keeps the session in
    /// memory only.
    pub wal: Option<String>,
}

impl TierOpts {
    /// The flags `spatl-server` appends to [`NetOpts::FLAGS`].
    pub const ROOT_FLAGS: [&'static str; 2] = ["edges", "wal"];
    /// The flags `spatl-edge` appends to [`NetOpts::FLAGS`].
    pub const EDGE_FLAGS: [&'static str; 3] = ["edges", "edge-id", "root-addr"];

    /// Read the topology flags out of parsed [`Args`], defaulting to the
    /// flat topology with no round log.
    pub fn from_args(args: &Args) -> TierOpts {
        TierOpts {
            edges: args.get_or("edges", 0),
            edge_id: args.get_or("edge-id", 0),
            root_addr: args
                .get("root-addr")
                .unwrap_or("127.0.0.1:7878")
                .to_string(),
            wal: args.get("wal").map(str::to_string),
        }
    }

    /// The topology a root runs: flat when `--edges` is 0.
    pub fn topology(&self) -> Topology {
        match self.edges {
            0 => Topology::Flat,
            edges => Topology::Tiered { edges },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatl::cli::parse_args;

    #[test]
    fn tier_flags_parse_and_default_to_flat() {
        let flat = TierOpts::from_args(&parse_args::<[&str; 0], &str>([], &[]).unwrap());
        assert_eq!(flat.edges, 0);
        assert!(flat.wal.is_none());

        let root = parse_args(
            ["--edges", "2", "--wal", "log.jsonl"],
            &TierOpts::ROOT_FLAGS,
        );
        let root = TierOpts::from_args(&root.unwrap());
        assert_eq!(root.edges, 2);
        assert_eq!(root.wal.as_deref(), Some("log.jsonl"));
        assert!(parse_args(["--edge-id", "1"], &TierOpts::ROOT_FLAGS).is_err());

        let edge = parse_args(["--edges", "2", "--edge-id=1"], &TierOpts::EDGE_FLAGS);
        let edge = TierOpts::from_args(&edge.unwrap());
        assert_eq!((edge.edges, edge.edge_id), (2, 1));
        assert!(parse_args(["--wal", "log.jsonl"], &TierOpts::EDGE_FLAGS).is_err());
    }

    #[test]
    fn chaos_churn_and_runtime_flags_parse() {
        let accepted: Vec<&str> = NetOpts::FLAGS
            .iter()
            .chain(RuntimeOpts::FLAGS.iter())
            .copied()
            .collect();

        // No chaos/churn flags → no plans, so the fingerprint matches a
        // plain session.
        let none = parse_args::<[&str; 0], &str>([], &accepted).unwrap();
        let opts = NetOpts::from_args(&none).unwrap();
        assert!(opts.faults.is_none() && opts.churn.is_none());
        let runtime = RuntimeOpts::from_args(&none);
        assert_eq!(runtime.round_timeout, Duration::from_secs(300));

        let args = parse_args(
            [
                "--chaos-reset",
                "0.5",
                "--chaos-kill-edge",
                "2:1",
                "--churn",
                "cross-device",
                "--churn-duty",
                "0.6",
                "--io-timeout",
                "5",
            ],
            &accepted,
        )
        .unwrap();
        let opts = NetOpts::from_args(&args).unwrap();
        let chaos = opts.faults.expect("chaos flags given");
        assert_eq!(chaos.reset, 0.5);
        assert_eq!(chaos.kill_edge, Some((2, 1)));
        assert_eq!(chaos.duplicate, 0.0);
        let churn = opts.churn.expect("churn profile given");
        assert_eq!(churn.duty, 0.6);
        assert_eq!(churn.arrival_span, ChurnPlan::cross_device().arrival_span);
        let runtime = RuntimeOpts::from_args(&args);
        assert_eq!(runtime.io_timeout, Duration::from_secs(5));
    }

    #[test]
    fn privacy_flags_parse() {
        use spatl::prelude::PrivacyMode;
        let accepted: Vec<&str> = NetOpts::FLAGS.to_vec();

        // No --privacy flag → clear uploads, historical fingerprint.
        let none = parse_args::<[&str; 0], &str>([], &accepted).unwrap();
        assert!(NetOpts::from_args(&none).unwrap().privacy.is_none());

        let masked =
            parse_args(["--privacy", "masked", "--privacy-seed", "42"], &accepted).unwrap();
        let p = NetOpts::from_args(&masked)
            .unwrap()
            .privacy
            .expect("masked mode");
        assert_eq!(p, PrivacyConfig::masked(42));

        let fixed = parse_args(
            [
                "--privacy=fixed",
                "--privacy-l2-bound",
                "2.5",
                "--privacy-frac-bits",
                "12",
                "--privacy-noise",
                "0.01",
            ],
            &accepted,
        )
        .unwrap();
        let p = NetOpts::from_args(&fixed)
            .unwrap()
            .privacy
            .expect("fixed mode");
        assert_eq!(p.mode, PrivacyMode::FixedPoint);
        assert_eq!((p.frac_bits, p.l2_bound, p.noise), (12, 2.5, 0.01));
    }

    #[test]
    fn sub_flags_without_their_mode_are_usage_errors() {
        let accepted: Vec<&str> = NetOpts::FLAGS.to_vec();
        for (argv, missing) in [
            (["--chaos-seed", "3"], "--chaos-reset"),
            (["--chaos-stall-ms", "5"], "--chaos-stall"),
            (["--churn-duty", "0.1"], "--churn"),
            (["--privacy-noise", "0.5"], "--privacy"),
        ] {
            let err = NetOpts::from_args(&parse_args(argv, &accepted).unwrap()).unwrap_err();
            assert!(err.contains(argv[0]) && err.contains(missing), "{err}");
        }
        let with_mode = parse_args(["--chaos-stall", "0.5", "--chaos-stall-ms", "5"], &accepted);
        let chaos = NetOpts::from_args(&with_mode.unwrap()).unwrap().faults;
        assert_eq!(chaos.map(|c| c.stall_ms), Some(5));
    }

    /// `spatl-edge` reads [`NetOpts::config`] and the root and clients
    /// read [`NetOpts::build_session`]'s; the two must be one config, or
    /// the handshake fingerprints would part.
    #[test]
    fn config_is_the_built_sessions_config() {
        let accepted: Vec<&str> = NetOpts::FLAGS.to_vec();
        let tier = Topology::Tiered { edges: 2 };
        for argv in [
            &["--algorithm", "spatl", "--clients", "4", "--rounds", "1"][..],
            &["--algorithm", "scaffold", "--seed", "11", "--samples", "12"],
            &["--chaos-kill-edge", "1:0", "--churn", "cross-device"],
            &["--privacy", "fixed", "--privacy-l2-bound", "50"],
        ] {
            let args = parse_args(argv.iter().copied(), &accepted).unwrap();
            let opts = NetOpts::from_args(&args).unwrap();
            let config = opts.config(tier.clone()).unwrap();
            let session = opts.build_session(tier.clone()).unwrap();
            let json = |c: &FlConfig| serde_json::to_string(c).unwrap();
            assert_eq!(json(&config), json(&session.driver.cfg), "{argv:?}");
        }
    }

    #[test]
    fn config_refuses_what_a_tier_cannot_run() {
        let accepted: Vec<&str> = NetOpts::FLAGS.to_vec();
        let parse = |argv: &[&str]| {
            NetOpts::from_args(&parse_args(argv.iter().copied(), &accepted).unwrap())
        };
        let two_clients = parse(&["--clients", "2"]).unwrap();
        assert!(two_clients.config(Topology::Tiered { edges: 2 }).is_ok());
        assert!(two_clients.config(Topology::Tiered { edges: 3 }).is_err());

        let masked = parse(&["--privacy", "masked"]).unwrap();
        assert!(masked.config(Topology::Flat).is_ok());
        let err = masked.config(Topology::Tiered { edges: 2 }).unwrap_err();
        assert_eq!(err, ConfigError::MaskedThroughEdges);
    }

    #[test]
    fn rosters_cover_the_same_five() {
        let mut a: Vec<&str> = algorithms().iter().map(|(_, n)| *n).collect();
        let mut b: Vec<&str> = algorithms_baseline_first()
            .iter()
            .map(|(_, n)| *n)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        for name in a {
            assert!(parse_algorithm(name).is_ok(), "{name}");
        }
    }
}
