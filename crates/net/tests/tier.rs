//! 2-tier loopback integration tests: root coordinator + edge
//! aggregators + client nodes, all over 127.0.0.1, against the
//! in-process simulator (DESIGN.md §11).
//!
//! The headline assertions: a 2-edge tree finishes **bit-identical** to
//! the flat simulator for all five algorithms under every aggregator and
//! under a screen policy, with the flat run's ledger counters and fold
//! modes — under partial participation and dropouts too, and, against a
//! flat TCP root, with a Byzantine client among the cohort: the edges
//! relay, the root folds as a flat root does; and a root killed mid-round
//! resumes from its write-ahead log — clients replaying their cached
//! uploads — to a final global bit-identical to an uninterrupted run.

use std::thread::{self, JoinHandle};
use std::time::Duration;

use spatl::prelude::*;
use spatl::ExperimentBuilder;
use spatl_fl::{edge_partition, fault_counters, ClientState, GlobalState, Simulation};
use spatl_net::{
    ClientNode, Coordinator, CoordinatorConfig, EdgeAggregator, EdgeConfig, EdgeReport, NetError,
    NodeConfig, NodeReport, Topology,
};

const EDGES: usize = 2;

fn builder(algorithm: Algorithm, rounds: usize) -> ExperimentBuilder {
    ExperimentBuilder::new(algorithm)
        .model(ModelKind::Cnn2)
        .clients(4)
        .samples_per_client(18)
        .rounds(rounds)
        .local_epochs(1)
        .batch_size(8)
        .seed(7)
}

fn root_config() -> CoordinatorConfig {
    root_config_over(EDGES)
}

fn root_config_over(edges: usize) -> CoordinatorConfig {
    CoordinatorConfig {
        addr: "127.0.0.1:0".to_string(),
        join_timeout: Duration::from_secs(20),
        round_timeout: Duration::from_secs(120),
        io_timeout: Duration::from_secs(20),
        topology: Topology::Tiered { edges },
        ..CoordinatorConfig::default()
    }
}

#[track_caller]
fn assert_bits_equal(label: &str, a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "{label}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}[{i}]: {x} != {y} (bitwise)"
        );
    }
}

#[track_caller]
fn assert_global_bit_identical(a: &GlobalState, b: &GlobalState) {
    assert_bits_equal("shared", &a.shared, &b.shared);
    assert_bits_equal("control", &a.control, &b.control);
    assert_bits_equal("momentum", &a.momentum, &b.momentum);
    assert_bits_equal("buffers", &a.buffers, &b.buffers);
}

struct TieredRun {
    coordinator: Coordinator,
    edge_reports: Vec<EdgeReport>,
    node_reports: Vec<(ClientState, NodeReport)>,
}

/// Stand up a full 2-tier tree on loopback — root, `EDGES` edge
/// aggregator threads, one node thread per client shard — run the whole
/// session, and tear it down.
fn run_tiered(build: impl Fn() -> Simulation) -> TieredRun {
    run_tiered_over(EDGES, None, build)
}

/// [`run_tiered`] behind `edges` edges, the root decoding uploads on
/// `decode_workers` threads.
fn run_tiered_over(
    edges: usize,
    decode_workers: Option<usize>,
    build: impl Fn() -> Simulation,
) -> TieredRun {
    let session = build();
    let cfg = session.driver.cfg;
    let root_opts = CoordinatorConfig {
        decode_workers,
        ..root_config_over(edges)
    };
    let mut coordinator = Coordinator::bind(session.driver, root_opts).expect("bind root");
    let root_addr = coordinator.local_addr().expect("root addr").to_string();

    let mut edge_handles: Vec<JoinHandle<Result<EdgeReport, NetError>>> = Vec::new();
    let mut edge_addrs: Vec<String> = Vec::new();
    for e in 0..edges {
        let edge = EdgeAggregator::bind(
            cfg,
            EdgeConfig::new(e, edges, root_addr.clone(), "127.0.0.1:0"),
        )
        .expect("bind edge");
        edge_addrs.push(edge.local_addr().expect("edge addr").to_string());
        edge_handles.push(thread::spawn(move || edge.run()));
    }

    let ranges = edge_partition(cfg.n_clients, edges);
    let node_handles: Vec<JoinHandle<Result<(ClientState, NodeReport), NetError>>> = session
        .clients
        .into_iter()
        .map(|c| {
            let e = ranges
                .iter()
                .position(|r| r.contains(&c.id))
                .expect("slice");
            let opts = NodeConfig::new(edge_addrs[e].clone());
            thread::spawn(move || ClientNode::new(cfg, c, opts).run())
        })
        .collect();

    let completed = coordinator.run().expect("tiered run");
    assert!(completed, "no shutdown was requested");
    let edge_reports = edge_handles
        .into_iter()
        .map(|h| h.join().expect("edge thread").expect("edge exits cleanly"))
        .collect();
    let node_reports = node_handles
        .into_iter()
        .map(|h| h.join().expect("node thread").expect("node exits cleanly"))
        .collect();
    TieredRun {
        coordinator,
        edge_reports,
        node_reports,
    }
}

/// Weighted-mean composition is exact: the 2-tier tree must finish bit
/// identical to the flat in-process simulator, round for round, whatever
/// number of threads the root decodes uploads on.
fn assert_tiered_matches_simulator(algorithm: Algorithm) {
    assert_tiered_matches_simulator_at(algorithm, None);
}

fn assert_tiered_matches_simulator_at(algorithm: Algorithm, decode_workers: Option<usize>) {
    let rounds = 2;
    let mut sim = builder(algorithm, rounds).build();
    sim.run();

    let run = run_tiered_over(EDGES, decode_workers, || builder(algorithm, rounds).build());

    assert_global_bit_identical(&sim.driver.global, &run.coordinator.driver.global);
    assert_eq!(
        sim.driver.history.len(),
        run.coordinator.driver.history.len()
    );
    for (s, t) in sim
        .driver
        .history
        .iter()
        .zip(&run.coordinator.driver.history)
    {
        assert_eq!(s.round, t.round);
        assert_eq!(
            s.mean_acc.to_bits(),
            t.mean_acc.to_bits(),
            "round {}",
            s.round
        );
        assert_bits_equal("per_client_acc", &s.per_client_acc, &t.per_client_acc);
        // Analytic Eq. 13 accounting is per *client* and travels in the
        // combined upload's entries — identical to the flat run. The
        // measured wire figures are not compared: tiered rounds measure
        // the root link (2 combined frames), flat rounds the client star.
        assert_eq!(s.bytes, t.bytes, "Eq. 13 accounting, round {}", s.round);
        assert_eq!(s.faults.sampled, t.faults.sampled, "round {}", s.round);
        assert_eq!(s.faults.survivors, t.faults.survivors, "round {}", s.round);
        assert_eq!(t.faults.total(), 0, "clean run must ledger nothing");
        assert!(t.wire.upload_framed > 0, "the root link was measured");
    }
    for report in &run.edge_reports {
        assert_eq!(report.rounds_forwarded, rounds);
        assert_eq!(report.rounds_evaluated, rounds);
        assert_eq!(report.reconnects, 0);
    }
    for (_, report) in &run.node_reports {
        assert_eq!(report.rounds_trained, rounds);
        assert_eq!(report.replays, 0);
    }
}

/// With no decode helper (every upload decoded by the sweep) and with
/// two, as `loopback.rs` pins for the flat root.
#[test]
fn tiered_matches_simulator_fedavg() {
    for decode_workers in [Some(1), Some(3)] {
        assert_tiered_matches_simulator_at(Algorithm::FedAvg, decode_workers);
    }
}

#[test]
fn tiered_matches_simulator_fedprox() {
    assert_tiered_matches_simulator(Algorithm::FedProx { mu: 0.01 });
}

#[test]
fn tiered_matches_simulator_scaffold() {
    assert_tiered_matches_simulator(Algorithm::Scaffold);
}

#[test]
fn tiered_matches_simulator_fednova() {
    assert_tiered_matches_simulator(Algorithm::FedNova);
}

#[test]
fn tiered_matches_simulator_spatl() {
    for decode_workers in [Some(1), Some(3)] {
        assert_tiered_matches_simulator_at(
            Algorithm::Spatl(SpatlOptions::default()),
            decode_workers,
        );
    }
}

/// Partial participation behind two edges: two of four clients per
/// round, so each edge trains only its slice of a cohort it derives
/// itself. The tree must still finish bit-identical to the flat
/// simulator, and every client must train exactly the rounds the
/// simulator sampled it in.
#[test]
fn tiered_partial_participation_matches_simulator() {
    let rounds = 3;
    let build = || builder(Algorithm::FedAvg, rounds).sample_ratio(0.5).build();
    let mut sim = build();
    sim.run();

    let run = run_tiered(build);

    assert_global_bit_identical(&sim.driver.global, &run.coordinator.driver.global);
    let history = &run.coordinator.driver.history;
    assert_eq!(sim.driver.history.len(), history.len());
    for (s, t) in sim.driver.history.iter().zip(history) {
        assert_eq!(t.faults.sampled, 2, "round {}", t.round);
        assert_eq!(s.faults.survivors, t.faults.survivors, "round {}", t.round);
        assert_eq!(s.bytes, t.bytes, "Eq. 13 accounting, round {}", t.round);
        assert_eq!(
            s.mean_acc.to_bits(),
            t.mean_acc.to_bits(),
            "round {}",
            t.round
        );
    }
    for (state, report) in &run.node_reports {
        let sampled_in = sim.clients[state.id].participations;
        assert_eq!(report.rounds_trained, sampled_in, "client {}", state.id);
    }
}

/// Every aggregator folds at the root, so a robust or screened tier is
/// the flat round too: the 2-tier tree ends on the simulator's bits, with
/// its per-round accuracies, ledger counters and fold modes.
fn assert_tiered_folds_as_flat(make: impl Fn() -> ExperimentBuilder) {
    assert_folds_as_flat_over(EDGES, make);
}

/// [`assert_tiered_folds_as_flat`] behind `edges` edges.
fn assert_folds_as_flat_over(edges: usize, make: impl Fn() -> ExperimentBuilder) {
    let mut sim = make().build();
    sim.run();
    let run = run_tiered_over(edges, None, || make().build());

    assert_global_bit_identical(&sim.driver.global, &run.coordinator.driver.global);
    let history = &run.coordinator.driver.history;
    assert_eq!(sim.driver.history.len(), history.len());
    for (s, t) in sim.driver.history.iter().zip(history) {
        let round = s.round;
        assert_eq!(s.mean_acc.to_bits(), t.mean_acc.to_bits(), "round {round}");
        assert_bits_equal("per_client_acc", &s.per_client_acc, &t.per_client_acc);
        assert_eq!(s.bytes, t.bytes, "Eq. 13 accounting, round {round}");
        assert_eq!(
            fault_counters(&s.faults),
            fault_counters(&t.faults),
            "round {round}"
        );
        assert_eq!(s.faults.survivors, t.faults.survivors, "round {round}");
        assert_eq!(s.faults.no_op, t.faults.no_op, "round {round}");
        assert_eq!(s.agg_mode, t.agg_mode, "round {round}");
    }
}

fn spatl() -> Algorithm {
    Algorithm::Spatl(SpatlOptions::default())
}

fn fedavg_and_spatl() -> [Algorithm; 2] {
    [Algorithm::FedAvg, spatl()]
}

#[test]
fn tiered_coordinate_median_matches_simulator() {
    for algorithm in fedavg_and_spatl() {
        let agg = AggregatorKind::CoordinateMedian;
        assert_tiered_folds_as_flat(|| builder(algorithm, 2).aggregator(agg));
    }
}

#[test]
fn tiered_trimmed_mean_matches_simulator() {
    for algorithm in fedavg_and_spatl() {
        let agg = AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.25 };
        assert_tiered_folds_as_flat(|| builder(algorithm, 2).aggregator(agg));
    }
}

#[test]
fn tiered_screened_rounds_match_simulator() {
    for algorithm in fedavg_and_spatl() {
        assert_tiered_folds_as_flat(|| builder(algorithm, 2).screen(ScreenPolicy::default()));
    }
}

/// One `#[test]` per (name, algorithm, builder tweak): the tiered session
/// folds as the flat simulator does.
macro_rules! folds_as_flat {
    ($($name:ident: $algorithm:expr, |$b:ident| $tweak:expr;)*) => {$(
        #[test]
        fn $name() {
            assert_tiered_folds_as_flat(|| {
                let $b = builder($algorithm, 2);
                $tweak
            });
        }
    )*};
}

const MEDIAN: AggregatorKind = AggregatorKind::CoordinateMedian;
const TRIMMED: AggregatorKind = AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.25 };
const CLIPPED: AggregatorKind = AggregatorKind::NormClippedMean;
const FEDPROX: Algorithm = Algorithm::FedProx { mu: 0.01 };

// The rest of the aggregator × algorithm grid: the norm-clipped mean for
// all five, and the per-coordinate statistics and the screen for the
// three algorithms the tests above leave out.
folds_as_flat! {
    tiered_norm_clipped_mean_matches_simulator_fedavg:
        Algorithm::FedAvg, |b| b.aggregator(CLIPPED);
    tiered_norm_clipped_mean_matches_simulator_fedprox:
        FEDPROX, |b| b.aggregator(CLIPPED);
    tiered_norm_clipped_mean_matches_simulator_scaffold:
        Algorithm::Scaffold, |b| b.aggregator(CLIPPED);
    tiered_norm_clipped_mean_matches_simulator_fednova:
        Algorithm::FedNova, |b| b.aggregator(CLIPPED);
    tiered_norm_clipped_mean_matches_simulator_spatl:
        spatl(), |b| b.aggregator(CLIPPED);
    tiered_coordinate_median_matches_simulator_fedprox:
        FEDPROX, |b| b.aggregator(MEDIAN);
    tiered_coordinate_median_matches_simulator_scaffold:
        Algorithm::Scaffold, |b| b.aggregator(MEDIAN);
    tiered_coordinate_median_matches_simulator_fednova:
        Algorithm::FedNova, |b| b.aggregator(MEDIAN);
    tiered_trimmed_mean_matches_simulator_fedprox:
        FEDPROX, |b| b.aggregator(TRIMMED);
    tiered_trimmed_mean_matches_simulator_scaffold:
        Algorithm::Scaffold, |b| b.aggregator(TRIMMED);
    tiered_trimmed_mean_matches_simulator_fednova:
        Algorithm::FedNova, |b| b.aggregator(TRIMMED);
    tiered_screened_rounds_match_simulator_fedprox:
        FEDPROX, |b| b.screen(ScreenPolicy::default());
    tiered_screened_rounds_match_simulator_scaffold:
        Algorithm::Scaffold, |b| b.screen(ScreenPolicy::default());
    tiered_screened_rounds_match_simulator_fednova:
        Algorithm::FedNova, |b| b.screen(ScreenPolicy::default());
    tiered_screened_median_matches_simulator_spatl:
        spatl(), |b| b.aggregator(MEDIAN).screen(ScreenPolicy::default());
}

// Partial participation: each edge relays only its slice of a two-client
// cohort, so a per-coordinate statistic runs over two uploads.
folds_as_flat! {
    tiered_partial_participation_under_the_median_matches_simulator:
        spatl(), |b| b.sample_ratio(0.5).aggregator(MEDIAN);
    tiered_partial_participation_under_the_trimmed_mean_matches_simulator:
        Algorithm::FedAvg, |b| b.sample_ratio(0.5).aggregator(TRIMMED);
    tiered_partial_participation_under_the_clipped_mean_matches_simulator:
        Algorithm::Scaffold, |b| b.sample_ratio(0.5).aggregator(CLIPPED);
    tiered_partial_participation_under_a_screen_matches_simulator:
        Algorithm::FedNova, |b| b.sample_ratio(0.5).screen(ScreenPolicy::default());
}

/// Five clients over three edges: slices of two, two and one, so one
/// edge relays a single upload.
#[test]
fn tiered_uneven_slices_under_the_median_match_simulator() {
    assert_folds_as_flat_over(3, || builder(spatl(), 2).clients(5).aggregator(MEDIAN));
}

/// One client per edge: every edge relays exactly one upload, and the
/// trimmed mean still runs over the whole cohort at the root.
#[test]
fn one_client_per_edge_under_the_trimmed_mean_matches_simulator() {
    assert_folds_as_flat_over(4, || builder(Algorithm::Scaffold, 2).aggregator(TRIMMED));
}

/// Binding only: each edge serves its [`edge_partition`] slice and has no
/// client yet.
#[test]
fn each_edge_binds_its_slice_of_the_partition() {
    let cfg = builder(Algorithm::FedAvg, 1).clients(7).config();
    for (e, range) in edge_partition(7, 3).into_iter().enumerate() {
        let opts = EdgeConfig::new(e, 3, "127.0.0.1:9", "127.0.0.1:0");
        let edge = EdgeAggregator::bind(cfg, opts).expect("bind edge");
        assert_eq!(edge.client_range(), range, "edge {e}");
        assert_eq!(edge.connected(), 0);
    }
}

#[test]
fn an_edge_id_past_the_edge_count_is_refused() {
    let cfg = builder(Algorithm::FedAvg, 1).config();
    let opts = EdgeConfig::new(EDGES, EDGES, "127.0.0.1:9", "127.0.0.1:0");
    let err = EdgeAggregator::bind(cfg, opts)
        .err()
        .expect("no edge 2 of 2");
    assert!(err.to_string().contains("out of range"), "{err}");
}

/// An edge checks the session against the tier before it binds: more
/// edges than clients, or masking (whose pairwise masks a tier cannot
/// cancel), never reach the listener.
#[test]
fn an_edge_refuses_a_session_its_tier_cannot_run() {
    let too_many = builder(Algorithm::FedAvg, 1).clients(2).config();
    let opts = EdgeConfig::new(0, 3, "127.0.0.1:9", "127.0.0.1:0");
    assert!(EdgeAggregator::bind(too_many, opts).is_err());

    let masked = builder(Algorithm::FedAvg, 1)
        .privacy(PrivacyConfig::masked(7))
        .config();
    let opts = EdgeConfig::new(0, EDGES, "127.0.0.1:9", "127.0.0.1:0");
    assert!(EdgeAggregator::bind(masked, opts).is_err());
}

/// A tiered root awaits every edge, so it refuses a quorum below one at
/// bind, as it refuses one outside (0, 1].
#[test]
fn a_tiered_root_refuses_a_quorum_below_one() {
    let opts = CoordinatorConfig {
        quorum: 0.5,
        ..root_config()
    };
    let session = builder(Algorithm::FedAvg, 1).build();
    let err = Coordinator::bind(session.driver, opts)
        .err()
        .expect("no quorum behind edges");
    assert!(matches!(err, NetError::Protocol(_)), "{err}");
    assert!(err.to_string().contains("quorum"), "{err}");
}

/// The dropout plan the tests below run under: its seed drops at least
/// one sampled client within two rounds, which each test checks first.
const DROPOUTS: FaultPlan = FaultPlan {
    dropout: 0.3,
    reset: 0.0,
    stall: 0.0,
    stall_ms: 0,
    duplicate: 0.0,
    kill_edge: None,
    seed: 0xD0,
};

/// Clients that leave before the broadcast are ledgered by their edge and
/// the root folds the survivors: every aggregator renormalises over the
/// same surviving cohort as the flat simulator.
fn assert_dropouts_fold_as_flat(make: impl Fn() -> ExperimentBuilder) {
    let mut sim = make().faults(DROPOUTS).build();
    sim.run();
    let dropouts: usize = sim.driver.history.iter().map(|r| r.faults.dropouts).sum();
    assert!(dropouts > 0, "the plan dropped nobody: nothing to compare");
    assert_tiered_folds_as_flat(|| make().faults(DROPOUTS));
}

#[test]
fn tiered_dropouts_under_the_weighted_mean_match_simulator() {
    assert_dropouts_fold_as_flat(|| builder(spatl(), 2));
}

#[test]
fn tiered_dropouts_under_the_median_match_simulator() {
    assert_dropouts_fold_as_flat(|| builder(Algorithm::FedAvg, 2).aggregator(MEDIAN));
}

#[test]
fn tiered_dropouts_under_the_trimmed_mean_match_simulator() {
    assert_dropouts_fold_as_flat(|| builder(spatl(), 2).aggregator(TRIMMED));
}

#[test]
fn tiered_dropouts_under_the_clipped_mean_match_simulator() {
    assert_dropouts_fold_as_flat(|| builder(Algorithm::FedNova, 2).aggregator(CLIPPED));
}

#[test]
fn tiered_dropouts_under_a_screen_match_simulator() {
    assert_dropouts_fold_as_flat(|| {
        builder(Algorithm::Scaffold, 2).screen(ScreenPolicy::default())
    });
}

/// Kill the root mid-round — after the write-ahead `begin`, before the
/// `commit` — and restart it on the same address from the same log. The
/// recovered root replays the interrupted round (same cohort, from the
/// same sampling stream position), the surviving client nodes answer from
/// their reply caches instead of retraining, and the session finishes bit
/// identical to an uninterrupted simulator run. SCAFFOLD makes this the
/// strictest variant: retraining a replayed round would fork the
/// client-side control variates.
#[test]
fn root_killed_mid_round_resumes_from_wal_bit_identically() {
    let algorithm = Algorithm::Scaffold;
    let rounds = 4;
    let wal = std::env::temp_dir().join(format!("spatl_net_wal_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&wal);

    let mut sim = builder(algorithm, rounds).build();
    sim.run();

    // Phase A: flat coordinator with a round log; run two rounds, then
    // "crash" — drop without finish(), so no Shutdown reaches the nodes
    // and they enter their reconnect loop with caches intact.
    let session = builder(algorithm, rounds).build();
    let cfg = session.driver.cfg;
    let mut opts = CoordinatorConfig {
        wal: Some(wal.clone()),
        topology: Topology::Flat,
        ..root_config()
    };
    let mut coordinator = Coordinator::bind(session.driver, opts.clone()).expect("bind A");
    let addr = coordinator.local_addr().expect("root addr").to_string();
    let node_handles: Vec<JoinHandle<Result<(ClientState, NodeReport), NetError>>> = session
        .clients
        .into_iter()
        .map(|c| {
            let node_opts = NodeConfig::new(addr.clone());
            thread::spawn(move || ClientNode::new(cfg, c, node_opts).run())
        })
        .collect();
    coordinator.wait_for_clients();
    coordinator.run_round();
    coordinator.run_round();
    assert_eq!(coordinator.driver.round_index(), 2);
    drop(coordinator); // crash: no Shutdown, no checkpoint

    // Simulate dying between round 1's begin and its commit: truncate the
    // trailing commit record, leaving round 1 pending in the log.
    let text = std::fs::read_to_string(&wal).expect("read wal");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.last().expect("wal has records").contains("Commit"),
        "last durable record is round 1's commit"
    );
    let truncated: String = lines[..lines.len() - 1]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&wal, truncated).expect("truncate wal");

    // Phase B: restart on the same address from the truncated log. The
    // recovery restores round 1's pre-round global and replays it.
    opts.addr = addr.clone();
    let session_b = builder(algorithm, rounds).build();
    let mut coordinator = Coordinator::bind(session_b.driver, opts).expect("bind B");
    assert_eq!(
        coordinator.resumed_mid_round(),
        Some(1),
        "round 1's begin was never committed"
    );
    assert_eq!(coordinator.driver.round_index(), 1);
    let completed = coordinator.run().expect("resume run");
    assert!(completed);
    let reports: Vec<(ClientState, NodeReport)> = node_handles
        .into_iter()
        .map(|h| h.join().expect("node thread").expect("node exits cleanly"))
        .collect();

    assert_global_bit_identical(&sim.driver.global, &coordinator.driver.global);
    assert_eq!(
        coordinator.driver.history.len(),
        3,
        "rounds 1 (replayed), 2 and 3 ran after recovery"
    );
    for (s, n) in sim.driver.history[1..]
        .iter()
        .zip(&coordinator.driver.history)
    {
        assert_eq!(s.round, n.round);
        assert_eq!(
            s.mean_acc.to_bits(),
            n.mean_acc.to_bits(),
            "round {}",
            s.round
        );
    }
    for (_, report) in &reports {
        assert_eq!(
            report.replays, 1,
            "round 1 was answered from the reply cache, not retrained"
        );
        assert_eq!(
            report.rounds_trained, rounds,
            "every round trained exactly once"
        );
        assert_eq!(report.reconnects, 1, "one reconnect after the crash");
    }
    let _ = std::fs::remove_file(&wal);
}

// ---------------------------------------------------------------------
// The tiered root closes through the flat round's accumulator.
// ---------------------------------------------------------------------

/// Every round's `agg_mode`, in order.
fn agg_modes(coordinator: &Coordinator) -> Vec<&str> {
    let history = &coordinator.driver.history;
    history.iter().map(|r| r.agg_mode.as_str()).collect()
}

/// A tiered round is recorded the way it was folded, which is the way a
/// flat round folds: the weighted mean streams, a screen policy spills
/// to screen the whole cohort at the root, and a robust aggregator
/// spills for its per-coordinate statistic.
#[test]
fn tiered_rounds_record_how_they_were_folded() {
    let rounds = 2;
    let plain = run_tiered(|| builder(Algorithm::FedAvg, rounds).build());
    assert_eq!(agg_modes(&plain.coordinator), ["stream"; 2]);

    let screened = run_tiered(|| {
        builder(Algorithm::FedAvg, rounds)
            .screen(ScreenPolicy::default())
            .build()
    });
    assert_eq!(agg_modes(&screened.coordinator), ["spill-screening"; 2]);

    let robust = run_tiered(|| {
        builder(Algorithm::FedAvg, rounds)
            .aggregator(AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.25 })
            .build()
    });
    assert_eq!(agg_modes(&robust.coordinator), ["spill-robust"; 2]);
}

/// A client node that follows the protocol to the letter but tampers with
/// every upload the way the session's [`AdversaryPlan`] says (the stock
/// [`ClientNode`] is always honest): trains, rewrites its outcome,
/// re-seals CRC-valid frames, replies.
fn byzantine_node(cfg: FlConfig, mut state: ClientState, addr: String, params: usize) {
    use spatl_net::{session_fingerprint, Hello, HelloRole, RoundAssign, RoundDone, RoundMode};
    use spatl_wire::{open, read_frame, seal, write_frame, MsgType, MAX_FRAME_PAYLOAD};

    let adversary = spatl_fl::Adversary::new(cfg.adversary.expect("an adversary plan"));
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let next_frame = |stream: &mut std::net::TcpStream| {
        read_frame(stream, MAX_FRAME_PAYLOAD)
            .expect("read frame")
            .expect("peer closed mid-session")
    };
    let hello = Hello {
        client_id: state.id as u32,
        fingerprint: session_fingerprint(&cfg),
        role: HelloRole::Client,
    };
    write_frame(&mut stream, &seal(MsgType::Hello, &hello.encode())).expect("send hello");
    let join = next_frame(&mut stream);
    assert_eq!(open(&join).expect("open join").0, MsgType::Join);
    loop {
        let frame = next_frame(&mut stream);
        let assign = match open(&frame).expect("open control frame") {
            (MsgType::Shutdown, _) => return,
            (MsgType::RoundAssign, payload) => RoundAssign::decode(payload).expect("assign"),
            (other, _) => panic!("unexpected control message {other:?}"),
        };
        let down: Vec<Vec<u8>> = (0..assign.n_frames)
            .map(|_| next_frame(&mut stream))
            .collect();
        let global = spatl_fl::decode_download(&cfg, &down, params).expect("decode broadcast");
        let (done, frames) = match assign.mode {
            RoundMode::Eval => {
                let acc = state.sync_and_evaluate(&cfg, &global);
                let done = RoundDone::eval(assign.round, state.id as u32, acc);
                (done, Vec::new())
            }
            RoundMode::Train => {
                let round = assign.round as usize;
                let mut outcome = state.local_update(&cfg, &global, round);
                adversary.tamper(&cfg, &global, &mut outcome, round);
                (RoundDone::train(assign.round, &outcome), outcome.frames)
            }
        };
        write_frame(&mut stream, &seal(MsgType::RoundDone, &done.encode())).expect("send done");
        for f in &frames {
            write_frame(&mut stream, f).expect("send upload frame");
        }
    }
}

/// Run `build`'s session over `topology` with the adversary plan's
/// Byzantine clients played by [`byzantine_node`] and everyone else by a
/// stock [`ClientNode`]; returns the finished coordinator.
fn run_with_byzantine_nodes(build: impl Fn() -> Simulation, topology: Topology) -> Coordinator {
    let session = build();
    let cfg = session.driver.cfg;
    let params = session.driver.global.shared.len();
    let plan = cfg.adversary.expect("an adversary plan");
    let byzantine = spatl_fl::Adversary::new(plan).byzantine_mask(cfg.n_clients);
    let opts = CoordinatorConfig {
        topology: topology.clone(),
        ..root_config()
    };
    let mut coordinator = Coordinator::bind(session.driver, opts).expect("bind root");
    let root_addr = coordinator.local_addr().expect("root addr").to_string();

    // Where each client connects: its edge when tiered, the root when flat.
    let mut edge_handles = Vec::new();
    let homes: Vec<(std::ops::Range<usize>, String)> = match topology {
        Topology::Flat => vec![(0..cfg.n_clients, root_addr)],
        Topology::Tiered { edges } => edge_partition(cfg.n_clients, edges)
            .into_iter()
            .enumerate()
            .map(|(e, range)| {
                let opts = EdgeConfig::new(e, edges, root_addr.clone(), "127.0.0.1:0");
                let edge = EdgeAggregator::bind(cfg, opts).expect("bind edge");
                let addr = edge.local_addr().expect("edge addr").to_string();
                edge_handles.push(thread::spawn(move || edge.run()));
                (range, addr)
            })
            .collect(),
    };
    let node_handles: Vec<JoinHandle<()>> = session
        .clients
        .into_iter()
        .map(|c| {
            let home = homes.iter().find(|(range, _)| range.contains(&c.id));
            let addr = home.expect("every client has a home").1.clone();
            if byzantine[c.id] {
                thread::spawn(move || byzantine_node(cfg, c, addr, params))
            } else {
                thread::spawn(move || {
                    let node = ClientNode::new(cfg, c, NodeConfig::new(addr));
                    node.run().expect("node exits cleanly");
                })
            }
        })
        .collect();

    assert!(coordinator.run().expect("session runs"), "no shutdown");
    for h in edge_handles {
        h.join().expect("edge thread").expect("edge exits cleanly");
    }
    for h in node_handles {
        h.join().expect("node thread");
    }
    coordinator
}

/// Fixed-point privacy behind edges still enforces the session's L2 ball:
/// the edges do not check it (they forward frames), so the root's close
/// must — exactly as the flat root's does. One λ = 100 attacker among
/// four clients is quarantined for `RangeBound` every round under both
/// topologies, and the two sessions end on the same bits.
#[test]
fn tiered_fixed_point_session_enforces_the_range_bound() {
    let plan = AdversaryPlan::with_attack(0.25, AttackKind::ScaleAttack);
    let make = || {
        builder(Algorithm::FedAvg, 2)
            .privacy(PrivacyConfig::fixed(11, 100.0))
            .adversary(plan)
            .build()
    };
    let attacker = spatl_fl::Adversary::new(plan)
        .byzantine_mask(4)
        .iter()
        .position(|&b| b)
        .expect("one attacker");

    let flat = run_with_byzantine_nodes(make, Topology::Flat);
    let tiered = run_with_byzantine_nodes(make, Topology::Tiered { edges: EDGES });
    for (topology, run) in [("flat", &flat), ("tiered", &tiered)] {
        assert_eq!(run.driver.history.len(), 2, "{topology}");
        for record in &run.driver.history {
            let quarantined: Vec<usize> = record
                .faults
                .events
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        FaultKind::Quarantined {
                            reason: spatl_fl::ScreenReason::RangeBound { .. }
                        }
                    )
                })
                .map(|e| e.client_id)
                .collect();
            assert_eq!(quarantined, [attacker], "{topology} round {}", record.round);
            assert_eq!(record.faults.sampled, 4, "{topology}");
            assert_eq!(record.faults.survivors, 3, "{topology}");
            assert_eq!(record.agg_mode, "spill-range", "{topology}");
        }
    }
    assert_global_bit_identical(&flat.driver.global, &tiered.driver.global);
}

/// Ids of the clients `record` quarantined, in ledger order.
fn quarantined(record: &spatl_fl::RoundRecord) -> Vec<usize> {
    let events = record.faults.events.iter();
    let quarantined = events.filter(|e| matches!(e.kind, FaultKind::Quarantined { .. }));
    quarantined.map(|e| e.client_id).collect()
}

/// One Byzantine client among four, under `make`'s aggregator or screen,
/// flat and behind two edges over TCP: the edges relay the tampered
/// upload untouched, so the root screens and folds it exactly as the flat
/// root does — same global bits, counters, quarantines and fold modes.
/// Returns the tiered run.
fn assert_attacked_tier_folds_as_flat(make: impl Fn() -> ExperimentBuilder) -> Coordinator {
    let flat = run_with_byzantine_nodes(|| make().build(), Topology::Flat);
    let tiered = run_with_byzantine_nodes(|| make().build(), Topology::Tiered { edges: EDGES });
    assert_global_bit_identical(&flat.driver.global, &tiered.driver.global);
    let (f, t) = (&flat.driver.history, &tiered.driver.history);
    assert_eq!(f.len(), t.len());
    for (f, t) in f.iter().zip(t) {
        let round = f.round;
        assert_eq!(f.mean_acc.to_bits(), t.mean_acc.to_bits(), "round {round}");
        assert_eq!(
            fault_counters(&f.faults),
            fault_counters(&t.faults),
            "round {round}"
        );
        assert_eq!(f.faults.survivors, t.faults.survivors, "round {round}");
        assert_eq!(quarantined(f), quarantined(t), "round {round}");
        assert_eq!(f.agg_mode, t.agg_mode, "round {round}");
    }
    tiered
}

fn attacked(algorithm: Algorithm, attack: AttackKind) -> ExperimentBuilder {
    builder(algorithm, 2).adversary(AdversaryPlan::with_attack(0.25, attack))
}

#[test]
fn tiered_median_under_a_scale_attack_matches_flat() {
    assert_attacked_tier_folds_as_flat(|| {
        attacked(Algorithm::FedAvg, AttackKind::ScaleAttack).aggregator(MEDIAN)
    });
}

#[test]
fn tiered_trimmed_mean_under_a_sign_flip_matches_flat() {
    assert_attacked_tier_folds_as_flat(|| {
        attacked(spatl(), AttackKind::SignFlip).aggregator(TRIMMED)
    });
}

#[test]
fn tiered_clipped_mean_under_a_scale_attack_matches_flat() {
    assert_attacked_tier_folds_as_flat(|| {
        attacked(Algorithm::FedAvg, AttackKind::ScaleAttack).aggregator(CLIPPED)
    });
}

/// The screen runs once, at the root, over the whole cohort: the NaN
/// injector is quarantined there in both topologies, every round.
#[test]
fn tiered_screen_quarantines_a_nan_injector_at_the_root() {
    let make =
        || attacked(Algorithm::FedAvg, AttackKind::NanInjection).screen(ScreenPolicy::default());
    let tiered = assert_attacked_tier_folds_as_flat(make);
    for record in &tiered.driver.history {
        assert_eq!(quarantined(record).len(), 1, "round {}", record.round);
        assert_eq!(record.faults.survivors, 3, "round {}", record.round);
    }
}
