//! Chaos loopback integration tests: the networked runtime under a
//! seeded [`FaultPlan`] (DESIGN.md §8), on 127.0.0.1.
//!
//! The headline assertions: scheduled transport faults — torn frames and
//! connection resets, duplicated upload replies, replayed uploads after a
//! reconnect — change *nothing* about the aggregate (the global stays
//! bit-identical to the chaos-free fold of the surviving cohort) while
//! every discarded copy lands in the fault ledger; a quorum below 1.0
//! commits the round without its stragglers; and a chaos-killed edge is
//! ledgered as a dead partition at the root while its surviving clients
//! fail over to the root link.

use std::net::TcpStream;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use spatl::prelude::*;
use spatl::ExperimentBuilder;
use spatl_fl::{edge_partition, ClientState, GlobalState};
use spatl_net::{
    ClientNode, Coordinator, CoordinatorConfig, EdgeAggregator, EdgeConfig, EdgeReport, Hello,
    HelloRole, Join, NetError, NodeConfig, NodeReport, RoundAssign, RoundDone, RoundMode, Topology,
};
use spatl_wire::{open, read_frame, seal, write_frame, MsgType, MAX_FRAME_PAYLOAD};

fn builder(algorithm: Algorithm, rounds: usize) -> ExperimentBuilder {
    ExperimentBuilder::new(algorithm)
        .model(ModelKind::Cnn2)
        .clients(3)
        .samples_per_client(18)
        .rounds(rounds)
        .local_epochs(1)
        .batch_size(8)
        .seed(7)
}

fn coordinator_config() -> CoordinatorConfig {
    CoordinatorConfig {
        addr: "127.0.0.1:0".to_string(),
        join_timeout: Duration::from_secs(20),
        round_timeout: Duration::from_secs(120),
        io_timeout: Duration::from_secs(20),
        ..CoordinatorConfig::default()
    }
}

type NodeHandle = JoinHandle<Result<(ClientState, NodeReport), NetError>>;

fn spawn_nodes(cfg: FlConfig, clients: Vec<ClientState>, addr: &str) -> Vec<NodeHandle> {
    clients
        .into_iter()
        .map(|c| {
            let opts = NodeConfig::new(addr);
            thread::spawn(move || ClientNode::new(cfg, c, opts).run())
        })
        .collect()
}

fn join_nodes(handles: Vec<NodeHandle>) -> Vec<(ClientState, NodeReport)> {
    handles
        .into_iter()
        .map(|h| h.join().expect("node thread").expect("node exits cleanly"))
        .collect()
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

/// One full networked session under `plan`; returns the coordinator
/// (global + history) and the node reports.
fn run_chaos_session(
    algorithm: Algorithm,
    rounds: usize,
    plan: FaultPlan,
) -> (Coordinator, Vec<(ClientState, NodeReport)>) {
    let session = builder(algorithm, rounds).faults(plan).build();
    let cfg = session.driver.cfg;
    let mut coordinator =
        Coordinator::bind(session.driver, coordinator_config()).expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handles = spawn_nodes(cfg, session.clients, &addr);
    let completed = coordinator.run().expect("chaos run");
    assert!(completed, "no shutdown was requested");
    let reports = join_nodes(handles);
    (coordinator, reports)
}

/// Raw control-plane handshake for the hand-rolled misbehaving clients.
fn raw_handshake(addr: &str, cfg: &FlConfig, client_id: u32) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let hello = Hello {
        client_id,
        fingerprint: spatl_net::session_fingerprint(cfg),
        role: HelloRole::Client,
    };
    write_frame(&mut stream, &seal(MsgType::Hello, &hello.encode())).expect("send hello");
    let frame = read_frame(&mut stream, MAX_FRAME_PAYLOAD)
        .expect("read join")
        .expect("join frame");
    let (msg, payload) = open(&frame).expect("open join");
    assert_eq!(msg, MsgType::Join);
    assert!(Join::decode(payload).expect("decode join").accepted);
    stream
}

/// Read one round assignment (and its broadcast frames) off a raw stream.
fn raw_read_assignment(stream: &mut TcpStream) -> RoundAssign {
    let frame = read_frame(stream, MAX_FRAME_PAYLOAD)
        .expect("read assign")
        .expect("assign frame");
    let (msg, payload) = open(&frame).expect("open assign");
    assert_eq!(msg, MsgType::RoundAssign);
    let assign = RoundAssign::decode(payload).expect("decode assign");
    for _ in 0..assign.n_frames {
        read_frame(stream, MAX_FRAME_PAYLOAD)
            .expect("read broadcast frame")
            .expect("broadcast frame");
    }
    assign
}

/// Send one complete train reply — header plus every sealed upload frame
/// — exactly the way [`ClientNode`] does.
fn raw_send_train_reply(stream: &mut TcpStream, round: u32, outcome: &spatl_fl::LocalOutcome) {
    let done = RoundDone {
        round,
        mode: RoundMode::Train,
        client_id: outcome.client_id as u32,
        n_samples: outcome.n_samples as u64,
        tau: outcome.tau as u64,
        diverged: outcome.diverged,
        keep_ratio: outcome.keep_ratio,
        flops_ratio: outcome.flops_ratio,
        accuracy: 0.0,
        bytes_download: outcome.bytes.download,
        bytes_upload: outcome.bytes.upload,
        upload_payload: outcome.wire.upload_payload,
        upload_framed: outcome.wire.upload_framed,
        n_frames: outcome.frames.len() as u32,
    };
    write_frame(stream, &seal(MsgType::RoundDone, &done.encode())).expect("send done");
    for f in &outcome.frames {
        write_frame(stream, f).expect("send upload frame");
    }
}

/// Serve one evaluation assignment on a raw stream (accuracy 0.0 — the
/// dedup tests assert the aggregate, not the reported accuracies).
fn raw_serve_eval(stream: &mut TcpStream, client_id: u32) {
    let assign = raw_read_assignment(stream);
    assert_eq!(assign.mode, RoundMode::Eval);
    let done = RoundDone {
        round: assign.round,
        mode: RoundMode::Eval,
        client_id,
        n_samples: 0,
        tau: 0,
        diverged: false,
        keep_ratio: 0.0,
        flops_ratio: 0.0,
        accuracy: 0.0,
        bytes_download: 0,
        bytes_upload: 0,
        upload_payload: 0,
        upload_framed: 0,
        n_frames: 0,
    };
    write_frame(stream, &seal(MsgType::RoundDone, &done.encode())).expect("send eval done");
}

/// Every client duplicates its complete upload reply every round: the
/// coordinator must fold exactly one copy per (round, client), ledger
/// every extra copy as [`FaultKind::DuplicateUpload`], and finish with
/// the global the chaos-free simulator produces.
#[test]
fn duplicated_uploads_are_deduped_bit_identically() {
    let algorithm = Algorithm::FedAvg;
    let rounds = 2;
    let mut sim = builder(algorithm, rounds).build();
    sim.run();

    let plan = FaultPlan {
        duplicate: 1.0,
        ..FaultPlan::default()
    };
    let (coordinator, reports) = run_chaos_session(algorithm, rounds, plan);

    assert_global_bit_identical(&sim.driver.global, &coordinator.driver.global);
    for (s, n) in sim.driver.history.iter().zip(&coordinator.driver.history) {
        assert_eq!(
            s.mean_acc.to_bits(),
            n.mean_acc.to_bits(),
            "round {}",
            s.round
        );
        assert_eq!(n.faults.survivors, 3, "every client still folds once");
        assert_eq!(n.faults.duplicates, 3, "every extra copy is ledgered");
        assert_eq!(n.faults.dropouts, 0);
        assert!(n
            .faults
            .events
            .iter()
            .all(|e| matches!(e.kind, FaultKind::DuplicateUpload)));
    }
    for (_, report) in &reports {
        assert_eq!(report.reconnects, 0, "duplication never drops the link");
    }
}

/// Every client's first transmission of every round is torn mid-frame and
/// the connection reset: the coordinator holds the slot open, the node
/// reconnects mid-round and replays its cached reply, and the session
/// still finishes bit-identical to the chaos-free simulator with a clean
/// ledger — a torn upload is a delay, not a loss.
#[test]
fn torn_frames_and_resets_recover_bit_identically() {
    let algorithm = Algorithm::FedAvg;
    let rounds = 2;
    let mut sim = builder(algorithm, rounds).build();
    sim.run();

    let plan = FaultPlan {
        reset: 1.0,
        ..FaultPlan::default()
    };
    let (coordinator, reports) = run_chaos_session(algorithm, rounds, plan);

    assert_global_bit_identical(&sim.driver.global, &coordinator.driver.global);
    for (s, n) in sim.driver.history.iter().zip(&coordinator.driver.history) {
        assert_eq!(
            s.mean_acc.to_bits(),
            n.mean_acc.to_bits(),
            "round {}",
            s.round
        );
        assert_eq!(n.faults.survivors, 3, "every torn upload was retried");
        assert_eq!(n.faults.total(), 0, "a recovered reset ledgers nothing");
    }
    for (_, report) in &reports {
        assert_eq!(report.reconnects, rounds, "one scheduled reset per round");
        assert_eq!(
            report.replays, rounds,
            "every retry was answered from the reply cache, not retrained"
        );
    }
}

/// A mixed chaos schedule — resets, duplicates and stalls — is seeded:
/// the same plan seed reproduces the fault ledger event-for-event and the
/// global bit-for-bit, and (at quorum 1.0, where every client's retry
/// still folds) both runs match the chaos-free simulator.
#[test]
fn mixed_chaos_is_seed_deterministic() {
    let algorithm = Algorithm::FedAvg;
    let rounds = 2;
    let mut sim = builder(algorithm, rounds).build();
    sim.run();

    let plan = FaultPlan {
        reset: 0.4,
        duplicate: 0.4,
        stall: 0.3,
        stall_ms: 20,
        seed: 0xD1CE,
        ..FaultPlan::default()
    };
    let (run_a, _) = run_chaos_session(algorithm, rounds, plan);
    let (run_b, _) = run_chaos_session(algorithm, rounds, plan);

    assert_global_bit_identical(&run_a.driver.global, &run_b.driver.global);
    for (a, b) in run_a.driver.history.iter().zip(&run_b.driver.history) {
        assert_eq!(a.faults, b.faults, "round {}: ledgers must replay", a.round);
        assert_eq!(a.mean_acc.to_bits(), b.mean_acc.to_bits());
    }
    // Quorum 1.0: every scheduled fault recovers in-round, so the chaos
    // run aggregates the full cohort — bit-identical to no chaos at all.
    assert_global_bit_identical(&sim.driver.global, &run_a.driver.global);
    for record in &run_a.driver.history {
        assert_eq!(record.faults.survivors, 3);
        assert_eq!(record.faults.dropouts, 0);
    }
}

/// The per-(round, client) idempotence guard, exercised raw: a client
/// uploads cleanly, reconnects, and replays the *same* reply — as a real
/// node would after losing the connection right after its send. The
/// coordinator must ledger the replay as [`FaultKind::DuplicateUpload`]
/// and fold the client exactly once.
#[test]
fn replayed_upload_after_reconnect_is_discarded() {
    let algorithm = Algorithm::FedAvg;
    let mut sim = builder(algorithm, 1).build();
    sim.run();

    let session = builder(algorithm, 1).build();
    let cfg = session.driver.cfg;
    let global = session.driver.global.clone();
    let mut clients = session.clients;
    let mut coordinator =
        Coordinator::bind(session.driver, coordinator_config()).expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr").to_string();

    let raw_addr = addr.clone();
    let driver = thread::spawn(move || {
        // All three clients are raw and driven in a strict order, so the
        // replay deterministically lands while the round is still open.
        let mut streams: Vec<TcpStream> = (0..3)
            .map(|id| raw_handshake(&raw_addr, &cfg, id))
            .collect();
        let outcomes: Vec<spatl_fl::LocalOutcome> = clients
            .iter_mut()
            .map(|c| c.local_update(&cfg, &global, 0))
            .collect();
        for stream in streams.iter_mut() {
            let assign = raw_read_assignment(stream);
            assert_eq!(assign.mode, RoundMode::Train);
        }
        // Client 0: clean upload, drop the link, reconnect, replay. The
        // pause lets the coordinator finish assembling and folding the
        // first copy — reconnecting while it is still mid-assembly would
        // (correctly) restart the slot instead of exercising the
        // idempotence guard. The round cannot end underneath the wait:
        // clients 1 and 2 have not uploaded yet.
        raw_send_train_reply(&mut streams[0], 0, &outcomes[0]);
        thread::sleep(Duration::from_millis(500));
        drop(std::mem::replace(
            &mut streams[0],
            raw_handshake(&raw_addr, &cfg, 0),
        ));
        let assign = raw_read_assignment(&mut streams[0]);
        assert_eq!(assign.round, 0, "the round assignment is resent in-round");
        raw_send_train_reply(&mut streams[0], 0, &outcomes[0]);
        // Only now do the other two finish the round.
        raw_send_train_reply(&mut streams[1], 0, &outcomes[1]);
        raw_send_train_reply(&mut streams[2], 0, &outcomes[2]);
        for (id, stream) in streams.iter_mut().enumerate() {
            raw_serve_eval(stream, id as u32);
        }
        // Wait for the coordinator's goodbye so no write races a drop.
        for stream in streams.iter_mut() {
            let _ = read_frame(stream, MAX_FRAME_PAYLOAD);
        }
    });

    coordinator.wait_for_clients();
    let record = coordinator.run_round();
    coordinator.finish().expect("finish");
    driver.join().expect("raw driver thread");

    assert_eq!(record.faults.sampled, 3);
    assert_eq!(record.faults.survivors, 3, "client 0 folded exactly once");
    assert_eq!(record.faults.duplicates, 1, "the replayed copy is ledgered");
    assert!(record
        .faults
        .events
        .iter()
        .any(|e| e.client_id == 0 && matches!(e.kind, FaultKind::DuplicateUpload)));
    assert_global_bit_identical(&sim.driver.global, &coordinator.driver.global);
}

/// With `quorum: 0.6` over three clients, two folded uploads commit the
/// round: a client that registered but never uploads is cut and ledgered
/// as a dropout instead of stalling the round until `round_timeout`.
#[test]
fn quorum_commits_round_without_straggler() {
    let algorithm = Algorithm::FedAvg;
    let session = builder(algorithm, 1).build();
    let cfg = session.driver.cfg;
    let mut clients = session.clients;
    let silent = clients.remove(0);
    assert_eq!(silent.id, 0);

    let before = session.driver.global.shared.clone();
    let mut opts = coordinator_config();
    opts.quorum = 0.6;
    let mut coordinator = Coordinator::bind(session.driver, opts).expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handles = spawn_nodes(cfg, clients, &addr);

    let silent_addr = addr.clone();
    let straggler = thread::spawn(move || {
        let mut stream = raw_handshake(&silent_addr, &cfg, 0);
        let assign = raw_read_assignment(&mut stream);
        assert_eq!(assign.mode, RoundMode::Train);
        // Never upload: hold the stream open until the quorum cut closes
        // it server-side (a blocking read observes the close).
        let _ = read_frame(&mut stream, MAX_FRAME_PAYLOAD);
    });

    coordinator.wait_for_clients();
    let record = coordinator.run_round();
    coordinator.finish().expect("finish");
    straggler.join().expect("straggler thread");
    join_nodes(handles);

    assert_eq!(record.faults.sampled, 3);
    assert_eq!(record.faults.survivors, 2, "the quorum committed the round");
    assert_eq!(record.faults.dropouts, 1, "the shortfall is ledgered");
    assert!(record
        .faults
        .events
        .iter()
        .any(|e| e.client_id == 0 && matches!(e.kind, FaultKind::Dropout)));
    assert!(
        coordinator
            .driver
            .global
            .shared
            .iter()
            .zip(&before)
            .any(|(a, b)| a.to_bits() != b.to_bits()),
        "aggregation over the quorum moved the global model"
    );
}

/// A chaos-killed edge mid-session: the root ledgers the dead partition
/// the round the edge vanishes (degrading to the surviving edge instead
/// of stalling), and the killed edge's clients re-register directly at
/// the root over their `--fallback-addr` and train on the root link for
/// the remaining rounds — under the weighted mean and under a robust
/// aggregator alike, since the root folds every upload either way.
#[test]
fn killed_edge_is_ledgered_and_clients_fail_over() {
    for aggregator in [
        AggregatorKind::WeightedMean,
        AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.25 },
    ] {
        assert_killed_edge_fails_over(aggregator);
    }
}

fn assert_killed_edge_fails_over(aggregator: AggregatorKind) {
    const EDGES: usize = 2;
    let algorithm = Algorithm::FedAvg;
    let rounds = 5;
    let kill_round = 1u32;
    let plan = FaultPlan {
        kill_edge: Some((kill_round, 0)),
        ..FaultPlan::default()
    };
    let make = || {
        ExperimentBuilder::new(algorithm)
            .model(ModelKind::Cnn2)
            .clients(4)
            .samples_per_client(18)
            .rounds(rounds)
            .local_epochs(1)
            .batch_size(8)
            .seed(7)
            .faults(plan)
            .aggregator(aggregator)
            .build()
    };

    let session = make();
    let cfg = session.driver.cfg;
    let root_opts = CoordinatorConfig {
        topology: Topology::Tiered { edges: EDGES },
        ..coordinator_config()
    };
    let mut coordinator = Coordinator::bind(session.driver, root_opts).expect("bind root");
    let root_addr = coordinator.local_addr().expect("root addr").to_string();

    let mut edge_handles: Vec<JoinHandle<Result<EdgeReport, NetError>>> = Vec::new();
    let mut edge_addrs: Vec<String> = Vec::new();
    for e in 0..EDGES {
        let edge = EdgeAggregator::bind(
            cfg,
            EdgeConfig::new(e, EDGES, root_addr.clone(), "127.0.0.1:0"),
        )
        .expect("bind edge");
        edge_addrs.push(edge.local_addr().expect("edge addr").to_string());
        edge_handles.push(thread::spawn(move || edge.run()));
    }

    let ranges = edge_partition(cfg.n_clients, EDGES);
    let node_handles: Vec<NodeHandle> = session
        .clients
        .into_iter()
        .map(|c| {
            let e = ranges
                .iter()
                .position(|r| r.contains(&c.id))
                .expect("slice");
            let mut opts = NodeConfig::new(edge_addrs[e].clone());
            opts.fallback_addr = Some(root_addr.clone());
            opts.fallback_after = 1;
            // Fail over well inside the surviving edge's round so the
            // orphaned clients are registered by the next accept sweep.
            opts.backoff_base = Duration::from_millis(2);
            thread::spawn(move || ClientNode::new(cfg, c, opts).run())
        })
        .collect();

    let completed = coordinator.run().expect("tiered chaos run");
    assert!(completed, "no shutdown was requested");
    let edge_reports: Vec<EdgeReport> = edge_handles
        .into_iter()
        .map(|h| h.join().expect("edge thread").expect("edge exits"))
        .collect();
    let node_reports = join_nodes(node_handles);

    let history = &coordinator.driver.history;
    assert_eq!(history.len(), rounds);
    assert_eq!(history[0].faults.total(), 0, "round 0 ran chaos-free");
    assert_eq!(history[0].faults.survivors, 4);
    // The kill round: edge 0's whole slice is a ledgered dead partition,
    // and the round still commits over the surviving edge.
    let killed = &history[kill_round as usize];
    assert_eq!(killed.faults.sampled, 4);
    assert_eq!(killed.faults.dropouts, 2, "the dead partition is ledgered");
    assert_eq!(killed.faults.survivors, 2, "the surviving edge still folds");
    assert!(!killed.faults.no_op);
    // By the last round the orphaned clients train over the root link.
    let last = history.last().expect("ran rounds");
    let name = aggregator.name();
    assert_eq!(
        last.faults.survivors, 4,
        "{name}: failover restored the cohort"
    );
    assert_eq!(last.faults.dropouts, 0);

    assert_eq!(
        edge_reports[0].rounds_forwarded, 1,
        "edge 0 died on round 1's assignment"
    );
    assert_eq!(edge_reports[1].rounds_forwarded, rounds);
    for (state, report) in &node_reports {
        if ranges[0].contains(&state.id) {
            assert!(
                report.reconnects >= 1,
                "client {} re-registered after its edge died",
                state.id
            );
        }
        assert_eq!(report.replays, 0);
    }
}
