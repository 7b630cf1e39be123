//! Loopback integration tests: the networked runtime against the
//! in-process simulator, on 127.0.0.1.
//!
//! The headline assertion is *bit identity*: a coordinator plus N client
//! node threads, exchanging sealed frames over real TCP, must finish
//! with exactly the global state the simulator produces from the same
//! seeds — for all five algorithms. The fault tests then kill and
//! restart parts of the session and check the ledger and the round log
//! keep their promises.

use std::io::Read;
use std::net::TcpStream;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use spatl::prelude::*;
use spatl::{ExperimentBuilder, RoundLog};
use spatl_fl::{ClientState, GlobalState, RoundRecord};
use spatl_net::{
    ClientNode, Coordinator, CoordinatorConfig, Hello, Join, NetError, NodeConfig, NodeReport,
    RoundAssign, RoundDone, RoundMode,
};
use spatl_wire::{
    flip_bit, open, read_frame, seal, write_frame, MsgType, HEADER_LEN, MAX_FRAME_PAYLOAD,
};

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

/// Run the same session twice — in-process and over loopback TCP — and
/// assert the resulting global models (and per-round records) are bit
/// identical.
fn assert_networked_matches_simulator(algorithm: Algorithm) {
    assert_networked_matches_simulator_with(algorithm, coordinator_config());
}

fn assert_networked_matches_simulator_with(algorithm: Algorithm, config: CoordinatorConfig) {
    let rounds = 2;

    let mut sim = builder(algorithm, rounds).build();
    sim.run();

    let session = builder(algorithm, rounds).build();
    let cfg = session.driver.cfg;
    let mut coordinator = Coordinator::bind(session.driver, config).expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handles = spawn_nodes(cfg, session.clients, &addr);
    let completed = coordinator.run().expect("networked run");
    assert!(completed, "no shutdown was requested");
    let reports = join_nodes(handles);

    assert_global_bit_identical(&sim.driver.global, &coordinator.driver.global);
    assert_eq!(sim.driver.history.len(), coordinator.driver.history.len());
    for (s, n) in sim.driver.history.iter().zip(&coordinator.driver.history) {
        assert_eq!(s.round, n.round);
        assert_eq!(
            s.mean_acc.to_bits(),
            n.mean_acc.to_bits(),
            "round {}",
            s.round
        );
        assert_bits_equal("per_client_acc", &s.per_client_acc, &n.per_client_acc);
        assert_eq!(s.bytes, n.bytes, "Eq. 13 accounting, round {}", s.round);
        assert_eq!(s.wire, n.wire, "measured wire bytes, round {}", s.round);
        assert_eq!(s.faults.survivors, n.faults.survivors);
        assert_eq!(n.faults.total(), 0, "clean run must ledger nothing");
        // The networked round really was timed; the simulator's never is.
        assert!(n.measured_wall_s > 0.0);
        assert_eq!(s.measured_wall_s, 0.0);
    }
    for (_, report) in &reports {
        assert_eq!(report.rounds_trained, rounds);
        assert_eq!(report.rounds_evaluated, rounds);
        assert_eq!(report.reconnects, 0);
    }
}

#[test]
fn networked_matches_simulator_fedavg() {
    assert_networked_matches_simulator(Algorithm::FedAvg);
}

#[test]
fn networked_matches_simulator_fedprox() {
    assert_networked_matches_simulator(Algorithm::FedProx { mu: 0.01 });
}

#[test]
fn networked_matches_simulator_scaffold() {
    assert_networked_matches_simulator(Algorithm::Scaffold);
}

#[test]
fn networked_matches_simulator_fednova() {
    assert_networked_matches_simulator(Algorithm::FedNova);
}

#[test]
fn networked_matches_simulator_spatl() {
    assert_networked_matches_simulator(Algorithm::Spatl(SpatlOptions::default()));
}

/// Raw control-plane handshake for the hand-rolled misbehaving clients.
fn raw_handshake(addr: &str, cfg: &FlConfig, client_id: u32) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let hello = Hello {
        client_id,
        fingerprint: spatl_net::session_fingerprint(cfg),
        role: spatl_net::HelloRole::Client,
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

/// A client that dies in the middle of its upload must surface as a
/// ledgered dropout while the round still completes over the survivors.
#[test]
fn client_killed_mid_upload_is_a_ledgered_dropout() {
    let algorithm = Algorithm::FedAvg;
    let session = builder(algorithm, 1).build();
    let cfg = session.driver.cfg;
    let mut clients = session.clients;
    // Honest nodes for clients 1 and 2; client 0 is the victim, collected
    // first so the failure is observed before the survivors.
    let victim = clients.remove(0);
    assert_eq!(victim.id, 0);

    let before = session.driver.global.shared.clone();
    let mut coordinator =
        Coordinator::bind(session.driver, coordinator_config()).expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handles = spawn_nodes(cfg, clients, &addr);

    let killer_addr = addr.clone();
    let killer = thread::spawn(move || {
        let mut stream = raw_handshake(&killer_addr, &cfg, 0);
        let assign = raw_read_assignment(&mut stream);
        assert_eq!(assign.mode, RoundMode::Train);
        // Claim a two-frame upload, deliver one frame, die.
        let done = RoundDone {
            round: assign.round,
            mode: RoundMode::Train,
            client_id: 0,
            n_samples: 12,
            tau: 2,
            diverged: false,
            keep_ratio: 1.0,
            flops_ratio: 1.0,
            accuracy: 0.0,
            bytes_download: 0,
            bytes_upload: 0,
            upload_payload: 0,
            upload_framed: 0,
            n_frames: 2,
        };
        write_frame(&mut stream, &seal(MsgType::RoundDone, &done.encode())).expect("send done");
        write_frame(&mut stream, &seal(MsgType::BnStats, &[])).expect("send partial upload");
        drop(stream); // killed mid-upload
    });

    coordinator.wait_for_clients();
    let record = coordinator.run_round();
    coordinator.finish().expect("finish");
    killer.join().expect("killer thread");
    join_nodes(handles);

    assert_eq!(record.faults.sampled, 3);
    assert_eq!(record.faults.dropouts, 1, "the kill is a ledgered dropout");
    assert!(record
        .faults
        .events
        .iter()
        .any(|e| e.client_id == 0 && matches!(e.kind, FaultKind::Dropout)));
    assert_eq!(record.faults.survivors, 2, "the round completes without it");
    assert!(!record.faults.no_op, "the survivors' updates were applied");
    assert!(
        coordinator
            .driver
            .global
            .shared
            .iter()
            .zip(&before)
            .any(|(a, b)| a.to_bits() != b.to_bits()),
        "aggregation over the survivors moved the global model"
    );
}

/// A fresh round-log path in the temp directory.
fn wal_path(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("spatl_net_{name}_{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// A `Shutdown` frame from a client ends the session early: the round it
/// interrupted still completes and commits to the round log, whose last
/// commit recovers the final global state bit identically.
#[test]
fn shutdown_frame_commits_global_state_to_round_log() {
    let algorithm = Algorithm::FedAvg;
    let wal = wal_path("shutdown");

    let session = builder(algorithm, 4).build();
    let cfg = session.driver.cfg;
    let mut clients = session.clients;
    let controller = clients.remove(2);
    assert_eq!(controller.id, 2);

    let mut opts = coordinator_config();
    opts.wal = Some(wal.clone());
    let mut coordinator = Coordinator::bind(session.driver, opts).expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handles = spawn_nodes(cfg, clients, &addr);

    let controller_addr = addr.clone();
    let controller = thread::spawn(move || {
        let mut stream = raw_handshake(&controller_addr, &cfg, 2);
        let assign = raw_read_assignment(&mut stream);
        assert_eq!(assign.round, 0);
        // Ask the session to stop instead of uploading.
        write_frame(&mut stream, &seal(MsgType::Shutdown, &[])).expect("send shutdown");
        stream
    });

    let completed = coordinator.run().expect("networked run");
    assert!(!completed, "the session was shut down early");
    drop(controller.join().expect("controller thread"));
    join_nodes(handles);

    assert_eq!(
        coordinator.driver.history.len(),
        1,
        "the interrupted round still completed"
    );
    let record = &coordinator.driver.history[0];
    assert!(record.faults.dropouts >= 1, "the requester left the round");
    assert_eq!(record.faults.survivors, 2);

    let (recovery, _) = RoundLog::recover(&wal).expect("round log recovers");
    assert_eq!(recovery.completed, 1);
    assert!(
        recovery.pending.is_none(),
        "the interrupted round committed"
    );
    let restored = recovery.global.expect("a committed global");
    assert_global_bit_identical(&coordinator.driver.global, &restored);
    let _ = std::fs::remove_file(&wal);
}

/// Run `rounds` rounds of `algorithm` at `sample_ratio`, stopping the
/// coordinator after `stop_after` of them, then bring up a new one on the
/// same round log and let the *same* client nodes reconnect: the resumed
/// session must finish bit-identical to an uninterrupted simulator run,
/// and every node must have trained exactly the rounds the simulator
/// sampled it in.
fn assert_restart_resumes_bit_identically(
    algorithm: Algorithm,
    sample_ratio: f32,
    rounds: usize,
    stop_after: usize,
) {
    let build = || {
        builder(algorithm, rounds)
            .sample_ratio(sample_ratio)
            .build()
    };
    let wal = wal_path(&format!("resume_{}", sample_ratio.to_bits()));

    let mut sim = build();
    sim.run();

    // Phase A: run the first rounds, then shut down; all committed to
    // the round log.
    let session = build();
    let cfg = session.driver.cfg;
    let mut opts = coordinator_config();
    opts.wal = Some(wal.clone());
    let mut coordinator = Coordinator::bind(session.driver, opts.clone()).expect("bind A");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handles = spawn_nodes(cfg, session.clients, &addr);
    coordinator.wait_for_clients();
    for _ in 0..stop_after {
        coordinator.run_round();
    }
    coordinator.finish().expect("finish A");
    let survivors: Vec<ClientState> = join_nodes(handles).into_iter().map(|(c, _)| c).collect();
    let trained_before: Vec<usize> = survivors.iter().map(|c| c.participations).collect();
    drop(coordinator);

    // Phase B: a fresh coordinator bound on the same log recovers the
    // committed global and sampling position by itself, and the
    // surviving nodes reconnect with their state intact.
    let session_b = build();
    let mut coordinator = Coordinator::bind(session_b.driver, opts).expect("bind B");
    assert_eq!(coordinator.driver.round_index(), stop_after);
    assert_eq!(coordinator.resumed_mid_round(), None);
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handles = spawn_nodes(cfg, survivors, &addr);
    let completed = coordinator.run().expect("networked resume");
    assert!(completed);
    let reports = join_nodes(handles);

    assert_global_bit_identical(&sim.driver.global, &coordinator.driver.global);
    assert_eq!(
        coordinator.driver.history.len(),
        rounds - stop_after,
        "the remaining rounds ran here"
    );
    for ((s, n), round) in sim.driver.history[stop_after..]
        .iter()
        .zip(&coordinator.driver.history)
        .zip(stop_after..)
    {
        assert_eq!(n.round, round);
        assert_eq!(s.faults.sampled, n.faults.sampled, "round {round}");
        assert_eq!(s.mean_acc.to_bits(), n.mean_acc.to_bits(), "round {round}");
    }
    for ((state, report), before) in reports.iter().zip(trained_before) {
        let sampled_in = sim.clients[state.id].participations;
        assert_eq!(state.participations, sampled_in, "client {}", state.id);
        assert_eq!(
            report.rounds_trained,
            sampled_in - before,
            "client {}",
            state.id
        );
    }
    let _ = std::fs::remove_file(&wal);
}

/// Stop the coordinator after two rounds and rebind it on its round log.
/// SCAFFOLD makes this the strictest variant — client-side control
/// variates survive only because the nodes outlive the coordinator.
#[test]
fn coordinator_restart_resumes_bit_identically() {
    assert_restart_resumes_bit_identically(Algorithm::Scaffold, 1.0, 4, 2);
}

/// The resume at partial participation: two of three clients per round,
/// so the resumed coordinator must sample round 3 exactly as the
/// uninterrupted run did. At full participation every round samples
/// every client, and a resume that lost the sampling position would go
/// unseen.
#[test]
fn coordinator_restart_resumes_bit_identically_at_half_participation() {
    assert_restart_resumes_bit_identically(Algorithm::Scaffold, 0.5, 6, 3);
}

/// A round log whose pending `Begin` recorded a cohort this session does
/// not derive for that round belongs to a different sampling: resuming
/// it would replay the round onto other clients, so `bind` refuses it.
/// The same log with the derived cohort resumes mid-round.
#[test]
fn bind_refuses_a_pending_round_with_another_cohort() {
    let wal = wal_path("cohort");
    let build = || builder(Algorithm::FedAvg, 2).sample_ratio(0.5).build();
    let session = build();
    let cfg = session.driver.cfg;
    let derived = spatl_fl::sampled_cohort(&cfg, 1);
    assert_eq!(derived.len(), 2, "two of three clients per round");
    let opts = CoordinatorConfig {
        wal: Some(wal.clone()),
        ..coordinator_config()
    };
    let write_log = |sampled: &[usize]| {
        let fingerprint = spatl_net::session_fingerprint(&cfg);
        let mut log = RoundLog::create(&wal, fingerprint).expect("create log");
        log.begin(
            0,
            &spatl_fl::sampled_cohort(&cfg, 0),
            &session.driver.global,
        )
        .expect("begin 0");
        log.commit(0, &session.driver.global).expect("commit 0");
        log.begin(1, sampled, &session.driver.global)
            .expect("begin 1");
    };

    write_log(&[0, 1, 2]);
    match Coordinator::bind(build().driver, opts.clone()) {
        Err(NetError::Protocol(msg)) => assert!(msg.contains("derives"), "{msg}"),
        Err(other) => panic!("expected a protocol refusal, got {other:?}"),
        Ok(_) => panic!("a log with another cohort must not resume"),
    }

    write_log(&derived);
    let coordinator = Coordinator::bind(build().driver, opts).expect("the derived cohort resumes");
    assert_eq!(coordinator.resumed_mid_round(), Some(1));
    assert_eq!(coordinator.driver.round_index(), 1);
    let _ = std::fs::remove_file(&wal);
}

/// A finished coordinator leaves nothing that accepts a dial and never
/// answers it: a node cut after the last assignment must not wait out
/// the `Join` deadline on every redial while the coordinator lives on.
#[test]
fn finished_coordinator_answers_a_dial_at_once() {
    let session = builder(Algorithm::FedAvg, 1).build();
    let mut coordinator =
        Coordinator::bind(session.driver, coordinator_config()).expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr");
    coordinator.finish().expect("finish");

    let started = Instant::now();
    if let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
        let hello = Hello {
            client_id: 0,
            fingerprint: spatl_net::session_fingerprint(&coordinator.driver.cfg),
            role: spatl_net::HelloRole::Client,
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .expect("read deadline");
        let _ = write_frame(&mut stream, &seal(MsgType::Hello, &hello.encode()));
        let answer = read_frame(&mut stream, MAX_FRAME_PAYLOAD).ok().flatten();
        let msg = answer.map(|frame| open(&frame).expect("open answer").0);
        assert_eq!(msg, Some(MsgType::Shutdown), "a dial after finish()");
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "refused at once"
    );
    drop(coordinator);
}

/// Two processes started with different configurations must fail fast at
/// the handshake, not silently diverge.
#[test]
fn mismatched_configuration_is_rejected() {
    let session = builder(Algorithm::FedAvg, 1).build();
    let mut coordinator =
        Coordinator::bind(session.driver, coordinator_config()).expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr").to_string();

    // Same shard, different seed: the fingerprints differ.
    let foreign = builder(Algorithm::FedAvg, 1).seed(8).build();
    let foreign_cfg = foreign.driver.cfg;
    let state = foreign.clients.into_iter().next().expect("shard");
    let handle =
        thread::spawn(move || ClientNode::new(foreign_cfg, state, NodeConfig::new(addr)).run());
    // Accept (and reject) the hello while the node waits for its verdict.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !handle.is_finished() && std::time::Instant::now() < deadline {
        coordinator.accept_pending();
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(coordinator.connected(), 0, "the registration was rejected");
    match handle.join().expect("node thread") {
        Err(NetError::Rejected) => {}
        other => panic!("expected a rejection, got {other:?}"),
    }
}

/// The assignment a coordinator owes a peer: the sealed `RoundAssign`,
/// then the broadcast frames.
fn expected_assignment(round: u32, mode: RoundMode, frames: &[Vec<u8>]) -> Vec<u8> {
    let assign = RoundAssign::new(round, mode, frames.len()).encode();
    let mut bytes = seal(MsgType::RoundAssign, &assign);
    frames.iter().for_each(|f| bytes.extend_from_slice(f));
    bytes
}

/// One FedAvg round over loopback with the given decode thread count;
/// returns its record and the global after it. Clients 1 and 2 are
/// nodes; client 0 is played by hand: it reads its train and its eval
/// assignment with `read_exact` of the expected length — each must equal
/// `seal(RoundAssign) ‖ broadcast frames` byte for byte — uploads its
/// honest update (one payload bit flipped when `corrupt`) as separate
/// writes, and answers the eval pass.
fn round_with_raw_client_0(
    decode_workers: Option<usize>,
    corrupt: bool,
) -> (RoundRecord, GlobalState) {
    let session = builder(Algorithm::FedAvg, 1).build();
    let cfg = session.driver.cfg;
    let train_frames = session.driver.broadcast().frames;
    let mut clients = session.clients;
    let mut outcome = clients
        .remove(0)
        .local_update(&cfg, &session.driver.global, 0);
    if corrupt {
        flip_bit(&mut outcome.frames[0], (HEADER_LEN + 1) * 8);
    }
    let train = expected_assignment(0, RoundMode::Train, &train_frames);
    let config = CoordinatorConfig {
        decode_workers,
        ..coordinator_config()
    };
    let mut coordinator = Coordinator::bind(session.driver, config).expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handles = spawn_nodes(cfg, clients, &addr);

    // FedAvg's dense broadcast has one size in every phase.
    let len = train.len();
    let raw = thread::spawn(move || {
        let mut stream = raw_handshake(&addr, &cfg, 0);
        let mut read = [vec![0u8; len], vec![0u8; len]];
        stream.read_exact(&mut read[0]).expect("train assignment");
        let done = RoundDone::train(0, &outcome);
        write_frame(&mut stream, &seal(MsgType::RoundDone, &done.encode())).expect("send done");
        for f in &outcome.frames {
            write_frame(&mut stream, f).expect("send upload frame");
        }
        stream.read_exact(&mut read[1]).expect("eval assignment");
        let done = RoundDone::eval(0, 0, 0.5);
        write_frame(&mut stream, &seal(MsgType::RoundDone, &done.encode())).expect("send eval");
        // Nothing follows the eval assignment but the goodbye.
        let bye = read_frame(&mut stream, MAX_FRAME_PAYLOAD)
            .expect("read shutdown")
            .expect("shutdown frame");
        assert_eq!(open(&bye).expect("open shutdown").0, MsgType::Shutdown);
        read
    });

    assert_eq!(coordinator.wait_for_clients(), 3);
    let record = coordinator.run_round();
    let eval = expected_assignment(0, RoundMode::Eval, &coordinator.driver.broadcast().frames);
    coordinator.finish().expect("finish");
    // Compared before the nodes are joined: a node the coordinator cut
    // would keep redialing, and the test would hang instead of failing.
    let [read_train, read_eval] = raw.join().expect("raw client 0");
    assert!(
        read_train == train,
        "train assignment at {decode_workers:?}"
    );
    assert!(read_eval == eval, "eval assignment at {decode_workers:?}");
    assert!(train != eval, "the round moved the global");
    join_nodes(handles);
    (record, coordinator.driver.global.clone())
}

/// Every assignment leaves the coordinator as one message, and the bytes
/// are exactly what they always were: `seal(RoundAssign) ‖ broadcast
/// frames`, for the train and the eval pass alike.
#[test]
fn assignments_are_sealed_assign_then_broadcast_byte_for_byte() {
    for decode_workers in [Some(1), Some(3)] {
        let (record, _) = round_with_raw_client_0(decode_workers, false);
        assert_eq!(record.faults.total(), 0, "{decode_workers:?}");
        assert_eq!(record.faults.survivors, 3, "{decode_workers:?}");
    }
}

/// The decode thread count is a cost knob only: with no helper (every
/// upload decoded by the sweep) and with two helpers, the session is bit
/// identical to the simulator, and a corrupt upload is ledgered as
/// `CorruptUpload` over the same global bits.
#[test]
fn decode_thread_count_does_not_change_bits() {
    let counts = [Some(1), Some(3)];
    for decode_workers in counts {
        let config = CoordinatorConfig {
            decode_workers,
            ..coordinator_config()
        };
        assert_networked_matches_simulator_with(Algorithm::Scaffold, config);
    }
    let runs: Vec<(RoundRecord, GlobalState)> = counts
        .iter()
        .map(|&w| round_with_raw_client_0(w, true))
        .collect();
    for ((record, _), workers) in runs.iter().zip(counts) {
        let faults = &record.faults;
        assert_eq!(faults.events.len(), 1, "{workers:?}: {:?}", faults.events);
        assert_eq!(faults.events[0].client_id, 0);
        assert!(
            matches!(faults.events[0].kind, FaultKind::CorruptUpload { .. }),
            "{workers:?}: {:?}",
            faults.events
        );
        assert_eq!(faults.survivors, 2, "{workers:?}");
    }
    assert_global_bit_identical(&runs[0].1, &runs[1].1);
}
