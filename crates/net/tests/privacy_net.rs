//! Privacy-mode loopback integration tests: masked and fixed-point
//! sessions over real TCP on 127.0.0.1.
//!
//! The headline assertion is *server blindness without drift*: a masked
//! networked session — where every upload that crosses the wire is
//! pairwise-masked noise — must finish bit-identical to the clear
//! simulator fold from the same seeds. The dropout test then kills a
//! client mid-upload and checks the coordinator recovers the round
//! through the wire unmask protocol.

use std::net::TcpStream;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use spatl::prelude::*;
use spatl::ExperimentBuilder;
use spatl_fl::{ClientState, GlobalState};
use spatl_net::ClientNode;
use spatl_net::{
    Coordinator, CoordinatorConfig, Hello, Join, NetError, NodeConfig, NodeReport, RoundAssign,
    RoundDone, RoundMode, Topology,
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
        // Exercise the pinned decode pool instead of the machine-sized one.
        decode_workers: Some(2),
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

/// A masked networked session must finish bit-identical to the *clear*
/// simulator: the pairwise masks cancel inside the carry-save
/// accumulator, so the server learns exactly the aggregate — and nothing
/// about any individual upload that crossed the wire.
///
/// At a `sample_ratio` below 1 the clients derive the masking cohort on
/// their own: a cohort that differed from the one the coordinator
/// sampled would leave unmatched masks, and the round would not unmask.
fn assert_masked_networked_matches_clear_simulator(
    algorithm: Algorithm,
    sample_ratio: f32,
    rounds: usize,
) {
    let privacy = PrivacyConfig::masked(0xC0FFEE);
    let builder = |algorithm, rounds| builder(algorithm, rounds).sample_ratio(sample_ratio);

    let mut clear = builder(algorithm, rounds).build();
    clear.run();

    let session = builder(algorithm, rounds).privacy(privacy).build();
    let cfg = session.driver.cfg;
    let mut coordinator =
        Coordinator::bind(session.driver, coordinator_config()).expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handles = spawn_nodes(cfg, session.clients, &addr);
    let completed = coordinator.run().expect("masked networked run");
    assert!(completed, "no shutdown was requested");
    join_nodes(handles);

    assert_global_bit_identical(&clear.driver.global, &coordinator.driver.global);
    assert_eq!(clear.driver.history.len(), coordinator.driver.history.len());
    for (s, n) in clear.driver.history.iter().zip(&coordinator.driver.history) {
        assert_eq!(n.agg_mode, "masked", "round {}", n.round);
        assert_eq!(
            s.mean_acc.to_bits(),
            n.mean_acc.to_bits(),
            "round {}",
            s.round
        );
        assert_eq!(n.faults.mask_recovered, 0, "full participation, no shares");
        assert_eq!(n.faults.total(), 0, "clean run must ledger nothing");
        // Masking prices the per-pair mask exchange on top of the clear
        // upload, so the masked wire is strictly more expensive.
        assert!(n.bytes.upload > s.bytes.upload, "round {}", s.round);
        assert_eq!(n.bytes.download, s.bytes.download, "round {}", s.round);
    }
}

#[test]
fn masked_networked_matches_clear_simulator_fedavg() {
    assert_masked_networked_matches_clear_simulator(Algorithm::FedAvg, 1.0, 2);
}

#[test]
fn masked_networked_matches_clear_simulator_scaffold() {
    assert_masked_networked_matches_clear_simulator(Algorithm::Scaffold, 1.0, 2);
}

#[test]
fn masked_networked_matches_clear_simulator_spatl() {
    assert_masked_networked_matches_clear_simulator(
        Algorithm::Spatl(SpatlOptions::default()),
        1.0,
        2,
    );
}

#[test]
fn masked_networked_matches_clear_simulator_at_partial_participation() {
    assert_masked_networked_matches_clear_simulator(Algorithm::FedAvg, 0.5, 3);
}

/// A fixed-point networked session is lossy by construction, but still
/// deterministic: it must finish bit-identical to the fixed-point
/// simulator from the same seeds (quantization grid, noise streams and
/// the L2 screen all live on both sides of the wire).
#[test]
fn fixed_point_networked_matches_fixed_point_simulator() {
    let rounds = 2;
    let privacy = PrivacyConfig::fixed(11, 100.0);

    let mut sim = builder(Algorithm::FedAvg, rounds).privacy(privacy).build();
    sim.run();

    let session = builder(Algorithm::FedAvg, rounds).privacy(privacy).build();
    let cfg = session.driver.cfg;
    let mut coordinator =
        Coordinator::bind(session.driver, coordinator_config()).expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handles = spawn_nodes(cfg, session.clients, &addr);
    let completed = coordinator.run().expect("fixed-point networked run");
    assert!(completed);
    join_nodes(handles);

    assert_global_bit_identical(&sim.driver.global, &coordinator.driver.global);
    for record in &coordinator.driver.history {
        assert_eq!(record.agg_mode, "spill-range", "round {}", record.round);
        assert_eq!(record.faults.quarantined, 0, "inside the L2 ball");
    }
}

/// A masked session under a dropout plan: the clients the plan drops
/// derive no masks, so the coordinator must not assign them either —
/// otherwise it folds uploads masked against a cohort nobody else used.
/// The networked run must equal the masked simulator bit for bit, ledger
/// included.
#[test]
fn masked_session_under_dropout_plan_matches_masked_simulator() {
    let rounds = 3;
    let plan = FaultPlan {
        dropout: 0.4,
        seed: 3,
        ..FaultPlan::default()
    };
    let session = || {
        builder(Algorithm::FedAvg, rounds)
            .clients(4)
            .privacy(PrivacyConfig::masked(0xC0FFEE))
            .faults(plan)
            .build()
    };

    let mut sim = session();
    sim.run();

    let session = session();
    let cfg = session.driver.cfg;
    let mut coordinator =
        Coordinator::bind(session.driver, coordinator_config()).expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handles = spawn_nodes(cfg, session.clients, &addr);
    let completed = coordinator.run().expect("masked networked run");
    assert!(completed, "no shutdown was requested");
    join_nodes(handles);

    assert!(
        sim.driver.history.iter().any(|r| r.faults.dropouts > 0),
        "the plan never dropped anyone — vacuous"
    );
    assert!(coordinator
        .driver
        .global
        .shared
        .iter()
        .all(|v| v.is_finite()));
    assert_global_bit_identical(&sim.driver.global, &coordinator.driver.global);
    for (s, n) in sim.driver.history.iter().zip(&coordinator.driver.history) {
        assert_eq!(s.faults, n.faults, "round {}", s.round);
        assert_eq!(
            s.mean_acc.to_bits(),
            n.mean_acc.to_bits(),
            "round {}",
            s.round
        );
    }
}

/// Raw control-plane handshake for the hand-rolled dying client.
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

/// A client killed mid-upload in a masked round leaves its pairwise
/// masks dangling in the accumulator. The coordinator must collect
/// unmask shares from the folded survivors over the wire, cancel the
/// dead client's pair masks, and commit the round over the survivors
/// instead of discarding it.
#[test]
fn masked_dropout_recovers_via_wire_unmask_shares() {
    let privacy = PrivacyConfig::masked(0xC0FFEE);
    let session = builder(Algorithm::FedAvg, 1).privacy(privacy).build();
    let cfg = session.driver.cfg;
    let mut clients = session.clients;
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
        let frame = read_frame(&mut stream, MAX_FRAME_PAYLOAD)
            .expect("read assign")
            .expect("assign frame");
        let (msg, payload) = open(&frame).expect("open assign");
        assert_eq!(msg, MsgType::RoundAssign);
        let assign = RoundAssign::decode(payload).expect("decode assign");
        assert_eq!(assign.mode, RoundMode::Train);
        for _ in 0..assign.n_frames {
            read_frame(&mut stream, MAX_FRAME_PAYLOAD)
                .expect("read broadcast frame")
                .expect("broadcast frame");
        }
        // Claim a two-frame upload, deliver one frame, die: the masks
        // client 0 shares with 1 and 2 are now unbalanced.
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

    assert_eq!(record.agg_mode, "masked");
    assert_eq!(record.faults.dropouts, 1, "the kill is a ledgered dropout");
    assert_eq!(
        record.faults.mask_recovered, 1,
        "one lost masker was recovered"
    );
    assert!(record
        .faults
        .events
        .iter()
        .any(|e| e.client_id == 0 && matches!(e.kind, FaultKind::MaskRecovered { pairs: 2 })));
    assert_eq!(record.faults.survivors, 2);
    assert!(!record.faults.no_op, "the survivors' updates were applied");
    assert!(
        coordinator
            .driver
            .global
            .shared
            .iter()
            .zip(&before)
            .any(|(a, b)| a.to_bits() != b.to_bits()),
        "the unmasked aggregate moved the global model"
    );
}

/// Pairwise masking cannot compose through partial edge aggregates, so a
/// tiered masked session must be refused at bind time, before any client
/// can register against an unservable topology.
#[test]
fn tiered_masked_session_is_rejected_at_bind() {
    let session = builder(Algorithm::FedAvg, 1)
        .privacy(PrivacyConfig::masked(1))
        .build();
    let opts = CoordinatorConfig {
        topology: Topology::Tiered { edges: 2 },
        ..coordinator_config()
    };
    match Coordinator::bind(session.driver, opts) {
        Err(NetError::Config(spatl_fl::ConfigError::MaskedThroughEdges)) => {}
        other => panic!("expected a protocol rejection, got {:?}", other.map(|_| ())),
    }
}
