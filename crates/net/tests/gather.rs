//! The one networked round (DESIGN.md §10), pinned over the public
//! endpoints and raw sockets: every collection and evaluation phase runs
//! under one shared deadline, one parser classifies every reply, and an
//! edge's slice gets the root's dedup and in-round reconnect.

use std::net::{TcpListener, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use spatl::prelude::*;
use spatl::ExperimentBuilder;
use spatl_fl::{edge_partition, ClientState, GlobalState, LocalOutcome, RoundRecord, Simulation};
use spatl_net::{
    ClientNode, Coordinator, CoordinatorConfig, EdgeAggregator, EdgeConfig, EdgeReport, Hello,
    HelloRole, Join, NetError, NodeConfig, NodeReport, RoundAssign, RoundDone, RoundMode, Topology,
};
use spatl_wire::{
    decode_edge_combined, open, read_frame, seal, seal_edge_combined, write_frame, EdgeCombined,
    EdgeEntry, MsgType, TierFaultCounters, MAX_FRAME_PAYLOAD,
};

fn builder(clients: usize, rounds: usize) -> ExperimentBuilder {
    ExperimentBuilder::new(Algorithm::FedAvg)
        .model(ModelKind::Cnn2)
        .clients(clients)
        .samples_per_client(18)
        .rounds(rounds)
        .local_epochs(1)
        .batch_size(8)
        .seed(7)
}

fn coordinator_config(round_timeout: Duration) -> CoordinatorConfig {
    CoordinatorConfig {
        addr: "127.0.0.1:0".to_string(),
        join_timeout: Duration::from_secs(20),
        round_timeout,
        io_timeout: Duration::from_secs(20),
        ..CoordinatorConfig::default()
    }
}

fn must_read(stream: &mut TcpStream) -> Vec<u8> {
    read_frame(stream, MAX_FRAME_PAYLOAD)
        .expect("read frame")
        .expect("frame before EOF")
}

fn send(stream: &mut TcpStream, msg: MsgType, body: &[u8]) {
    write_frame(stream, &seal(msg, body)).expect("send frame");
}

/// Raw client registration at a root or an edge.
fn raw_handshake(addr: &str, cfg: &FlConfig, client_id: u32) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let hello = Hello {
        client_id,
        fingerprint: spatl_net::session_fingerprint(cfg),
        role: HelloRole::Client,
    };
    send(&mut stream, MsgType::Hello, &hello.encode());
    let frame = must_read(&mut stream);
    let (msg, payload) = open(&frame).expect("open join");
    assert_eq!(msg, MsgType::Join);
    assert!(Join::decode(payload).expect("decode join").accepted);
    stream
}

/// Read one round assignment (and its broadcast frames) off a raw stream.
fn raw_read_assignment(stream: &mut TcpStream, mode: RoundMode) -> RoundAssign {
    let frame = must_read(stream);
    let (msg, payload) = open(&frame).expect("open assign");
    assert_eq!(msg, MsgType::RoundAssign);
    let assign = RoundAssign::decode(payload).expect("decode assign");
    assert_eq!(assign.mode, mode);
    for _ in 0..assign.n_frames {
        must_read(stream);
    }
    assign
}

/// Send one complete train reply the way [`ClientNode`] does.
fn raw_send_train_reply(stream: &mut TcpStream, round: u32, outcome: &LocalOutcome) {
    let done = RoundDone::train(round, outcome);
    send(stream, MsgType::RoundDone, &done.encode());
    for f in &outcome.frames {
        write_frame(stream, f).expect("send upload frame");
    }
}

/// Hold a raw stream open, silently, until the peer closes it.
fn stay_silent(stream: &mut TcpStream) {
    while let Ok(Some(_)) = read_frame(stream, MAX_FRAME_PAYLOAD) {}
}

/// Round 0's honest outcome of every client of a fresh 3-client session.
fn honest_outcomes() -> Vec<LocalOutcome> {
    round_0_outcomes(3)
}

/// Round 0's honest outcome of every client of a fresh `clients`-client
/// session.
fn round_0_outcomes(clients: usize) -> Vec<LocalOutcome> {
    let mut session = builder(clients, 1).build();
    let cfg = session.driver.cfg;
    let global = session.driver.global.clone();
    session
        .clients
        .iter_mut()
        .map(|c| c.local_update(&cfg, &global, 0))
        .collect()
}

#[track_caller]
fn assert_global_bit_identical(a: &GlobalState, b: &GlobalState) {
    for (label, x, y) in [
        ("shared", &a.shared, &b.shared),
        ("control", &a.control, &b.control),
        ("momentum", &a.momentum, &b.momentum),
        ("buffers", &a.buffers, &b.buffers),
    ] {
        assert_eq!(x.len(), y.len(), "{label}: length mismatch");
        for (i, (p, q)) in x.iter().zip(y).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "{label}[{i}]: {p} != {q}");
        }
    }
}

/// An edge collects its slice under one phase deadline: with two of
/// three clients silent it ledgers both as `DeadlineMissed` and forwards
/// the third's upload after one `round_timeout`, not one per silent
/// client. The root is played by hand.
#[test]
fn edge_gathers_its_slice_under_one_deadline() {
    let round_timeout = Duration::from_millis(1500);
    let session = builder(3, 1).build();
    let cfg = session.driver.cfg;
    let down = session.driver.broadcast().frames;
    let outcome = honest_outcomes().swap_remove(0);

    let root = TcpListener::bind("127.0.0.1:0").expect("bind raw root");
    let root_addr = root.local_addr().expect("root addr").to_string();
    let edge = EdgeAggregator::bind(
        cfg,
        EdgeConfig {
            round_timeout,
            ..EdgeConfig::new(0, 1, root_addr, "127.0.0.1:0")
        },
    )
    .expect("bind edge");
    let edge_addr = edge.local_addr().expect("edge addr").to_string();
    let edge = thread::spawn(move || edge.run());

    let clients: Vec<JoinHandle<()>> = (0..3u32)
        .map(|id| {
            let addr = edge_addr.clone();
            let outcome = (id == 0).then(|| outcome.clone());
            thread::spawn(move || {
                let mut stream = raw_handshake(&addr, &cfg, id);
                raw_read_assignment(&mut stream, RoundMode::Train);
                if let Some(outcome) = outcome {
                    raw_send_train_reply(&mut stream, 0, &outcome);
                }
                stay_silent(&mut stream);
            })
        })
        .collect();

    // The edge registers upstream as edge 0.
    let (mut up, _) = root.accept().expect("edge dials the root");
    let frame = must_read(&mut up);
    let (msg, payload) = open(&frame).expect("open hello");
    assert_eq!(msg, MsgType::Hello);
    assert_eq!(Hello::decode(payload).expect("hello").role, HelloRole::Edge);
    let verdict = Join {
        accepted: true,
        round: 0,
    };
    send(&mut up, MsgType::Join, &verdict.encode());

    let assign = RoundAssign::new(0, RoundMode::Train, down.len());
    send(&mut up, MsgType::RoundAssign, &assign.encode());
    for f in &down {
        write_frame(&mut up, f).expect("send broadcast frame");
    }
    let started = Instant::now();
    let frame = must_read(&mut up);
    let (msg, payload) = open(&frame).expect("open done");
    assert_eq!(msg, MsgType::RoundDone);
    assert_eq!(RoundDone::decode(payload).expect("done").n_frames, 1);
    let frame = must_read(&mut up);
    let elapsed = started.elapsed();
    let (msg, payload) = open(&frame).expect("open combined");
    assert_eq!(msg, MsgType::EdgeCombined);
    let combined = decode_edge_combined(payload).expect("decode combined");

    assert_eq!(combined.faults.sampled, 3);
    assert_eq!(combined.faults.deadline_dropped, 2, "both silent clients");
    assert_eq!(combined.entries.len(), 1, "the third client's upload");
    assert_eq!(combined.entries[0].client_id, 0);
    assert!(
        elapsed < 2 * round_timeout,
        "two silent clients cost one shared deadline, not {elapsed:?}"
    );

    send(&mut up, MsgType::Shutdown, &[]);
    edge.join().expect("edge thread").expect("edge exits");
    for c in clients {
        c.join().expect("raw client");
    }
}

/// The flat root's evaluation pass runs under the same one deadline:
/// two silent clients cost one `round_timeout`, and are dropped.
#[test]
fn eval_pass_shares_one_deadline() {
    let round_timeout = Duration::from_millis(1500);
    let session = builder(3, 1).build();
    let cfg = session.driver.cfg;
    let mut coordinator =
        Coordinator::bind(session.driver, coordinator_config(round_timeout)).expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();

    let clients: Vec<JoinHandle<()>> = honest_outcomes()
        .into_iter()
        .enumerate()
        .map(|(id, outcome)| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut stream = raw_handshake(&addr, &cfg, id as u32);
                raw_read_assignment(&mut stream, RoundMode::Train);
                raw_send_train_reply(&mut stream, 0, &outcome);
                raw_read_assignment(&mut stream, RoundMode::Eval);
                if id == 0 {
                    let done = RoundDone::eval(0, 0, 0.25);
                    send(&mut stream, MsgType::RoundDone, &done.encode());
                }
                stay_silent(&mut stream);
            })
        })
        .collect();

    assert_eq!(coordinator.wait_for_clients(), 3);
    let started = Instant::now();
    let record = coordinator.run_round();
    let elapsed = started.elapsed();
    assert_eq!(record.faults.survivors, 3, "the train phase was clean");
    assert_eq!(record.per_client_acc, vec![0.25, 0.0, 0.0]);
    assert!(
        elapsed < 2 * round_timeout,
        "two silent evaluators cost one shared deadline, not {elapsed:?}"
    );
    assert_eq!(coordinator.connected(), 1, "the silent clients were cut");
    coordinator.finish().expect("finish");
    for c in clients {
        c.join().expect("raw client");
    }
}

/// What a misbehaving raw client sends in place of its reply.
#[derive(Clone, Copy, Debug)]
enum Misreply {
    /// A `RoundDone` envelope whose payload does not decode.
    Undecodable,
    WrongRound,
    WrongId,
    WrongMode,
    Shutdown,
}

impl Misreply {
    fn send(self, stream: &mut TcpStream, mode: RoundMode) {
        let other = match mode {
            RoundMode::Train => RoundMode::Eval,
            RoundMode::Eval => RoundMode::Train,
        };
        let done = |round, id, mode| match mode {
            RoundMode::Eval => RoundDone::eval(round, id, 0.5),
            RoundMode::Train => RoundDone {
                mode,
                ..RoundDone::eval(round, id, 0.0)
            },
        };
        match self {
            Misreply::Undecodable => send(stream, MsgType::RoundDone, &[0xFF; 7]),
            Misreply::WrongRound => send(stream, MsgType::RoundDone, &done(9, 0, mode).encode()),
            Misreply::WrongId => send(stream, MsgType::RoundDone, &done(0, 2, mode).encode()),
            Misreply::WrongMode => send(stream, MsgType::RoundDone, &done(0, 0, other).encode()),
            Misreply::Shutdown => send(stream, MsgType::Shutdown, &[]),
        }
    }
}

/// One flat round over three raw clients in which client 0 answers
/// `mode`'s assignment with `misreply`; returns the record, whether the
/// session was asked to stop, and how many clients are still registered.
fn round_with_misreply(
    outcomes: &[LocalOutcome],
    mode: RoundMode,
    misreply: Misreply,
) -> (RoundRecord, bool, usize) {
    let session = builder(3, 1).build();
    let cfg = session.driver.cfg;
    let mut coordinator =
        Coordinator::bind(session.driver, coordinator_config(Duration::from_secs(60)))
            .expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let clients: Vec<JoinHandle<()>> = outcomes
        .iter()
        .cloned()
        .enumerate()
        .map(|(id, outcome)| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut stream = raw_handshake(&addr, &cfg, id as u32);
                raw_read_assignment(&mut stream, RoundMode::Train);
                if id == 0 && mode == RoundMode::Train {
                    misreply.send(&mut stream, mode);
                    return stay_silent(&mut stream);
                }
                raw_send_train_reply(&mut stream, 0, &outcome);
                raw_read_assignment(&mut stream, RoundMode::Eval);
                if id == 0 {
                    misreply.send(&mut stream, mode);
                } else {
                    let done = RoundDone::eval(0, id as u32, 0.5);
                    send(&mut stream, MsgType::RoundDone, &done.encode());
                }
                stay_silent(&mut stream);
            })
        })
        .collect();
    assert_eq!(coordinator.wait_for_clients(), 3);
    let record = coordinator.run_round();
    let outcome = (
        record,
        coordinator.shutdown_requested(),
        coordinator.connected(),
    );
    coordinator.finish().expect("finish");
    for c in clients {
        c.join().expect("raw client");
    }
    outcome
}

/// One parser classifies every reply, whichever phase it answers: an
/// undecodable `RoundDone` is corrupt, a wrong round / id / mode is a
/// disconnect, a `Shutdown` frame is a shutdown request — and the peer is
/// cut in every case.
#[test]
fn one_parser_classifies_every_reply() {
    let outcomes = honest_outcomes();
    let table = [
        (Misreply::Undecodable, true, false),
        (Misreply::WrongRound, false, false),
        (Misreply::WrongId, false, false),
        (Misreply::WrongMode, false, false),
        (Misreply::Shutdown, false, true),
    ];
    for (misreply, corrupt, stops) in table {
        let (record, shutdown, connected) =
            round_with_misreply(&outcomes, RoundMode::Train, misreply);
        let kinds: Vec<&FaultKind> = record.faults.events.iter().map(|e| &e.kind).collect();
        assert_eq!(record.faults.events[0].client_id, 0, "{misreply:?}");
        match kinds.as_slice() {
            [FaultKind::CorruptUpload { .. }] => assert!(corrupt, "{misreply:?}"),
            [FaultKind::Dropout] => assert!(!corrupt, "{misreply:?}"),
            other => panic!("{misreply:?} ledgered as {other:?}"),
        }
        assert_eq!(record.faults.survivors, 2, "{misreply:?}");
        assert_eq!(shutdown, stops, "{misreply:?} on the train phase");
        assert_eq!(connected, 2, "{misreply:?}: the peer is cut");

        let (record, shutdown, connected) =
            round_with_misreply(&outcomes, RoundMode::Eval, misreply);
        assert_eq!(record.faults.total(), 0, "eval failures are not ledgered");
        assert_eq!(record.per_client_acc, vec![0.0, 0.5, 0.5], "{misreply:?}");
        assert_eq!(shutdown, stops, "{misreply:?} on the eval phase");
        assert_eq!(connected, 2, "{misreply:?}: the peer is cut");
    }
}

struct TieredRun {
    coordinator: Coordinator,
    node_reports: Vec<(ClientState, NodeReport)>,
}

/// A full 2 edges × 2 clients tree on loopback, run to completion.
fn run_tiered(build: impl Fn() -> Simulation) -> TieredRun {
    const EDGES: usize = 2;
    let session = build();
    let cfg = session.driver.cfg;
    let root_opts = CoordinatorConfig {
        topology: Topology::Tiered { edges: EDGES },
        ..coordinator_config(Duration::from_secs(120))
    };
    let mut coordinator = Coordinator::bind(session.driver, root_opts).expect("bind root");
    let root_addr = coordinator.local_addr().expect("root addr").to_string();

    let mut edge_handles: Vec<JoinHandle<Result<EdgeReport, NetError>>> = Vec::new();
    let mut edge_addrs: Vec<String> = Vec::new();
    for e in 0..EDGES {
        let opts = EdgeConfig::new(e, EDGES, root_addr.clone(), "127.0.0.1:0");
        let edge = EdgeAggregator::bind(cfg, opts).expect("bind edge");
        edge_addrs.push(edge.local_addr().expect("edge addr").to_string());
        edge_handles.push(thread::spawn(move || edge.run()));
    }
    let ranges = edge_partition(cfg.n_clients, EDGES);
    let node_handles: Vec<_> = session
        .clients
        .into_iter()
        .map(|c| {
            let e = ranges.iter().position(|r| r.contains(&c.id)).expect("home");
            let opts = NodeConfig::new(edge_addrs[e].clone());
            thread::spawn(move || ClientNode::new(cfg, c, opts).run())
        })
        .collect();

    assert!(coordinator.run().expect("tiered run"), "ran every round");
    for h in edge_handles {
        h.join().expect("edge thread").expect("edge exits cleanly");
    }
    let node_reports = node_handles
        .into_iter()
        .map(|h| h.join().expect("node thread").expect("node exits cleanly"))
        .collect();
    TieredRun {
        coordinator,
        node_reports,
    }
}

/// Transport chaos behind an edge is a delay, not a loss: with every
/// upload duplicated and some first transmissions torn, the edges dedup
/// and reopen exactly as a flat root does — the session finishes bit
/// identical to the chaos-free fold, nobody is cut, and every discarded
/// copy reaches the root's ledger.
#[test]
fn chaos_behind_an_edge_is_deduped_bit_identically() {
    let (clients, rounds) = (4, 3);
    let mut sim = builder(clients, rounds).build();
    sim.run();

    let plan = FaultPlan {
        duplicate: 1.0,
        reset: 0.3,
        seed: 51717,
        ..FaultPlan::default()
    };
    let run = run_tiered(|| builder(clients, rounds).faults(plan).build());

    assert_global_bit_identical(&sim.driver.global, &run.coordinator.driver.global);
    let history = &run.coordinator.driver.history;
    assert_eq!(history.len(), rounds);
    for record in history {
        assert_eq!(record.faults.sampled, clients);
        assert_eq!(record.faults.survivors, clients, "round {}", record.round);
    }
    let duplicates: usize = history.iter().map(|r| r.faults.duplicates).sum();
    assert_eq!(
        duplicates,
        clients * rounds,
        "one discarded copy per upload"
    );
    let reconnects: usize = run.node_reports.iter().map(|(_, r)| r.reconnects).sum();
    assert!(reconnects > 0, "the plan tore at least one transmission");
}

/// A tiered round's `measured_wall_s` is the wall-clock of its broadcast
/// and collection phase — what a flat round reports — so it covers the
/// clients' training, not just the time spent reading frames.
#[test]
fn tiered_measured_wall_covers_the_collection_phase() {
    let stall = Duration::from_millis(300);
    let plan = FaultPlan {
        stall: 1.0,
        stall_ms: stall.as_millis() as u64,
        ..FaultPlan::default()
    };
    let run = run_tiered(|| builder(4, 1).faults(plan).build());
    let record = &run.coordinator.driver.history[0];
    assert_eq!(record.faults.survivors, 4);
    assert!(
        record.measured_wall_s >= stall.as_secs_f64(),
        "measured {}s, but every client stalled {stall:?} before replying",
        record.measured_wall_s
    );
}

/// One round of a 2 edges × 2 clients tree whose edge 0 is a raw socket
/// answering the train assignment with `entries` — honest uploads of
/// round 0, relayed by client id — while edge 1 and its clients 2 and 3
/// run the stock endpoints. Returns the root's record.
fn round_with_forged_edge_0(entries: &[usize]) -> RoundRecord {
    const EDGES: usize = 2;
    let outcomes = round_0_outcomes(4);
    let session = builder(4, 1).build();
    let cfg = session.driver.cfg;
    let root_opts = CoordinatorConfig {
        topology: Topology::Tiered { edges: EDGES },
        ..coordinator_config(Duration::from_secs(60))
    };
    let mut coordinator = Coordinator::bind(session.driver, root_opts).expect("bind root");
    let root_addr = coordinator.local_addr().expect("root addr").to_string();

    let entries: Vec<EdgeEntry> = entries
        .iter()
        .map(|&c| RoundDone::train(0, &outcomes[c]).entry(outcomes[c].frames.clone()))
        .collect();
    let forged = EdgeCombined {
        edge_id: 0,
        round: 0,
        faults: TierFaultCounters {
            sampled: 2,
            ..TierFaultCounters::default()
        },
        entries,
    };
    let addr = root_addr.clone();
    let edge_0 = thread::spawn(move || {
        let mut up = TcpStream::connect(&addr).expect("connect");
        let hello = Hello {
            client_id: 0,
            fingerprint: spatl_net::session_fingerprint(&cfg),
            role: HelloRole::Edge,
        };
        send(&mut up, MsgType::Hello, &hello.encode());
        let join = must_read(&mut up);
        assert_eq!(open(&join).expect("open join").0, MsgType::Join);
        raw_read_assignment(&mut up, RoundMode::Train);
        let frame = seal_edge_combined(&forged);
        let done = RoundDone::combined(0, RoundMode::Train, 0, frame.len());
        send(&mut up, MsgType::RoundDone, &done.encode());
        write_frame(&mut up, &frame).expect("send combined frame");
        stay_silent(&mut up);
    });

    let edge = EdgeAggregator::bind(cfg, EdgeConfig::new(1, EDGES, root_addr, "127.0.0.1:0"))
        .expect("bind edge 1");
    let edge_addr = edge.local_addr().expect("edge addr").to_string();
    let edge_1 = thread::spawn(move || edge.run());
    let nodes: Vec<_> = (session.clients.into_iter().skip(2))
        .map(|c| {
            let opts = NodeConfig::new(edge_addr.clone());
            thread::spawn(move || ClientNode::new(cfg, c, opts).run())
        })
        .collect();

    assert_eq!(coordinator.wait_for_clients(), EDGES);
    let record = coordinator.run_round();
    coordinator.finish().expect("finish");
    edge_0.join().expect("raw edge 0");
    edge_1
        .join()
        .expect("edge thread")
        .expect("edge 1 exits cleanly");
    for n in nodes {
        n.join().expect("node thread").expect("node exits cleanly");
    }
    record
}

/// What the root makes of a forged edge 0: its whole slice ledgered as
/// corrupt, while the honest edge's clients fold.
#[track_caller]
fn assert_edge_0_ledgered_corrupt(record: &RoundRecord) {
    assert_eq!(record.faults.sampled, 4);
    assert_eq!(
        record.faults.survivors, 2,
        "clients 2 and 3 fold, once each"
    );
    let corrupt: Vec<usize> = (record.faults.events.iter())
        .filter(|e| matches!(e.kind, FaultKind::CorruptUpload { .. }))
        .map(|e| e.client_id)
        .collect();
    assert_eq!(corrupt, [0, 1], "edge 0's slice");
    assert_eq!(record.faults.total(), 2, "{:?}", record.faults.events);
}

/// An edge that relays one client twice would fold it twice, where a
/// flat root admits one reply per sampled client: the root refuses the
/// reply as corrupt.
#[test]
fn an_edge_relaying_a_client_twice_is_corrupt() {
    assert_edge_0_ledgered_corrupt(&round_with_forged_edge_0(&[0, 0, 1]));
}

/// An edge that relays another edge's client would fold that client
/// twice: the root refuses the reply as corrupt.
#[test]
fn an_edge_relaying_a_client_outside_its_slice_is_corrupt() {
    assert_edge_0_ledgered_corrupt(&round_with_forged_edge_0(&[0, 1, 3]));
}
