//! One fault plan, two runtimes (DESIGN.md §8): the same seeded
//! [`FaultPlan`] — dropouts, torn connections, stalls and duplicated
//! replies — run in the simulator and over TCP on 127.0.0.1 must be the
//! same session. Every flat row compares the global bit for bit and every
//! round's fault ledger, events included; the tiered row compares the
//! global and the counters the edges forward. Each row first checks that
//! the plan dropped at least one client and duplicated at least one
//! reply, so no row passes by having nothing to compare.

use std::thread::{self, JoinHandle};
use std::time::Duration;

use spatl::prelude::*;
use spatl::ExperimentBuilder;
use spatl_fl::{edge_partition, ClientState, GlobalState, RoundRecord};
use spatl_net::{
    ClientNode, Coordinator, CoordinatorConfig, EdgeAggregator, EdgeConfig, EdgeReport, NetError,
    NodeConfig, NodeReport, Topology,
};

/// The plan every row runs under.
const PLAN: FaultPlan = FaultPlan {
    dropout: 0.3,
    reset: 0.3,
    stall: 0.2,
    stall_ms: 5,
    duplicate: 0.5,
    kill_edge: None,
    seed: 0x7AB1E,
};

fn builder(algorithm: Algorithm, clients: usize, rounds: usize) -> ExperimentBuilder {
    ExperimentBuilder::new(algorithm)
        .model(ModelKind::Cnn2)
        .clients(clients)
        .samples_per_client(18)
        .rounds(rounds)
        .local_epochs(1)
        .batch_size(8)
        .seed(7)
        .faults(PLAN)
}

fn coordinator_config(topology: Topology) -> CoordinatorConfig {
    CoordinatorConfig {
        addr: "127.0.0.1:0".to_string(),
        join_timeout: Duration::from_secs(20),
        round_timeout: Duration::from_secs(120),
        io_timeout: Duration::from_secs(20),
        topology,
        ..CoordinatorConfig::default()
    }
}

type NodeHandle = JoinHandle<Result<(ClientState, NodeReport), NetError>>;

fn join_nodes(handles: Vec<NodeHandle>) {
    for h in handles {
        h.join().expect("node thread").expect("node exits cleanly");
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

/// The plan must have done something to compare.
#[track_caller]
fn assert_plan_fired(history: &[RoundRecord]) {
    assert!(
        history.iter().any(|r| r.faults.dropouts > 0),
        "the plan dropped nobody"
    );
    assert!(
        history.iter().any(|r| r.faults.duplicates > 0),
        "the plan duplicated no reply"
    );
}

/// Run `build`'s session in the simulator and on a flat loopback
/// coordinator; the two must agree bit for bit, ledgers included.
#[track_caller]
fn assert_flat_row(build: impl Fn() -> ExperimentBuilder) {
    let mut sim = build().build();
    sim.run();
    assert_plan_fired(&sim.driver.history);

    let session = build().build();
    let cfg = session.driver.cfg;
    let mut coordinator = Coordinator::bind(session.driver, coordinator_config(Topology::Flat))
        .expect("bind loopback");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handles: Vec<NodeHandle> = session
        .clients
        .into_iter()
        .map(|c| {
            let opts = NodeConfig::new(addr.clone());
            thread::spawn(move || ClientNode::new(cfg, c, opts).run())
        })
        .collect();
    assert!(coordinator.run().expect("flat run"), "ran every round");
    join_nodes(handles);

    assert_global_bit_identical(&sim.driver.global, &coordinator.driver.global);
    let (s, n) = (&sim.driver.history, &coordinator.driver.history);
    assert_eq!(s.len(), n.len());
    for (s, n) in s.iter().zip(n) {
        assert_eq!(s.faults, n.faults, "round {}", s.round);
        assert_eq!(
            s.mean_acc.to_bits(),
            n.mean_acc.to_bits(),
            "round {}",
            s.round
        );
    }
}

#[test]
fn fedavg_flat_at_full_participation() {
    assert_flat_row(|| builder(Algorithm::FedAvg, 4, 3));
}

#[test]
fn fedavg_flat_at_half_participation_under_cross_device_churn() {
    assert_flat_row(|| {
        builder(Algorithm::FedAvg, 16, 4)
            .sample_ratio(0.5)
            .churn(ChurnPlan::cross_device())
    });
}

#[test]
fn masked_fedavg_flat() {
    assert_flat_row(|| builder(Algorithm::FedAvg, 4, 3).privacy(PrivacyConfig::masked(0xC0FFEE)));
}

#[test]
fn spatl_flat() {
    assert_flat_row(|| builder(Algorithm::Spatl(SpatlOptions::default()), 4, 3));
}

/// Two edges at ratio 0.5: each edge filters its slice through the same
/// departure function and gathers its clients' torn and duplicated
/// replies, so the root's global and forwarded counters equal the
/// simulator's.
#[test]
fn fedavg_two_edges_at_half_participation() {
    const EDGES: usize = 2;
    let build = || builder(Algorithm::FedAvg, 8, 3).sample_ratio(0.5).build();
    let mut sim = build();
    sim.run();
    assert_plan_fired(&sim.driver.history);

    let session = build();
    let cfg = session.driver.cfg;
    let root_opts = coordinator_config(Topology::Tiered { edges: EDGES });
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
    let handles: Vec<NodeHandle> = session
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
    join_nodes(handles);

    assert_global_bit_identical(&sim.driver.global, &coordinator.driver.global);
    let (s, n) = (&sim.driver.history, &coordinator.driver.history);
    assert_eq!(s.len(), n.len());
    for (s, n) in s.iter().zip(n) {
        let counters = |r: &RoundRecord| {
            let f = &r.faults;
            (f.sampled, f.survivors, f.dropouts, f.duplicates, f.no_op)
        };
        assert_eq!(counters(s), counters(n), "round {}", s.round);
    }
}
