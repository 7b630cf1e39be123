//! The four workloads and their pinned parameters.
//!
//! Every workload is a **closed loop**: federated rounds are synchronous
//! (a round is a barrier), so the next round starts only when the
//! previous one has been folded and evaluated. Sizes were probed on a
//! 2-core host so one run fits the acceptance driver's time cap; a later
//! `benchmark` issue that changes them must re-record `baseline.json`.

use spatl::prelude::{Algorithm, ModelKind, SpatlOptions};

/// Rayon worker count pinned for every process the harness starts. One:
/// the acceptance host lends the benchmark two cores of a shared machine,
/// and a run that keeps both busy measures the host's scheduler. One busy
/// thread leaves a core for everything else, makes per-round times
/// unimodal, and makes hypervisor steal the exact amount a round lost.
pub const PINNED_THREADS: &str = "1";

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 11;

/// How many times a set-up is repeated (per simulation on `sim_*`, per
/// run on `net_*`) so a run can report a median `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// An in-process simulated workload (`Simulation::run_round`).
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Algorithm under test.
    pub algorithm: Algorithm,
    /// Architecture (width multiplier 0.25 throughout).
    pub model: ModelKind,
    /// Clients, all sampled every round.
    pub clients: usize,
    /// Simulations one end-to-end run measures, taking turns round by
    /// round, each built from its own seed derived from `--seed`. More
    /// where the cost of a round depends more on the inputs.
    pub simulations: usize,
    /// Synthetic samples per client before the 75/25 train/val split.
    pub samples_per_client: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Pairwise-masked secure aggregation on top of the algorithm.
    pub masked: bool,
    /// Untimed rounds before measuring (caches, lazy set-up, and SPATL's
    /// `finetune_rounds` agent updates).
    pub warmup: usize,
    /// Timed rounds every simulation of a run executes regardless of
    /// `--seconds`; byte metrics are taken over exactly these, so they
    /// repeat bit-for-bit for a seed. The run keeps timing further rounds
    /// until `--seconds` of rounds have been measured.
    pub fixed_rounds: usize,
    /// Rounds the traced skeleton replays (after the same warm-up).
    pub traced_rounds: usize,
}

/// The networked workload: a real coordinator on TCP loopback against a
/// single-threaded swarm of synthetic clients.
#[derive(Debug, Clone, Copy)]
pub struct NetSpec {
    /// Synthetic FedAvg clients, all sampled every round.
    pub clients: usize,
    /// Shared-vector length (the `bench_net_snapshot` shape).
    pub params: usize,
    /// Untimed rounds before measuring.
    pub warmup: usize,
    /// Timed rounds every run executes regardless of `--seconds`.
    pub fixed_rounds: usize,
}

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// In-process simulation.
    Sim(SimSpec),
    /// Coordinator child process + swarm.
    Net(NetSpec),
}

/// A named workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    /// Parameters.
    pub kind: Kind,
}

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> [Workload; 4] {
    [
        Workload {
            name: "sim_spatl_vgg11",
            why: "SPATL on VGG-11: the only workload where agent, graph, pruning, the \
                  channel-indexed codec and the sparse scatter fold do work",
            kind: Kind::Sim(SimSpec {
                algorithm: Algorithm::Spatl(SpatlOptions {
                    selection: true,
                    transfer: true,
                    gradient_control: true,
                    target_flops_ratio: 0.7,
                    finetune_rounds: 3,
                    agent_epochs: 4,
                    agent_steps: 3,
                }),
                model: ModelKind::Vgg11,
                clients: 4,
                simulations: 4,
                samples_per_client: 64,
                batch_size: 16,
                masked: false,
                // Rounds 0..3 update the agent (`finetune_rounds`); the
                // first timed round is the first steady one.
                warmup: 3,
                fixed_rounds: 4,
                traced_rounds: 6,
            }),
        },
        Workload {
            name: "sim_scaffold_resnet20",
            why: "SCAFFOLD on ResNet-20: dense two-lane baseline that bypasses agent, pruning \
                  and the sparse fold; small-N GEMMs and batch-norm dominate",
            kind: Kind::Sim(SimSpec {
                algorithm: Algorithm::Scaffold,
                model: ModelKind::ResNet20,
                clients: 4,
                simulations: 3,
                samples_per_client: 64,
                batch_size: 16,
                masked: false,
                warmup: 4,
                fixed_rounds: 8,
                traced_rounds: 10,
            }),
        },
        Workload {
            name: "sim_masked_fedavg",
            why: "FedAvg under pairwise masking, 16 clients: 384-bit grid lanes and \
                  O(cohort^2*model) mask streams dominate, training is deliberately tiny",
            kind: Kind::Sim(SimSpec {
                algorithm: Algorithm::FedAvg,
                model: ModelKind::ResNet20,
                clients: 16,
                simulations: 3,
                samples_per_client: 16,
                batch_size: 16,
                masked: true,
                warmup: 3,
                fixed_rounds: 3,
                traced_rounds: 5,
            }),
        },
        Workload {
            name: "net_fedavg_swarm",
            why: "2000 synthetic FedAvg clients over TCP loopback: net, wire and the dense \
                  streaming fold do all the work, tensor/nn/agent none",
            kind: Kind::Net(NetSpec {
                clients: 2000,
                params: 2048,
                warmup: 3,
                fixed_rounds: 10,
            }),
        },
    ]
}

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl SimSpec {
    /// Shrink to smoke-test size (`--quick`): a couple of rounds, no
    /// time-boxing, nothing worth comparing against a bound.
    pub fn quick(mut self) -> Self {
        self.clients = self.clients.min(4);
        self.simulations = 2;
        self.samples_per_client = self.samples_per_client.min(16);
        self.warmup = 1;
        self.fixed_rounds = 2;
        self.traced_rounds = 2;
        self
    }
}

impl NetSpec {
    /// Shrink to smoke-test size (`--quick`).
    pub fn quick(mut self) -> Self {
        self.clients = 64;
        self.warmup = 1;
        self.fixed_rounds = 2;
        self
    }
}
