//! High-level experiment builder used by examples and the bench harness.

use serde::{Deserialize, Serialize};
use spatl_data::{dirichlet_partition, synth_cifar10, synth_femnist, Dataset, SynthConfig};
use spatl_fl::{
    AdversaryPlan, AggregatorKind, Algorithm, ChurnPlan, ConfigError, FaultPlan, FlConfig,
    PrivacyConfig, RunResult, ScreenPolicy, Simulation, Topology,
};
use spatl_models::{ModelConfig, ModelKind};
use spatl_tensor::TensorRng;

/// Which synthetic task to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetKind {
    /// CIFAR-10-like (10 classes, 3 channels) with Dirichlet label skew —
    /// the Non-IID benchmark setting of the paper.
    CifarLike,
    /// FEMNIST-like (62 classes, 1 channel) with per-writer shards — the
    /// LEAF setting.
    FemnistLike,
}

/// Builder wiring data synthesis, Non-IID partitioning, model construction
/// and the federated simulator into one call. The run's [`FlConfig`] is
/// held whole; the other fields shape the data and the model.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentBuilder {
    fl: FlConfig,
    model: ModelKind,
    dataset: DatasetKind,
    beta: f64,
    samples_per_client: usize,
    noise_std: Option<f32>,
    width_mult: f32,
}

impl ExperimentBuilder {
    /// Start building an experiment for the given algorithm.
    pub fn new(algorithm: Algorithm) -> Self {
        ExperimentBuilder {
            fl: FlConfig::new(algorithm),
            model: ModelKind::ResNet20,
            dataset: DatasetKind::CifarLike,
            beta: 0.5,
            samples_per_client: 80,
            noise_std: None,
            width_mult: 0.25,
        }
    }

    /// Architecture to train (default ResNet-20).
    pub fn model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Task (default CIFAR-10-like).
    pub fn dataset(mut self, dataset: DatasetKind) -> Self {
        self.dataset = dataset;
        self
    }

    /// Number of clients (default 10).
    pub fn clients(mut self, n: usize) -> Self {
        self.fl.n_clients = n;
        self
    }

    /// Fraction of clients sampled per round (default 1.0).
    pub fn sample_ratio(mut self, r: f32) -> Self {
        self.fl.sample_ratio = r;
        self
    }

    /// Communication rounds (default 10).
    pub fn rounds(mut self, r: usize) -> Self {
        self.fl.rounds = r;
        self
    }

    /// Local epochs per round (default 2; paper uses 10).
    pub fn local_epochs(mut self, e: usize) -> Self {
        self.fl.local_epochs = e;
        self
    }

    /// Local batch size (default 16).
    pub fn batch_size(mut self, b: usize) -> Self {
        self.fl.batch_size = b;
        self
    }

    /// Dirichlet concentration β for the label-skew partition (default 0.5,
    /// as in the paper; ignored for FEMNIST-like data).
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Samples per client (default 80).
    pub fn samples_per_client(mut self, n: usize) -> Self {
        self.samples_per_client = n;
        self
    }

    /// Synthetic-noise level controlling task difficulty. Defaults are
    /// per-dataset (2.5 for CIFAR-like, 0.8 for the 62-class FEMNIST-like
    /// task) — calibrated so accuracy curves span the paper's dynamic range
    /// instead of saturating or flat-lining; see EXPERIMENTS.md.
    pub fn noise_std(mut self, s: f32) -> Self {
        self.noise_std = Some(s);
        self
    }

    /// Model width multiplier (default 0.25).
    pub fn width_mult(mut self, w: f32) -> Self {
        self.width_mult = w;
        self
    }

    /// Master seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.fl.seed = seed;
        self
    }

    /// Inject faults into every round of the run (default: none) — the
    /// simulator and the networked runtime enact the same plan. Part of
    /// the session fingerprint: every endpoint of a run must be built
    /// with the same plan. See [`FaultPlan`] and DESIGN.md §8.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fl.faults = Some(plan);
        self
    }

    /// Make a fraction of the clients Byzantine (default: all honest). See
    /// [`AdversaryPlan`] and DESIGN.md §9 for the threat model.
    pub fn adversary(mut self, plan: AdversaryPlan) -> Self {
        self.fl.adversary = Some(plan);
        self
    }

    /// Screen decoded uploads server-side before aggregation (default:
    /// trust every decoded upload). See [`ScreenPolicy`].
    pub fn screen(mut self, policy: ScreenPolicy) -> Self {
        self.fl.screen = Some(policy);
        self
    }

    /// Aggregation rule the server applies (default
    /// [`AggregatorKind::WeightedMean`], each algorithm's published rule).
    pub fn aggregator(mut self, kind: AggregatorKind) -> Self {
        self.fl.aggregator = kind;
        self
    }

    /// Trace-driven client churn: cohorts are sampled from the clients
    /// the availability model has online each round (default: everyone
    /// always available). See [`ChurnPlan`] and DESIGN.md §8.
    pub fn churn(mut self, plan: ChurnPlan) -> Self {
        self.fl.churn = Some(plan);
        self
    }

    /// Server-blind aggregation: pairwise seed-derived masking or
    /// fixed-point bounded-L2 sums (default: clear uploads). Part of the
    /// session fingerprint — every endpoint of a networked run must be
    /// built with the same config. See [`PrivacyConfig`] and DESIGN.md §14.
    pub fn privacy(mut self, privacy: PrivacyConfig) -> Self {
        self.fl.privacy = Some(privacy);
        self
    }

    /// The run's [`FlConfig`] as built so far — all a process that
    /// trains nothing (a relaying edge) needs; nothing is synthesised.
    pub fn config(&self) -> FlConfig {
        self.fl
    }

    /// Whether the experiment can run on `topology` ([`FlConfig::check`],
    /// plus the partition's positive Dirichlet β) — decided before
    /// [`build`](Self::build) synthesises anything.
    pub fn check(&self, topology: Topology) -> Result<(), ConfigError> {
        self.fl.check(topology)?;
        if self.beta > 0.0 {
            Ok(())
        } else {
            Err(ConfigError::OutOfRange {
                field: "beta",
                value: self.beta,
                expected: "positive",
            })
        }
    }

    /// Materialise the simulation without running it.
    pub fn build(self) -> Simulation {
        let fl = self.fl;
        let (model_cfg, shards) = match self.dataset {
            DatasetKind::CifarLike => {
                let synth = SynthConfig {
                    noise_std: self.noise_std.unwrap_or(2.5),
                    ..SynthConfig::cifar10_like()
                };
                let total = fl.n_clients * self.samples_per_client;
                let data = synth_cifar10(&synth, total, fl.seed);
                let mut rng = TensorRng::seed_from(fl.seed ^ 0xDA7A);
                let parts = dirichlet_partition(
                    &data.labels,
                    synth.num_classes,
                    fl.n_clients,
                    self.beta,
                    &mut rng,
                );
                let shards: Vec<(Dataset, Dataset)> = parts
                    .into_iter()
                    .map(|idx| data.subset(&idx).split(0.75, &mut rng))
                    .collect();
                let mut mc = ModelConfig::cifar(self.model);
                mc.width_mult = self.width_mult;
                (mc, shards)
            }
            DatasetKind::FemnistLike => {
                let synth = SynthConfig {
                    noise_std: self.noise_std.unwrap_or(0.8),
                    ..SynthConfig::femnist_like()
                };
                let writers = synth_femnist(&synth, fl.n_clients, self.samples_per_client, fl.seed);
                let mut rng = TensorRng::seed_from(fl.seed ^ 0xFE);
                let shards: Vec<(Dataset, Dataset)> = writers
                    .into_iter()
                    .map(|d| d.split(0.75, &mut rng))
                    .collect();
                let mut mc = ModelConfig::femnist();
                mc.kind = self.model;
                mc.width_mult = self.width_mult;
                (mc, shards)
            }
        };
        Simulation::new(fl, model_cfg, shards)
    }

    /// Build and run to completion.
    pub fn run(self) -> RunResult {
        self.build().run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_wires_everything() {
        let sim = ExperimentBuilder::new(Algorithm::FedAvg)
            .clients(3)
            .samples_per_client(20)
            .rounds(1)
            .local_epochs(1)
            .build();
        assert_eq!(sim.clients.len(), 3);
        assert_eq!(sim.cfg.rounds, 1);
    }

    #[test]
    fn builder_wires_fault_plan() {
        let sim = ExperimentBuilder::new(Algorithm::FedAvg)
            .clients(2)
            .samples_per_client(10)
            .faults(FaultPlan::dropout_only(0.5))
            .build();
        assert_eq!(sim.cfg.faults, Some(FaultPlan::dropout_only(0.5)));
    }

    #[test]
    fn builder_wires_defense_knobs() {
        use spatl_fl::AttackKind;
        let sim = ExperimentBuilder::new(Algorithm::FedAvg)
            .clients(2)
            .samples_per_client(10)
            .adversary(AdversaryPlan::with_attack(0.5, AttackKind::SignFlip))
            .screen(ScreenPolicy::default())
            .aggregator(AggregatorKind::CoordinateMedian)
            .build();
        assert_eq!(
            sim.cfg.adversary,
            Some(AdversaryPlan::with_attack(0.5, AttackKind::SignFlip))
        );
        assert_eq!(sim.cfg.screen, Some(ScreenPolicy::default()));
        assert_eq!(sim.cfg.aggregator, AggregatorKind::CoordinateMedian);
    }

    #[test]
    fn builder_wires_privacy() {
        let sim = ExperimentBuilder::new(Algorithm::FedAvg)
            .clients(2)
            .samples_per_client(10)
            .privacy(PrivacyConfig::masked(7))
            .build();
        assert_eq!(sim.cfg.privacy, Some(PrivacyConfig::masked(7)));
    }

    #[test]
    fn builder_checks_before_building() {
        let b = ExperimentBuilder::new(Algorithm::FedAvg).clients(2);
        assert_eq!(b.check(Topology::Tiered { edges: 2 }), Ok(()));
        assert_eq!(
            b.clients(1).check(Topology::Tiered { edges: 2 }),
            Err(ConfigError::MoreEdgesThanClients {
                edges: 2,
                clients: 1
            })
        );
        let masked = b.privacy(PrivacyConfig::masked(7));
        assert_eq!(
            masked.check(Topology::Tiered { edges: 2 }),
            Err(ConfigError::MaskedThroughEdges)
        );
        assert!(matches!(
            b.beta(0.0).check(Topology::Flat),
            Err(ConfigError::OutOfRange { field: "beta", .. })
        ));
    }

    #[test]
    fn femnist_uses_cnn_and_62_classes() {
        let sim = ExperimentBuilder::new(Algorithm::FedAvg)
            .dataset(DatasetKind::FemnistLike)
            .model(ModelKind::Cnn2)
            .clients(2)
            .samples_per_client(10)
            .build();
        assert_eq!(sim.clients[0].train.num_classes, 62);
        assert_eq!(sim.clients[0].model.config.kind, ModelKind::Cnn2);
    }
}
