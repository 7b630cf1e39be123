//! Federated-learning run configuration.

use std::fmt;

use serde::{Deserialize, Serialize};
use spatl_privacy::PrivacyMode;
use spatl_wire::MsgType;

use crate::Topology;

/// Options specific to SPATL; each switch corresponds to one of the paper's
/// ablations (§V-F).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpatlOptions {
    /// Salient parameter selection (§V-F1 ablation when false: upload the
    /// full encoder).
    pub selection: bool,
    /// Heterogeneous transfer learning — private predictors (§V-F2
    /// ablation when false: the predictor is shared and aggregated too).
    pub transfer: bool,
    /// Encoder gradient control (§V-F3 ablation when false).
    pub gradient_control: bool,
    /// FLOPs budget the selection agent must meet (fraction of dense).
    pub target_flops_ratio: f32,
    /// Fine-tune the selection agent during a client's first N
    /// participations (paper: first 10 communication rounds).
    pub finetune_rounds: usize,
    /// PPO epochs per fine-tuning update (paper: 20).
    pub agent_epochs: usize,
    /// Environment samples per fine-tuning update.
    pub agent_steps: usize,
}

impl Default for SpatlOptions {
    fn default() -> Self {
        SpatlOptions {
            selection: true,
            transfer: true,
            gradient_control: true,
            target_flops_ratio: 0.7,
            finetune_rounds: 3,
            agent_epochs: 4,
            agent_steps: 3,
        }
    }
}

/// Which federated-learning algorithm a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Algorithm {
    /// FedAvg (McMahan et al. 2017).
    FedAvg,
    /// FedProx with proximal coefficient μ.
    FedProx {
        /// Proximal term weight.
        mu: f32,
    },
    /// SCAFFOLD stochastic controlled averaging.
    Scaffold,
    /// FedNova normalised averaging.
    FedNova,
    /// SPATL (this paper).
    Spatl(SpatlOptions),
}

impl Algorithm {
    /// This algorithm's row: what it downloads, uploads, folds and
    /// weighs (DESIGN.md §3, "What an algorithm is").
    pub(crate) fn spec(&self) -> AlgoSpec {
        use DownloadLane::{Control, Momentum};
        use UploadLane::{ControlDelta, Velocity};
        match *self {
            Algorithm::FedAvg => AlgoSpec {
                name: "FedAvg",
                download: MsgType::DenseModel,
                download_lane: None,
                upload: MsgType::DenseUpdate,
                upload_lane: None,
                secondary_lane: false,
                count_lane: false,
                weight: Weight::Samples,
                plain_delta: true,
                private_predictor: false,
            },
            // FedProx differs from FedAvg in its local objective only.
            Algorithm::FedProx { .. } => AlgoSpec {
                name: "FedProx",
                ..Algorithm::FedAvg.spec()
            },
            Algorithm::Scaffold => AlgoSpec {
                name: "SCAFFOLD",
                download: MsgType::ScaffoldModel,
                download_lane: Some(Control),
                upload: MsgType::ScaffoldUpdate,
                upload_lane: Some(ControlDelta),
                secondary_lane: true,
                count_lane: false,
                weight: Weight::One,
                plain_delta: false,
                private_predictor: false,
            },
            Algorithm::FedNova => AlgoSpec {
                name: "FedNova",
                download: MsgType::FedNovaModel,
                download_lane: Some(Momentum),
                upload: MsgType::FedNovaUpdate,
                upload_lane: Some(Velocity),
                secondary_lane: true,
                count_lane: false,
                weight: Weight::Samples,
                plain_delta: false,
                private_predictor: false,
            },
            // The server re-derives SPATL's control steps from the
            // uploaded delta, so its dense upload has no second lane
            // while its fold has one.
            Algorithm::Spatl(o) => AlgoSpec {
                name: "SPATL",
                download: MsgType::SpatlEncoder,
                download_lane: o.gradient_control.then_some(Control),
                upload: MsgType::DenseUpdate,
                upload_lane: None,
                secondary_lane: o.gradient_control,
                count_lane: true,
                weight: Weight::One,
                plain_delta: false,
                private_predictor: o.transfer,
            },
        }
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        self.spec().name
    }

    /// Whether clients keep private predictors (encoder-only sharing).
    pub fn uses_transfer(&self) -> bool {
        self.spec().private_predictor
    }

    /// Whether the algorithm maintains control variates.
    pub fn uses_control(&self) -> bool {
        self.spec().download_lane == Some(DownloadLane::Control)
    }

    /// The five algorithms at the parameters the reproduction runs
    /// them with, in the order `--algorithm` lists them.
    pub fn roster() -> [Algorithm; 5] {
        [
            Algorithm::FedAvg,
            Algorithm::FedProx { mu: 0.01 },
            Algorithm::Scaffold,
            Algorithm::FedNova,
            Algorithm::Spatl(SpatlOptions::default()),
        ]
    }
}

/// What one algorithm sends, folds and weighs — every fact about an
/// algorithm that the wire, the client and the folds read, decided once
/// in [`Algorithm::spec`]. The update rules
/// themselves stay per-algorithm code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AlgoSpec {
    /// Display name matching the paper's tables.
    pub(crate) name: &'static str,
    /// Tag of the server's broadcast.
    pub(crate) download: MsgType,
    /// The vector the broadcast pairs with the shared weights, if any.
    pub(crate) download_lane: Option<DownloadLane>,
    /// Tag of a dense upload (no selection).
    pub(crate) upload: MsgType,
    /// The vector a dense upload pairs with the delta, if any.
    pub(crate) upload_lane: Option<UploadLane>,
    /// Whether the fold carries a secondary lane (control deltas or
    /// velocities) — and so does a masked upload.
    pub(crate) secondary_lane: bool,
    /// Whether the fold carries per-coordinate vote counts: SPATL's
    /// channel-indexed sparse uploads.
    pub(crate) count_lane: bool,
    /// What one upload weighs in the fold.
    pub(crate) weight: Weight,
    /// Whether an upload is one plain delta lane — the only upload
    /// fixed-point sums encode.
    pub(crate) plain_delta: bool,
    /// Whether clients keep private predictors (encoder-only sharing).
    pub(crate) private_predictor: bool,
}

/// The second vector of a two-lane broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DownloadLane {
    /// The server control variate `c` (SCAFFOLD, SPATL with gradient
    /// control).
    Control,
    /// FedNova's aggregated momentum.
    Momentum,
}

/// The second vector of a two-lane dense upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UploadLane {
    /// SCAFFOLD's control-variate step `Δcᵢ`.
    ControlDelta,
    /// FedNova's local momentum buffer.
    Velocity,
}

/// What one upload weighs in the fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Weight {
    /// Its local sample count (FedAvg, FedProx, FedNova).
    Samples,
    /// One, whatever its shard (SCAFFOLD, SPATL).
    One,
}

/// Which aggregation rule the server applies to a round's surviving
/// cohort. [`AggregatorKind::WeightedMean`] is each algorithm's published
/// rule (the default, bit-identical to the pre-defense behaviour); the
/// other three are robust variants from the Byzantine-FL literature,
/// implemented for all five algorithms — control variates, momentum
/// buffers, batch-norm statistics and SPATL's channel-indexed sparse
/// uploads included (robust statistics computed per coordinate over the
/// subset of clients that uploaded that coordinate). DESIGN.md §9 covers
/// the trade-offs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum AggregatorKind {
    /// The algorithm's published sample-weighted rule (default). Fast and
    /// statistically efficient, but a single Byzantine upload controls the
    /// result.
    #[default]
    WeightedMean,
    /// Weighted mean after clipping every update to the cohort's median
    /// RMS: an attacker can still bias the direction, but no longer the
    /// magnitude. Non-finite updates are zeroed outright.
    NormClippedMean,
    /// Per-coordinate median over the cohort: tolerates just under half
    /// the cohort being Byzantine, at the cost of ignoring sample weights
    /// and some statistical efficiency on honest rounds.
    CoordinateMedian,
    /// Per-coordinate trimmed mean: drops the `trim_ratio` fraction from
    /// each tail before averaging — a middle ground between mean and
    /// median.
    CoordinateTrimmedMean {
        /// Fraction trimmed from *each* tail, in `[0, 0.5)`. When trimming
        /// would consume the whole sample the statistic falls back to the
        /// median.
        trim_ratio: f32,
    },
}

impl AggregatorKind {
    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            AggregatorKind::WeightedMean => "weighted-mean",
            AggregatorKind::NormClippedMean => "norm-clipped",
            AggregatorKind::CoordinateMedian => "coord-median",
            AggregatorKind::CoordinateTrimmedMean { .. } => "trimmed-mean",
        }
    }
}

/// Full configuration of a federated run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlConfig {
    /// Number of clients.
    pub n_clients: usize,
    /// Fraction of clients sampled per round (paper: 0.4-1.0).
    pub sample_ratio: f32,
    /// Communication rounds.
    pub rounds: usize,
    /// Local epochs per round (paper: 10).
    pub local_epochs: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Master seed for sampling, batching and initialisation.
    pub seed: u64,
    /// The algorithm under test.
    pub algorithm: Algorithm,
    /// Faults injected into every round ([`FaultPlan`]) — by the
    /// simulator and the networked runtime alike; `None` runs pristine
    /// rounds.
    ///
    /// [`FaultPlan`]: crate::FaultPlan
    pub faults: Option<crate::FaultPlan>,
    /// Byzantine clients simulated by an [`AdversaryPlan`]; `None` means
    /// every client is honest.
    ///
    /// [`AdversaryPlan`]: crate::AdversaryPlan
    pub adversary: Option<crate::AdversaryPlan>,
    /// Server-side update screening ([`ScreenPolicy`]) applied between
    /// decode and aggregation; `None` trusts every decoded upload.
    ///
    /// [`ScreenPolicy`]: crate::ScreenPolicy
    pub screen: Option<crate::ScreenPolicy>,
    /// The aggregation rule the server applies
    /// ([`AggregatorKind::WeightedMean`] reproduces each algorithm's
    /// published behaviour exactly).
    pub aggregator: AggregatorKind,
    /// Client churn ([`ChurnPlan`]): availability-driven cohort sampling
    /// plus mid-round departures; `None` keeps the fixed-roster seeded
    /// `choose_k` sampling.
    ///
    /// [`ChurnPlan`]: crate::ChurnPlan
    pub churn: Option<crate::ChurnPlan>,
    /// Server-blind aggregation ([`PrivacyConfig`]): pairwise masking or
    /// bounded fixed-point encoding; `None` uploads clear tensors.
    /// Defaulted on deserialization so pre-privacy run configurations
    /// still load.
    ///
    /// [`PrivacyConfig`]: spatl_privacy::PrivacyConfig
    pub privacy: Option<spatl_privacy::PrivacyConfig>,
}

impl FlConfig {
    /// Reasonable defaults for the harness scale (small rounds; override
    /// per experiment).
    pub fn new(algorithm: Algorithm) -> Self {
        FlConfig {
            n_clients: 10,
            sample_ratio: 1.0,
            rounds: 10,
            local_epochs: 2,
            batch_size: 16,
            seed: 0,
            algorithm,
            faults: None,
            adversary: None,
            screen: None,
            aggregator: AggregatorKind::WeightedMean,
            churn: None,
            privacy: None,
        }
    }

    /// Number of clients sampled each round (at least one).
    pub fn clients_per_round(&self) -> usize {
        ((self.n_clients as f32 * self.sample_ratio).round() as usize).clamp(1, self.n_clients)
    }

    /// Whether this session can run on `topology`: `Ok`, or the first
    /// rule it breaks (DESIGN.md, "What a session may be"). The one place
    /// a configuration is judged: the binaries call it after parsing
    /// their flags and before they synthesise data or bind a socket, and
    /// [`RoundDriver::new`](crate::RoundDriver::new) and the networked
    /// `bind`s call it again. Every range is written so that `NaN` fails.
    pub fn check(&self, topology: Topology) -> Result<(), ConfigError> {
        if self.n_clients == 0 {
            return Err(ConfigError::NoClients);
        }
        // Every numeric bound is one row: (field, value, in range, range).
        const PROBABILITY: &str = "a probability in [0, 1]";
        let p = |field, v: f64| (field, v, (0.0..=1.0).contains(&v), PROBABILITY);
        let frac = |field, v: f64| (field, v, v > 0.0 && v <= 1.0, "in (0, 1]");
        let count = |field, n: usize| (field, n as f64, n >= 1, "at least 1");
        let mut bounds = vec![
            frac("sample_ratio", self.sample_ratio.into()),
            count("batch_size", self.batch_size),
        ];
        if let Algorithm::Spatl(o) = self.algorithm {
            bounds.push(frac("target_flops_ratio", o.target_flops_ratio.into()));
        }
        if let Some(f) = &self.faults {
            bounds.extend([p("dropout", f.dropout), p("reset", f.reset)]);
            bounds.extend([p("stall", f.stall), p("duplicate", f.duplicate)]);
        }
        if let Some(a) = &self.adversary {
            bounds.push(p("adversary fraction", a.fraction));
        }
        if let AggregatorKind::CoordinateTrimmedMean { trim_ratio: r } = self.aggregator {
            let ok = (0.0..0.5).contains(&r);
            bounds.push(("trim_ratio", r.into(), ok, "in [0, 0.5)"));
        }
        if let Some(c) = &self.churn {
            bounds.extend([count("period", c.period as usize), frac("duty", c.duty)]);
            bounds.extend([p("flake", c.flake), p("abrupt", c.abrupt)]);
        }
        if let Some(privacy) = &self.privacy {
            let (bits, bound) = (privacy.frac_bits, privacy.l2_bound);
            let ok = (1..=30).contains(&bits);
            bounds.push(("privacy frac_bits", bits.into(), ok, "in 1..=30"));
            if privacy.mode == PrivacyMode::FixedPoint {
                bounds.push(("l2_bound", bound.into(), bound > 0.0, "positive"));
            }
        }
        if let Topology::Tiered { edges } = topology {
            bounds.push(count("edges", edges));
        }
        if let Some(&(field, value, _, expected)) = bounds.iter().find(|b| !b.2) {
            return Err(ConfigError::OutOfRange {
                field,
                value,
                expected,
            });
        }

        if let Topology::Tiered { edges } = topology {
            if edges > self.n_clients {
                let clients = self.n_clients;
                return Err(ConfigError::MoreEdgesThanClients { edges, clients });
            }
        }
        let Some(privacy) = &self.privacy else {
            return Ok(());
        };
        if self.screen.is_some() {
            return Err(ConfigError::PrivacyForbidsScreen);
        }
        match privacy.mode {
            PrivacyMode::Masked if self.aggregator != AggregatorKind::WeightedMean => {
                Err(ConfigError::MaskedNeedsWeightedMean)
            }
            PrivacyMode::Masked if topology != Topology::Flat => {
                Err(ConfigError::MaskedThroughEdges)
            }
            PrivacyMode::FixedPoint if !self.algorithm.spec().plain_delta => {
                Err(ConfigError::FixedPointNeedsPlainDelta)
            }
            _ => Ok(()),
        }
    }
}

/// Why a session cannot run — what [`FlConfig::check`] answers. Its
/// `Display` is the one line a binary prints before it exits 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A numeric field lies outside its documented range.
    OutOfRange {
        /// The field, as the message names it.
        field: &'static str,
        /// The value given (integers widened).
        value: f64,
        /// The range it must lie in, in words.
        expected: &'static str,
    },
    /// Fixed-point sums with an algorithm whose upload is not one plain
    /// delta lane (`AlgoSpec::plain_delta`).
    FixedPointNeedsPlainDelta,
    /// A privacy mode with a screen policy.
    PrivacyForbidsScreen,
    /// Pairwise masking with a robust aggregator.
    MaskedNeedsWeightedMean,
    /// Pairwise masking behind edge aggregators.
    MaskedThroughEdges,
    /// A tiered topology with more edges than clients.
    MoreEdgesThanClients {
        /// Configured edge count.
        edges: usize,
        /// Configured client count.
        clients: usize,
    },
    /// A session without clients.
    NoClients,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConfigError::OutOfRange {
                field,
                value,
                expected,
            } => return write!(f, "{field} must be {expected}, got {value}"),
            ConfigError::MoreEdgesThanClients { edges, clients } => {
                return write!(f, "cannot spread {clients} clients over {edges} edges")
            }
            ConfigError::FixedPointNeedsPlainDelta => {
                "fixed-point DP sums carry a single dense delta lane; use FedAvg or FedProx"
            }
            ConfigError::PrivacyForbidsScreen => {
                "screening inspects clear per-client tensors, which privacy modes withhold \
                 from the server; disable the screen policy (masked sessions trade screening \
                 away — DESIGN.md §14)"
            }
            ConfigError::MaskedNeedsWeightedMean => {
                "pairwise masking only cancels inside a plain weighted sum; robust \
                 aggregators need clear per-client values"
            }
            ConfigError::MaskedThroughEdges => {
                "pairwise masking cannot compose through edge aggregation; use the flat \
                 topology for masked sessions"
            }
            ConfigError::NoClients => "need at least one client",
        })
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_per_round_clamps() {
        let mut cfg = FlConfig::new(Algorithm::FedAvg);
        cfg.n_clients = 10;
        cfg.sample_ratio = 0.4;
        assert_eq!(cfg.clients_per_round(), 4);
        cfg.sample_ratio = 0.0;
        assert_eq!(cfg.clients_per_round(), 1);
        cfg.sample_ratio = 5.0;
        assert_eq!(cfg.clients_per_round(), 10);
    }

    /// The rule a rejection names: the field of an out-of-range value,
    /// the variant otherwise.
    fn rule(e: ConfigError) -> String {
        match e {
            ConfigError::OutOfRange { field, .. } => field.to_string(),
            other => format!("{other:?}")
                .split([' ', '{'])
                .next()
                .unwrap_or_default()
                .to_string(),
        }
    }

    /// One row per [`ConfigError`] variant, then `NaN` in every
    /// probability and ratio field, then the values the per-type checks
    /// this function replaced were tested with: each edit of a runnable
    /// session breaks exactly the rule its row names.
    #[test]
    fn check_names_the_broken_rule() {
        use crate::{AdversaryPlan, ChurnPlan, FaultPlan, ScreenPolicy};
        use spatl_privacy::PrivacyConfig;
        const FLAT: Topology = Topology::Flat;
        const TWO_EDGES: Topology = Topology::Tiered { edges: 2 };
        let nan = f64::NAN;
        let masked = Some(PrivacyConfig::masked(1));
        let fixed = Some(PrivacyConfig::fixed(1, 1.0));
        let faults = |edit: fn(&mut FaultPlan)| {
            let mut plan = FaultPlan::default();
            edit(&mut plan);
            Some(plan)
        };
        let churn = |edit: fn(&mut ChurnPlan)| {
            let mut plan = ChurnPlan::default();
            edit(&mut plan);
            Some(plan)
        };
        let adversary = |fraction: f64| {
            Some(AdversaryPlan {
                fraction,
                ..AdversaryPlan::default()
            })
        };
        let spatl = |target_flops_ratio: f32| {
            Algorithm::Spatl(SpatlOptions {
                target_flops_ratio,
                ..SpatlOptions::default()
            })
        };
        let base = FlConfig::new(Algorithm::FedAvg);
        let rows: Vec<(&str, Topology, FlConfig)> = vec![
            (
                "NoClients",
                FLAT,
                FlConfig {
                    n_clients: 0,
                    ..base
                },
            ),
            (
                "MoreEdgesThanClients",
                TWO_EDGES,
                FlConfig {
                    n_clients: 1,
                    ..base
                },
            ),
            (
                "FixedPointNeedsPlainDelta",
                FLAT,
                FlConfig {
                    algorithm: Algorithm::FedNova,
                    privacy: fixed,
                    ..base
                },
            ),
            (
                "PrivacyForbidsScreen",
                FLAT,
                FlConfig {
                    privacy: fixed,
                    screen: Some(ScreenPolicy::default()),
                    ..base
                },
            ),
            (
                "MaskedNeedsWeightedMean",
                FLAT,
                FlConfig {
                    privacy: masked,
                    aggregator: AggregatorKind::CoordinateMedian,
                    ..base
                },
            ),
            (
                "MaskedThroughEdges",
                TWO_EDGES,
                FlConfig {
                    privacy: masked,
                    ..base
                },
            ),
            ("edges", Topology::Tiered { edges: 0 }, base),
            (
                "batch_size",
                FLAT,
                FlConfig {
                    batch_size: 0,
                    ..base
                },
            ),
            (
                "sample_ratio",
                FLAT,
                FlConfig {
                    sample_ratio: f32::NAN,
                    ..base
                },
            ),
            (
                "target_flops_ratio",
                FLAT,
                FlConfig {
                    algorithm: spatl(f32::NAN),
                    ..base
                },
            ),
            (
                "dropout",
                FLAT,
                FlConfig {
                    faults: faults(|f| f.dropout = f64::NAN),
                    ..base
                },
            ),
            (
                "adversary fraction",
                FLAT,
                FlConfig {
                    adversary: adversary(nan),
                    ..base
                },
            ),
            (
                "trim_ratio",
                FLAT,
                FlConfig {
                    aggregator: AggregatorKind::CoordinateTrimmedMean {
                        trim_ratio: f32::NAN,
                    },
                    ..base
                },
            ),
            (
                "reset",
                FLAT,
                FlConfig {
                    faults: faults(|c| c.reset = f64::NAN),
                    ..base
                },
            ),
            (
                "stall",
                FLAT,
                FlConfig {
                    faults: faults(|c| c.stall = f64::NAN),
                    ..base
                },
            ),
            (
                "duplicate",
                FLAT,
                FlConfig {
                    faults: faults(|c| c.duplicate = f64::NAN),
                    ..base
                },
            ),
            (
                "period",
                FLAT,
                FlConfig {
                    churn: churn(|c| c.period = 0),
                    ..base
                },
            ),
            (
                "duty",
                FLAT,
                FlConfig {
                    churn: churn(|c| c.duty = f64::NAN),
                    ..base
                },
            ),
            (
                "flake",
                FLAT,
                FlConfig {
                    churn: churn(|c| c.flake = f64::NAN),
                    ..base
                },
            ),
            (
                "abrupt",
                FLAT,
                FlConfig {
                    churn: churn(|c| c.abrupt = f64::NAN),
                    ..base
                },
            ),
            (
                "privacy frac_bits",
                FLAT,
                FlConfig {
                    privacy: Some(PrivacyConfig {
                        frac_bits: 0,
                        ..PrivacyConfig::masked(1)
                    }),
                    ..base
                },
            ),
            (
                "l2_bound",
                FLAT,
                FlConfig {
                    privacy: Some(PrivacyConfig::fixed(1, 0.0)),
                    ..base
                },
            ),
            (
                "dropout",
                FLAT,
                FlConfig {
                    faults: faults(|f| f.dropout = 1.5),
                    ..base
                },
            ),
            (
                "adversary fraction",
                FLAT,
                FlConfig {
                    adversary: adversary(1.5),
                    ..base
                },
            ),
            (
                "reset",
                FLAT,
                FlConfig {
                    faults: faults(|c| c.reset = 1.5),
                    ..base
                },
            ),
            (
                "duty",
                FLAT,
                FlConfig {
                    churn: churn(|c| c.duty = 0.0),
                    ..base
                },
            ),
        ];
        assert_eq!(base.check(FLAT), Ok(()));
        for (want, topology, cfg) in rows {
            let err = cfg.check(topology).expect_err(want);
            assert_eq!(rule(err), want, "{err}");
            let line = err.to_string();
            assert!(!line.is_empty() && !line.contains('\n'), "{want}: {line:?}");
        }
    }

    /// The cross-product the session flags span — algorithm (5) ×
    /// privacy {none, masked, fixed} × aggregator (4) × screen {none,
    /// some} × topology {flat, 2 edges}, 240 sessions: every one is `Ok`
    /// or a `ConfigError`, every `Ok` builds a driver (and, tiered, its
    /// edge slices), and exactly 101 are `Ok` — 80 clear (any algorithm,
    /// aggregator, screen and topology), 5 masked (`WeightedMean`,
    /// unscreened, flat) and 16 fixed-point (FedAvg/FedProx, unscreened).
    #[test]
    fn every_accepted_session_builds_a_driver() {
        use crate::{compose::edge_partition, GlobalState, RoundDriver, ScreenPolicy};
        use spatl_privacy::PrivacyConfig;
        let algorithms = [
            Algorithm::FedAvg,
            Algorithm::FedProx { mu: 0.01 },
            Algorithm::Scaffold,
            Algorithm::FedNova,
            Algorithm::Spatl(SpatlOptions::default()),
        ];
        let privacy = [
            None,
            Some(PrivacyConfig::masked(1)),
            Some(PrivacyConfig::fixed(1, 1.0)),
        ];
        let aggregators = [
            AggregatorKind::WeightedMean,
            AggregatorKind::NormClippedMean,
            AggregatorKind::CoordinateMedian,
            AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.2 },
        ];
        let screens = [None, Some(ScreenPolicy::default())];
        let topologies = [Topology::Flat, Topology::Tiered { edges: 2 }];
        let (mut walked, mut accepted) = (0, 0);
        for algorithm in algorithms {
            for privacy in privacy {
                for aggregator in aggregators {
                    for screen in screens {
                        for topology in &topologies {
                            let cfg = FlConfig {
                                n_clients: 4,
                                privacy,
                                aggregator,
                                screen,
                                ..FlConfig::new(algorithm)
                            };
                            walked += 1;
                            if cfg.check(topology.clone()).is_err() {
                                continue;
                            }
                            accepted += 1;
                            let global = GlobalState {
                                shared: vec![0.0; 8],
                                control: Vec::new(),
                                momentum: Vec::new(),
                                buffers: Vec::new(),
                            };
                            RoundDriver::new(cfg, global, None);
                            if let Topology::Tiered { edges } = *topology {
                                assert_eq!(edge_partition(cfg.n_clients, edges).len(), edges);
                            }
                        }
                    }
                }
            }
        }
        assert_eq!((walked, accepted), (240, 101));
    }

    #[test]
    fn names_and_flags() {
        assert_eq!(Algorithm::FedAvg.name(), "FedAvg");
        assert!(!Algorithm::FedAvg.uses_control());
        assert!(Algorithm::Scaffold.uses_control());
        let spatl = Algorithm::Spatl(SpatlOptions::default());
        assert!(spatl.uses_control() && spatl.uses_transfer());
        let no_gc = Algorithm::Spatl(SpatlOptions {
            gradient_control: false,
            ..Default::default()
        });
        assert!(!no_gc.uses_control());
    }

    #[test]
    fn a_configuration_carrying_the_removed_fields_still_loads() {
        // Run configurations written while FlConfig still had
        // `weight_decay`, `net`, `upload_codec`, `lr`, `momentum` and
        // `server_lr`, a screen with `norm_tolerance`/`min_cohort` and an
        // adversary with `lambda`/`seed` name them; those keys are
        // ignored and every field that remains loads as written.
        use crate::{AdversaryPlan, AttackKind, ScreenPolicy};
        let mut cfg = FlConfig::new(Algorithm::FedProx { mu: 0.25 });
        cfg.seed = 41;
        cfg.sample_ratio = 0.5;
        cfg.screen = Some(ScreenPolicy::default());
        cfg.adversary = Some(AdversaryPlan::with_attack(0.3, AttackKind::SignFlip));
        let json = serde_json::to_string(&cfg).unwrap();
        let old = json
            .replacen(
                '{',
                r#"{"weight_decay":0.0001,"net":"Broadband","upload_codec":"Dense","lr":0.05,"momentum":0.9,"server_lr":1.0,"#,
                1,
            )
            .replacen(
                r#""screen":{"#,
                r#""screen":{"norm_tolerance":4.0,"min_cohort":3"#,
                1,
            )
            .replacen(
                r#""adversary":{"#,
                r#""adversary":{"lambda":100.0,"seed":195911405,"#,
                1,
            );
        for key in [r#""min_cohort":3}"#, r#""seed":195911405,"#] {
            assert!(old.contains(key), "{key} is spliced in: {old}");
        }
        let back: FlConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(back.screen, cfg.screen);
        assert_eq!(back.adversary, cfg.adversary);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
