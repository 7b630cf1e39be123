//! # SPATL — Salient Parameter Aggregation and Transfer Learning
//!
//! A from-scratch Rust reproduction of *"SPATL: Salient Parameter
//! Aggregation and Transfer Learning for Heterogeneous Federated Learning"*
//! (SC 2022). This facade crate re-exports the whole stack and provides
//! [`ExperimentBuilder`], a one-stop configuration surface used by the
//! examples and the benchmark harness.
//!
//! ## Quickstart
//!
//! ```
//! use spatl::prelude::*;
//!
//! let result = ExperimentBuilder::new(Algorithm::Spatl(SpatlOptions::default()))
//!     .clients(4)
//!     .rounds(2)
//!     .samples_per_client(24)
//!     .local_epochs(1)
//!     .seed(7)
//!     .run();
//! assert_eq!(result.history.len(), 2);
//! ```
//!
//! ## Layout
//!
//! | crate | role |
//! |---|---|
//! | `spatl-tensor` | dense tensors, matmul, im2col |
//! | `spatl-nn` | layers, losses, optimisers, flat parameter layout |
//! | `spatl-models` | ResNet-20/32/56/18, VGG-11, 2-layer CNN as encoder/predictor splits |
//! | `spatl-data` | synthetic CIFAR-10-like / FEMNIST-like data, Dirichlet & writer partitions |
//! | `spatl-graph` | simplified computational graphs (RL states) |
//! | `spatl-pruning` | channel saliency, masks, SFP/FPGM/DSA baselines, salient index selection |
//! | `spatl-agent` | GNN actor-critic + PPO selection agent |
//! | `spatl-fl` | FedAvg / FedProx / SCAFFOLD / FedNova / SPATL simulator |

mod checkpoint;
pub mod cli;
mod experiment;
mod roundlog;

pub use checkpoint::{
    load_agent, load_model, load_result, save_agent, save_model, save_result, CheckpointError,
};
pub use experiment::{DatasetKind, ExperimentBuilder};
pub use roundlog::{PendingRound, RoundLog, WalRecovery};

/// Convenient glob import for examples and downstream users.
pub mod prelude {
    pub use crate::{DatasetKind, ExperimentBuilder};
    pub use spatl_agent::{finetune_agent, pretrain_agent, ActorCritic, AgentConfig, PruningEnv};
    pub use spatl_data::{
        dirichlet_partition, iid_partition, partition_stats, synth_cifar10, synth_femnist, Dataset,
        SynthConfig,
    };
    pub use spatl_fl::{
        adapt_predictor, transfer_evaluate, AdversaryPlan, AggregatorKind, Algorithm, AttackKind,
        ChurnPlan, ConfigError, FaultKind, FaultPlan, FaultRecord, FlConfig, PrivacyConfig,
        PrivacyMode, RunResult, ScreenPolicy, Simulation, SpatlOptions, Topology, SCALE_LAMBDA,
    };
    pub use spatl_graph::extract;
    pub use spatl_models::{profile, ModelConfig, ModelKind, Part, SplitModel, Trainer};
    pub use spatl_nn::{accuracy, CrossEntropyLoss, Network, Optimizer, Sgd};
    pub use spatl_pruning::{
        apply_sparsities, channel_saliency, dsa_allocate, salient_param_indices,
        uniform_sparsities, Criterion, SoftFilterPruner,
    };
    pub use spatl_tensor::{Tensor, TensorRng};
}

// Re-export the sub-crates for qualified access.
pub use spatl_agent as agent;
pub use spatl_data as data;
pub use spatl_fl as fl;
pub use spatl_graph as graph;
pub use spatl_models as models;
pub use spatl_nn as nn;
pub use spatl_pruning as pruning;
pub use spatl_tensor as tensor;
pub use spatl_wire as wire;
