//! Federated-learning simulator for the SPATL reproduction.
//!
//! Implements the five algorithms the paper evaluates:
//!
//! * **FedAvg** (McMahan et al.) — weighted model averaging,
//! * **FedProx** — FedAvg plus a proximal term on the local loss,
//! * **SCAFFOLD** — control variates correcting client gradient drift,
//! * **FedNova** — normalised averaging removing objective inconsistency,
//! * **SPATL** (the paper's contribution) — encoder-only sharing with
//!   private predictors (§IV-A), RL-selected salient-parameter uploads
//!   aggregated per index (§IV-B, Eq. 12), and SCAFFOLD-style gradient
//!   control restricted to the encoder (§IV-C).
//!
//! The simulator is single-process: clients are plain structs trained in
//! parallel with rayon, and every byte that a real deployment would move
//! between client and server is accounted in [`CommModel`].
//!
//! Rounds are not assumed pristine: a seeded [`FaultPlan`] on [`FlConfig`]
//! injects client dropout, duplicated replies, torn connections, stalls
//! and edge deaths, and the simulator and the TCP runtime enact it alike;
//! every algorithm aggregates over whatever cohort survives, and each
//! round's [`FaultRecord`] documents what happened. DESIGN.md §8 is the
//! full failure model.
//!
//! Nor are clients assumed honest: a seeded [`AdversaryPlan`] turns a
//! fixed fraction of them Byzantine — emitting CRC-valid frames whose
//! payloads are poisoned (`NaN` injection, model-replacement scaling,
//! sign flips). The server defends in depth with a [`ScreenPolicy`]
//! (non-finite rejection plus median-based norm screening, every
//! quarantine on the ledger) and a choice of robust [`AggregatorKind`]s.
//! DESIGN.md §9 is the threat model.

#![deny(missing_docs)]

mod accumulate;
mod adversary;
mod churn;
mod client;
mod comm;
pub mod compose;
mod config;
mod faults;
pub mod privacy;
mod round;
mod screen;
mod server;
mod simulation;
mod transfer;
pub mod wire;

pub use accumulate::{RoundAccumulator, SpillReason, StreamState};
pub use adversary::{Adversary, AdversaryPlan, AttackKind, ADVERSARY_SEED, SCALE_LAMBDA};
pub use churn::ChurnPlan;
pub use client::{ClientState, LocalOutcome, SelectedUpdate};
pub use comm::{CommModel, RoundBytes};
pub use compose::{edge_partition, fault_counters, fold_fault_counters, Topology};
pub use config::{AggregatorKind, Algorithm, ConfigError, FlConfig, SpatlOptions};
pub(crate) use config::{DownloadLane, UploadLane, Weight};
pub use faults::{ledger_departures, FaultEvent, FaultKind, FaultPlan, FaultRecord};
pub use privacy::{
    build_masked_upload, fixed_quantized_upload, masking_cohort, sampled_cohort, unmask_share,
};
pub use round::{RoundDriver, RoundRecord, TransportStats};
pub use screen::{screen_updates, ScreenPolicy, ScreenReason, MIN_COHORT, NORM_TOLERANCE};
pub use server::GlobalState;
pub use simulation::{RunResult, Simulation};
pub use spatl_privacy::{PrivacyConfig, PrivacyMode};
pub use transfer::{adapt_predictor, transfer_evaluate};
pub use wire::{
    build_selection_layout, decode_download, decode_upload, encode_download, encode_upload,
    Encoded, WireBytes,
};
