//! Structured channel pruning for the SPATL reproduction.
//!
//! Provides:
//! * per-channel saliency criteria ([`Criterion`]: L1/L2 norm, FPGM
//!   geometric-median distance, random),
//! * mask construction from per-layer sparsity ratios — the action space of
//!   the RL selection agent,
//! * the pruning baselines of Table IV: [`SoftFilterPruner`] (SFP),
//!   FPGM-as-criterion, and a simplified DSA-style budget allocator,
//! * [`salient_param_indices`] — the mapping from channel masks to flat
//!   encoder parameter indices that SPATL uploads (§IV-C1).

mod allocate;
mod saliency;
mod select;
mod sfp;

pub use allocate::{dsa_allocate, project_to_budget, uniform_sparsities};
pub use saliency::{
    apply_sparsities, channel_saliency, kept_counts, mask_from_sparsity, Criterion,
};
pub use select::{prune_point_param_names, salient_param_indices};
pub use sfp::SoftFilterPruner;
