//! Secure-aggregation primitives for the SPATL reproduction
//! (DESIGN.md §14).
//!
//! Two server-blind upload modes, selectable per session like an
//! aggregation rule:
//!
//! * **Pairwise masking** ([`PrivacyMode::Masked`]) — every cohort pair
//!   derives cancelling additive masks from a shared per-round seed and
//!   applies them *on the `2^-149` integer grid* the streaming fold
//!   already uses ([`MaskedVector`]). With full participation the masks
//!   cancel exactly mod `2^384` and the aggregate is **bit-identical**
//!   to the clear fold; a dropout is repaired by unmask shares
//!   ([`UnmaskShare`]) revealing only the dropped member's pair seeds,
//!   in the style of xaynet's PET protocol.
//! * **Fixed-point DP sums** ([`PrivacyMode::FixedPoint`]) — updates are
//!   quantized onto a bounded-L2 `i32` grid with calibrated discrete
//!   noise (dpsa4fl style); the server enforces the L2 ball and drops
//!   violators onto the fault ledger. Lossy by design; the range bound
//!   is the defense that survives even though per-client values are
//!   noise-obscured.
//!
//! The crate is transport- and model-agnostic: `spatl-wire` frames these
//! types under its CRC envelope and `spatl-fl` folds them; nothing here
//! depends on either.

#![deny(missing_docs)]

mod fixed;
mod grid;
mod mask;

use serde::{Deserialize, Serialize};

pub use fixed::{dequantize, discrete_laplace, quantize, quantized_l2};
pub use grid::{MaskedCounts, MaskedVector, GRID_DIGITS, GRID_WORDS};
pub use mask::{lane_rng, lane_stream, mix, pair_base, MaskLane, MaskedUpload, UnmaskShare};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which server-blind aggregation protocol a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrivacyMode {
    /// Seed-derived pairwise additive masking on the exact grid;
    /// bit-identical to the clear fold at full participation.
    Masked,
    /// Bounded-L2 fixed-point encoding with discrete noise; lossy, but
    /// range-checkable per upload.
    FixedPoint,
}

/// Session-wide privacy configuration, carried in `FlConfig` and part of
/// the networked control-plane fingerprint (both endpoints must agree).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrivacyConfig {
    /// The protocol to run.
    pub mode: PrivacyMode,
    /// Root seed of every pairwise mask stream and noise stream. Stands
    /// in for the handshake key agreement of a real deployment.
    pub seed: u64,
    /// Fixed-point fractional bits (`FixedPoint` only; 1..=30).
    pub frac_bits: u8,
    /// L2 ball radius enforced on dequantized fixed-point uploads;
    /// uploads outside are dropped and ledgered (`FixedPoint` only).
    pub l2_bound: f32,
    /// Discrete-noise scale in grid units (`FixedPoint` only; 0 = off).
    pub noise: f32,
}

impl PrivacyConfig {
    /// Pairwise-masking mode with the given mask seed.
    pub fn masked(seed: u64) -> Self {
        PrivacyConfig {
            mode: PrivacyMode::Masked,
            seed,
            frac_bits: 16,
            l2_bound: 0.0,
            noise: 0.0,
        }
    }

    /// Fixed-point mode: 16 fractional bits, the given L2 bound, no
    /// noise until [`PrivacyConfig::with_noise`] sets a scale.
    pub fn fixed(seed: u64, l2_bound: f32) -> Self {
        PrivacyConfig {
            mode: PrivacyMode::FixedPoint,
            seed,
            frac_bits: 16,
            l2_bound,
            noise: 0.0,
        }
    }

    /// Set the discrete-noise scale (grid units per coordinate).
    pub fn with_noise(mut self, noise: f32) -> Self {
        self.noise = noise;
        self
    }

    /// The per-(round, client) noise stream for fixed-point encoding.
    pub fn noise_rng(&self, round: u64, client: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(mix(self.seed ^ mix(round ^ mix(client ^ 0xD05E))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors() {
        let m = PrivacyConfig::masked(9);
        assert_eq!(m.mode, PrivacyMode::Masked);
        let f = PrivacyConfig::fixed(9, 5.0).with_noise(3.0);
        assert_eq!((f.l2_bound, f.noise), (5.0, 3.0));
    }

    #[test]
    fn noise_streams_are_client_separated() {
        use rand::RngCore;
        let cfg = PrivacyConfig::fixed(3, 1.0);
        let mut a = cfg.noise_rng(0, 1);
        let mut b = cfg.noise_rng(0, 2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn config_serde_round_trips() {
        let cfg = PrivacyConfig::fixed(42, 8.0).with_noise(2.0);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: PrivacyConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
