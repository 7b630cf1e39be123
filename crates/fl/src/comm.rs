//! Byte-accurate communication accounting (Eq. 13 of the paper).
//!
//! All parameters are f32 (4 bytes). Per round and per participating
//! client the model charges:
//!
//! | algorithm | download | upload |
//! |---|---|---|
//! | FedAvg / FedProx | weights | weights |
//! | SCAFFOLD | weights + control | weights + control |
//! | FedNova | weights + aggregated momentum | normalised grad + momentum |
//! | SPATL | encoder + control | selected values + channel indices |
//!
//! SPATL's server re-derives each client's control-variate update from the
//! uploaded delta (`Δcᵢ = −c − δᵢ/(K·η)`, a rearrangement of SCAFFOLD's
//! option II), so no control bytes travel upstream; the selection indices
//! are *channel* indices (one u32 per surviving channel), which is the
//! "negligible burden" of §IV-C1.
//!
//! This accounting is *logical*: it charges each upload once, matching
//! Eq. 13's idealised cost; the measured frames are in
//! [`WireBytes`](crate::WireBytes). The simulator cross-checks the two
//! views' payload bytes every round.

use serde::{Deserialize, Serialize};

/// Bytes moved in one round, split by direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundBytes {
    /// Server → client bytes.
    pub download: u64,
    /// Client → server bytes.
    pub upload: u64,
}

impl RoundBytes {
    /// Total bytes both directions.
    pub fn total(&self) -> u64 {
        self.download + self.upload
    }
}

/// Communication cost model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CommModel;

impl CommModel {
    /// FedAvg / FedProx: dense weights both ways.
    pub fn dense(n_params: usize) -> RoundBytes {
        RoundBytes {
            download: 4 * n_params as u64,
            upload: 4 * n_params as u64,
        }
    }

    /// SCAFFOLD: weights + control variate both ways (the paper's "≈2×
    /// FedAvg per round").
    pub fn scaffold(n_params: usize) -> RoundBytes {
        RoundBytes {
            download: 8 * n_params as u64,
            upload: 8 * n_params as u64,
        }
    }

    /// FedNova: the server broadcasts the model plus the aggregated
    /// normalised-momentum buffer, clients upload the normalised gradient
    /// plus local momentum — matching the paper's reported ≈2× FedAvg
    /// per-round cost.
    pub fn fednova(n_params: usize) -> RoundBytes {
        RoundBytes {
            download: 8 * n_params as u64,
            upload: 8 * n_params as u64,
        }
    }

    /// Pairwise-masked upload under any algorithm: the download is the
    /// algorithm's clear broadcast (masking shapes the *upload* only),
    /// while every upload lane widens to exact 384-bit grid integers —
    /// 48 bytes per coordinate for the delta (and the secondary
    /// control / velocity lane when the algorithm has one), 8 bytes per
    /// coordinate of blind vote counts, 48 per batch-norm buffer entry.
    /// Privacy is paid in bandwidth: a masked dense upload is 12× its
    /// clear size, and SPATL's sparse saving disappears entirely (a
    /// sparse masked lane would leak the selection pattern).
    pub fn masked(
        clear: RoundBytes,
        n_params: usize,
        buf_len: usize,
        has_secondary: bool,
        has_counts: bool,
    ) -> RoundBytes {
        let lanes = 1 + u64::from(has_secondary);
        RoundBytes {
            download: clear.download,
            upload: 48 * n_params as u64 * lanes
                + 8 * n_params as u64 * u64::from(has_counts)
                + 48 * buf_len as u64,
        }
    }

    /// SPATL: the encoder and the server control variate downstream; the
    /// selected parameter values plus per-channel indices upstream.
    pub fn spatl(
        encoder_params: usize,
        selected_params: usize,
        selected_channels: usize,
        gradient_control: bool,
    ) -> RoundBytes {
        let down_ctrl = if gradient_control {
            4 * encoder_params as u64
        } else {
            0
        };
        RoundBytes {
            download: 4 * encoder_params as u64 + down_ctrl,
            upload: 4 * selected_params as u64 + 4 * selected_channels as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaffold_doubles_fedavg() {
        let p = 1000;
        assert_eq!(
            CommModel::scaffold(p).total(),
            2 * CommModel::dense(p).total()
        );
    }

    #[test]
    fn fednova_doubles_fedavg() {
        let p = 500;
        assert_eq!(
            CommModel::fednova(p).total(),
            2 * CommModel::dense(p).total()
        );
    }

    #[test]
    fn spatl_upload_shrinks_with_selection() {
        let full = CommModel::spatl(1000, 1000, 0, true);
        let half = CommModel::spatl(1000, 500, 32, true);
        assert!(half.upload < full.upload);
        assert_eq!(half.download, full.download);
        // Index overhead is per-channel, tiny next to the values.
        assert_eq!(half.upload, 4 * 500 + 4 * 32);
    }

    #[test]
    fn spatl_without_control_downloads_less() {
        let with = CommModel::spatl(1000, 500, 10, true);
        let without = CommModel::spatl(1000, 500, 10, false);
        assert_eq!(without.download, with.download / 2);
    }

    #[test]
    fn spatl_cheaper_than_scaffold_at_same_params() {
        // The headline claim: with selection, SPATL per-round cost is well
        // below SCAFFOLD's at identical model size.
        let p = 10_000;
        let spatl = CommModel::spatl(p, p / 2, 64, true);
        assert!(spatl.total() < CommModel::scaffold(p).total());
    }

    #[test]
    fn dense_moves_four_bytes_per_parameter_each_way() {
        for p in [0, 1, 257] {
            let b = CommModel::dense(p);
            assert_eq!((b.download, b.upload), (4 * p as u64, 4 * p as u64));
            assert_eq!(b.total(), 8 * p as u64);
        }
    }

    #[test]
    fn masking_widens_every_upload_lane_and_keeps_the_download() {
        let p = 100;
        let clear = CommModel::dense(p);
        let plain = CommModel::masked(clear, p, 0, false, false);
        assert_eq!(plain.download, clear.download);
        assert_eq!(plain.upload, 12 * clear.upload);
        // A secondary lane doubles the grid integers; vote counts add
        // 8 bytes per coordinate; every buffer entry adds 48.
        let full = CommModel::masked(CommModel::scaffold(p), p, 5, true, true);
        assert_eq!(full.download, CommModel::scaffold(p).download);
        assert_eq!(full.upload, 2 * 48 * p as u64 + 8 * p as u64 + 48 * 5);
    }
}
