//! Server-side global state and the batch door to aggregation.
//!
//! [`GlobalState::aggregate`] reduces a cohort the caller already holds
//! (the [`RoundAccumulator`](crate::RoundAccumulator)'s spill close, and
//! tests) and owns no rule of its own: [`AggregatorKind::WeightedMean`]
//! is the streaming [`StreamState`] fold, [`AggregatorKind::NormClippedMean`]
//! clips each upload to the cohort's median RMS and runs that same fold,
//! and the coordinate median / trimmed mean are the robust fold of
//! [`compose`](crate::compose).
//! DESIGN.md §9 discusses the trade-offs.

use crate::accumulate::StreamState;
use crate::compose::robust_fold;
use crate::screen::{all_finite, median_in_place, update_rms};
use crate::{AggregatorKind, Algorithm, DownloadLane, FlConfig, LocalOutcome};
use serde::{Deserialize, Serialize};
use spatl_models::SplitModel;

/// The server's view of the world: the shared parameter vector, the global
/// control variate (SCAFFOLD / SPATL) and averaged batch-norm buffers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalState {
    /// Shared parameters (encoder, plus predictor for non-transfer
    /// algorithms).
    pub shared: Vec<f32>,
    /// Global control variate `c` (same length as `shared`; empty when the
    /// algorithm doesn't use control).
    pub control: Vec<f32>,
    /// Aggregated momentum buffer broadcast by FedNova (empty otherwise).
    pub momentum: Vec<f32>,
    /// Batch-norm running statistics, averaged across uploads.
    pub buffers: Vec<f32>,
}

impl GlobalState {
    /// Initialise the global state from a freshly built model.
    pub fn from_model(model: &SplitModel, algorithm: &Algorithm) -> Self {
        let spec = algorithm.spec();
        let shared = crate::client::read_shared(model, !spec.private_predictor);
        let mut m = model.clone();
        let mut global = GlobalState {
            control: Vec::new(),
            momentum: Vec::new(),
            buffers: m.encoder.buffers_flat(),
            shared,
        };
        if let Some(lane) = spec.download_lane {
            *global.lane_mut(lane) = vec![0.0; global.shared.len()];
        }
        global
    }

    /// The vector a two-lane broadcast carries next to `shared`.
    pub(crate) fn lane(&self, lane: DownloadLane) -> &[f32] {
        match lane {
            DownloadLane::Control => &self.control,
            DownloadLane::Momentum => &self.momentum,
        }
    }

    /// [`GlobalState::lane`], writable.
    pub(crate) fn lane_mut(&mut self, lane: DownloadLane) -> &mut Vec<f32> {
        match lane {
            DownloadLane::Control => &mut self.control,
            DownloadLane::Momentum => &mut self.momentum,
        }
    }

    /// Aggregate one round of client outcomes (Eq. 12 for SPATL; the
    /// respective published rule for each baseline). Diverged uploads are
    /// rejected. `n_clients_total` is N in the control-variate update.
    ///
    /// `outcomes` is whatever cohort *survived* the round — under partial
    /// participation (dropouts, missed deadlines, undecodable replies) every
    /// rule renormalises over the survivors: FedAvg/FedProx reweight by
    /// surviving sample counts, FedNova recomputes τ_eff over survivors,
    /// SCAFFOLD averages deltas over the survivor count while its control
    /// update keeps the 1/N scaling (the published partial-participation
    /// rule), and SPATL's per-index counts simply see fewer votes.
    ///
    /// Returns `true` if an update was applied; `false` means the round
    /// was a no-op (no survivors, all survivors diverged, or zero total
    /// sample weight) and the global state is untouched — never NaN.
    pub fn aggregate(
        &mut self,
        cfg: &FlConfig,
        outcomes: &[LocalOutcome],
        n_clients_total: usize,
    ) -> bool {
        match cfg.aggregator {
            AggregatorKind::WeightedMean => self.stream_fold(cfg, outcomes, n_clients_total),
            // Uploads the clip drops (non-finite ones) leave a smaller
            // cohort, possibly an empty one: a no-op round.
            AggregatorKind::NormClippedMean => {
                self.stream_fold(cfg, &clip_to_median_rms(outcomes), n_clients_total)
            }
            AggregatorKind::CoordinateMedian | AggregatorKind::CoordinateTrimmedMean { .. } => {
                robust_fold(self, cfg, outcomes, n_clients_total)
            }
        }
    }

    fn stream_fold(&mut self, cfg: &FlConfig, outcomes: &[LocalOutcome], n: usize) -> bool {
        let mut acc = StreamState::new(cfg, self, n);
        for o in outcomes {
            acc.fold(o);
        }
        acc.finalize(self)
    }
}

/// Clip every update to the cohort's median RMS
/// ([`AggregatorKind::NormClippedMean`]): each outcome's aggregated
/// vectors (delta, salient values, control step, momentum) are scaled by
/// `min(1, median_rms / rms)` so no single upload can out-magnitude the
/// cohort, then fed through the ordinary weighted-mean rule.
///
/// Uploads carrying any non-finite value are **dropped** from the clipped
/// cohort — IEEE arithmetic cannot scale a poison away (`NaN × 0 = NaN`,
/// `∞ × 0 = NaN`), so exclusion is the only zeroing that holds. The
/// weighted-mean rule then renormalises over the survivors exactly as it
/// does for dropouts; a cohort with no finite upload comes back empty and
/// the caller turns the round into a no-op — the global state is never
/// touched by a non-finite value.
fn clip_to_median_rms(outcomes: &[LocalOutcome]) -> Vec<LocalOutcome> {
    let finite: Vec<&LocalOutcome> = outcomes
        .iter()
        .filter(|o| !o.diverged && all_finite(o))
        .collect();
    let norms: Vec<f32> = finite.iter().map(|o| update_rms(o)).collect();
    // An RMS can still overflow to ∞ on finite-but-huge values; such
    // uploads are unboundedly out of scale and get clipped to zero (safe:
    // their entries are finite), and they never vote on the median.
    let mut usable: Vec<f32> = norms.iter().copied().filter(|n| n.is_finite()).collect();
    let median = (!usable.is_empty()).then(|| median_in_place(&mut usable));
    finite
        .iter()
        .zip(&norms)
        .map(|(o, &rms)| {
            let mut c = (*o).clone();
            let factor = match median {
                Some(median) if rms.is_finite() => {
                    if rms > median && rms > 0.0 {
                        median / rms
                    } else {
                        1.0
                    }
                }
                _ => 0.0,
            };
            if factor != 1.0 {
                c.scale(factor);
            }
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CommModel, SpatlOptions};

    fn outcome(id: usize, delta: Vec<f32>, n: usize, tau: usize) -> LocalOutcome {
        LocalOutcome {
            client_id: id,
            n_samples: n,
            tau,
            delta,
            selected: None,
            compressed: None,
            control_delta: None,
            velocity: None,
            buffers: Vec::new(),
            diverged: false,
            masked: None,
            fixed: None,
            bytes: CommModel::dense(0),
            wire: crate::WireBytes::default(),
            frames: Vec::new(),
            keep_ratio: 1.0,
            flops_ratio: 1.0,
        }
    }

    fn base_cfg(algorithm: Algorithm) -> FlConfig {
        FlConfig::new(algorithm)
    }

    #[test]
    fn fedavg_weights_by_samples() {
        let mut g = GlobalState {
            shared: vec![0.0; 2],
            control: Vec::new(),
            momentum: Vec::new(),
            buffers: Vec::new(),
        };
        let cfg = base_cfg(Algorithm::FedAvg);
        let o1 = outcome(0, vec![1.0, 0.0], 30, 1);
        let o2 = outcome(1, vec![0.0, 2.0], 10, 1);
        g.aggregate(&cfg, &[o1, o2], 2);
        assert!((g.shared[0] - 0.75).abs() < 1e-6);
        assert!((g.shared[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn diverged_updates_rejected() {
        let mut g = GlobalState {
            shared: vec![0.0; 1],
            control: Vec::new(),
            momentum: Vec::new(),
            buffers: Vec::new(),
        };
        let cfg = base_cfg(Algorithm::FedAvg);
        let mut bad = outcome(0, vec![f32::NAN], 10, 1);
        bad.diverged = true;
        let good = outcome(1, vec![1.0], 10, 1);
        g.aggregate(&cfg, &[bad, good], 2);
        assert!((g.shared[0] - 1.0).abs() < 1e-6);
        assert!(g.shared[0].is_finite());
    }

    #[test]
    fn fednova_normalises_by_tau() {
        // Client A does 10 steps, client B does 1 step of the same
        // per-step progress; FedNova should weight their *directions*
        // equally (with equal sample counts), unlike FedAvg.
        let mut g = GlobalState {
            shared: vec![0.0; 1],
            control: Vec::new(),
            momentum: Vec::new(),
            buffers: Vec::new(),
        };
        let cfg = base_cfg(Algorithm::FedNova);
        let fast = outcome(0, vec![10.0], 10, 10); // per-step progress 1.0
        let slow = outcome(1, vec![1.0], 10, 1); // per-step progress 1.0
        g.aggregate(&cfg, &[fast, slow], 2);
        // τ_eff = 5.5; update = 5.5 · (0.5·1.0 + 0.5·1.0) = 5.5.
        assert!((g.shared[0] - 5.5).abs() < 1e-4, "{}", g.shared[0]);
    }

    #[test]
    fn scaffold_control_moves_towards_minus_delta() {
        let mut g = GlobalState {
            shared: vec![0.0; 1],
            control: vec![0.0; 1],
            momentum: Vec::new(),
            buffers: Vec::new(),
        };
        let cfg = base_cfg(Algorithm::Scaffold);
        let o = outcome(0, vec![-0.5], 10, 5);
        g.aggregate(&cfg, &[o], 10);
        // Δc = −c − δ/(τ·η_eff) = 0.5/(5·0.05/(1−0.9)) = 0.2; c += Δc/N = 0.02.
        let want = 0.5 / (5.0 * crate::client::ETA_EFF) / 10.0;
        assert!((want - 0.02).abs() < 1e-6, "{want}");
        assert!((g.control[0] - want).abs() < 1e-5, "{}", g.control[0]);
        assert!((g.shared[0] + 0.5).abs() < 1e-5);
    }

    #[test]
    fn spatl_only_updates_selected_indices() {
        let mut g = GlobalState {
            shared: vec![0.0; 4],
            control: vec![0.0; 4],
            momentum: Vec::new(),
            buffers: Vec::new(),
        };
        let cfg = base_cfg(Algorithm::Spatl(SpatlOptions::default()));
        let mut o1 = outcome(0, vec![1.0, 1.0, 1.0, 1.0], 10, 1);
        o1.selected = Some(crate::SelectedUpdate {
            indices: vec![0, 2],
            values: vec![1.0, 3.0],
            channels: 2,
            channel_ids: Vec::new(),
        });
        let mut o2 = outcome(1, vec![2.0, 2.0, 2.0, 2.0], 10, 1);
        o2.selected = Some(crate::SelectedUpdate {
            indices: vec![0],
            values: vec![2.0],
            channels: 1,
            channel_ids: Vec::new(),
        });
        g.aggregate(&cfg, &[o1, o2], 2);
        // Index 0: mean(1, 2) = 1.5. Index 2: 3.0. Indices 1, 3: untouched.
        assert!((g.shared[0] - 1.5).abs() < 1e-6);
        assert_eq!(g.shared[1], 0.0);
        assert!((g.shared[2] - 3.0).abs() < 1e-6);
        assert_eq!(g.shared[3], 0.0);
    }

    #[test]
    fn empty_round_is_a_no_op() {
        let mut g = GlobalState {
            shared: vec![1.0; 2],
            control: Vec::new(),
            momentum: Vec::new(),
            buffers: Vec::new(),
        };
        let cfg = base_cfg(Algorithm::FedAvg);
        assert!(!g.aggregate(&cfg, &[], 5));
        assert_eq!(g.shared, vec![1.0, 1.0]);
    }

    #[test]
    fn norm_clipped_mean_drops_non_finite_uploads() {
        // Regression (REVIEW): multiplying NaN/∞ by zero keeps the poison
        // (IEEE: NaN×0 = NaN), so "zeroing" a non-finite upload must be
        // an outright drop. Without any ScreenPolicy, NormClippedMean
        // alone has to keep the global model finite.
        let mut g = GlobalState {
            shared: vec![0.0; 2],
            control: Vec::new(),
            momentum: Vec::new(),
            buffers: Vec::new(),
        };
        let mut cfg = base_cfg(Algorithm::FedAvg);
        cfg.aggregator = AggregatorKind::NormClippedMean;
        let cohort = [
            outcome(0, vec![1.0, 1.0], 10, 1),
            outcome(1, vec![1.0, -1.0], 10, 1),
            outcome(2, vec![f32::NAN, f32::INFINITY], 10, 1),
        ];
        assert!(g.aggregate(&cfg, &cohort, 3));
        assert!(
            g.shared.iter().all(|v| v.is_finite()),
            "a NaN upload must never poison the clipped mean, got {:?}",
            g.shared
        );
        // The poisoned upload is excluded outright: the result is the
        // weighted mean of the two honest uploads alone.
        assert!((g.shared[0] - 1.0).abs() < 1e-6);
        assert!(g.shared[1].abs() < 1e-6);
    }

    #[test]
    fn norm_clipped_mean_drops_uploads_with_non_finite_auxiliaries() {
        // The finiteness verdict covers every aggregated vector, not just
        // the delta: a poisoned SCAFFOLD control step must not reach the
        // control-variate update.
        let mut g = GlobalState {
            shared: vec![0.0; 1],
            control: vec![0.0; 1],
            momentum: Vec::new(),
            buffers: Vec::new(),
        };
        let mut cfg = base_cfg(Algorithm::Scaffold);
        cfg.aggregator = AggregatorKind::NormClippedMean;
        let mut bad = outcome(0, vec![1.0], 10, 1);
        bad.control_delta = Some(vec![f32::NAN]);
        let mut good = outcome(1, vec![1.0], 10, 1);
        good.control_delta = Some(vec![0.5]);
        assert!(g.aggregate(&cfg, &[bad, good], 2));
        assert!(g.shared[0].is_finite());
        assert!(g.control[0].is_finite());
    }

    #[test]
    fn norm_clipped_mean_all_non_finite_round_is_a_no_op() {
        let mut g = GlobalState {
            shared: vec![0.5, 0.25],
            control: Vec::new(),
            momentum: Vec::new(),
            buffers: vec![1.0, 2.0],
        };
        let mut cfg = base_cfg(Algorithm::FedAvg);
        cfg.aggregator = AggregatorKind::NormClippedMean;
        let mut bad0 = outcome(0, vec![f32::NAN, 1.0], 10, 1);
        bad0.buffers = vec![1.0, 2.0];
        let mut bad1 = outcome(1, vec![1.0, f32::INFINITY], 10, 1);
        bad1.buffers = vec![1.0, 2.0];
        assert!(!g.aggregate(&cfg, &[bad0, bad1], 2), "no-op round expected");
        assert_eq!(g.shared, vec![0.5, 0.25], "global state untouched");
        assert_eq!(g.buffers, vec![1.0, 2.0], "buffers untouched");
    }

    #[test]
    fn zero_sample_survivors_never_produce_nan() {
        // Regression: when every survivor has an empty shard the
        // sample-weighted rules used to divide by zero. The round must be
        // reported as a no-op with the global state untouched instead.
        for alg in [Algorithm::FedAvg, Algorithm::FedNova] {
            let mut g = GlobalState {
                shared: vec![1.0; 2],
                control: Vec::new(),
                momentum: Vec::new(),
                buffers: Vec::new(),
            };
            let cfg = base_cfg(alg);
            let o = outcome(0, vec![0.5, 0.5], 0, 1);
            assert!(!g.aggregate(&cfg, &[o], 4), "{alg:?}");
            assert_eq!(g.shared, vec![1.0, 1.0], "{alg:?}");
            assert!(g.shared.iter().all(|v| v.is_finite()));
        }
    }
}
