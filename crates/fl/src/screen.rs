//! Server-side update screening: semantic defense between decode and
//! aggregation.
//!
//! The envelope CRC proves an upload arrived *intact*; it proves nothing
//! about the upload being *sane*. This module is the second line of
//! defense (DESIGN.md §9): after the wire layer decodes a round's
//! surviving uploads and before [`GlobalState::aggregate`] touches the
//! model, every update passes through two checks:
//!
//! 1. **Non-finite rejection** — any `NaN`/`±∞` in the delta, salient
//!    values, control step, momentum or batch-norm statistics quarantines
//!    the upload outright. One poisoned coordinate reaching a mean
//!    destroys that coordinate globally, so this check is absolute.
//! 2. **Median-based norm screening** — every vector family the server
//!    aggregates (the main update, the SCAFFOLD control step, the FedNova
//!    momentum, the batch-norm statistics) has its RMS compared against
//!    that family's cohort median; anything above
//!    [`NORM_TOLERANCE`] `× median` in *any* family is quarantined as an
//!    outlier, so an attacker cannot hide magnitude in auxiliary state
//!    while keeping its delta inside the band. RMS (not L2) so SPATL's
//!    variable-length salient uploads are comparable with dense ones. The
//!    median is the reference because it is itself robust: a minority of
//!    attackers cannot drag it towards their own scale.
//!
//! Quarantined clients are recorded on the round's
//! [`FaultRecord`](crate::FaultRecord) with a typed
//! [`ScreenReason`], and aggregation renormalises over the remaining
//! cohort exactly as it does for dropouts — the machinery introduced with
//! the transport fault layer.
//!
//! What screening cannot catch: a sign-flipped update has the same norm as
//! the honest one it negates, and a smart attacker can scale within the
//! tolerance band. Those are the robust
//! [`AggregatorKind`](crate::AggregatorKind)s' job.
//!
//! **Memory model (DESIGN.md §12):** the stage-2 norm screen is a
//! *cohort statistic* — each family's median RMS exists only once every
//! survivor is present — so a screened round runs in the
//! [`RoundAccumulator`](crate::RoundAccumulator)'s explicit **buffered
//! spill mode**: uploads are buffered (O(cohort·model) ceiling,
//! documented, opted into by configuring a policy), deterministically
//! sorted by client id, screened here, then batch-aggregated. Unscreened
//! `WeightedMean` rounds never buffer; they stream through the exact
//! O(model) accumulator. The spill path sorts before screening, so
//! quarantine decisions are independent of upload arrival order — the
//! streaming-vs-buffered equivalence test in `tests/accumulate.rs` pins
//! this down on adversarial cohorts.
//!
//! [`GlobalState::aggregate`]: crate::GlobalState::aggregate

use crate::{FaultKind, FaultRecord, LocalOutcome};
use serde::{Deserialize, Serialize};

/// The server's update screen, switched on by its presence in
/// [`FlConfig`](crate::FlConfig); `None` there trusts every decoded
/// upload (the pre-defense behaviour). It carries no values: its band is
/// [`NORM_TOLERANCE`] and [`MIN_COHORT`]. A struct rather than a `bool`
/// so stored configurations, which carry `"screen": null` or an object,
/// still load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ScreenPolicy {}

/// An update is quarantined when its RMS exceeds
/// `NORM_TOLERANCE × median RMS` of its vector family over the round's
/// cohort.
pub const NORM_TOLERANCE: f32 = 4.0;

/// Minimum cohort size for the norm screen to run: with fewer decoded
/// uploads the median is dominated by the attackers it is supposed to
/// expose, so only the non-finite check applies.
pub const MIN_COHORT: usize = 3;

/// Why the screen rejected an upload; carried by
/// [`FaultKind::Quarantined`](crate::FaultKind::Quarantined).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScreenReason {
    /// The update contained `NaN` or `±∞`.
    NonFinite,
    /// One of the upload's aggregated vectors had an RMS outside the
    /// cohort's tolerance band for that vector family.
    NormOutlier {
        /// RMS of the most out-of-band vector (main update, control step,
        /// momentum, or batch-norm statistics).
        rms: f32,
        /// Median RMS of that vector family over the round's decoded
        /// cohort.
        median_rms: f32,
    },
    /// Fixed-point privacy: the upload's quantized L2 norm exceeded the
    /// session's ball — the per-upload defense that survives even though
    /// individual values are noise-obscured.
    RangeBound {
        /// Dequantized L2 norm of the rejected upload.
        norm: f32,
        /// The session's configured L2 bound.
        bound: f32,
    },
}

/// Root-mean-square of a slice (`0` when empty). Returns `NaN` when the
/// slice contains non-finite values — callers check finiteness first.
pub(crate) fn rms(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|&x| x * x).sum::<f32>() / xs.len() as f32).sqrt()
}

/// Median of a scratch slice (sorted in place; mean of the middle pair for
/// even lengths). Panics on empty input.
pub(crate) fn median_in_place(xs: &mut [f32]) -> f32 {
    assert!(!xs.is_empty(), "median of an empty sample");
    xs.sort_unstable_by(f32::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// How many vector families [`norm_families`] distinguishes.
const N_FAMILIES: usize = 4;

/// The vector families the server aggregates from this upload, in
/// screening order: the main update (salient values for a SPATL
/// selection, the dense delta otherwise), the SCAFFOLD control step, the
/// FedNova momentum, and the batch-norm statistics. `None` marks a family
/// this upload does not carry — each family is screened only over the
/// uploads that actually sent it.
fn norm_families(o: &LocalOutcome) -> [Option<&[f32]>; N_FAMILIES] {
    let update: &[f32] = match &o.selected {
        Some(sel) => &sel.values,
        None => &o.delta,
    };
    [
        Some(update),
        o.control_delta.as_deref(),
        o.velocity.as_deref(),
        (!o.buffers.is_empty()).then_some(o.buffers.as_slice()),
    ]
}

/// `true` when every vector the server would aggregate from this upload
/// is finite. Shared by the screen's stage 1 and by
/// [`AggregatorKind::NormClippedMean`](crate::AggregatorKind), which
/// drops poisoned uploads because IEEE scaling cannot zero them.
pub(crate) fn all_finite(o: &LocalOutcome) -> bool {
    norm_families(o)
        .into_iter()
        .flatten()
        .all(|xs| xs.iter().all(|v| v.is_finite()))
}

/// The screening statistic of one upload: RMS of its main update vector
/// (salient values for a SPATL selection, the dense delta otherwise).
pub(crate) fn update_rms(o: &LocalOutcome) -> f32 {
    match &o.selected {
        Some(sel) => rms(&sel.values),
        None => rms(&o.delta),
    }
}

/// Run the screen over a round's decoded cohort. Returns the survivors;
/// every rejection is pushed onto `record` as a
/// [`FaultKind::Quarantined`] event with its [`ScreenReason`].
pub fn screen_updates(
    policy: &ScreenPolicy,
    cohort: Vec<LocalOutcome>,
    record: &mut FaultRecord,
) -> Vec<LocalOutcome> {
    // The band is the module's constants; the policy carries no values.
    let ScreenPolicy {} = *policy;
    // Self-reported divergence (`o.diverged`) bypasses both stages: the
    // upload is already excluded by aggregation and recorded on the
    // ledger as `LocalDivergence`, so quarantining it again would
    // double-count the client — and its (typically non-finite) delta must
    // not skew the stage-2 medians. The screen judges only updates that
    // *claim* to be healthy.
    let (diverged, healthy): (Vec<LocalOutcome>, Vec<LocalOutcome>) =
        cohort.into_iter().partition(|o| o.diverged);

    // Stage 1: non-finite rejection.
    let mut kept: Vec<LocalOutcome> = Vec::with_capacity(healthy.len());
    for o in healthy {
        if all_finite(&o) {
            kept.push(o);
        } else {
            record.push(
                o.client_id,
                FaultKind::Quarantined {
                    reason: ScreenReason::NonFinite,
                },
            );
        }
    }

    // Stage 2: median-based norm screening over the finite cohort, one
    // pass per vector family so magnitude cannot hide in auxiliary state.
    let mut survivors = if kept.len() < MIN_COHORT {
        kept
    } else {
        // The worst offence per upload as `(rms, family median)` of the
        // family with the largest ratio; `None` = inside every band.
        let mut worst: Vec<Option<(f32, f32)>> = vec![None; kept.len()];
        let mut scratch: Vec<f32> = Vec::with_capacity(kept.len());
        for family in 0..N_FAMILIES {
            let entries: Vec<(usize, f32)> = kept
                .iter()
                .enumerate()
                .filter_map(|(i, o)| norm_families(o)[family].map(|xs| (i, rms(xs))))
                .collect();
            if entries.len() < MIN_COHORT {
                // Too few uploads carry this family for its median to be
                // trustworthy — the same stand-down rule as the screen's.
                continue;
            }
            scratch.clear();
            scratch.extend(entries.iter().map(|&(_, n)| n));
            let median = median_in_place(&mut scratch);
            if median <= 0.0 {
                // A degenerate all-zero family: no scale to compare
                // against.
                continue;
            }
            let limit = NORM_TOLERANCE * median;
            for &(i, n) in &entries {
                if n > limit && worst[i].is_none_or(|(wr, wm)| n / median > wr / wm) {
                    worst[i] = Some((n, median));
                }
            }
        }
        let mut survivors = Vec::with_capacity(kept.len());
        for (o, verdict) in kept.into_iter().zip(worst) {
            match verdict {
                Some((rms, median_rms)) => record.push(
                    o.client_id,
                    FaultKind::Quarantined {
                        reason: ScreenReason::NormOutlier { rms, median_rms },
                    },
                ),
                None => survivors.push(o),
            }
        }
        survivors
    };

    // Diverged uploads ride along untouched; aggregation skips them, so
    // survivor accounting matches the unscreened path.
    survivors.extend(diverged);
    survivors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CommModel;

    fn outcome(id: usize, delta: Vec<f32>) -> LocalOutcome {
        LocalOutcome {
            client_id: id,
            n_samples: 10,
            tau: 1,
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

    #[test]
    fn median_odd_even_and_rms() {
        assert_eq!(median_in_place(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_in_place(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((rms(&[3.0, 4.0]) - (12.5f32).sqrt()).abs() < 1e-6);
        assert_eq!(rms(&[]), 0.0);
    }

    #[test]
    fn non_finite_updates_are_quarantined() {
        let policy = ScreenPolicy::default();
        let mut rec = FaultRecord::for_sample(3);
        let cohort = vec![
            outcome(0, vec![1.0, 1.0]),
            outcome(1, vec![1.0, f32::NAN]),
            outcome(2, vec![f32::INFINITY, 1.0]),
        ];
        let kept = screen_updates(&policy, cohort, &mut rec);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].client_id, 0);
        assert_eq!(rec.quarantined, 2);
    }

    #[test]
    fn norm_outliers_are_quarantined_with_context() {
        let policy = ScreenPolicy::default();
        let mut rec = FaultRecord::for_sample(4);
        let cohort = vec![
            outcome(0, vec![1.0, 1.0]),
            outcome(1, vec![1.1, 0.9]),
            outcome(2, vec![0.9, 1.1]),
            outcome(3, vec![100.0, 100.0]), // 100× the cohort scale
        ];
        let kept = screen_updates(&policy, cohort, &mut rec);
        assert_eq!(kept.len(), 3);
        assert_eq!(rec.quarantined, 1);
        match &rec.events[0].kind {
            FaultKind::Quarantined {
                reason: ScreenReason::NormOutlier { rms, median_rms },
            } => {
                assert!(*rms > 99.0);
                assert!(*median_rms < 2.0);
            }
            other => panic!("expected a norm-outlier quarantine, got {other:?}"),
        }
    }

    #[test]
    fn sign_flip_passes_norm_screen() {
        // Norm screening is blind to sign flips by construction — the
        // documented reason robust aggregators exist.
        let policy = ScreenPolicy::default();
        let mut rec = FaultRecord::for_sample(3);
        let cohort = vec![
            outcome(0, vec![1.0, 1.0]),
            outcome(1, vec![1.0, 1.0]),
            outcome(2, vec![-1.0, -1.0]),
        ];
        let kept = screen_updates(&policy, cohort, &mut rec);
        assert_eq!(kept.len(), 3);
        assert_eq!(rec.quarantined, 0);
    }

    #[test]
    fn small_cohorts_skip_the_norm_screen() {
        let policy = ScreenPolicy::default(); // MIN_COHORT = 3
        let mut rec = FaultRecord::for_sample(2);
        let cohort = vec![outcome(0, vec![1.0]), outcome(1, vec![1e6])];
        let kept = screen_updates(&policy, cohort, &mut rec);
        assert_eq!(kept.len(), 2, "two clients: no majority to trust");
    }

    #[test]
    fn spatl_sparse_updates_screen_on_salient_values() {
        let policy = ScreenPolicy::default();
        let mut rec = FaultRecord::for_sample(3);
        let mut big = outcome(2, Vec::new());
        big.selected = Some(crate::SelectedUpdate {
            indices: vec![0, 1],
            values: vec![500.0, 500.0],
            channels: 1,
            channel_ids: vec![0],
        });
        let small = |id: usize| {
            let mut o = outcome(id, Vec::new());
            o.selected = Some(crate::SelectedUpdate {
                indices: vec![0, 1, 2],
                values: vec![1.0, 1.0, 1.0],
                channels: 1,
                channel_ids: vec![0],
            });
            o
        };
        let kept = screen_updates(&policy, vec![small(0), small(1), big], &mut rec);
        assert_eq!(kept.len(), 2);
        assert_eq!(rec.quarantined, 1);
        assert_eq!(rec.events[0].client_id, 2);
    }

    #[test]
    fn diverged_uploads_bypass_the_screen() {
        // A self-reporting diverged client is already excluded by
        // aggregation and recorded as `LocalDivergence`; the screen must
        // neither quarantine it a second time nor let its non-finite
        // delta skew the norm medians.
        let policy = ScreenPolicy::default();
        let mut rec = FaultRecord::for_sample(4);
        let mut div = outcome(3, vec![f32::NAN, f32::NAN]);
        div.diverged = true;
        let cohort = vec![
            outcome(0, vec![1.0, 1.0]),
            outcome(1, vec![1.1, 0.9]),
            outcome(2, vec![0.9, 1.1]),
            div,
        ];
        let kept = screen_updates(&policy, cohort, &mut rec);
        assert_eq!(kept.len(), 4, "the diverged upload rides along untouched");
        assert_eq!(
            rec.quarantined, 0,
            "no double-record on top of LocalDivergence"
        );
        assert!(kept.iter().any(|o| o.diverged && o.client_id == 3));
    }

    #[test]
    fn auxiliary_vectors_are_norm_screened() {
        // An attacker that keeps its delta inside the tolerance band but
        // scales its control step 100× must still be caught: each vector
        // family is screened against its own cohort median.
        let policy = ScreenPolicy::default();
        let mut rec = FaultRecord::for_sample(3);
        let with_control = |id: usize, scale: f32| {
            let mut o = outcome(id, vec![1.0, 1.0]);
            o.control_delta = Some(vec![0.5 * scale, 0.5 * scale]);
            o
        };
        let cohort = vec![
            with_control(0, 1.0),
            with_control(1, 1.0),
            with_control(2, 100.0),
        ];
        let kept = screen_updates(&policy, cohort, &mut rec);
        assert_eq!(kept.len(), 2);
        assert_eq!(rec.quarantined, 1);
        assert_eq!(rec.events[0].client_id, 2);
        match &rec.events[0].kind {
            FaultKind::Quarantined {
                reason: ScreenReason::NormOutlier { rms, median_rms },
            } => {
                assert!((*rms - 50.0).abs() < 1e-3, "control RMS, got {rms}");
                assert!((*median_rms - 0.5).abs() < 1e-6);
            }
            other => panic!("expected a norm-outlier quarantine, got {other:?}"),
        }
    }

    #[test]
    fn zero_plan_zero_effect() {
        let policy = ScreenPolicy::default();
        let mut rec = FaultRecord::for_sample(3);
        let cohort = vec![
            outcome(0, vec![1.0, 2.0]),
            outcome(1, vec![2.0, 1.0]),
            outcome(2, vec![1.5, 1.5]),
        ];
        let kept = screen_updates(&policy, cohort, &mut rec);
        assert_eq!(kept.len(), 3);
        assert_eq!(rec.total(), 0);
    }
}
