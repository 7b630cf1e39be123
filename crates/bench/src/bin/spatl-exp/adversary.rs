//! ADVERSARY — accuracy under Byzantine clients (DESIGN.md §9,
//! EXPERIMENTS.md).
//!
//! Sweep the Byzantine fraction over {0, 0.1, 0.3} × aggregation rule for
//! FedAvg and SPATL on the CIFAR-like task under the headline scale attack
//! (λ = 100 model-replacement boosting); at 0.3 the NaN-injection and
//! sign-flip attacks run too, one for each defense they motivate (the
//! screen's non-finite stage and the clip's drop; the robust aggregators).
//! Defended configurations run the full stack — update screen plus robust
//! aggregator — so the table shows defense in depth, not a single
//! mechanism. The adversary is seeded; every row (including each
//! quarantine decision on the ledger) reproduces exactly.

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{col, extend, run_record, Fmt, Scale, Section};

pub fn run(scale: Scale) -> Vec<Section> {
    let rounds = scale.pick(4, 8);
    let clients = scale.pick(5, 10);
    use AttackKind::{NanInjection, ScaleAttack, SignFlip};
    // (fraction, attack); no plan at all at fraction 0.
    let plans = [
        (0.0, ScaleAttack),
        (0.1, ScaleAttack),
        (0.3, ScaleAttack),
        (0.3, NanInjection),
        (0.3, SignFlip),
    ];
    let aggregators: Vec<AggregatorKind> = vec![
        AggregatorKind::WeightedMean,
        AggregatorKind::NormClippedMean,
        AggregatorKind::CoordinateMedian,
        AggregatorKind::CoordinateTrimmedMean { trim_ratio: 0.2 },
    ];
    let algs: Vec<(Algorithm, &'static str)> = vec![
        (Algorithm::FedAvg, "FedAvg"),
        (Algorithm::Spatl(SpatlOptions::default()), "SPATL"),
    ];

    let mut section = Section::new(
        format!(
            "accuracy vs Byzantine fraction and attack (scale λ={SCALE_LAMBDA}), \
             {clients} clients, {rounds} rounds"
        ),
        vec![
            col("Method", "algorithm", Fmt::Text),
            col("Aggregator", "aggregator", Fmt::Text),
            col("Byzantine", "byzantine_fraction", Fmt::Pct),
            col("Attack", "attack", Fmt::Text),
            col("Best acc", "best_acc", Fmt::Pct),
            col("Final acc", "final_acc", Fmt::Pct),
            col("Gap to attack-free", "gap_to_attack_free", Fmt::Pp),
            col("Tampered", "tampered_uploads", Fmt::Text),
            col("Quarantined", "quarantined", Fmt::Text),
        ],
    );
    for (alg, name) in &algs {
        let mut clean_final = 0.0f32;
        for &(frac, attack) in &plans {
            let plan = (frac > 0.0).then(|| AdversaryPlan::with_attack(frac, attack));
            for kind in &aggregators {
                // The attack-free baseline is aggregator-independent noise
                // we don't need four times over; run it once per method.
                if frac == 0.0 && *kind != AggregatorKind::WeightedMean {
                    continue;
                }
                let defended = *kind != AggregatorKind::WeightedMean;
                let mut builder = ExperimentBuilder::new(*alg)
                    .clients(clients)
                    .samples_per_client(scale.pick(60, 90))
                    .rounds(rounds)
                    .local_epochs(2)
                    .seed(1)
                    .aggregator(*kind);
                if let Some(plan) = plan {
                    builder = builder.adversary(plan);
                }
                if defended {
                    builder = builder.screen(ScreenPolicy::default());
                }
                let result = builder.run();
                if frac == 0.0 {
                    clean_final = result.final_acc();
                }
                let tampered: usize = result.history.iter().map(|r| r.faults.byzantine).sum();
                section.push(extend(
                    json!({
                        "algorithm": name,
                        "aggregator": kind.name(),
                        "screened": defended,
                        "byzantine_fraction": frac,
                        "attack": plan.map(|p| p.attack.name()),
                        "lambda": plan
                            .filter(|p| p.attack == ScaleAttack)
                            .map(|_| SCALE_LAMBDA),
                        "rounds": rounds,
                        "clients": clients,
                        "gap_to_attack_free": clean_final - result.final_acc(),
                        "tampered_uploads": tampered,
                    }),
                    run_record(&result),
                ));
            }
        }
    }
    vec![section]
}
