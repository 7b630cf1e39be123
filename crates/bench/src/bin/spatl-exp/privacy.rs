//! PRIVACY — server-blind aggregation: exactness, cost and attack
//! survival (DESIGN.md §14, EXPERIMENTS.md).
//!
//! Three legs over the CIFAR-like task:
//!
//! 1. **Exactness** — a pairwise-masked run must finish bit-identical to
//!    the clear fold from the same seeds: the masks cancel inside the
//!    carry-save accumulator, so privacy costs zero accuracy.
//! 2. **Cost** — the wire overhead of masking (each cohort member uploads
//!    dense masked lanes) and the accuracy cost of the lossy fixed-point
//!    encoding, with and without discrete noise.
//! 3. **Defense** — under the λ=100 scale attack the server cannot screen
//!    masked uploads (each one is indistinguishable from noise); the
//!    bypass is ledgered. The fixed-point range bound is the defense that
//!    still composes: out-of-ball uploads are quarantined per client
//!    before the sum is revealed.

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{col, extend, run_record, Fmt, Scale, Section};

/// Sum one fault counter over a run's history.
fn total(result: &RunResult, f: impl Fn(&FaultRecord) -> usize) -> usize {
    result.history.iter().map(|r| f(&r.faults)).sum()
}

/// Total modelled upload bytes over a run's history.
fn upload_bytes(result: &RunResult) -> u64 {
    result.history.iter().map(|r| r.bytes.upload).sum()
}

pub fn run(scale: Scale) -> Vec<Section> {
    let rounds = scale.pick(3, 8);
    let clients = scale.pick(5, 10);
    let samples = scale.pick(40, 80);
    let algs: Vec<(Algorithm, &'static str)> = vec![
        (Algorithm::FedAvg, "FedAvg"),
        (Algorithm::Spatl(SpatlOptions::default()), "SPATL"),
    ];
    let builder = |alg: Algorithm| {
        ExperimentBuilder::new(alg)
            .clients(clients)
            .samples_per_client(samples)
            .rounds(rounds)
            .local_epochs(2)
            .seed(1)
    };

    let mut section = Section::new(
        format!("server-blind aggregation, {clients} clients, {rounds} rounds"),
        vec![
            col("Method", "algorithm", Fmt::Text),
            col("Uploads", "uploads", Fmt::Text),
            col("Agg mode", "agg_mode", Fmt::Text),
            col("Final acc", "final_acc", Fmt::Pct),
            col("Bit-exact", "bit_exact_vs_clear", Fmt::YesNo),
            col("Upload MiB", "upload_bytes", Fmt::Mib),
            col("Bypassed", "screen_bypassed", Fmt::Text),
            col("Quarantined", "quarantined", Fmt::Text),
        ],
    );
    let mut push = |name: &str, mode: &str, result: &RunResult, clear: Option<&RunResult>| {
        let exact = clear.map(|c| c.final_acc().to_bits() == result.final_acc().to_bits());
        let bypassed = total(result, |f| f.screen_bypassed);
        // Every round of a run aggregates in one mode; the run is flagged
        // by a `+`-joined list if the records ever disagree.
        let mut modes: Vec<&str> = result.history.iter().map(|r| r.agg_mode.as_str()).collect();
        modes.dedup();
        section.push(extend(
            json!({
                "algorithm": name,
                "uploads": mode,
                "rounds": rounds,
                "clients": clients,
                "bit_exact_vs_clear": exact,
                "upload_bytes": upload_bytes(result),
                "agg_mode": modes.join("+"),
                "mask_recovered": total(result, |f| f.mask_recovered),
                "screen_bypassed": bypassed,
                "byzantine": total(result, |f| f.byzantine),
            }),
            run_record(result),
        ));
    };

    // Legs 1 + 2: exactness and cost, attack-free.
    for (alg, name) in &algs {
        let clear = builder(*alg).run();
        let masked = builder(*alg).privacy(PrivacyConfig::masked(0xC0FFEE)).run();
        push(name, "clear", &clear, None);
        push(name, "masked", &masked, Some(&clear));
        if masked.final_acc().to_bits() != clear.final_acc().to_bits() {
            eprintln!("  WARNING: {name} masked run drifted from the clear fold");
        }
        // Fixed-point composes with plain weighted means only.
        if matches!(alg, Algorithm::FedAvg) {
            let fixed = builder(*alg).privacy(PrivacyConfig::fixed(9, 50.0)).run();
            push(name, "fixed", &fixed, Some(&clear));
            let noisy = builder(*alg)
                .privacy(PrivacyConfig::fixed(9, 50.0).with_noise(0.05))
                .run();
            push(name, "fixed+dp", &noisy, Some(&clear));
        }
    }

    // Leg 3: λ=100 model-replacement boosting from 30% of the cohort.
    // The clear run screens; the masked run *cannot* and ledgers the
    // bypass; the fixed-point range bound quarantines what masking lets
    // through.
    let attack = AdversaryPlan::with_attack(0.3, AttackKind::ScaleAttack);
    let screened = builder(Algorithm::FedAvg)
        .adversary(attack)
        .screen(ScreenPolicy::default())
        .run();
    push("FedAvg+attack", "clear", &screened, None);
    let masked_attacked = builder(Algorithm::FedAvg)
        .adversary(attack)
        .privacy(PrivacyConfig::masked(0xC0FFEE))
        .run();
    push("FedAvg+attack", "masked", &masked_attacked, None);
    let fixed_attacked = builder(Algorithm::FedAvg)
        .adversary(attack)
        .privacy(PrivacyConfig::fixed(9, 50.0))
        .run();
    push("FedAvg+attack", "fixed", &fixed_attacked, None);

    vec![section]
}
