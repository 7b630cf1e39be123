//! Digest all `results/*.json` artefacts into a compact summary — the
//! measured side of EXPERIMENTS.md.

use spatl_bench::{results_dir, Table};
use std::fs;

fn load(name: &str) -> Option<serde_json::Value> {
    let path = results_dir().join(format!("{name}.json"));
    let text = fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

fn f(v: &serde_json::Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

fn main() {
    println!("# SPATL reproduction — measured summary\n");

    if let Some(v) = load("fig_learning_curves") {
        println!("## Learning curves (best accuracy per setting)");
        let mut t = Table::new(&["setting", "algorithm", "best acc", "rounds-to-50%"]);
        for run in v.as_array().into_iter().flatten() {
            let curve: Vec<f64> = run["curve"]
                .as_array()
                .into_iter()
                .flatten()
                .map(f)
                .collect();
            let best = curve.iter().copied().fold(0.0f64, f64::max);
            let r50 = curve
                .iter()
                .position(|&a| a >= 0.5)
                .map(|i| (i + 1).to_string())
                .unwrap_or_else(|| "-".into());
            t.row(vec![
                format!(
                    "{} {}c/{}",
                    run["model"].as_str().unwrap_or("?"),
                    run["clients"],
                    run["sample_ratio"]
                ),
                run["algorithm"].as_str().unwrap_or("?").to_string(),
                format!("{:.1}%", best * 100.0),
                r50,
            ]);
        }
        t.print();
        println!();
    }

    if let Some(v) = load("table1_comm_cost") {
        println!("## Table I — total bytes to target (speed-up vs FedAvg)");
        let runs: Vec<&serde_json::Value> = v.as_array().into_iter().flatten().collect();
        let mut t = Table::new(&[
            "model",
            "algorithm",
            "rounds",
            "total MB",
            "wire MB",
            "transfer",
            "speedup",
        ]);
        for model in ["ResNet-20", "ResNet-32", "VGG-11"] {
            let fedavg: Option<f64> = runs
                .iter()
                .find(|r| r["model"] == model && r["algorithm"] == "FedAvg")
                .map(|r| f(&r["total_bytes"]));
            for r in runs.iter().filter(|r| r["model"] == model) {
                let total = f(&r["total_bytes"]);
                let speed = fedavg
                    .filter(|&fa| fa > 0.0 && total > 0.0)
                    .map(|fa| format!("{:.2}x", fa / total))
                    .unwrap_or_else(|| "-".into());
                // Measured on-wire traffic (framed) and simulated transfer
                // time, when the artefact carries the wire fields.
                let framed = r["framed_bytes"]
                    .as_f64()
                    .map(|b| format!("{:.1}", b / 1e6))
                    .unwrap_or_else(|| "-".into());
                let transfer = r["transfer_s"]
                    .as_f64()
                    .map(|s| format!("{s:.1}s"))
                    .unwrap_or_else(|| "-".into());
                t.row(vec![
                    model.to_string(),
                    r["algorithm"].as_str().unwrap_or("?").to_string(),
                    r["rounds"].to_string(),
                    format!("{:.1}", total / 1e6),
                    framed,
                    transfer,
                    speed,
                ]);
            }
        }
        t.print();
        println!();
    }

    if let Some(v) = load("table2_convergence") {
        println!("## Table II — converge accuracy / cost");
        let mut t = Table::new(&[
            "model",
            "clients",
            "algorithm",
            "final acc",
            "total MB",
            "transfer",
        ]);
        for r in v.as_array().into_iter().flatten() {
            let transfer = r["transfer_s"]
                .as_f64()
                .map(|s| format!("{s:.1}s"))
                .unwrap_or_else(|| "-".into());
            t.row(vec![
                r["model"].as_str().unwrap_or("?").to_string(),
                r["clients"].to_string(),
                r["algorithm"].as_str().unwrap_or("?").to_string(),
                format!("{:.1}%", f(&r["final_acc"]) * 100.0),
                format!("{:.1}", f(&r["total_bytes"]) / 1e6),
                transfer,
            ]);
        }
        t.print();
        println!();
    }

    if let Some(v) = load("fig_local_acc") {
        println!("## Per-client accuracy spread");
        let mut t = Table::new(&["algorithm", "mean", "min", "spread"]);
        for r in v.as_array().into_iter().flatten() {
            let accs: Vec<f64> = r["per_client_acc"]
                .as_array()
                .into_iter()
                .flatten()
                .map(f)
                .collect();
            let mean = accs.iter().sum::<f64>() / accs.len().max(1) as f64;
            let min = accs.iter().copied().fold(1.0f64, f64::min);
            let max = accs.iter().copied().fold(0.0f64, f64::max);
            t.row(vec![
                r["algorithm"].as_str().unwrap_or("?").to_string(),
                format!("{:.1}%", mean * 100.0),
                format!("{:.1}%", min * 100.0),
                format!("{:.1}pp", (max - min) * 100.0),
            ]);
        }
        t.print();
        println!();
    }

    if let Some(v) = load("table3_transfer") {
        println!("## Table III — transferability");
        let mut t = Table::new(&["algorithm", "transfer acc"]);
        for r in v.as_array().into_iter().flatten() {
            t.row(vec![
                r["algorithm"].as_str().unwrap_or("?").to_string(),
                format!("{:.1}%", f(&r["transfer_acc"]) * 100.0),
            ]);
        }
        t.print();
        println!();
    }

    if let Some(v) = load("table4_pruning") {
        println!("## Table IV — pruning at 60% FLOPs budget");
        let mut t = Table::new(&["method", "accuracy", "FLOPs kept"]);
        for r in v.as_array().into_iter().flatten() {
            t.row(vec![
                r["method"].as_str().unwrap_or("?").to_string(),
                format!("{:.1}%", f(&r["acc"]) * 100.0),
                format!("{:.1}%", f(&r["flops_ratio"]) * 100.0),
            ]);
        }
        t.print();
        println!();
    }

    if let Some(v) = load("table_inference") {
        println!("## Inference acceleration (per-client FLOPs reduction)");
        let rows: Vec<&serde_json::Value> = v.as_array().into_iter().flatten().collect();
        let mut t = Table::new(&["model", "mean FLOPs ↓", "best client ↓"]);
        for model in ["ResNet-20", "ResNet-32", "VGG-11"] {
            let ratios: Vec<f64> = rows
                .iter()
                .filter(|r| r["model"] == model)
                .map(|r| f(&r["flops_ratio"]))
                .collect();
            if ratios.is_empty() {
                continue;
            }
            let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
            let best = ratios.iter().copied().fold(1.0f64, f64::min);
            t.row(vec![
                model.to_string(),
                format!("{:.1}%", (1.0 - mean) * 100.0),
                format!("{:.1}%", (1.0 - best) * 100.0),
            ]);
        }
        t.print();
        println!();
    }

    if let Some(v) = load("faults_dropout_sweep") {
        println!("## Faults — accuracy vs per-round dropout (seeded plan)");
        let mut t = Table::new(&[
            "algorithm",
            "dropout",
            "best acc",
            "gap to fault-free",
            "dropped/sampled",
            "no-op rounds",
        ]);
        for r in v.as_array().into_iter().flatten() {
            t.row(vec![
                r["algorithm"].as_str().unwrap_or("?").to_string(),
                format!("{:.0}%", f(&r["dropout"]) * 100.0),
                format!("{:.1}%", f(&r["best_acc"]) * 100.0),
                format!("{:.1}pp", f(&r["gap_to_fault_free"]) * 100.0),
                format!("{}/{}", r["dropped"], r["sampled"]),
                r["no_op_rounds"].to_string(),
            ]);
        }
        t.print();
        println!();
    }

    if let Some(v) = load("adversary_sweep") {
        println!("## Adversary — accuracy vs Byzantine fraction (scale attack, λ=100)");
        let mut t = Table::new(&[
            "algorithm",
            "aggregator",
            "byzantine",
            "final acc",
            "gap to attack-free",
            "tampered",
            "quarantined",
        ]);
        for r in v.as_array().into_iter().flatten() {
            t.row(vec![
                r["algorithm"].as_str().unwrap_or("?").to_string(),
                r["aggregator"].as_str().unwrap_or("?").to_string(),
                format!("{:.0}%", f(&r["byzantine_fraction"]) * 100.0),
                format!("{:.1}%", f(&r["final_acc"]) * 100.0),
                format!("{:.1}pp", f(&r["gap_to_attack_free"]) * 100.0),
                r["tampered_uploads"].to_string(),
                r["quarantined"].to_string(),
            ]);
        }
        t.print();
        println!();
    }

    if let Some(v) = load("privacy_sweep") {
        println!("## Privacy — server-blind aggregation (masked / fixed-point uploads)");
        let mut t = Table::new(&[
            "algorithm",
            "uploads",
            "agg mode",
            "final acc",
            "bit-exact",
            "upload MB",
            "bypassed",
            "quarantined",
        ]);
        for r in v.as_array().into_iter().flatten() {
            // Every round of a run aggregates in one mode; surface it (and
            // flag the run if the records ever disagree).
            let mut modes: Vec<&str> = r["agg_modes"]
                .as_array()
                .into_iter()
                .flatten()
                .filter_map(|m| m.as_str())
                .collect();
            modes.dedup();
            let exact = match r["bit_exact_vs_clear"].as_bool() {
                Some(true) => "yes",
                Some(false) => "no (lossy)",
                None => "-",
            };
            t.row(vec![
                r["algorithm"].as_str().unwrap_or("?").to_string(),
                r["uploads"].as_str().unwrap_or("?").to_string(),
                modes.join("+"),
                format!("{:.1}%", f(&r["final_acc"]) * 100.0),
                exact.to_string(),
                format!("{:.1}", f(&r["upload_bytes"]) / 1e6),
                r["screen_bypassed"].to_string(),
                r["quarantined"].to_string(),
            ]);
        }
        t.print();
        println!(
            "(bit-exact: the masked run's final accuracy equals the clear \
             fold's to the bit; bypassed: Byzantine uploads aggregation could \
             not screen because the round was masked)\n"
        );
    }

    if let Some(v) = load("churn") {
        println!("## Churn — availability-driven cohorts (trace-driven arrival/departure)");
        let mut t = Table::new(&[
            "profile",
            "sampled",
            "survivors",
            "dropouts",
            "no-op rounds",
            "final acc",
        ]);
        for r in v.as_array().into_iter().flatten() {
            if r["profile"] == "population-sweep" {
                continue;
            }
            t.row(vec![
                r["profile"].as_str().unwrap_or("?").to_string(),
                r["sampled"].to_string(),
                r["survivors"].to_string(),
                r["dropouts"].to_string(),
                r["no_op_rounds"].to_string(),
                format!("{:.1}%", f(&r["final_acc"]) * 100.0),
            ]);
        }
        t.print();
        if let Some(sweep) = v
            .as_array()
            .into_iter()
            .flatten()
            .find(|r| r["profile"] == "population-sweep")
        {
            println!(
                "population sweep: {} cohorts of <={} from {} virtual clients in {:.3}s",
                sweep["rounds"],
                sweep["cohort_cap"],
                sweep["population"],
                f(&sweep["elapsed_s"]),
            );
        }
        println!();
    }

    if let Some(v) = load("fig_rl_finetune") {
        println!("## Agent pre-train / fine-tune rewards");
        let pre: Vec<f64> = v["pretrain_rewards"]
            .as_array()
            .into_iter()
            .flatten()
            .map(f)
            .collect();
        let fine: Vec<f64> = v["finetune_rewards"]
            .as_array()
            .into_iter()
            .flatten()
            .map(f)
            .collect();
        let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        println!(
            "pre-train  : first 3 avg {:.3} → last 3 avg {:.3}",
            avg(&pre[..3.min(pre.len())]),
            avg(&pre[pre.len().saturating_sub(3)..])
        );
        println!(
            "fine-tune  : first 3 avg {:.3} → last 3 avg {:.3}",
            avg(&fine[..3.min(fine.len())]),
            avg(&fine[fine.len().saturating_sub(3)..])
        );
        println!("agent bytes: {}\n", v["agent_bytes"]);
    }

    if let Some(v) = load("net_loopback") {
        println!("## Networked runtime (loopback) — measured vs Eq. 13 prediction");
        let mut t = Table::new(&[
            "algorithm",
            "clients",
            "rounds",
            "framed bytes",
            "predicted s",
            "measured s",
            "meas/pred",
        ]);
        let predicted = f(&v["predicted_wall_s"]);
        let measured = f(&v["measured_wall_s"]);
        let ratio = if predicted > 0.0 {
            format!("{:.3}", measured / predicted)
        } else {
            "-".to_string()
        };
        t.row(vec![
            v["algorithm"].as_str().unwrap_or("?").to_string(),
            v["clients"].to_string(),
            v["rounds"].to_string(),
            v["framed_bytes"].to_string(),
            format!("{predicted:.4}"),
            format!("{measured:.4}"),
            ratio,
        ]);
        t.print();
        println!(
            "(prediction: SimNet Eq. 13 over the configured link profile; \
             measurement: monotonic clock around the coordinator's \
             broadcast + collection phase on 127.0.0.1)\n"
        );
    }

    if let Some(v) = load("fig_ablations") {
        println!("## Ablations (best accuracy, variant vs variant)");
        let mut t = Table::new(&["ablation", "variant", "best acc"]);
        for r in v.as_array().into_iter().flatten() {
            let curve: Vec<f64> = r["curve"].as_array().into_iter().flatten().map(f).collect();
            let best = curve.iter().copied().fold(0.0f64, f64::max);
            t.row(vec![
                r["ablation"].as_str().unwrap_or("?").to_string(),
                r["variant"].as_str().unwrap_or("?").to_string(),
                format!("{:.1}%", best * 100.0),
            ]);
        }
        t.print();
        println!();
    }
}
