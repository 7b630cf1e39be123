//! SCALE — scalability of the simulator (the paper's "SPATL enables
//! scalable federated learning" contribution bullet).
//!
//! Fixed round budget, growing client population with a fixed sampling
//! count: reports wall-clock per round, bytes per round and accuracy,
//! demonstrating that cost scales with *sampled* clients, not population.

use serde_json::json;
use spatl::prelude::*;
use spatl_bench::{col, extend, run_record, Fmt, Scale, Section};
use std::time::Instant;

pub fn run(scale: Scale) -> Vec<Section> {
    let rounds = scale.pick(2, 5);
    let populations: Vec<usize> = scale.pick(vec![4, 8, 16], vec![10, 30, 50, 100]);
    let sampled = scale.pick(4, 10);

    let mut section = Section::new(
        format!("SPATL on ResNet-20 as the population grows, {rounds} rounds"),
        vec![
            col("clients", "clients", Fmt::Text),
            col("sampled/round", "sampled_per_round", Fmt::Text),
            col("sec/round", "sec_per_round", Fmt::Fixed3),
            col("bytes/round", "bytes_per_round", Fmt::Mb),
            col("mean acc", "mean_acc", Fmt::Pct),
        ],
    );
    for &n in &populations {
        let ratio = sampled as f32 / n as f32;
        let mut sim = ExperimentBuilder::new(Algorithm::Spatl(SpatlOptions::default()))
            .model(ModelKind::ResNet20)
            .clients(n)
            .sample_ratio(ratio)
            .samples_per_client(scale.pick(30, 60))
            .rounds(rounds)
            .local_epochs(1)
            .seed(7)
            .build();
        let t0 = Instant::now();
        let result = sim.run();
        let secs = t0.elapsed().as_secs_f64() / rounds as f64;
        let last = result.history.last().expect("rounds ran");
        section.push(extend(
            json!({
                "clients": n,
                "sampled_per_round": sim.cfg.clients_per_round(),
                "sec_per_round": secs,
                "bytes_per_round": last.bytes.total(),
                "mean_acc": last.mean_acc,
            }),
            run_record(&result),
        ));
    }
    vec![section]
}
