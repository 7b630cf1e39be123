//! The `sim_*` workloads: `Simulation::run_round` timed end to end, and
//! the same round replayed call by call from the harness for the trace.

use crate::layers;
use crate::report::{failed_uploads, Check, Metrics, RunOutput};
use crate::stats::{median, tail};
use crate::sys::{self, Sample, Stamp};
use crate::trace::{coverage, merge_intervals, per_round_ms, totals, Tracer};
use crate::workloads::{SimSpec, SETUP_REPEATS};
use rayon::prelude::*;
use serde_json::json;
use spatl::prelude::{ExperimentBuilder, PrivacyConfig, Simulation};
use spatl_fl::{
    decode_download, encode_upload, FaultKind, FaultRecord, GlobalState, LocalOutcome, RoundRecord,
    TransportStats, WireBytes,
};
use std::thread::ThreadId;
use std::time::Instant;

/// Materialise the workload's simulation. Everything random — data
/// synthesis, Dirichlet partition, model init, agent pre-training,
/// sampling and batching streams, pair-mask seeds — derives from `seed`.
fn build(spec: &SimSpec, seed: u64, masked: bool) -> Simulation {
    let mut b = ExperimentBuilder::new(spec.algorithm)
        .model(spec.model)
        .clients(spec.clients)
        .sample_ratio(1.0)
        .samples_per_client(spec.samples_per_client)
        .batch_size(spec.batch_size)
        .local_epochs(1)
        .beta(0.5)
        .width_mult(0.25)
        .seed(seed);
    if masked {
        b = b.privacy(PrivacyConfig::masked(seed ^ 0x5EC0DE));
    }
    b.build()
}

/// Build the simulation [`SETUP_REPEATS`] times; returns the last one and
/// appends every build's wall-clock seconds to `times`.
fn timed_setup(spec: &SimSpec, seed: u64, times: &mut Vec<f64>) -> Simulation {
    let mut sim = None;
    for _ in 0..SETUP_REPEATS {
        drop(sim.take());
        let t0 = Instant::now();
        sim = Some(build(spec, seed, spec.masked));
        times.push(t0.elapsed().as_secs_f64());
    }
    sim.expect("SETUP_REPEATS >= 1")
}

/// The inputs of one run: `spec.simulations` seeds derived from `--seed`
/// (distinct for distinct `--seed` values).
fn sub_seeds(spec: &SimSpec, seed: u64) -> Vec<u64> {
    (0..spec.simulations as u64)
        .map(|k| seed.wrapping_mul(31).wrapping_add(k))
        .collect()
}

/// Per-round output checks shared by the timed and the traced run.
fn check_round(spec: &SimSpec, rec: &RoundRecord, checks: &mut Vec<Check>) {
    let r = rec.round;
    checks.push(Check::new(
        format!("round {r}: wire.upload_payload == bytes.upload (Eq. 13)"),
        rec.wire.upload_payload == rec.bytes.upload,
    ));
    checks.push(Check::new(
        format!("round {r}: wire.download_payload == bytes.download (Eq. 13)"),
        rec.wire.download_payload == rec.bytes.download,
    ));
    checks.push(Check::new(
        format!("round {r}: accuracies finite"),
        rec.mean_acc.is_finite() && rec.per_client_acc.iter().all(|a| a.is_finite()),
    ));
    checks.push(Check::new(
        format!("round {r}: every sampled upload folded"),
        !rec.faults.no_op && rec.faults.survivors == rec.faults.sampled,
    ));
    let want_mode = if spec.masked { "masked" } else { "stream" };
    checks.push(Check::new(
        format!(
            "round {r}: agg_mode == {want_mode:?} (got {:?})",
            rec.agg_mode
        ),
        rec.agg_mode == want_mode,
    ));
}

/// Uploads a round attempted and how many of them were not folded.
fn round_ops(rec: &RoundRecord) -> (u64, u64) {
    let sampled = rec.faults.sampled as u64;
    let survivors = rec.faults.survivors as u64;
    (
        sampled,
        failed_uploads(sampled, survivors, rec.faults.no_op),
    )
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two server states agree bit for bit in every lane.
fn globals_identical(a: &GlobalState, b: &GlobalState) -> bool {
    bits_equal(&a.shared, &b.shared)
        && bits_equal(&a.control, &b.control)
        && bits_equal(&a.momentum, &b.momentum)
        && bits_equal(&a.buffers, &b.buffers)
}

fn provenance(
    spec: &SimSpec,
    sim: &Simulation,
    seeds: &[u64],
    samples: &[Vec<Sample>],
    clear_wall: &[f64],
) -> serde_json::Value {
    let per_sim = |value: fn(&Sample) -> f64| -> Vec<Vec<f64>> {
        samples
            .iter()
            .map(|s| s.iter().map(value).collect())
            .collect()
    };
    json!({
        "algorithm": sim.cfg.algorithm.name(),
        "model": spec.model.name(),
        "width_mult": 0.25,
        "shared_params": sim.global.shared.len(),
        "clients": spec.clients,
        "samples_per_client": spec.samples_per_client,
        "batch_size": spec.batch_size,
        "local_epochs": 1,
        "masked": spec.masked,
        "simulation_seeds": seeds,
        "warmup_rounds": spec.warmup,
        "fixed_rounds": spec.fixed_rounds,
        "timed_rounds": samples.iter().map(Vec::len).sum::<usize>(),
        "round_wall_s": per_sim(|s| s.wall_s),
        "round_cpu_s": per_sim(|s| s.cpu_s),
        "round_steal_s": per_sim(|s| s.steal_s),
        "clear_round_wall_s": clear_wall
    })
}

/// Run one round with the clocks around it; returns its record.
fn timed_round(sim: &mut Simulation, samples: &mut Vec<Sample>) -> RoundRecord {
    let t0 = Stamp::now();
    let rec = sim.run_round();
    samples.push(t0.elapsed());
    rec
}

/// Mean over the simulations of each one's median of `value`.
fn mean_of_medians(samples: &[Vec<Sample>], value: impl Fn(&Sample) -> f64) -> f64 {
    let medians: Vec<f64> = samples
        .iter()
        .map(|s| median(&s.iter().map(&value).collect::<Vec<f64>>()))
        .collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// The end-to-end run: tracing off, `Simulation::run_round` as a user
/// calls it.
///
/// One run measures `spec.simulations` simulations built from seeds derived
/// from `--seed`. How long a round takes depends on the inputs — SPATL's
/// selection decides how many coordinates travel, the partition how many
/// batches a client trains — so a single simulation per run would make
/// the spread across `--seed` values mostly a property of the seeds.
///
/// Each simulation is set up, warmed up and run for its fixed prefix on
/// its own; after that the simulations take turns, one round each, until
/// `seconds` of rounds have been measured. Taking turns spreads a burst
/// of interference from the host over all of them, where each one's
/// median shrugs it off, instead of letting it land on one.
pub fn run_end_to_end(spec: &SimSpec, seed: u64, seconds: f64) -> RunOutput {
    let seeds = sub_seeds(spec, seed);
    let mut setup = Vec::new();
    let mut checks = Vec::new();
    let mut sims = Vec::with_capacity(seeds.len());
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); seeds.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut up_bytes, mut down_bytes) = (0u64, 0u64);
    let mut peak_rss_mb = 0.0;
    for (k, &sub) in seeds.iter().enumerate() {
        let mut sim = timed_setup(spec, sub, &mut setup);
        for _ in 0..spec.warmup {
            sim.run_round();
        }
        // Byte metrics and output checks come from the fixed prefix only,
        // so they do not depend on how many rounds the time box fits.
        for _ in 0..spec.fixed_rounds {
            let rec = timed_round(&mut sim, &mut samples[k]);
            let (a, f) = round_ops(&rec);
            attempted += a;
            failed += f;
            up_bytes += rec.wire.upload_framed;
            down_bytes += rec.wire.download_framed;
            check_round(spec, &rec, &mut checks);
        }
        // One simulation's footprint: read before the next one is built.
        if k == 0 {
            peak_rss_mb = sys::peak_rss_mb();
        }
        sims.push(sim);
    }
    let mut measured: f64 = samples.iter().flatten().map(|s| s.wall_s).sum();
    'time_box: loop {
        for (sim, samples) in sims.iter_mut().zip(&mut samples) {
            if measured >= seconds {
                break 'time_box;
            }
            let rec = timed_round(sim, samples);
            let (a, f) = round_ops(&rec);
            attempted += a;
            failed += f;
            measured += samples.last().map_or(0.0, |s| s.wall_s);
        }
    }
    let fixed = (seeds.len() * spec.fixed_rounds) as f64;

    let mut m = Metrics::default();
    m.push("setup_s", "s", median(&setup));
    m.push(
        "round_s",
        "s",
        mean_of_medians(&samples, Sample::unstolen_s),
    );
    m.push(
        "cpu_s_per_round",
        "s",
        mean_of_medians(&samples, |s| s.cpu_s),
    );
    m.push("upload_bytes_per_round", "B", up_bytes as f64 / fixed);
    m.push("download_bytes_per_round", "B", down_bytes as f64 / fixed);
    m.push("peak_rss_mb", "MB", peak_rss_mb);
    let prov = provenance(spec, &sims[0], &seeds, &samples, &[]);
    RunOutput::new(checks, attempted, failed, m, prov)
}

/// Coordinates one decoded upload contributes to the fold.
fn upload_coords(decoded: &LocalOutcome) -> u64 {
    if let Some(masked) = &decoded.masked {
        masked.delta.n_coords() as u64
    } else if let Some(sel) = &decoded.selected {
        sel.indices.len() as u64
    } else {
        decoded.delta.len() as u64
    }
}

/// One round of the simulator's protocol, replayed from the harness
/// through the public round API with a span around every call. Must stay
/// a faithful mirror of `Simulation::run_round` for a fault-free,
/// adversary-free configuration — the traced run proves it by comparing
/// final global states bit for bit.
fn traced_round(sim: &mut Simulation, tr: &mut Tracer) -> RoundRecord {
    let round = sim.driver.round_index();
    let root = tr.open("round", round, None);
    let here = Some(root);

    let sampled = tr.timed("fl.sample", round, here, || {
        let s = sim.driver.sample_round();
        let n = s.len() as u64;
        (s, n)
    });
    let mut faults = FaultRecord::for_sample(sampled.len());
    let mut in_round = vec![false; sim.driver.cfg.n_clients];
    for &i in &sampled {
        in_round[i] = true;
    }

    let cfg = sim.driver.cfg;
    let p = sim.driver.global.shared.len();
    let down = tr.timed("fl.broadcast_encode", round, here, || {
        let d = sim.driver.broadcast();
        let n = d.framed();
        (d, n)
    });
    let wire_global = tr.timed("fl.broadcast_decode", round, here, || {
        let g = decode_download(&cfg, &down.frames, p).expect("server broadcast must decode");
        (g, p as u64)
    });

    // Local updates under the harness's own par_iter, so both the wall
    // span and every client's own span exist. A client's span is not busy
    // time: the pool is help-first, so a thread waiting on a nested
    // parallel call inside one client's update runs whole other clients
    // meanwhile, and their spans nest inside the first. Busy time is the
    // union of the client spans *per thread*, recorded as
    // `fl.local_update.thread` spans (count = thread lane). At the pinned
    // `SPATL_THREADS=1` there is one lane and busy time equals wall.
    let lu = tr.open("fl.local_update", round, here);
    let clock = tr.clock();
    let global_ref = &wire_global;
    let timed: Vec<(LocalOutcome, f64, f64, ThreadId)> = sim
        .clients
        .par_iter_mut()
        .enumerate()
        .filter(|(i, _)| in_round[*i])
        .map(|(_, c)| {
            let a = clock.now_us();
            let o = c.local_update(&cfg, global_ref, round);
            (o, a, clock.now_us(), std::thread::current().id())
        })
        .collect();
    tr.close(lu, timed.len() as u64);
    let mut lanes: Vec<(ThreadId, Vec<(f64, f64)>)> = Vec::new();
    let mut outcomes = Vec::with_capacity(timed.len());
    for (o, a, b, thread) in timed {
        tr.record(
            "fl.local_update.client",
            round,
            Some(lu),
            a,
            b,
            o.tau as u64,
        );
        match lanes.iter_mut().find(|(t, _)| *t == thread) {
            Some((_, spans)) => spans.push((a, b)),
            None => lanes.push((thread, vec![(a, b)])),
        }
        if o.diverged {
            faults.push(o.client_id, FaultKind::LocalDivergence);
        }
        outcomes.push(o);
    }
    for (lane, (_, spans)) in lanes.into_iter().enumerate() {
        for (a, b) in merge_intervals(spans) {
            tr.record("fl.local_update.thread", round, Some(lu), a, b, lane as u64);
        }
    }

    let mut wire_total = WireBytes::default();
    let mut wall_clock_s = 0f64;
    let mut device_seconds = 0f64;
    let mut survivors = Vec::with_capacity(outcomes.len());
    for o in &mut outcomes {
        o.wire.download_payload = down.payload;
        o.wire.download_framed = down.framed();
        let decoded = tr.timed("fl.upload_decode", round, here, || {
            let d = sim
                .driver
                .decode_client_upload(o, &o.frames)
                .expect("client upload must decode");
            let n = upload_coords(&d);
            (d, n)
        });
        wire_total.accumulate(&o.wire);
        let t = sim.driver.net.client_time(
            o.wire.download_framed as usize,
            o.wire.upload_framed as usize,
        );
        device_seconds += t;
        wall_clock_s = wall_clock_s.max(t);
        survivors.push(decoded);
    }

    let mut acc = tr.timed("fl.fold", round, here, || {
        (sim.driver.begin_accumulation(), 0)
    });
    for d in survivors {
        let n = upload_coords(&d);
        tr.timed("fl.fold", round, here, || (acc.fold(d), n));
    }
    tr.timed("fl.finish", round, here, || {
        (sim.driver.finish_accumulation(acc, &mut faults), 0)
    });
    let per_client_acc = tr.timed("fl.eval", round, here, || {
        let a = sim.evaluate_all();
        let n = a.len() as u64;
        (a, n)
    });
    let rec = tr.timed("fl.finish", round, here, || {
        let rec = sim.driver.finish_round(
            &outcomes,
            TransportStats {
                wire: wire_total,
                transfer_wall_s: wall_clock_s,
                transfer_device_s: device_seconds,
                measured_wall_s: 0.0,
            },
            per_client_acc,
            faults,
        );
        (rec, 0)
    });
    tr.close(root, outcomes.len() as u64);

    // Probe outside the round span: what sealing one client's upload
    // costs. `local_update` does this internally for every client, so the
    // time is already inside the busy spans; re-encoding the first
    // participant's outcome gives it a name without touching the round.
    if let Some(o) = outcomes.first() {
        tr.timed("fl.upload_encode", round, None, || {
            let e = encode_upload(&cfg, &wire_global, o, round);
            let n = e.framed();
            (e, n)
        });
    }
    rec
}

/// The traced run: reference rounds through `run_round` (tracing off),
/// the same rounds through the traced skeleton, bit-identity checks
/// between the two (and against a clear run for masked workloads), then
/// the layer micro-benchmarks with whatever is left of `seconds`.
pub fn run_traced(spec: &SimSpec, seed: u64, seconds: f64, trace_path: &str) -> RunOutput {
    let started = Instant::now();
    let mut checks = Vec::new();
    let total_rounds = spec.warmup + spec.traced_rounds;

    // Reference: the real simulator, untraced.
    let mut reference = build(spec, seed, spec.masked);
    for _ in 0..spec.warmup {
        reference.run_round();
    }
    let mut reference_samples = Vec::with_capacity(spec.traced_rounds);
    for _ in 0..spec.traced_rounds {
        timed_round(&mut reference, &mut reference_samples);
    }
    let untraced: Vec<f64> = reference_samples.iter().map(|s| s.wall_s).collect();

    // Traced: identical warm-up, then the skeleton.
    let mut sim = build(spec, seed, spec.masked);
    for _ in 0..spec.warmup {
        sim.run_round();
    }
    let mut tr = Tracer::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last = None;
    for _ in 0..spec.traced_rounds {
        let rec = traced_round(&mut sim, &mut tr);
        let (a, f) = round_ops(&rec);
        attempted += a;
        failed += f;
        check_round(spec, &rec, &mut checks);
        last = Some(rec);
    }
    checks.push(Check::new(
        "traced skeleton's final global is bit-identical to Simulation::run_round's",
        globals_identical(&sim.global, &reference.global),
    ));
    let skeleton_matches_history = sim
        .history
        .iter()
        .zip(&reference.history)
        .all(|(a, b)| a.mean_acc.to_bits() == b.mean_acc.to_bits() && a.wire == b.wire);
    checks.push(Check::new(
        "traced skeleton's per-round accuracy and wire bytes equal run_round's",
        skeleton_matches_history,
    ));
    // Timed as well, for provenance: what the same rounds cost unmasked.
    let mut clear_wall = Vec::new();
    if spec.masked {
        let mut clear = build(spec, seed, false);
        for _ in 0..total_rounds {
            let t0 = Instant::now();
            clear.run_round();
            clear_wall.push(t0.elapsed().as_secs_f64());
        }
        checks.push(Check::new(
            "masked final global is bit-identical to the clear run of the same seed",
            globals_identical(&sim.global, &clear.global),
        ));
    }

    let spans = tr.spans();
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "round")
        .collect();
    let traced_wall: Vec<f64> = roots
        .iter()
        .map(|&i| spans[i].duration_us() / 1e6)
        .collect();
    let min_coverage = roots
        .iter()
        .map(|&i| coverage(spans, i))
        .fold(f64::INFINITY, f64::min);
    checks.push(Check::new(
        format!("trace.coverage >= 0.95 in every round (min {min_coverage:.4})"),
        min_coverage >= 0.95,
    ));

    let med = |name: &str| median(&per_round_ms(spans, name));
    let ns_per_coord = |name: &str| {
        let (us, coords) = totals(spans, name);
        if coords == 0 {
            0.0
        } else {
            us * 1e3 / coords as f64
        }
    };
    let mut m = Metrics::default();
    m.push("fl.sample_ms", "ms", med("fl.sample"));
    m.push("fl.broadcast_encode_ms", "ms", med("fl.broadcast_encode"));
    m.push("fl.broadcast_decode_ms", "ms", med("fl.broadcast_decode"));
    m.push("fl.local_update_wall_ms", "ms", med("fl.local_update"));
    m.push(
        "fl.local_update_busy_ms",
        "ms",
        med("fl.local_update.thread"),
    );
    m.push("fl.upload_encode_ms", "ms", med("fl.upload_encode"));
    m.push("fl.upload_decode_ms", "ms", med("fl.upload_decode"));
    m.push(
        "fl.upload_decode_ns_per_coord",
        "ns",
        ns_per_coord("fl.upload_decode"),
    );
    m.push("fl.fold_ms", "ms", med("fl.fold"));
    m.push("fl.fold_ns_per_coord", "ns", ns_per_coord("fl.fold"));
    m.push("fl.finish_ms", "ms", med("fl.finish"));
    m.push("fl.eval_ms", "ms", med("fl.eval"));
    m.push(
        "fl.upload_coords_per_round",
        "count",
        totals(spans, "fl.upload_decode").1 as f64 / spec.traced_rounds as f64,
    );
    m.push("trace.coverage", "fraction", min_coverage);
    m.push(
        "trace.overhead",
        "ratio",
        median(&traced_wall) / median(&untraced),
    );
    m.push("round.median_s", "s", median(&untraced));
    m.push("round.tail_s", "s", tail(&untraced, 10).1);
    m.push("round.samples", "count", untraced.len() as f64);
    m.push(
        "sim.final_acc",
        "fraction",
        last.map_or(0.0, |r| f64::from(r.mean_acc)),
    );

    let model = sim.clients[0].model.clone();
    let data = sim.clients[0].train.clone();
    let val = sim.clients[0].val.clone();
    let prov = provenance(spec, &sim, &[seed], &[reference_samples], &clear_wall);
    drop(sim);
    drop(reference);
    let left = (seconds - started.elapsed().as_secs_f64()).max(0.0);
    layers::common(&mut m, seed, left * 0.5);
    layers::model_dependent(
        &mut m,
        &model,
        &data,
        &val,
        spec.batch_size,
        seed,
        left * 0.5,
    );
    m.zero_the_rest();

    crate::report::write_trace(trace_path, spans);
    RunOutput::new(checks, attempted, failed, m, prov)
}
