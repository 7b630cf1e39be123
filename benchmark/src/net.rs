//! The `net_fedavg_swarm` workload: a real [`Coordinator`] on TCP
//! loopback in a child process, driven by a single-threaded swarm of
//! synthetic FedAvg clients living in the benchmark process itself.
//!
//! The child is the process under test (its CPU and `VmHWM` are the
//! end-to-end numbers); the swarm speaks the wire protocol directly —
//! `Hello`/`Join`, assignments in, `RoundDone` + upload frames out, the
//! evaluation pass — without training, so `tensor`/`nn`/`agent` do
//! nothing and per-connection costs dominate.
//!
//! Parent and child talk over the child's stdio, one line per event:
//! the child prints `ADDR`/`JOINED` per set-up and `DONE` per round; the
//! parent writes `ROUND` or `FINISH`. The parent decides when to stop, so
//! the run can be time-boxed while each round is stamped *inside* the
//! child around the whole `Coordinator::run_round` call.

use crate::layers;
use crate::report::{failed_uploads, Check, Metrics, RunOutput};
use crate::stats::{median, tail};
use crate::sys::{self, Sample, Stamp};
use crate::trace::{coverage, per_round_ms, Tracer};
use crate::workloads::{NetSpec, SETUP_REPEATS};
use serde_json::{json, Value};
use spatl::prelude::{Algorithm, FlConfig, TensorRng};
use spatl_fl::{
    encode_upload, CommModel, Encoded, FaultRecord, GlobalState, LocalOutcome, RoundDriver,
    TransportStats, WireBytes,
};
use spatl_net::{
    session_fingerprint, Coordinator, CoordinatorConfig, Hello, HelloRole, Join, RoundAssign,
    RoundDone, RoundMode,
};
use spatl_wire::{open, read_frame, seal, write_frame, MsgType, MAX_FRAME_PAYLOAD};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Distinct synthetic uploads; client `i` sends template `i % TEMPLATES`.
const TEMPLATES: usize = 4;

/// Session configuration both processes derive independently; the
/// handshake fingerprint proves they agree.
fn session(spec: &NetSpec, seed: u64) -> FlConfig {
    let mut cfg = FlConfig::new(Algorithm::FedAvg);
    cfg.n_clients = spec.clients;
    cfg.sample_ratio = 1.0;
    // Rounds are driven one `run_round` at a time; the configured count
    // only has to agree on both sides (it is fingerprinted).
    cfg.rounds = 1 << 20;
    cfg.seed = seed;
    cfg
}

fn initial_global(spec: &NetSpec, seed: u64) -> GlobalState {
    let mut rng = TensorRng::seed_from(seed ^ 0x610B);
    GlobalState {
        shared: rng.normal_tensor([spec.params], 0.0, 0.05).into_vec(),
        control: Vec::new(),
        momentum: Vec::new(),
        buffers: Vec::new(),
    }
}

fn now_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos()
}

// ---------------------------------------------------------------------
// Coordinator child
// ---------------------------------------------------------------------

/// Entry point of the child process (`roundbench coordinator-child`).
pub fn coordinator_child(spec: &NetSpec, seed: u64) {
    let cfg = session(spec, seed);
    let stdin = std::io::stdin();
    let mut commands = stdin.lock().lines();
    let mut out = std::io::stdout().lock();

    // Set-up, repeated: bind, register the whole swarm, tear down. The
    // last coordinator stays up and runs the rounds.
    let mut coord = None;
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let driver = RoundDriver::new(cfg, initial_global(spec, seed), None);
        let mut c = Coordinator::bind(
            driver,
            CoordinatorConfig {
                join_timeout: Duration::from_secs(60),
                round_timeout: Duration::from_secs(120),
                decode_workers: Some(1),
                ..CoordinatorConfig::default()
            },
        )
        .expect("bind coordinator");
        writeln!(out, "ADDR {}", c.local_addr().expect("local addr")).expect("stdout");
        out.flush().expect("stdout");
        let joined = c.wait_for_clients();
        writeln!(out, "JOINED {joined} {}", t0.elapsed().as_secs_f64()).expect("stdout");
        out.flush().expect("stdout");
        if i + 1 < SETUP_REPEATS {
            c.finish().expect("finish set-up session");
        } else {
            coord = Some(c);
        }
    }
    let mut coord = coord.expect("SETUP_REPEATS >= 1");

    // ROUND runs one round, GLOBAL prints the server state; anything else
    // — FINISH, or the parent going away — ends the session.
    loop {
        match commands.next().and_then(Result::ok).as_deref() {
            Some("ROUND") => {
                let start = now_ns();
                let t0 = Stamp::now();
                let rec = coord.run_round();
                let cost = t0.elapsed();
                let line = json!({
                    "start_ns": start.to_string(),
                    "end_ns": now_ns().to_string(),
                    "wall_s": cost.wall_s,
                    "cpu_s": cost.cpu_s,
                    "steal_s": cost.steal_s,
                    "collect_s": rec.measured_wall_s,
                    "sampled": rec.faults.sampled,
                    "survivors": rec.faults.survivors,
                    "no_op": rec.faults.no_op,
                    "agg_mode": rec.agg_mode,
                    "upload_framed": rec.wire.upload_framed,
                    "download_framed": rec.wire.download_framed,
                    "upload_payload": rec.wire.upload_payload,
                    "bytes_upload": rec.bytes.upload
                });
                writeln!(out, "DONE {line}").expect("stdout");
            }
            Some("GLOBAL") => {
                let bits: Vec<u32> = coord
                    .driver
                    .global
                    .shared
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                writeln!(out, "GLOBAL {}", json!(bits)).expect("stdout");
            }
            _ => break,
        }
        out.flush().expect("stdout");
    }
    coord.finish().expect("finish session");
    let result = json!({ "peak_rss_mb": sys::peak_rss_mb() });
    writeln!(out, "RESULT {result}").expect("stdout");
    out.flush().expect("stdout");
}

/// The running child plus its two pipes; killed and reaped on drop so no
/// error path leaves a process behind.
struct ChildProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    /// Re-execute this binary as the coordinator; it rebuilds the same
    /// [`NetSpec`] from the workload name.
    fn spawn(workload: &str, seed: u64, quick: bool) -> Self {
        let exe = std::env::current_exe().expect("own executable path");
        let mut cmd = Command::new(exe);
        cmd.arg("coordinator-child")
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if quick {
            cmd.arg("--quick");
        }
        let mut child = cmd.spawn().expect("spawn coordinator child");
        let stdin = child.stdin.take().expect("child stdin");
        let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        ChildProc {
            child,
            stdin,
            stdout,
        }
    }

    /// Next line the child prints, which must start with `tag`.
    fn expect_line(&mut self, tag: &str) -> String {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).expect("read child stdout");
        assert!(n > 0, "coordinator child exited before printing {tag}");
        line.trim()
            .strip_prefix(tag)
            .unwrap_or_else(|| panic!("expected {tag} from the coordinator child, got {line:?}"))
            .trim()
            .to_string()
    }

    fn send(&mut self, command: &str) {
        writeln!(self.stdin, "{command}").expect("write child stdin");
        self.stdin.flush().expect("flush child stdin");
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------
// Swarm
// ---------------------------------------------------------------------

/// One synthetic client's upload, sealed once and sent every round.
struct Template {
    n_samples: usize,
    upload: Encoded,
}

fn templates(spec: &NetSpec, cfg: &FlConfig, seed: u64) -> Vec<Template> {
    let mut rng = TensorRng::seed_from(seed ^ 0x5A43);
    let empty = GlobalState {
        shared: Vec::new(),
        control: Vec::new(),
        momentum: Vec::new(),
        buffers: Vec::new(),
    };
    (0..TEMPLATES)
        .map(|t| {
            let delta = rng.normal_tensor([spec.params], 0.0, 1e-3).into_vec();
            let n_samples = 16 + 8 * t;
            let upload = encode_upload(cfg, &empty, &meta(0, n_samples, spec.params, delta), 0);
            Template { n_samples, upload }
        })
        .collect()
}

/// A dense FedAvg outcome as a client would report it.
fn meta(client_id: usize, n_samples: usize, params: usize, delta: Vec<f32>) -> LocalOutcome {
    LocalOutcome {
        client_id,
        n_samples,
        tau: 4,
        delta,
        selected: None,
        compressed: None,
        control_delta: None,
        velocity: None,
        buffers: Vec::new(),
        diverged: false,
        masked: None,
        fixed: None,
        bytes: CommModel::dense(params),
        wire: WireBytes::default(),
        frames: Vec::new(),
        keep_ratio: 1.0,
        flops_ratio: 1.0,
    }
}

type Conn = BufReader<TcpStream>;

fn must_read(conn: &mut Conn, what: &str) -> Vec<u8> {
    read_frame(conn, MAX_FRAME_PAYLOAD)
        .unwrap_or_else(|e| panic!("swarm read ({what}): {e}"))
        .unwrap_or_else(|| panic!("swarm read ({what}): connection closed"))
}

/// Read one `RoundAssign` of the expected mode and drain its broadcast
/// frames (the swarm does not train, so the model bytes are dropped).
fn read_assignment(conn: &mut Conn, mode: RoundMode) -> RoundAssign {
    let frame = must_read(conn, "assignment");
    let (msg, payload) = open(&frame).expect("open assignment");
    assert_eq!(msg, MsgType::RoundAssign, "expected RoundAssign");
    let assign = RoundAssign::decode(payload).expect("decode assignment");
    assert_eq!(assign.mode, mode, "assignment mode");
    for _ in 0..assign.n_frames {
        must_read(conn, "broadcast frame");
    }
    assign
}

/// Register every client with the coordinator at `addr`. Chunked so the
/// listener's accept backlog never overflows: connect + `Hello` for a
/// chunk, then collect that chunk's `Join` verdicts.
fn join(addr: &str, clients: usize, fingerprint: u64) -> Vec<Conn> {
    let mut conns = Vec::with_capacity(clients);
    for chunk_start in (0..clients).step_by(64) {
        let chunk_end = (chunk_start + 64).min(clients);
        let mut pending = Vec::with_capacity(chunk_end - chunk_start);
        for id in chunk_start..chunk_end {
            let mut s = TcpStream::connect(addr).expect("swarm connect");
            s.set_nodelay(true).expect("nodelay");
            let hello = Hello {
                client_id: id as u32,
                fingerprint,
                role: HelloRole::Client,
            };
            write_frame(&mut s, &seal(MsgType::Hello, &hello.encode())).expect("send hello");
            // Large enough that one assignment (header frame + model
            // frame) usually arrives in a single read.
            pending.push(BufReader::with_capacity(16 * 1024, s));
        }
        for mut conn in pending {
            let frame = must_read(&mut conn, "join");
            let (msg, payload) = open(&frame).expect("open join");
            assert_eq!(msg, MsgType::Join, "expected Join");
            assert!(
                Join::decode(payload).expect("decode join").accepted,
                "registration rejected"
            );
            conns.push(conn);
        }
    }
    conns
}

/// Wait for the session's `Shutdown` on every connection, then drop them.
fn leave(mut conns: Vec<Conn>) {
    for conn in conns.iter_mut() {
        if let Ok(Some(frame)) = read_frame(conn, MAX_FRAME_PAYLOAD) {
            let (msg, _) = open(&frame).expect("open shutdown");
            assert_eq!(msg, MsgType::Shutdown, "expected Shutdown");
        }
    }
}

/// Generator-side timestamps of one round (nanoseconds since the epoch).
struct Stamps {
    broadcast_read: u128,
    uploads_written: u128,
    eval_first_read: u128,
}

/// Serve one round for the whole swarm: read every training assignment,
/// write every upload, then answer the evaluation pass.
fn serve_round(conns: &mut [Conn], replies: &[Vec<u8>], round: u32) -> Stamps {
    for conn in conns.iter_mut() {
        let assign = read_assignment(conn, RoundMode::Train);
        assert_eq!(
            assign.round, round,
            "coordinator and swarm disagree on the round"
        );
    }
    let broadcast_read = now_ns();
    for (conn, reply) in conns.iter_mut().zip(replies) {
        // RoundDone header and upload frames go out as one write.
        write_frame(conn.get_mut(), reply).expect("send upload");
    }
    let uploads_written = now_ns();
    let mut eval_first_read = 0;
    for (id, conn) in conns.iter_mut().enumerate() {
        let assign = read_assignment(conn, RoundMode::Eval);
        if id == 0 {
            eval_first_read = now_ns();
        }
        let done = RoundDone {
            round: assign.round,
            mode: RoundMode::Eval,
            client_id: id as u32,
            n_samples: 0,
            tau: 0,
            diverged: false,
            keep_ratio: 0.0,
            flops_ratio: 0.0,
            accuracy: 0.5,
            bytes_download: 0,
            bytes_upload: 0,
            upload_payload: 0,
            upload_framed: 0,
            n_frames: 0,
        };
        write_frame(conn.get_mut(), &seal(MsgType::RoundDone, &done.encode()))
            .expect("send eval reply");
    }
    Stamps {
        broadcast_read,
        uploads_written,
        eval_first_read,
    }
}

/// Every client's training reply for `round`: sealed `RoundDone` header
/// followed by its template's upload frames, as one byte string.
fn training_replies(spec: &NetSpec, templates: &[Template], round: u32) -> Vec<Vec<u8>> {
    (0..spec.clients)
        .map(|id| {
            let t = &templates[id % TEMPLATES];
            let bytes = CommModel::dense(spec.params);
            let done = RoundDone {
                round,
                mode: RoundMode::Train,
                client_id: id as u32,
                n_samples: t.n_samples as u64,
                tau: 4,
                diverged: false,
                keep_ratio: 1.0,
                flops_ratio: 1.0,
                accuracy: 0.0,
                bytes_download: bytes.download,
                bytes_upload: bytes.upload,
                upload_payload: t.upload.payload,
                upload_framed: t.upload.framed(),
                n_frames: t.upload.frames.len() as u32,
            };
            let mut reply = seal(MsgType::RoundDone, &done.encode());
            for f in &t.upload.frames {
                reply.extend_from_slice(f);
            }
            reply
        })
        .collect()
}

/// What the child reported for one round, plus the swarm's own stamps.
struct RoundLine {
    start_ns: u128,
    end_ns: u128,
    /// The whole `run_round` call on the child's clocks.
    cost: Sample,
    collect_s: f64,
    upload_framed: u64,
    download_framed: u64,
    stamps: Stamps,
}

fn num(v: &Value, key: &str) -> f64 {
    v[key]
        .as_f64()
        .unwrap_or_else(|| panic!("child DONE line lacks {key}"))
}

fn ns(v: &Value, key: &str) -> u128 {
    v[key]
        .as_str()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("child DONE line lacks {key}"))
}

/// Replay the session in-process: the same synthetic uploads through
/// `decode_client_upload` and `screen_and_aggregate`, `rounds` times.
/// Returns the final global state and the dense decode / fold cost per
/// coordinate measured along the way.
fn reference(
    spec: &NetSpec,
    cfg: &FlConfig,
    seed: u64,
    templates: &[Template],
    rounds: usize,
) -> (GlobalState, f64, f64) {
    let mut driver = RoundDriver::new(*cfg, initial_global(spec, seed), None);
    let (mut decode_s, mut decoded_coords) = (0.0, 0u64);
    let (mut fold_s, mut folded_coords) = (0.0, 0u64);
    for _ in 0..rounds {
        let sampled = driver.sample_round();
        let t0 = Instant::now();
        let decoded: Vec<LocalOutcome> = templates
            .iter()
            .map(|t| {
                let m = meta(0, t.n_samples, spec.params, Vec::new());
                driver
                    .decode_client_upload(&m, &t.upload.frames)
                    .expect("template decodes")
            })
            .collect();
        decode_s += t0.elapsed().as_secs_f64();
        decoded_coords += (TEMPLATES * spec.params) as u64;

        let survivors: Vec<LocalOutcome> = sampled
            .iter()
            .map(|&id| LocalOutcome {
                client_id: id,
                ..decoded[id % TEMPLATES].clone()
            })
            .collect();
        let mut faults = FaultRecord::for_sample(sampled.len());
        let t0 = Instant::now();
        driver.screen_and_aggregate(survivors, &mut faults);
        fold_s += t0.elapsed().as_secs_f64();
        folded_coords += (sampled.len() * spec.params) as u64;
        driver.finish_round(&[], TransportStats::default(), Vec::new(), faults);
    }
    (
        driver.global,
        decode_s * 1e9 / decoded_coords.max(1) as f64,
        fold_s * 1e9 / folded_coords.max(1) as f64,
    )
}

/// Run the workload. `trace` selects which metric family is reported;
/// the rounds themselves are identical in both modes — the net trace is
/// a handful of clock reads per round in the generator.
pub fn run(
    workload: &str,
    spec: &NetSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    trace_path: &str,
) -> RunOutput {
    let cfg = session(spec, seed);
    let fingerprint = session_fingerprint(&cfg);
    let templates = templates(spec, &cfg, seed);
    // Swarm, coordinator sweep and decode worker are three threads that
    // hand work to one another; left to the scheduler on two cores, where
    // they land differs from run to run and round_s with it (9 % between
    // runs of the same code, 2 % pinned). On one core they take turns,
    // which costs 8 % of round_s and leaves the other core to the host.
    let pinned_core = sys::pin_to_one_core();
    let mut child = ChildProc::spawn(workload, seed, quick);
    let mut checks = Vec::new();

    // Set-up: the child binds a fresh coordinator per repeat; the swarm
    // registers with each and leaves all but the last.
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut conns = Vec::new();
    for i in 0..SETUP_REPEATS {
        let addr = child.expect_line("ADDR");
        conns = join(&addr, spec.clients, fingerprint);
        let joined = child.expect_line("JOINED");
        let mut parts = joined.split_whitespace();
        let n: usize = parts.next().and_then(|s| s.parse().ok()).expect("joined");
        let secs: f64 = parts.next().and_then(|s| s.parse().ok()).expect("setup s");
        checks.push(Check::new(
            format!(
                "set-up {i}: all {} clients registered (got {n})",
                spec.clients
            ),
            n == spec.clients,
        ));
        setup.push(secs);
        if i + 1 < SETUP_REPEATS {
            leave(std::mem::take(&mut conns));
        }
    }

    // Rounds: warm-up, the fixed prefix, then until `seconds` of rounds
    // have been measured. When the prefix ends the child hands over its
    // server state for the output check, so the in-process replay costs
    // the same however many rounds the time box goes on to fit.
    let mut lines: Vec<RoundLine> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut total_rounds = 0u32;
    let mut measured_s = 0.0;
    let mut window_started = Instant::now();
    let mut gen_cpu0 = sys::cpu_seconds();
    let mut prefix_global = None;
    loop {
        let timed = total_rounds as usize >= spec.warmup;
        if timed && lines.len() == spec.fixed_rounds && prefix_global.is_none() {
            child.send("GLOBAL");
            let bits: Value =
                serde_json::from_str(&child.expect_line("GLOBAL")).expect("parse GLOBAL line");
            prefix_global = Some((bits, total_rounds as usize));
        }
        if prefix_global.is_some() && measured_s >= seconds {
            break;
        }
        let replies = training_replies(spec, &templates, total_rounds);
        child.send("ROUND");
        let stamps = serve_round(&mut conns, &replies, total_rounds);
        let done: Value =
            serde_json::from_str(&child.expect_line("DONE")).expect("parse DONE line");
        total_rounds += 1;
        if !timed {
            // The measured window opens when the last warm-up round ends.
            window_started = Instant::now();
            gen_cpu0 = sys::cpu_seconds();
            continue;
        }
        let sampled = num(&done, "sampled") as u64;
        let survivors = num(&done, "survivors") as u64;
        let no_op = done["no_op"].as_bool().unwrap_or(true);
        attempted += sampled;
        failed += failed_uploads(sampled, survivors, no_op);
        if lines.len() < spec.fixed_rounds {
            let r = total_rounds - 1;
            checks.push(Check::new(
                format!(
                    "round {r}: survivors == cohort ({survivors}/{})",
                    spec.clients
                ),
                survivors as usize == spec.clients && !no_op,
            ));
            checks.push(Check::new(
                format!("round {r}: wire.upload_payload == bytes.upload (Eq. 13)"),
                num(&done, "upload_payload") == num(&done, "bytes_upload"),
            ));
            checks.push(Check::new(
                format!("round {r}: agg_mode == \"stream\""),
                done["agg_mode"] == "stream",
            ));
        }
        let cost = Sample {
            wall_s: num(&done, "wall_s"),
            cpu_s: num(&done, "cpu_s"),
            steal_s: num(&done, "steal_s"),
        };
        measured_s += cost.wall_s;
        lines.push(RoundLine {
            start_ns: ns(&done, "start_ns"),
            end_ns: ns(&done, "end_ns"),
            cost,
            collect_s: num(&done, "collect_s"),
            upload_framed: num(&done, "upload_framed") as u64,
            download_framed: num(&done, "download_framed") as u64,
            stamps,
        });
    }
    let window_s = window_started.elapsed().as_secs_f64();
    let gen_cpu = sys::cpu_seconds() - gen_cpu0;

    child.send("FINISH");
    leave(conns);
    let result: Value =
        serde_json::from_str(&child.expect_line("RESULT")).expect("parse RESULT line");
    let status = child.child.wait().expect("wait for coordinator child");
    checks.push(Check::new(
        "coordinator child exited cleanly",
        status.success(),
    ));

    // Output check: the coordinator's global after the fixed prefix equals
    // an in-process fold of the same synthetic uploads.
    let (got, prefix_rounds) = prefix_global.expect("the loop ends after the prefix");
    let (expected, decode_ns, fold_ns) = reference(spec, &cfg, seed, &templates, prefix_rounds);
    let got = got.as_array().map_or(&[][..], Vec::as_slice);
    checks.push(Check::new(
        "coordinator global is bit-identical to an in-process screen_and_aggregate",
        got.len() == expected.shared.len()
            && got
                .iter()
                .zip(&expected.shared)
                .all(|(g, e)| g.as_u64() == Some(u64::from(e.to_bits()))),
    ));

    let wall: Vec<f64> = lines.iter().map(|l| l.cost.wall_s).collect();
    let unstolen: Vec<f64> = lines.iter().map(|l| l.cost.unstolen_s()).collect();
    let cpu: Vec<f64> = lines.iter().map(|l| l.cost.cpu_s).collect();
    let steal: Vec<f64> = lines.iter().map(|l| l.cost.steal_s).collect();
    let rounds = lines.len() as f64;
    let fixed = &lines[..spec.fixed_rounds.min(lines.len())];
    let round_s = median(&unstolen);

    let mut m = Metrics::default();
    if !trace {
        m.push("setup_s", "s", median(&setup));
        m.push("round_s", "s", round_s);
        m.push("cpu_s_per_round", "s", median(&cpu));
        m.push(
            "upload_bytes_per_round",
            "B",
            fixed.iter().map(|l| l.upload_framed).sum::<u64>() as f64 / fixed.len() as f64,
        );
        m.push(
            "download_bytes_per_round",
            "B",
            fixed.iter().map(|l| l.download_framed).sum::<u64>() as f64 / fixed.len() as f64,
        );
        m.push("peak_rss_mb", "MB", num(&result, "peak_rss_mb"));
    } else {
        // Spans from the generator's stamps, on the child's round window.
        let origin = lines[0].start_ns;
        let us = |t: u128| t.saturating_sub(origin) as f64 / 1e3;
        let mut tr = Tracer::new();
        let mut min_coverage = f64::INFINITY;
        for (r, l) in lines.iter().enumerate() {
            let root = tr.record("round", r, None, us(l.start_ns), us(l.end_ns), 0);
            let cuts = [
                l.start_ns,
                l.stamps.broadcast_read,
                l.stamps.uploads_written,
                l.stamps.eval_first_read,
                l.end_ns,
            ];
            let names = [
                "net.broadcast",
                "net.upload_write",
                "net.fold_tail",
                "net.eval_pass",
            ];
            for (k, name) in names.into_iter().enumerate() {
                let (a, b) = (us(cuts[k]), us(cuts[k + 1]).max(us(cuts[k])));
                tr.record(name, r, Some(root), a, b, spec.clients as u64);
            }
            min_coverage = min_coverage.min(coverage(tr.spans(), root));
        }
        checks.push(Check::new(
            format!("trace.coverage >= 0.95 in every round (min {min_coverage:.4})"),
            min_coverage >= 0.95,
        ));
        let collect: Vec<f64> = lines.iter().map(|l| l.collect_s).collect();
        let phase_ms = |name: &str| median(&per_round_ms(tr.spans(), name));
        // No training or evaluation happens here, so most `fl.*` phases
        // stay zero; the dense decode and fold costs per coordinate come
        // from the reference replay.
        m.push("fl.upload_decode_ns_per_coord", "ns", decode_ns);
        m.push("fl.fold_ns_per_coord", "ns", fold_ns);
        m.push(
            "fl.upload_coords_per_round",
            "count",
            (spec.clients * spec.params) as f64,
        );
        m.push("trace.coverage", "fraction", min_coverage);
        m.push("trace.overhead", "ratio", 1.0);
        m.push("round.median_s", "s", median(&wall));
        m.push("round.tail_s", "s", tail(&wall, 10).1);
        m.push("round.samples", "count", rounds);
        layers::common(&mut m, seed, (seconds - window_s).max(0.0));
        m.push(
            "net.join_ms_per_client",
            "ms",
            median(&setup) * 1e3 / spec.clients as f64,
        );
        m.push("net.broadcast_ms", "ms", phase_ms("net.broadcast"));
        m.push("net.collect_ms", "ms", median(&collect) * 1e3);
        m.push("net.fold_tail_ms", "ms", phase_ms("net.fold_tail"));
        m.push("net.eval_pass_ms", "ms", phase_ms("net.eval_pass"));
        m.push(
            "net.uploads_per_s",
            "1/s",
            spec.clients as f64 / median(&collect),
        );
        m.push(
            "net.ns_per_coord",
            "ns",
            round_s * 1e9 / (spec.clients * spec.params) as f64,
        );
        m.push("gen.busy_share", "fraction", gen_cpu / window_s);
        m.zero_the_rest();
        crate::report::write_trace(trace_path, tr.spans());
    }

    let workload = json!({
        "algorithm": "FedAvg",
        "clients": spec.clients,
        "params": spec.params,
        "templates": TEMPLATES,
        "decode_workers": 1,
        "pinned_core": pinned_core,
        "warmup_rounds": spec.warmup,
        "fixed_rounds": spec.fixed_rounds,
        "timed_rounds": lines.len(),
        "generator_busy_share": gen_cpu / window_s,
        "round_wall_s": wall,
        "round_cpu_s": cpu,
        "round_steal_s": steal
    });
    RunOutput::new(checks, attempted, failed, m, workload)
}
