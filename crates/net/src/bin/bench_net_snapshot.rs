//! Networked-coordinator scaling snapshot: O(model) memory rounds.
//!
//! Drives a real TCP loopback round through the concurrent coordinator
//! at increasing cohort sizes (10 000 clients at full scale) and records
//! what DESIGN.md §12 promises: collection wall-clock, uploads/s, and a
//! coordinator peak RSS that tracks the model size and the admission
//! window — *not* the cohort. The numbers land in `BENCH_net.json` at
//! the repo root so subsequent PRs have a comparable baseline.
//!
//! Three roles, one binary, separate processes:
//!
//! * **orchestrator** (no subcommand) — spawns the other two per cohort
//!   size, collects their reports, writes the snapshot.
//! * **`coordinator`** — binds a [`Coordinator`] on a free port, prints
//!   `ADDR <addr>`, runs the configured rounds, prints `RESULT <json>`.
//!   Runs alone in its process so `VmHWM` in `/proc/self/status` is
//!   *its* peak, not the swarm's.
//! * **`swarm`** — one process holding every client connection. It
//!   speaks the wire protocol directly (Hello/Join, assignment in,
//!   `RoundDone` + upload frames out) instead of running real local
//!   training: every client replies with the same pre-encoded upload,
//!   which is indistinguishable on the coordinator side — data frames
//!   carry no client identity, only the `RoundDone` header does. That
//!   keeps a 10 000-client swarm feasible on one core while the
//!   coordinator does full CRC + decode + fold work per upload.
//!
//! The two children split the ~20 000 file-descriptor budget: each side
//! of a loopback connection costs one fd in its own process.
//!
//! `SPATL_EXP_SCALE=quick` runs small cohorts (CI) and asserts the
//! coordinator's peak RSS stays under a cohort-independent bound;
//! `SPATL_BENCH_OUT` overrides the output path.

use serde_json::json;
use spatl_fl::{
    encode_upload, Algorithm, CommModel, FlConfig, GlobalState, LocalOutcome, RoundDriver,
    WireBytes,
};
use spatl_net::{
    session_fingerprint, Coordinator, CoordinatorConfig, Hello, HelloRole, Join, RoundAssign,
    RoundDone, RoundMode,
};
use spatl_wire::{open, read_frame, seal, write_frame, MsgType, MAX_FRAME_PAYLOAD};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

/// Session geometry shared by every role; the handshake fingerprint
/// guarantees the children agree.
#[derive(Clone, Copy)]
struct Scenario {
    clients: usize,
    params: usize,
    rounds: usize,
}

impl Scenario {
    fn config(&self) -> FlConfig {
        let mut cfg = FlConfig::new(Algorithm::FedAvg);
        cfg.n_clients = self.clients;
        cfg.sample_ratio = 1.0;
        cfg.rounds = self.rounds;
        cfg.seed = 42;
        cfg
    }
}

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn scenario_from(args: &[String]) -> Scenario {
    let get = |name: &str| {
        arg_value(args, name)
            .unwrap_or_else(|| panic!("missing {name}"))
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("bad {name}"))
    };
    Scenario {
        clients: get("--clients"),
        params: get("--params"),
        rounds: get("--rounds"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("coordinator") => coordinator_role(scenario_from(&args)),
        Some("swarm") => swarm_role(
            scenario_from(&args),
            arg_value(&args, "--addr").expect("missing --addr"),
        ),
        _ => orchestrate(),
    }
}

// ---------------------------------------------------------------------------
// Coordinator child
// ---------------------------------------------------------------------------

/// Peak resident set of this process so far, from `/proc/self/status`
/// (`VmHWM`), in bytes. Zero on platforms without procfs.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn coordinator_role(scn: Scenario) {
    let cfg = scn.config();
    let global = GlobalState {
        shared: vec![0.01f32; scn.params],
        control: Vec::new(),
        momentum: Vec::new(),
        buffers: Vec::new(),
    };
    let driver = RoundDriver::new(cfg, global, None);
    let mut coord = Coordinator::bind(
        driver,
        CoordinatorConfig {
            addr: "127.0.0.1:0".into(),
            join_timeout: Duration::from_secs(180),
            round_timeout: Duration::from_secs(600),
            io_timeout: Duration::from_secs(60),
            max_frame: MAX_FRAME_PAYLOAD,
            checkpoint: None,
            topology: Default::default(),
            wal: None,
            quorum: 1.0,
            decode_workers: None,
        },
    )
    .expect("bind coordinator");
    println!("ADDR {}", coord.local_addr().expect("local addr"));
    std::io::stdout().flush().expect("flush addr");

    let joined = coord.wait_for_clients();
    let mut rounds = Vec::new();
    for _ in 0..scn.rounds {
        let rec = coord.run_round();
        rounds.push(json!({
            "collection_wall_s": rec.measured_wall_s,
            "survivors": rec.faults.survivors,
            "dropouts": rec.faults.dropouts,
            "corrupted_uploads": rec.faults.corrupted_uploads,
            "deadline_dropped": rec.faults.deadline_dropped,
            "no_op": rec.faults.no_op,
        }));
    }
    coord.finish().expect("finish session");

    let result = json!({
        "joined": joined,
        "decode_workers": rayon::current_num_threads(),
        "peak_rss_bytes": peak_rss_bytes(),
        "rounds": rounds,
    });
    println!("RESULT {result}");
}

// ---------------------------------------------------------------------------
// Swarm child
// ---------------------------------------------------------------------------

fn connect_with_retry(addr: &str) -> TcpStream {
    let mut delay = Duration::from_millis(20);
    for _ in 0..20 {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_secs(1));
            }
        }
    }
    panic!("swarm could not connect to {addr}");
}

/// Read one sealed frame, panicking on EOF or transport errors — the
/// bench has no legitimate mid-session disconnects.
fn must_read(stream: &mut TcpStream, what: &str) -> Vec<u8> {
    read_frame(stream, MAX_FRAME_PAYLOAD)
        .unwrap_or_else(|e| panic!("swarm read ({what}): {e}"))
        .unwrap_or_else(|| panic!("swarm read ({what}): connection closed"))
}

fn swarm_role(scn: Scenario, addr: String) {
    let cfg = scn.config();
    let fingerprint = session_fingerprint(&cfg);

    // One pre-encoded upload serves every client: the frames carry no
    // client identity (the RoundDone header does), so the coordinator
    // still pays full per-upload CRC + decode + fold cost.
    let mut template = LocalOutcome {
        client_id: 0,
        n_samples: 32,
        tau: 4,
        delta: (0..scn.params).map(|j| 1e-3 * (j % 7) as f32).collect(),
        selected: None,
        compressed: None,
        control_delta: None,
        velocity: None,
        buffers: Vec::new(),
        diverged: false,
        masked: None,
        fixed: None,
        bytes: CommModel::dense(scn.params),
        wire: WireBytes::default(),
        frames: Vec::new(),
        keep_ratio: 1.0,
        flops_ratio: 1.0,
    };
    let empty_global = GlobalState {
        shared: Vec::new(),
        control: Vec::new(),
        momentum: Vec::new(),
        buffers: Vec::new(),
    };
    let upload = encode_upload(&cfg, &empty_global, &template, 0);
    template.wire.upload_payload = upload.payload;
    template.wire.upload_framed = upload.framed();
    template.frames = upload.frames;

    // Register every client. Chunked so the listener's accept backlog
    // (~128 pending connections) never overflows: connect + Hello for a
    // chunk, then collect that chunk's Join verdicts while the next
    // chunk connects.
    let mut conns: Vec<TcpStream> = Vec::with_capacity(scn.clients);
    for chunk_start in (0..scn.clients).step_by(64) {
        let chunk_end = (chunk_start + 64).min(scn.clients);
        let mut pending = Vec::with_capacity(chunk_end - chunk_start);
        for id in chunk_start..chunk_end {
            let mut s = connect_with_retry(&addr);
            s.set_nodelay(true).expect("nodelay");
            let hello = Hello {
                client_id: id as u32,
                fingerprint,
                role: HelloRole::Client,
            };
            write_frame(&mut s, &seal(MsgType::Hello, &hello.encode())).expect("send hello");
            pending.push(s);
        }
        for mut s in pending {
            let frame = must_read(&mut s, "join");
            let (msg, payload) = open(&frame).expect("open join");
            assert_eq!(msg, MsgType::Join, "expected Join");
            assert!(
                Join::decode(payload).expect("decode join").accepted,
                "registration rejected"
            );
            conns.push(s);
        }
    }

    // Serve the assignments. The coordinator broadcasts ascending and
    // collects concurrently; replying ascending is simply the order the
    // assignments become readable. Each reply fits the kernel's socket
    // buffers, so a single-threaded swarm never deadlocks the round.
    for _ in 0..scn.rounds {
        for (id, stream) in conns.iter_mut().enumerate() {
            let assign = read_assignment(stream, "train");
            assert_eq!(assign.mode, RoundMode::Train);
            let mut done = RoundDone::train(assign.round, &template);
            done.client_id = id as u32;
            write_frame(stream, &seal(MsgType::RoundDone, &done.encode())).expect("send done");
            for f in &template.frames {
                write_frame(stream, f).expect("send upload frame");
            }
        }
        // Post-aggregation evaluation pass: sync frames in, accuracy out.
        for (id, stream) in conns.iter_mut().enumerate() {
            let assign = read_assignment(stream, "eval");
            assert_eq!(assign.mode, RoundMode::Eval);
            let done = RoundDone::eval(assign.round, id as u32, 0.5);
            write_frame(stream, &seal(MsgType::RoundDone, &done.encode())).expect("send eval");
        }
    }

    // Clean shutdown: every connection should see the session end.
    for stream in conns.iter_mut() {
        if let Ok(Some(frame)) = read_frame(stream, MAX_FRAME_PAYLOAD) {
            let (msg, _) = open(&frame).expect("open shutdown");
            assert_eq!(msg, MsgType::Shutdown, "expected Shutdown");
        }
    }
}

/// Read a `RoundAssign` and drain its broadcast frames (the swarm does
/// not train, so the model bytes are read and dropped).
fn read_assignment(stream: &mut TcpStream, what: &str) -> RoundAssign {
    let frame = must_read(stream, what);
    let (msg, payload) = open(&frame).expect("open assignment");
    assert_eq!(msg, MsgType::RoundAssign, "expected RoundAssign");
    let assign = RoundAssign::decode(payload).expect("decode assignment");
    for _ in 0..assign.n_frames {
        must_read(stream, "broadcast frame");
    }
    assign
}

// ---------------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------------

/// Quick-mode ceiling on the coordinator child's peak RSS. Generous
/// against noise, tiny against the O(cohort · model) ≈ cohort-scaled
/// footprint this bench exists to rule out — the bound does not move
/// when the cohort grows.
const QUICK_PEAK_RSS_BOUND: u64 = 256 * 1024 * 1024;

fn orchestrate() {
    let quick = std::env::var("SPATL_EXP_SCALE").as_deref() == Ok("quick");
    let (cohorts, params) = if quick {
        (vec![32usize, 128], 1024usize)
    } else {
        (vec![100usize, 1000, 10_000], 2048usize)
    };
    let rounds = 1usize;
    let exe = std::env::current_exe().expect("own path");

    let mut series = Vec::new();
    for &clients in &cohorts {
        eprintln!("bench_net_snapshot: cohort {clients} × {params} params …");
        let mut coord = Command::new(&exe)
            .args([
                "coordinator",
                "--clients",
                &clients.to_string(),
                "--params",
                &params.to_string(),
                "--rounds",
                &rounds.to_string(),
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn coordinator child");
        let mut lines = BufReader::new(coord.stdout.take().expect("coordinator stdout")).lines();
        let addr_line = lines
            .next()
            .expect("coordinator printed nothing")
            .expect("read coordinator stdout");
        let addr = addr_line
            .strip_prefix("ADDR ")
            .unwrap_or_else(|| panic!("expected ADDR line, got {addr_line:?}"))
            .to_string();

        let mut swarm = Command::new(&exe)
            .args([
                "swarm",
                "--addr",
                &addr,
                "--clients",
                &clients.to_string(),
                "--params",
                &params.to_string(),
                "--rounds",
                &rounds.to_string(),
            ])
            .spawn()
            .expect("spawn swarm child");

        let mut result: Option<serde_json::Value> = None;
        for line in lines {
            let line = line.expect("read coordinator stdout");
            if let Some(body) = line.strip_prefix("RESULT ") {
                result = Some(serde_json::from_str(body).expect("parse coordinator result"));
            }
        }
        assert!(
            coord.wait().expect("wait coordinator").success(),
            "coordinator child failed at cohort {clients}"
        );
        assert!(
            swarm.wait().expect("wait swarm").success(),
            "swarm child failed at cohort {clients}"
        );
        let result = result.expect("coordinator reported no RESULT");

        let joined = result["joined"].as_u64().expect("joined") as usize;
        assert_eq!(joined, clients, "not every client registered");
        let round = &result["rounds"][0];
        let survivors = round["survivors"].as_u64().expect("survivors") as usize;
        assert_eq!(
            survivors, clients,
            "lost uploads at cohort {clients}: {round}"
        );
        let wall_s = round["collection_wall_s"].as_f64().expect("wall");
        let peak_rss = result["peak_rss_bytes"].as_u64().expect("peak rss");
        let model_bytes = 4 * params as u64;
        if quick && peak_rss > 0 {
            assert!(
                peak_rss < QUICK_PEAK_RSS_BOUND,
                "coordinator peak RSS {peak_rss} B exceeds the \
                 cohort-independent bound {QUICK_PEAK_RSS_BOUND} B at cohort {clients}"
            );
        }
        series.push(json!({
            "clients": clients,
            "rounds": rounds,
            "survivors": survivors,
            "collection_wall_s": wall_s,
            "uploads_per_s": survivors as f64 / wall_s.max(1e-9),
            "coordinator_peak_rss_bytes": peak_rss,
            "decode_workers": result["decode_workers"],
            "cohort_model_bytes": clients as u64 * model_bytes,
            "faults": json!({
                "dropouts": round["dropouts"],
                "corrupted_uploads": round["corrupted_uploads"],
                "deadline_dropped": round["deadline_dropped"],
            }),
        }));
    }

    let out = json!({
        "bench": "net_snapshot",
        "schema": 1,
        "scale": if quick { "quick" } else { "full" },
        "algorithm": "FedAvg",
        "params": params,
        "model_bytes": 4 * params,
        "series": series,
    });
    let path = std::env::var("SPATL_BENCH_OUT").unwrap_or_else(|_| "BENCH_net.json".into());
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&out).expect("serialize"),
    )
    .unwrap_or_else(|e| panic!("write {path}: {e}"));

    println!("# bench_net_snapshot → {path}");
    println!("clients | wall s | uploads/s | coordinator peak RSS | cohort·model");
    for s in out["series"].as_array().expect("series") {
        println!(
            "{:>7} | {:>6.2} | {:>9.0} | {:>17.1} MB | {:>9.1} MB",
            s["clients"],
            s["collection_wall_s"].as_f64().unwrap_or(0.0),
            s["uploads_per_s"].as_f64().unwrap_or(0.0),
            s["coordinator_peak_rss_bytes"].as_f64().unwrap_or(0.0) / 1e6,
            s["cohort_model_bytes"].as_f64().unwrap_or(0.0) / 1e6,
        );
    }
}
