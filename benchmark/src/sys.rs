//! What the operating system knows about the process under test: CPU
//! time, hypervisor steal, peak resident set, core count — and the
//! repository revision for provenance.

/// Kernel clock ticks per second for the fields of `/proc/stat`.
/// `USER_HZ` is 100 on every Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed so far by this process, all
/// threads (exited ones included), at the scheduler's nanosecond
/// resolution: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, declared here
/// because the harness has no libc crate. (`/proc/self/stat` counts in
/// 10 ms ticks, too coarse to time a single round.) On a guest with paravirtual time
/// accounting this clock stops while the hypervisor withholds the vCPU.
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Zero on platforms without the clock.
#[cfg(not(target_os = "linux"))]
pub fn cpu_seconds() -> f64 {
    0.0
}

/// Seconds, summed over all cores since boot, during which this machine
/// had work to run but its hypervisor ran something else instead (the
/// `steal` column of `/proc/stat`, 10 ms resolution). Zero on bare
/// metal and on platforms without procfs.
pub fn steal_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// The three clocks read at one instant; [`Stamp::elapsed`] turns two
/// readings into one [`Sample`].
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    at: std::time::Instant,
    cpu_s: f64,
    steal_s: f64,
}

/// What one timed section cost.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds of this process.
    pub cpu_s: f64,
    /// Seconds the hypervisor withheld a core meanwhile.
    pub steal_s: f64,
}

impl Stamp {
    /// Read the clocks now.
    pub fn now() -> Self {
        Stamp {
            at: std::time::Instant::now(),
            cpu_s: cpu_seconds(),
            steal_s: steal_seconds(),
        }
    }

    /// Cost of the section that started at `self` and ends now.
    pub fn elapsed(&self) -> Sample {
        Sample {
            wall_s: self.at.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - self.cpu_s,
            steal_s: steal_seconds() - self.steal_s,
        }
    }
}

impl Sample {
    /// Wall-clock net of hypervisor steal: what the section would have
    /// taken had the host not run another tenant on this machine's cores.
    /// Steal is never the program's doing, so removing it hides no
    /// regression; with one busy thread at a time the stolen time is
    /// exactly the time lost.
    pub fn unstolen_s(&self) -> f64 {
        (self.wall_s - self.steal_s).max(0.0)
    }
}

/// Pin the calling thread — and every process it spawns from now on —
/// to one of the cores it may run on (the highest-numbered), and return
/// that core. `None` where the call does not exist or fails; the run
/// then goes ahead unpinned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_core() -> Option<usize> {
    use std::os::raw::c_int;
    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }
    // `cpu_set_t` is 1024 bits.
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of `bytes` bytes.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let core = (0..64 * allowed.len())
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: `one` is a readable buffer of `bytes` bytes.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(core)
}

/// No affinity call on this platform.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_core() -> Option<usize> {
    None
}

/// Peak resident set of this process so far (`VmHWM`), in megabytes
/// (10^6 bytes). Zero on platforms without procfs.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// without spawning git; `"unknown"` outside a git checkout (the
/// acceptance driver runs the benchmark from an exported tree).
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({reference})")),
    }
}
