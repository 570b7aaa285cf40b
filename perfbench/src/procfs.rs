//! Process counters read from outside (`/proc/<pid>` for the daemons,
//! `getrusage` for the load generator itself) and the two process settings
//! the benchmark makes.

use std::fs;

/// Cumulative counters of one process.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcCounters {
    /// User + system CPU seconds, all threads (`/proc/<pid>/stat`).
    pub cpu_s: f64,
    /// Voluntary context switches, summed over live threads.
    pub voluntary: u64,
    /// Involuntary context switches, summed over live threads.
    pub involuntary: u64,
    /// Peak resident set (`VmHWM`), MiB.
    pub peak_rss_mb: f64,
}

fn status_field(status: &str, name: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// `USER_HZ`, the unit of `/proc/<pid>/stat` CPU times: 100 on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Reads a process's counters; `None` once it has exited.
pub fn read(pid: u32) -> Option<ProcCounters> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall.
    let after = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let mut c = ProcCounters {
        cpu_s: (utime + stime) as f64 / CLOCK_TICKS_PER_S,
        peak_rss_mb: status_field(&status, "VmHWM")? as f64 / 1024.0,
        ..ProcCounters::default()
    };
    // The process-level status counts only the main thread's switches.
    for task in fs::read_dir(format!("/proc/{pid}/task")).ok()?.flatten() {
        if let Ok(s) = fs::read_to_string(task.path().join("status")) {
            c.voluntary += status_field(&s, "voluntary_ctxt_switches").unwrap_or(0);
            c.involuntary += status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0);
        }
    }
    Some(c)
}

/// Per-op cost of one process over an interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcDelta {
    pub cpu_us_per_op: f64,
    pub ctx_switches_per_op: f64,
    pub involuntary_per_op: f64,
    pub peak_rss_mb: f64,
}

pub fn delta(before: &ProcCounters, after: &ProcCounters, ops: u64) -> ProcDelta {
    let ops = ops.max(1) as f64;
    let vol = after.voluntary.saturating_sub(before.voluntary) as f64;
    let invol = after.involuntary.saturating_sub(before.involuntary) as f64;
    ProcDelta {
        cpu_us_per_op: (after.cpu_s - before.cpu_s) * 1e6 / ops,
        ctx_switches_per_op: (vol + invol) / ops,
        involuntary_per_op: invol / ops,
        peak_rss_mb: after.peak_rss_mb,
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// This process's user + system CPU seconds, all threads.
pub fn self_cpu_s() -> f64 {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a writable `struct rusage` (two timevals then fourteen
    // longs on 64-bit Linux); RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc != 0 {
        return 0.0;
    }
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 / 1e6;
    t(&u.utime) + t(&u.stime)
}

/// In a just-forked daemon: have the kernel SIGKILL it when the thread that
/// spawned it (the benchmark's main thread) ends, so no daemon outlives an
/// aborted run and skews the next one.
pub fn die_with_parent() -> std::io::Result<()> {
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: PR_SET_PDEATHSIG takes a signal number and touches no memory
    // of ours; prctl(2) is async-signal-safe, so it may run between fork
    // and exec.
    if unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Lets this thread's sleeps end within a microsecond of their deadline
/// instead of the default 50 µs timer slack, so the open loop sends on time.
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes the slack in ns as its only argument
    // and touches no memory of ours.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}
