//! The repository benchmark: one workload, one seed, one result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against the daemons at their
//! shipped defaults. `--trace 1` is the separate traced run that splits the
//! time by layer. The last line of standard output is the JSON result; a
//! human-readable account goes to standard error. See `README.md`.

mod check;
mod daemons;
mod layers;
mod load;
mod procfs;
mod recorder;
mod scrape;
mod traced;
mod workload;

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::Account;
use daemons::{probe, Env, Stack, StackOpts, PROBE_KEY_BASE};
use load::{ConnState, Pass, Window};
use workload::{Pace, Workload, WARMUP_S};

/// A run of `--seconds S` is `S` independent trials with a window of this
/// length each, every trial on a freshly started stack; every end-to-end
/// metric is the median over the trials. On a small virtual machine the
/// CPU's speed drifts over seconds and each fresh stack re-draws thread
/// placement, so many short trials spread over the run repeat far better
/// than one long window.
const TRIAL_S: f64 = 1.0;
/// Requests per connection in a closed-loop stream (cycled when a window
/// outlasts it).
pub const STREAM_LEN: usize = 1 << 20;
/// How long a probe may retry before the stack counts as not up.
pub const PROBE_DEADLINE: Duration = Duration::from_secs(60);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("bad {flag}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One named metric as printed.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// What a run reports.
pub struct Outcome {
    pub acct: Account,
    pub metrics: Vec<Metric>,
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.acct.fail.total() == 0,
        o.acct.attempted.max(1),
        o.acct.fail.total(),
        metrics.join(", ")
    )
}

pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The seeded request streams of one run, generated before any timing.
pub enum Inputs {
    /// One stream per connection.
    Closed {
        streams: Vec<Vec<u64>>,
        depth: usize,
    },
    /// One schedule for all connections.
    Open { ops: Vec<u64>, rate: u64 },
}

impl Inputs {
    /// Streams long enough for a window of `seconds` after the warm-up.
    pub fn new(wl: &Workload, seed: u64, seconds: f64) -> Self {
        let dist = workload::KeyDist::new(wl.items, wl.zipf_s);
        match wl.pace {
            Pace::Closed { depth } => Inputs::Closed {
                streams: (0..wl.conns)
                    .map(|c| workload::conn_stream(wl, &dist, seed, c, STREAM_LEN))
                    .collect(),
                depth,
            },
            Pace::Open { rate } => {
                let len = (rate as f64 * (WARMUP_S + seconds)).ceil() as usize + 1;
                Inputs::Open {
                    ops: workload::global_stream(wl, &dist, seed, len),
                    rate,
                }
            }
        }
    }

    /// Drives the load against `entry` for `seconds` after the warm-up.
    pub fn drive(
        &self,
        entry: SocketAddr,
        seconds: f64,
        states: &mut [ConnState],
        span_cap: usize,
    ) -> Pass {
        let win = Window::starting_now(
            Duration::from_secs_f64(WARMUP_S),
            Duration::from_secs_f64(seconds),
        );
        match self {
            Inputs::Closed { streams, depth } => {
                load::closed_loop(entry, streams, *depth, win, states, span_cap)
            }
            Inputs::Open { ops, rate } => load::open_loop(entry, ops, *rate, win, states),
        }
    }
}

pub fn conn_states(wl: &Workload) -> Vec<ConnState> {
    (0..wl.conns)
        .map(|c| ConnState::new(c as u64 + 1))
        .collect()
}

pub fn merged_acks(states: &[ConnState]) -> HashMap<u64, u64> {
    states
        .iter()
        .flat_map(|s| s.tally.acked.iter().map(|(&k, &v)| (k, v)))
        .collect()
}

/// One trial's end-to-end figures.
struct Trial {
    throughput: f64,
    get_p50: f64,
    get_p99: f64,
    set_p50: f64,
    set_p99: f64,
    setup_s: f64,
    recovery_s: f64,
    rss_mb: f64,
}

/// Starts the workload's stack from nothing, drives the window, then kills
/// serverd (SIGKILL), starts it again on the same address and data dir, and
/// for a durable workload reads back every acknowledged write.
fn trial(
    env: &Env,
    wl: &Workload,
    inputs: &Inputs,
    seconds: f64,
    acct: &mut Account,
) -> Result<Trial, String> {
    let dir = wl.durable.then(|| env.fresh_dir("data"));
    let start = Instant::now();
    let mut stack = Stack::spawn(env, wl, wl.chain, dir.as_deref(), &StackOpts::default())?;
    if !probe(stack.entry(), PROBE_KEY_BASE, 0xFFFF_0000, PROBE_DEADLINE) {
        acct.fail.error_reply += 1;
    }
    let setup_s = start.elapsed().as_secs_f64();

    let mut states = conn_states(wl);
    let mut pass = inputs.drive(stack.entry(), seconds, &mut states, 0);
    let rss_mb: f64 = stack
        .daemons()
        .filter_map(|d| procfs::read(d.pid()))
        .map(|c| c.peak_rss_mb)
        .sum();
    pass.conns.clear();

    stack.server.kill();
    let start = Instant::now();
    stack.server.restart()?;
    if !probe(
        stack.entry(),
        PROBE_KEY_BASE + 1,
        0xFFFF_1000,
        PROBE_DEADLINE,
    ) {
        acct.fail.error_reply += 1;
    }
    let recovery_s = start.elapsed().as_secs_f64();
    if wl.durable {
        acct.attempted += check::audit(stack.server.addr, &merged_acks(&states), &mut acct.fail)
            .map_err(|e| format!("audit: {e}"))?;
    }
    drop(stack);
    for s in &states {
        acct.fail.add(&s.tally.fail);
    }
    acct.attempted += pass.sent;
    let t = Trial {
        throughput: pass.throughput(),
        get_p50: pass.get.quantile_us(0.50),
        get_p99: pass.get.quantile_us(0.99),
        set_p50: pass.set.quantile_us(0.50),
        set_p99: pass.set.quantile_us(0.99),
        setup_s,
        recovery_s,
        rss_mb,
    };
    eprintln!(
        "{}: {:.0} ops/s over {:.1} s; GET p50 {:.1} p99 {:.1} us (n={}); SET p50 {:.1} p99 {:.1} us (n={}); \
         set-up {:.3} s; recovery {:.3} s",
        wl.name,
        t.throughput,
        pass.seconds,
        t.get_p50,
        t.get_p99,
        pass.get.len(),
        t.set_p50,
        t.set_p99,
        pass.set.len(),
        setup_s,
        recovery_s,
    );
    Ok(t)
}

/// The untraced run: the end-to-end metrics, each the median over one
/// trial per second of `seconds`.
fn run_end_to_end(env: &Env, wl: &Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut acct = Account::default();
    let inputs = Inputs::new(wl, seed, TRIAL_S);
    let mut trials = Vec::new();
    for _ in 0..seconds {
        trials.push(trial(env, wl, &inputs, TRIAL_S, &mut acct)?);
    }
    eprintln!(
        "{}: failed {} of {} (error_frac {:.3e}): {:?}",
        wl.name,
        acct.fail.total(),
        acct.attempted,
        acct.fail.total() as f64 / acct.attempted.max(1) as f64,
        acct.fail
    );
    let med = |f: fn(&Trial) -> f64| median(trials.iter().map(f).collect());
    let metrics = vec![
        metric("throughput_ops_s", med(|t| t.throughput), "ops/s"),
        metric("get_p50_us", med(|t| t.get_p50), "us"),
        metric("get_p99_us", med(|t| t.get_p99), "us"),
        metric("set_p50_us", med(|t| t.set_p50), "us"),
        metric("set_p99_us", med(|t| t.set_p99), "us"),
        metric("setup_s", med(|t| t.setup_s), "s"),
        metric("recovery_s", med(|t| t.recovery_s), "s"),
        metric("rss_mb", med(|t| t.rss_mb), "MB"),
    ];
    Ok(Outcome { acct, metrics })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let target = PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
    );
    let env = Env::new(
        target.join("release"),
        target
            .join("perfbench-run")
            .join(format!("{}-{}", args.workload.name, std::process::id())),
    );
    if let Err(e) = std::fs::create_dir_all(&env.work) {
        eprintln!("error: cannot create {}: {e}", env.work.display());
        return ExitCode::from(2);
    }
    procfs::tighten_timer_slack();
    let result = if args.trace {
        traced::run(&env, args.workload, args.seed, args.seconds)
    } else {
        run_end_to_end(&env, args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(outcome) => {
            env.clean_up();
            println!("{}", json_line(&outcome));
            if outcome.acct.fail.total() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n(daemon logs kept in {})", env.work.display());
            ExitCode::from(2)
        }
    }
}
