//! The traced run: the per-layer split of one workload.
//!
//! It never reports end-to-end metrics. In order, it runs:
//!
//! 1. pass U — the workload at the shipped defaults (plus `/metrics`),
//!    with STATS, `/proc` and `getrusage` read before and after: counters
//!    per op for the load generator, serverd and each proxy;
//! 2. pass T — the same with every request traced (serverd
//!    `--trace-sample 1`, proxies `--trace-every 1`): server stage
//!    percentiles from `/metrics` deltas, the load generator's own spans
//!    (written to a CSV file), and the tracing overhead (T against U);
//! 3. the in-process replays of [`crate::layers`];
//! 4. a depth-1 hop attribution of one request stream: direct, via
//!    p4lru_routerd, via p4lru_tierd; then direct against via-router at
//!    depth 32;
//! 5. a reactor repeat of the workload's serverd with `--frontend reactor`,
//!    when the default front-end is not already the reactor;
//! 6. the durable pass: `durable_write_open`, which is too unsteady on a
//!    virtual disk to gate, with its `kill -9` restart and audit;
//! 7. one `--replicate ack` primary + follower pair under
//!    `durable_write_open` traffic.

use std::io::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use p4lru_server::{Client, StatsReport, TierSnapshot};

use crate::check::Account;
use crate::daemons::{self, dir_bytes, probe, Daemon, Env, Stack, StackOpts, PROBE_KEY_BASE};
use crate::load::{self, ConnState, Pass, Window};
use crate::procfs::{self, ProcCounters};
use crate::scrape::{self, Scrape};
use crate::workload::{self, Chain, KeyDist, Pace, Workload};
use crate::{conn_states, merged_acks, metric, Inputs, Metric, Outcome, PROBE_DEADLINE};

/// The stages serverd's STATS lists today. Each is always printed (0 when a
/// workload's requests never pass it); stages a later serverd adds are
/// printed after them under their own names.
const STAGES: [&str; 7] = [
    "route",
    "queue",
    "wal_append",
    "apply",
    "fsync",
    "reorder",
    "flush",
];
/// Requests per connection whose client-side spans are kept.
const SPAN_CAP: usize = 100_000;
/// Requests replayed through each layer in process.
const REPLAY_OPS: usize = 400_000;
/// Length of each hop-attribution leg, and of the repeats after it.
const LEG_S: f64 = 2.0;
const LEG_WARM_S: f64 = 0.5;
/// Window of the durable pass.
const DURABLE_S: f64 = 5.0;
/// The repl pair's load: one connection at this depth.
const REPL_DEPTH: usize = 32;
const REPL_S: f64 = 3.0;

/// Bytes of one user record: the 8-byte key and the 64-byte value.
const USER_RECORD_BYTES: f64 = 72.0;

fn stats(addr: SocketAddr) -> Result<StatsReport, String> {
    Client::connect_timeout(&addr, load::REPLY_TIMEOUT)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("STATS from {addr}: {e}"))
}

fn tier_stats(addr: SocketAddr) -> Result<TierSnapshot, String> {
    stats(addr)?
        .tier
        .ok_or_else(|| format!("STATS from {addr} has no tier section"))
}

fn proc_of(d: &Daemon) -> ProcCounters {
    procfs::read(d.pid()).unwrap_or_default()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn server_ops(before: &StatsReport, after: &StatsReport) -> u64 {
    let t = |s: &StatsReport| s.totals.gets + s.totals.sets + s.totals.dels;
    t(after) - t(before)
}

fn tier_metrics(before: &TierSnapshot, after: &TierSnapshot) -> Vec<Metric> {
    let d = |f: fn(&TierSnapshot) -> u64| (f(after) - f(before)) as f64;
    let hits = d(|t| t.hits);
    let requests = d(|t| t.gets) + d(|t| t.sets) + d(|t| t.dels);
    vec![
        metric("tier.hit_rate", ratio(hits, d(|t| t.gets)), "ratio"),
        metric("tier.offload_ratio", ratio(hits, requests), "ratio"),
        metric(
            "tier.invalidations_per_set",
            ratio(d(|t| t.invalidations), d(|t| t.sets)),
            "ratio",
        ),
        metric("tier.stale_drops", d(|t| t.stale_drops), "count"),
    ]
}

fn proc_metrics(
    prefix: &str,
    before: &ProcCounters,
    after: &ProcCounters,
    ops: u64,
) -> Vec<Metric> {
    let d = procfs::delta(before, after, ops);
    vec![
        metric(format!("{prefix}cpu_us_per_op"), d.cpu_us_per_op, "us"),
        metric(
            format!("{prefix}ctx_switches_per_op"),
            d.ctx_switches_per_op,
            "count",
        ),
        metric(
            format!("{prefix}involuntary_ctx_switches_per_op"),
            d.involuntary_per_op,
            "count",
        ),
        metric(format!("{prefix}rss_mb"), d.peak_rss_mb, "MB"),
    ]
}

fn reactor_metrics(before: &StatsReport, after: &StatsReport) -> Vec<Metric> {
    let sum = |s: &StatsReport, f: fn(&p4lru_server::ReactorLoopSnapshot) -> u64| {
        s.reactor.iter().map(f).sum::<u64>()
    };
    let d =
        |f: fn(&p4lru_server::ReactorLoopSnapshot) -> u64| (sum(after, f) - sum(before, f)) as f64;
    let ops = server_ops(before, after) as f64;
    vec![
        metric(
            "reactor.wakeups_per_op",
            ratio(d(|l| l.wakeups), ops),
            "ratio",
        ),
        metric(
            "reactor.messages_per_wakeup",
            ratio(d(|l| l.messages), d(|l| l.wakeups)),
            "ratio",
        ),
        metric(
            "reactor.events_per_turn",
            ratio(d(|l| l.events), d(|l| l.turns)),
            "ratio",
        ),
    ]
}

/// One pass of the workload on its own stack, observed from outside.
struct Observed {
    pass: Pass,
    server_ops: u64,
    stats: (StatsReport, StatsReport),
    metrics: (Scrape, Scrape),
    server_proc: (ProcCounters, ProcCounters),
    proxy_procs: Vec<(&'static str, ProcCounters, ProcCounters)>,
    tier: Option<(TierSnapshot, TierSnapshot)>,
    loadgen_cpu_s: f64,
    setup_s: f64,
    data_bytes: u64,
    recovery_s: f64,
    recovery_replayed: u64,
}

fn observe(
    env: &Env,
    wl: &Workload,
    seed: u64,
    seconds: f64,
    opts: StackOpts,
    span_cap: usize,
    acct: &mut Account,
) -> Result<Observed, String> {
    let dir = wl.durable.then(|| env.fresh_dir("data"));
    let start = Instant::now();
    let mut stack = Stack::spawn(env, wl, wl.chain, dir.as_deref(), &opts)?;
    if !probe(stack.entry(), PROBE_KEY_BASE, 0xFFFF_2000, PROBE_DEADLINE) {
        acct.fail.error_reply += 1;
    }
    let setup_s = start.elapsed().as_secs_f64();
    let server_metrics = stack
        .server
        .metrics
        .ok_or("serverd printed no metrics address")?;
    let tier_addr = stack.tier.as_ref().map(|t| t.addr);
    let proxies = |s: &Stack| -> Vec<(&'static str, ProcCounters)> {
        s.router
            .iter()
            .chain(s.tier.iter())
            .map(|d| (d.name, proc_of(d)))
            .collect()
    };

    // /proc first: a STATS or scrape connection's thread would be counted
    // on one side only.
    let proc0 = proc_of(&stack.server);
    let proxies0 = proxies(&stack);
    let stats0 = stats(stack.server.addr)?;
    let metrics0 = Scrape::fetch(server_metrics)?;
    let tier0 = tier_addr.map(tier_stats).transpose()?;
    let cpu0 = procfs::self_cpu_s();

    let mut states = conn_states(wl);
    let mut pass =
        Inputs::new(wl, seed, seconds).drive(stack.entry(), seconds, &mut states, span_cap);

    let loadgen_cpu_s = procfs::self_cpu_s() - cpu0;
    let proc1 = proc_of(&stack.server);
    let proxies1 = proxies(&stack);
    pass.conns.clear();
    let stats1 = stats(stack.server.addr)?;
    let metrics1 = Scrape::fetch(server_metrics)?;
    let tier1 = tier_addr.map(tier_stats).transpose()?;

    let mut data_bytes = 0;
    let mut recovery_replayed = 0;
    let mut recovery_s = 0.0;
    if let Some(dir) = &dir {
        data_bytes = dir_bytes(dir);
        stack.server.kill();
        let start = Instant::now();
        stack.server.restart()?;
        if !probe(
            stack.entry(),
            PROBE_KEY_BASE + 1,
            0xFFFF_2001,
            PROBE_DEADLINE,
        ) {
            acct.fail.error_reply += 1;
        }
        recovery_s = start.elapsed().as_secs_f64();
        recovery_replayed = stats(stack.server.addr)?.totals.recovery_replayed;
        acct.attempted +=
            crate::check::audit(stack.server.addr, &merged_acks(&states), &mut acct.fail)
                .map_err(|e| format!("audit: {e}"))?;
    }
    for s in &states {
        acct.fail.add(&s.tally.fail);
    }
    acct.attempted += pass.sent;
    Ok(Observed {
        pass,
        server_ops: server_ops(&stats0, &stats1),
        stats: (stats0, stats1),
        metrics: (metrics0, metrics1),
        server_proc: (proc0, proc1),
        proxy_procs: proxies0
            .into_iter()
            .zip(proxies1)
            .map(|((name, b), (_, a))| (name, b, a))
            .collect(),
        tier: tier0.zip(tier1),
        loadgen_cpu_s,
        setup_s,
        data_bytes,
        recovery_s,
        recovery_replayed,
    })
}

fn write_spans(path: &Path, spans: &[load::Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "conn,op,queued_ns,flush_start_ns,flush_end_ns,reply_ns"
    )?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.conn,
            if s.set { "set" } else { "get" },
            s.queued,
            s.flush_start,
            s.flush_end,
            s.reply
        )?;
    }
    out.flush()
}

/// Depth-1 latencies of one request stream, one leg per entry point, plus
/// each proxy's counters over its own leg.
/// Returns the hop metrics and, separately, the proxies' own counters over
/// their legs.
fn hops(
    env: &Env,
    wl: &Workload,
    seed: u64,
    acct: &mut Account,
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let mut out = Vec::new();
    let dir = wl.durable.then(|| env.fresh_dir("hops"));
    let stack = Stack::spawn(
        env,
        wl,
        Chain::Direct,
        dir.as_deref(),
        &StackOpts::default(),
    )?;
    let quiet = StackOpts::default();
    let router = daemons::spawn_router(env, stack.server.addr, &quiet)?;
    let tier = daemons::spawn_tier(env, stack.server.addr, &quiet)?;
    let dist = KeyDist::new(wl.items, wl.zipf_s);
    let streams: Vec<Vec<u64>> = (0..wl.conns)
        .map(|c| workload::conn_stream(wl, &dist, seed, c, crate::STREAM_LEN))
        .collect();
    // One set of connection states across every leg: a key written on one
    // leg must read back on the next.
    let mut states = conn_states(wl);
    let window = || {
        Window::starting_now(
            Duration::from_secs_f64(LEG_WARM_S),
            Duration::from_secs_f64(LEG_S),
        )
    };
    // Returns the leg's p50, its requests, and the proxy's counters before
    // and after (read while the leg's connection is still open).
    let mut leg = |addr: SocketAddr, proxy: Option<&Daemon>, states: &mut [ConnState]| {
        let before = proxy.map(proc_of).unwrap_or_default();
        let pass = load::closed_conn(addr, 0, &streams[0], 1, window(), &mut states[0], 0);
        let after = proxy.map(proc_of).unwrap_or_default();
        let mut all = pass.get.clone();
        all.merge(&pass.set);
        acct.attempted += pass.sent;
        (all.quantile_us(0.5), pass.sent, before, after)
    };
    let (direct_us, ..) = leg(stack.server.addr, None, &mut states);
    let (router_us, router_ops, r0, r1) = leg(router.addr, Some(&router), &mut states);
    let tier0 = tier_stats(tier.addr)?;
    let (tier_us, tier_ops, t0, t1) = leg(tier.addr, Some(&tier), &mut states);
    let tier1 = tier_stats(tier.addr)?;
    out.push(metric("tier.hop_us", tier_us - direct_us, "us"));
    out.push(metric("cluster.router_hop_us", router_us - direct_us, "us"));
    let mut proxies = proc_metrics("cluster.router_", &r0, &r1, router_ops);
    proxies.extend(proc_metrics("tier.", &t0, &t1, tier_ops));
    proxies.extend(tier_metrics(&tier0, &tier1));
    drop(tier);

    // Router pump: depth 32 on both connections, direct then via router.
    let direct = load::closed_loop(stack.server.addr, &streams, 32, window(), &mut states, 0);
    let via = load::closed_loop(router.addr, &streams, 32, window(), &mut states, 0);
    acct.attempted += direct.sent + via.sent;
    out.push(metric(
        "cluster.router_ops_ratio",
        ratio(via.throughput(), direct.throughput()),
        "ratio",
    ));
    for s in &states {
        acct.fail.add(&s.tally.fail);
    }
    Ok((out, proxies))
}

/// The workload's serverd with `--frontend reactor`, driven directly.
fn reactor_repeat(
    env: &Env,
    wl: &Workload,
    seed: u64,
    acct: &mut Account,
) -> Result<Vec<Metric>, String> {
    let dir = wl.durable.then(|| env.fresh_dir("reactor"));
    let opts = StackOpts {
        frontend: Some("reactor"),
        ..StackOpts::default()
    };
    let stack = Stack::spawn(env, wl, Chain::Direct, dir.as_deref(), &opts)?;
    let before = stats(stack.server.addr)?;
    let mut states = conn_states(wl);
    let pass = Inputs::new(wl, seed, LEG_S).drive(stack.server.addr, LEG_S, &mut states, 0);
    let after = stats(stack.server.addr)?;
    acct.attempted += pass.sent;
    for s in &states {
        acct.fail.add(&s.tally.fail);
    }
    Ok(reactor_metrics(&before, &after))
}

/// durable_write_open once, for `DURABLE_S`: its client percentiles, set-up
/// and recovery times, and the WAL, fsync and snapshot counters. Every
/// acknowledged write is read back after the `kill -9` restart.
fn durable_pass(env: &Env, seed: u64, acct: &mut Account) -> Result<Vec<Metric>, String> {
    let wl = workload::by_name("durable_write_open").expect("workload exists");
    let opts = StackOpts {
        metrics: true,
        ..StackOpts::default()
    };
    let mut o = observe(env, wl, seed, DURABLE_S, opts, 0, acct)?;
    let (s0, s1) = &o.stats;
    let d = |f: fn(&StatsReport) -> u64| (f(s1) - f(s0)) as f64;
    let fsyncs = d(|s| s.totals.wal_fsyncs);
    let fsync_max = s1
        .shards
        .iter()
        .map(|s| s.wal_fsync_max_ns)
        .max()
        .unwrap_or(0);
    let user_bytes = s1.totals.store_len as f64 * USER_RECORD_BYTES;
    Ok(vec![
        metric("durable.get_p50_us", o.pass.get.quantile_us(0.5), "us"),
        metric("durable.get_p99_us", o.pass.get.quantile_us(0.99), "us"),
        metric("durable.set_p50_us", o.pass.set.quantile_us(0.5), "us"),
        metric("durable.set_p99_us", o.pass.set.quantile_us(0.99), "us"),
        metric("durable.setup_s", o.setup_s, "s"),
        metric("durable.recovery_s", o.recovery_s, "s"),
        metric(
            "durable.appends_per_fsync",
            ratio(d(|s| s.totals.wal_appends), fsyncs),
            "ratio",
        ),
        metric(
            "durable.fsync_mean_us",
            ratio(d(|s| s.totals.wal_fsync_ns), fsyncs) / 1e3,
            "us",
        ),
        metric("durable.fsync_max_us", fsync_max as f64 / 1e3, "us"),
        metric("durable.snapshots", d(|s| s.totals.snapshots), "count"),
        metric(
            "durable.recovery_replayed",
            o.recovery_replayed as f64,
            "count",
        ),
        metric(
            "durable.bytes_per_user_byte",
            ratio(o.data_bytes as f64, user_bytes),
            "ratio",
        ),
        metric(
            "durable.core_hit_rate",
            ratio(d(|s| s.totals.hits), d(|s| s.totals.gets)),
            "ratio",
        ),
        metric(
            "durable.index_visits_per_miss",
            ratio(d(|s| s.totals.index_visits), d(|s| s.totals.misses)),
            "count",
        ),
        metric(
            "durable.send_lag_p99_us",
            o.pass.send_lag.quantile_us(0.99),
            "us",
        ),
    ])
}

/// A `--replicate ack` primary and its follower under durable_write_open's
/// mix and skew, one connection at depth 32.
fn repl_pair(env: &Env, seed: u64, acct: &mut Account) -> Result<Vec<Metric>, String> {
    let wl = workload::by_name("durable_write_open").expect("workload exists");
    let opts = StackOpts {
        metrics: true,
        ..StackOpts::default()
    };
    let pdir = env.fresh_dir("repl-primary");
    let mut pargs = daemons::server_args(wl, Some(&pdir), &opts);
    pargs.extend(["--repl-addr", "127.0.0.1:0", "--replicate", "ack"].map(String::from));
    let mut primary = daemons::spawn_server(env, pargs)?;
    let repl_addr = primary.wait_for_addr("shipping on ")?;
    let fdir = env.fresh_dir("repl-follower");
    let mut fargs = daemons::server_args(wl, Some(&fdir), &opts);
    let items = fargs
        .iter()
        .position(|a| a == "--items")
        .expect("sized by the workload");
    fargs[items + 1] = "0".into();
    fargs.extend(["--follow".to_string(), repl_addr.to_string()]);
    let follower = daemons::spawn_server(env, fargs)?;
    let fmetrics = follower
        .metrics
        .ok_or("follower printed no metrics address")?;
    // An acknowledged write needs the follower caught up and pulling.
    if !probe(primary.addr, PROBE_KEY_BASE, 0xFFFF_3000, PROBE_DEADLINE) {
        acct.fail.error_reply += 1;
    }
    let dist = KeyDist::new(wl.items, wl.zipf_s);
    let stream = workload::conn_stream(wl, &dist, seed, 0, crate::STREAM_LEN);
    let mut state = ConnState::new(1);
    let before = Scrape::fetch(fmetrics)?;
    let win = Window::starting_now(
        Duration::from_secs_f64(LEG_WARM_S),
        Duration::from_secs_f64(REPL_S),
    );
    let mut lag_max = 0.0f64;
    let mut pass = std::thread::scope(|s| {
        let load =
            s.spawn(|| load::closed_conn(primary.addr, 0, &stream, REPL_DEPTH, win, &mut state, 0));
        while !load.is_finished() {
            if let Ok(m) = Scrape::fetch(fmetrics) {
                lag_max = lag_max.max(m.max("p4lru_repl_lag_seqs"));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        load.join().expect("load thread panicked")
    });
    pass.seconds = win.seconds();
    let after = Scrape::fetch(fmetrics)?;
    acct.attempted += pass.sent;
    acct.fail.add(&state.tally.fail);
    let q = |base: &str| scrape::hist_quantile_us(&before, &after, base, &[], 0.99);
    Ok(vec![
        metric("repl.ops_s", pass.throughput(), "ops/s"),
        metric("repl.ack_set_p50_us", pass.set.quantile_us(0.5), "us"),
        metric(
            "repl.pull_rtt_p99_us",
            q("p4lru_repl_pull_rtt_seconds"),
            "us",
        ),
        metric(
            "repl.batch_apply_p99_us",
            q("p4lru_repl_batch_apply_seconds"),
            "us",
        ),
        metric("repl.lag_seqs_max", lag_max, "count"),
    ])
}

pub fn run(env: &Env, wl: &Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut acct = Account::default();
    let secs = seconds as f64;
    let mut m = Vec::new();

    let plain = StackOpts {
        metrics: true,
        ..StackOpts::default()
    };
    let mut u = observe(env, wl, seed, secs, plain, 0, &mut acct)?;
    let traced = StackOpts {
        traced: true,
        ..plain
    };
    let t = observe(env, wl, seed, secs, traced, SPAN_CAP, &mut acct)?;

    // loadgen
    m.push(metric(
        "loadgen.send_lag_p50_us",
        u.pass.send_lag.quantile_us(0.5),
        "us",
    ));
    m.push(metric(
        "loadgen.send_lag_p99_us",
        u.pass.send_lag.quantile_us(0.99),
        "us",
    ));
    m.push(metric("loadgen.cpu_s", u.loadgen_cpu_s, "s"));

    // server (counters from U, stage and request percentiles from T)
    let (s0, s1) = &u.stats;
    let d = |f: fn(&StatsReport) -> u64| (f(s1) - f(s0)) as f64;
    m.push(metric(
        "server.batch_mean",
        ratio(d(|s| s.totals.batch_ops), d(|s| s.totals.batches)),
        "ops",
    ));
    let (tb, ta) = &t.metrics;
    m.push(metric(
        "server.get_p99_us",
        scrape::hist_quantile_us(tb, ta, "p4lru_request_seconds", &[("op", "get")], 0.99),
        "us",
    ));
    let mut stages: Vec<String> = STAGES.iter().map(|s| s.to_string()).collect();
    for s in ta.label_values("p4lru_stage_seconds_bucket", "stage") {
        if !stages.contains(&s) {
            stages.push(s);
        }
    }
    for s in &stages {
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            let v = scrape::hist_quantile_us(tb, ta, "p4lru_stage_seconds", &[("stage", s)], q);
            m.push(metric(format!("server.stage.{s}.{tag}_us"), v, "us"));
        }
    }
    m.extend(proc_metrics(
        "server.",
        &u.server_proc.0,
        &u.server_proc.1,
        u.server_ops,
    ));

    // core, kvstore (U's STATS deltas)
    m.push(metric(
        "core.hit_rate",
        ratio(d(|s| s.totals.hits), d(|s| s.totals.gets)),
        "ratio",
    ));
    m.push(metric(
        "core.evictions_per_get",
        ratio(d(|s| s.totals.evictions), d(|s| s.totals.gets)),
        "ratio",
    ));
    m.push(metric(
        "kvstore.index_visits_per_miss",
        ratio(d(|s| s.totals.index_visits), d(|s| s.totals.misses)),
        "count",
    ));
    let height = s1.shards.iter().map(|s| s.index_height).max().unwrap_or(0);
    m.push(metric("kvstore.index_height", height as f64, "count"));
    // obs: throughput lost to tracing every request (closed loop); in the
    // open loop throughput is pinned to the offered rate, so serverd CPU
    // per op is compared instead.
    let overhead = match wl.pace {
        Pace::Closed { .. } => 1.0 - ratio(t.pass.throughput(), u.pass.throughput()),
        Pace::Open { .. } => {
            let cpu = |o: &Observed| {
                procfs::delta(&o.server_proc.0, &o.server_proc.1, o.server_ops).cpu_us_per_op
            };
            ratio(cpu(&t), cpu(&u)) - 1.0
        }
    };
    m.push(metric("obs.trace_overhead_frac", overhead, "ratio"));

    let spans_path = env
        .work
        .parent()
        .unwrap_or(&env.work)
        .join(format!("spans-{}-seed{seed}.csv", wl.name));
    write_spans(&spans_path, &t.pass.spans)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    eprintln!(
        "{}: client spans of the traced pass in {}",
        wl.name,
        spans_path.display()
    );

    // In-process replays on the workload's own stream and latencies.
    let dist = KeyDist::new(wl.items, wl.zipf_s);
    let ops = workload::global_stream(wl, &dist, seed, REPLAY_OPS);
    let mut lat = std::mem::take(&mut u.pass.get);
    lat.merge(&u.pass.set);
    m.extend(crate::layers::replay(wl, &ops, lat.samples()));
    drop((lat, t));

    let (hop, mut proxies) = hops(env, wl, seed, &mut acct)?;
    m.extend(hop);
    if let Some((b, a)) = &u.tier {
        // proxy_chain: the chain's own proxies at the workload's depth
        // replace the depth-1 legs'. Every client request passes both.
        proxies.clear();
        for (name, b, a) in &u.proxy_procs {
            let prefix = if *name == "p4lru_tierd" {
                "tier."
            } else {
                "cluster.router_"
            };
            proxies.extend(proc_metrics(prefix, b, a, u.pass.sent));
        }
        proxies.extend(tier_metrics(b, a));
    }
    m.extend(proxies);

    if u.stats.1.reactor.is_empty() {
        m.extend(reactor_repeat(env, wl, seed, &mut acct)?);
    } else {
        m.extend(reactor_metrics(&u.stats.0, &u.stats.1));
    }
    m.extend(durable_pass(env, seed, &mut acct)?);
    m.extend(repl_pair(env, seed, &mut acct)?);

    Ok(Outcome { acct, metrics: m })
}
