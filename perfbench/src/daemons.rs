//! Spawning the release daemons and stopping them again.
//!
//! Each daemon binds port 0 and prints the address it got; its stdout and
//! stderr go to a log file in the run directory, which is polled (no reader
//! threads: the load generator keeps to two threads). Every daemon is
//! killed and reaped when its handle drops, also on an early return.

use std::cell::Cell;
use std::fs::{self, File};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use p4lru_server::Client;

use crate::workload::{value_for, Chain, Workload};

/// Longest a daemon may take to print its listen line (a fresh 1M-key
/// durable node writes its first snapshot before it listens).
const START_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Daemon {
    pub name: &'static str,
    bin: PathBuf,
    args: Vec<String>,
    log: PathBuf,
    child: Child,
    pub addr: SocketAddr,
    pub metrics: Option<SocketAddr>,
    spawned: u32,
}

fn find_addr(log: &str, marker: &str, end: char) -> Option<SocketAddr> {
    let rest = &log[log.find(marker)? + marker.len()..];
    rest[..rest.find(end)?].parse().ok()
}

impl Daemon {
    fn spawn(
        name: &'static str,
        bin: PathBuf,
        args: Vec<String>,
        log: PathBuf,
    ) -> Result<Self, String> {
        let child = start(&bin, &args, &log)?;
        let mut d = Self {
            name,
            bin,
            args,
            log,
            child,
            addr: "0.0.0.0:0".parse().expect("literal address"),
            metrics: None,
            spawned: 1,
        };
        d.await_listen()?;
        Ok(d)
    }

    fn await_listen(&mut self) -> Result<(), String> {
        let want_metrics = self.args.iter().any(|a| a == "--metrics-addr");
        let start = Instant::now();
        loop {
            let text = fs::read_to_string(&self.log).unwrap_or_default();
            if let Some(addr) = find_addr(&text, "listening on ", ' ') {
                let metrics = find_addr(&text, "http://", '/');
                if !want_metrics || metrics.is_some() {
                    self.addr = addr;
                    self.metrics = metrics;
                    return Ok(());
                }
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!(
                    "{} exited ({status}) before listening:\n{text}",
                    self.name
                ));
            }
            if start.elapsed() > START_TIMEOUT {
                return Err(format!(
                    "{} did not listen within {START_TIMEOUT:?}:\n{text}",
                    self.name
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// The address printed after `marker` in the daemon's log (e.g. the
    /// replication listener), waiting for it to appear.
    pub fn wait_for_addr(&mut self, marker: &str) -> Result<SocketAddr, String> {
        let start = Instant::now();
        loop {
            let text = fs::read_to_string(&self.log).unwrap_or_default();
            if let Some(addr) = find_addr(&text, marker, '\n') {
                return Ok(addr);
            }
            if start.elapsed() > START_TIMEOUT || matches!(self.child.try_wait(), Ok(Some(_))) {
                return Err(format!("{} never printed {marker:?}:\n{text}", self.name));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL: no shutdown path runs, nothing unflushed survives in the
    /// process.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Starts the daemon again with its arguments and the address it had,
    /// after [`Self::kill`].
    pub fn restart(&mut self) -> Result<(), String> {
        self.kill();
        let addr = self.addr.to_string();
        if let Some(i) = self.args.iter().position(|a| a == "--addr") {
            self.args[i + 1] = addr;
        }
        self.spawned += 1;
        self.log = self.log.with_extension(format!("{}.log", self.spawned));
        self.child = start(&self.bin, &self.args, &self.log)?;
        self.await_listen()
    }
}

fn start(bin: &Path, args: &[String], log: &Path) -> Result<Child, String> {
    let out = File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
    let err = out.try_clone().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(bin);
    cmd.args(args).stdin(Stdio::null()).stdout(out).stderr(err);
    // SAFETY: the hook runs in the child between fork and exec and makes a
    // single async-signal-safe system call. Daemons are spawned only from
    // the main thread, which lives until the benchmark exits.
    unsafe { cmd.pre_exec(crate::procfs::die_with_parent) };
    cmd.spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// What a stack is started with besides the workload's sizing.
#[derive(Clone, Copy, Debug, Default)]
pub struct StackOpts {
    /// Trace every request: serverd `--trace-sample 1`, proxies
    /// `--trace-every 1`.
    pub traced: bool,
    /// Serve `/metrics` on every daemon.
    pub metrics: bool,
    /// serverd `--frontend` (`None`: the shipped default).
    pub frontend: Option<&'static str>,
}

/// Where the binaries are and where a run keeps its files.
pub struct Env {
    pub bins: PathBuf,
    pub work: PathBuf,
    dirs: Cell<u32>,
}

impl Env {
    pub fn new(bins: PathBuf, work: PathBuf) -> Self {
        Self {
            bins,
            work,
            dirs: Cell::new(0),
        }
    }

    fn bin(&self, name: &str) -> PathBuf {
        self.bins.join(name)
    }

    fn log(&self, name: &str) -> PathBuf {
        let n = fs::read_dir(&self.work).map(|d| d.count()).unwrap_or(0);
        self.work.join(format!("{n:03}-{name}.log"))
    }

    /// A new directory path under the run directory. Nothing is deleted
    /// while a run measures: freeing a 70 MB data dir makes the disk
    /// discard blocks under the next trial's fsyncs. [`Env::clean_up`]
    /// deletes everything once the run is over.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let n = self.dirs.get();
        self.dirs.set(n + 1);
        self.work.join(format!("{name}-{n}"))
    }

    /// Deletes the run directory and waits for the filesystem to write back
    /// the deletion, so the next run does not start under this one's I/O.
    pub fn clean_up(&self) {
        let _ = fs::remove_dir_all(&self.work);
        // SAFETY: sync(2) takes no arguments and cannot fail.
        unsafe { sync() };
    }
}

extern "C" {
    fn sync();
}

fn sv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// serverd's arguments: the workload's sizes, and nothing else that
/// changes behaviour unless `opts` asks.
pub fn server_args(wl: &Workload, data_dir: Option<&Path>, opts: &StackOpts) -> Vec<String> {
    let mut a = sv(&["--addr", "127.0.0.1:0"]);
    a.extend(sv(&["--shards", &wl.shards.to_string()]));
    a.extend(sv(&["--items", &wl.items.to_string()]));
    a.extend(sv(&["--units", &wl.units.to_string()]));
    if let Some(dir) = data_dir {
        a.extend(sv(&[
            "--data-dir",
            &dir.display().to_string(),
            "--sync",
            "always",
        ]));
    }
    if opts.traced {
        a.extend(sv(&["--trace-sample", "1"]));
    }
    if opts.metrics {
        a.extend(sv(&["--metrics-addr", "127.0.0.1:0"]));
    }
    if let Some(f) = opts.frontend {
        a.extend(sv(&["--frontend", f]));
    }
    a
}

fn proxy_args(upstream_flag: &str, upstream: SocketAddr, opts: &StackOpts) -> Vec<String> {
    let mut a = sv(&[
        "--addr",
        "127.0.0.1:0",
        upstream_flag,
        &upstream.to_string(),
    ]);
    if opts.traced {
        a.extend(sv(&["--trace-every", "1"]));
    }
    if opts.metrics {
        a.extend(sv(&["--metrics-addr", "127.0.0.1:0"]));
    }
    a
}

/// serverd plus whatever proxies stand in front of it.
pub struct Stack {
    pub server: Daemon,
    pub router: Option<Daemon>,
    pub tier: Option<Daemon>,
}

/// A serverd started with `args` (see [`server_args`]).
pub fn spawn_server(env: &Env, args: Vec<String>) -> Result<Daemon, String> {
    Daemon::spawn(
        "p4lru_serverd",
        env.bin("p4lru_serverd"),
        args,
        env.log("serverd"),
    )
}

/// A p4lru_routerd fronting a one-node cluster at `upstream`.
pub fn spawn_router(env: &Env, upstream: SocketAddr, opts: &StackOpts) -> Result<Daemon, String> {
    Daemon::spawn(
        "p4lru_routerd",
        env.bin("p4lru_routerd"),
        proxy_args("--cluster", upstream, opts),
        env.log("routerd"),
    )
}

/// A p4lru_tierd in front of `upstream`.
pub fn spawn_tier(env: &Env, upstream: SocketAddr, opts: &StackOpts) -> Result<Daemon, String> {
    Daemon::spawn(
        "p4lru_tierd",
        env.bin("p4lru_tierd"),
        proxy_args("--upstream", upstream, opts),
        env.log("tierd"),
    )
}

impl Stack {
    pub fn spawn(
        env: &Env,
        wl: &Workload,
        chain: Chain,
        data_dir: Option<&Path>,
        opts: &StackOpts,
    ) -> Result<Self, String> {
        let server = spawn_server(env, server_args(wl, data_dir, opts))?;
        let (router, tier) = match chain {
            Chain::Direct => (None, None),
            Chain::TierRouter => {
                let router = spawn_router(env, server.addr, opts)?;
                let tier = spawn_tier(env, router.addr, opts)?;
                (Some(router), Some(tier))
            }
        };
        Ok(Self {
            server,
            router,
            tier,
        })
    }

    /// Where the load generator connects.
    pub fn entry(&self) -> SocketAddr {
        self.tier
            .as_ref()
            .or(self.router.as_ref())
            .unwrap_or(&self.server)
            .addr
    }

    pub fn daemons(&self) -> impl Iterator<Item = &Daemon> {
        std::iter::once(&self.server)
            .chain(self.router.iter())
            .chain(self.tier.iter())
    }
}

/// Probe keys live above every workload's key range, so probing never
/// disturbs what the workload verifies.
pub const PROBE_KEY_BASE: u64 = 1 << 40;

/// Writes a fresh value to a probe key through `entry` and reads it back,
/// retrying every millisecond until it verifies. Returns whether it did
/// within the deadline.
pub fn probe(entry: SocketAddr, key: u64, nonce: u64, deadline: Duration) -> bool {
    let start = Instant::now();
    let value = value_for(key, nonce);
    while start.elapsed() < deadline {
        let ok = Client::connect_timeout(&entry, Duration::from_secs(1)).and_then(|mut c| {
            c.set(key, &value)?;
            c.get(key)
        });
        if matches!(ok, Ok(Some(v)) if v[..] == value[..]) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

/// Total bytes of the files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
