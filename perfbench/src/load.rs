//! The load generator: at most two threads and one connection per thread
//! (closed loop) or two threads sharing the connections (open loop).
//!
//! Closed loop: each connection keeps `depth` requests in flight. A request
//! is queued when a reply frees its slot and sent at the next flush, which
//! happens whenever no further reply is already buffered. Its latency runs
//! from that flush to its reply; its send lag from the freeing reply to the
//! flush.
//!
//! Open loop: request `k` is due at `k / rate` seconds. The sending thread
//! sleeps until it is due and sends it on its key's connection; the
//! receiving thread waits on both connections. Latency runs from the due
//! instant, so a stall delays every later request's clock too; the send lag
//! (sent − due) shows how late the generator itself ran.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use p4lru_reactor::{Epoll, Events, Interest};
use p4lru_server::{FrameReader, FrameWriter, Response};

use crate::check::{encode, Model, Pending, Tally};
use crate::recorder::Recorder;
use crate::workload::{owner, SET_BIT};

/// A reply later than this fails the request and ends the pass.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// The measured window, in nanoseconds since `base`. Requests sent before
/// `warm_ns` are verified but not timed.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub base: Instant,
    pub warm_ns: u64,
    pub end_ns: u64,
}

impl Window {
    pub fn starting_now(warmup: Duration, measure: Duration) -> Self {
        let warm_ns = warmup.as_nanos() as u64;
        Self {
            base: Instant::now(),
            warm_ns,
            end_ns: warm_ns + measure.as_nanos() as u64,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.warm_ns) as f64 / 1e9
    }
}

/// One connection's writer and checker state, kept across passes so a key
/// written in one pass is expected in the next.
pub struct ConnState {
    pub model: Model,
    pub tally: Tally,
}

impl ConnState {
    pub fn new(tag: u64) -> Self {
        Self {
            model: Model::new(tag),
            tally: Tally::default(),
        }
    }
}

/// One request's client-side spans, in ns since the window base: queued
/// (slot freed or request due), flush start, flush end, reply decoded.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub conn: u8,
    pub set: bool,
    pub queued: u64,
    pub flush_start: u64,
    pub flush_end: u64,
    pub reply: u64,
}

/// What a pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub get: Recorder,
    pub set: Recorder,
    pub send_lag: Recorder,
    /// Requests sent, in every phase.
    pub sent: u64,
    /// Verified replies to requests timed in the window.
    pub completed: u64,
    /// Seconds the window's completions are divided by.
    pub seconds: f64,
    pub spans: Vec<Span>,
    /// The pass's connections, still open: a thread-per-connection daemon
    /// keeps a connection's thread (and its context-switch counts) only
    /// while the connection lives, so counters are read before dropping.
    pub conns: Vec<TcpStream>,
}

impl Pass {
    pub fn throughput(&self) -> f64 {
        if self.seconds > 0.0 {
            self.completed as f64 / self.seconds
        } else {
            0.0
        }
    }

    fn absorb(&mut self, o: Pass) {
        self.get.merge(&o.get);
        self.set.merge(&o.set);
        self.send_lag.merge(&o.send_lag);
        self.sent += o.sent;
        self.completed += o.completed;
        self.spans.extend(o.spans);
        self.conns.extend(o.conns);
    }
}

fn connect(
    addr: SocketAddr,
) -> io::Result<(FrameReader<TcpStream>, FrameWriter<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
    let read_half = stream.try_clone()?;
    let write_half = stream.try_clone()?;
    Ok((
        FrameReader::new(read_half),
        FrameWriter::new(write_half),
        stream,
    ))
}

fn record(pass: &mut Pass, p: &Pending, ns: u64) {
    if p.is_set() {
        pass.set.record_ns(ns);
    } else {
        pass.get.record_ns(ns);
    }
}

/// Runs a closed loop on every connection: connection 0 on this thread,
/// the rest on one more. `streams[c]` is connection `c`'s request stream
/// (cycled if the window outlasts it). `span_cap` requests per connection
/// get spans.
pub fn closed_loop(
    addr: SocketAddr,
    streams: &[Vec<u64>],
    depth: usize,
    win: Window,
    states: &mut [ConnState],
    span_cap: usize,
) -> Pass {
    assert!(states.len() == 2 && streams.len() == 2, "two connections");
    let (first, second) = states.split_at_mut(1);
    let mut pass = std::thread::scope(|s| {
        let other =
            s.spawn(|| closed_conn(addr, 1, &streams[1], depth, win, &mut second[0], span_cap));
        let mut mine = closed_conn(addr, 0, &streams[0], depth, win, &mut first[0], span_cap);
        mine.absorb(other.join().expect("load thread panicked"));
        mine
    });
    pass.seconds = win.seconds();
    pass
}

pub fn closed_conn(
    addr: SocketAddr,
    conn: u8,
    ops: &[u64],
    depth: usize,
    win: Window,
    state: &mut ConnState,
    span_cap: usize,
) -> Pass {
    let mut pass = Pass::default();
    let (mut reader, mut writer, stream) = match connect(addr) {
        Ok(c) => c,
        Err(_) => {
            state.tally.fail.conn_error += 1;
            pass.sent += 1;
            return pass;
        }
    };
    // (request, queued-at then sent-at ns)
    let mut inflight: VecDeque<(Pending, u64)> = VecDeque::with_capacity(depth);
    let mut cursor = 0usize;
    let mut replies = 0usize;
    let (mut payload, mut frame) = (Vec::new(), Vec::new());
    let mut queue =
        |t: u64, inflight: &mut VecDeque<(Pending, u64)>, writer: &mut FrameWriter<TcpStream>| {
            let p = state.model.prepare(ops[cursor % ops.len()]);
            cursor += 1;
            encode(&p, &mut payload);
            inflight.push_back((p, t));
            writer.write_frame(&payload)
        };
    let mut failed_io = false;
    let t0 = win.now_ns();
    for _ in 0..depth {
        failed_io |= queue(t0, &mut inflight, &mut writer).is_err();
    }
    let mut unsent = depth;
    loop {
        if unsent > 0 && !reader.has_buffered_frame() {
            let start = win.now_ns();
            failed_io |= writer.flush().is_err();
            let end = win.now_ns();
            let n = inflight.len();
            for (p, t) in inflight.range_mut(n - unsent..) {
                if pass.spans.len() < span_cap {
                    pass.spans.push(Span {
                        conn,
                        set: p.is_set(),
                        queued: *t,
                        flush_start: start,
                        flush_end: end,
                        reply: 0,
                    });
                }
                pass.send_lag.record_ns(end.saturating_sub(*t));
                *t = end;
            }
            pass.sent += unsent as u64;
            unsent = 0;
        }
        if failed_io {
            break;
        }
        match reader.read_frame(&mut frame) {
            Ok(true) => {}
            Ok(false) | Err(_) => {
                failed_io = true;
                break;
            }
        }
        let t = win.now_ns();
        let (p, sent_at) = inflight
            .pop_front()
            .expect("a reply answers a request in flight");
        let ok = state.tally.check(&p, Response::decode(&frame));
        if ok && sent_at >= win.warm_ns && t < win.end_ns {
            record(&mut pass, &p, t - sent_at);
            pass.completed += 1;
        }
        if let Some(span) = pass.spans.get_mut(replies) {
            span.reply = t;
        }
        replies += 1;
        if t < win.end_ns {
            failed_io |= queue(t, &mut inflight, &mut writer).is_err();
            unsent += 1;
        } else if inflight.is_empty() {
            break;
        }
    }
    if failed_io {
        // Everything still in flight is lost.
        state.tally.fail.conn_error += inflight.len() as u64;
        pass.sent += unsent as u64;
    }
    pass.conns.push(stream);
    pass
}

/// Runs the open loop: request `k` of `ops` is due at `k / rate` s and goes
/// to its key's connection. This thread sends; one more receives.
pub fn open_loop(
    addr: SocketAddr,
    ops: &[u64],
    rate: u64,
    win: Window,
    states: &mut [ConnState],
) -> Pass {
    let mut conns = Vec::new();
    for _ in 0..states.len() {
        match connect(addr) {
            Ok(c) => conns.push(c),
            Err(_) => {
                states[0].tally.fail.conn_error += 1;
                return Pass {
                    sent: 1,
                    ..Pass::default()
                };
            }
        }
    }
    let (mut models, mut tallies): (Vec<&mut Model>, Vec<&mut Tally>) = states
        .iter_mut()
        .map(|s| (&mut s.model, &mut s.tally))
        .unzip();
    let mut streams = Vec::new();
    let mut readers = Vec::new();
    let mut writers = Vec::new();
    for (r, w, stream) in conns {
        readers.push((r, stream.as_raw_fd()));
        writers.push(w);
        streams.push(stream);
    }
    let queues: Vec<Mutex<VecDeque<(Pending, u64)>>> = (0..readers.len())
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    let sent = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let interval_ns = 1e9 / rate as f64;
    let mut pass = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive(readers, &queues, &mut tallies, &sent, &done, win));
        let mut lag = Recorder::new();
        let mut payload = Vec::new();
        for (k, &op) in ops.iter().enumerate() {
            let due = (k as f64 * interval_ns) as u64;
            if due >= win.end_ns {
                break;
            }
            sleep_until(&win, due);
            let c = owner(op & !SET_BIT, writers.len());
            let p = models[c].prepare(op);
            encode(&p, &mut payload);
            queues[c]
                .lock()
                .expect("queue lock poisoned")
                .push_back((p, due));
            sent.fetch_add(1, Ordering::SeqCst);
            let ok = writers[c]
                .write_frame(&payload)
                .and_then(|()| writers[c].flush());
            if due >= win.warm_ns {
                lag.record_ns(win.now_ns().saturating_sub(due));
            }
            if ok.is_err() || done.load(Ordering::SeqCst) {
                break;
            }
        }
        done.store(true, Ordering::SeqCst);
        let mut pass = receiver.join().expect("receive thread panicked");
        pass.send_lag = lag;
        pass.conns = streams;
        pass
    });
    // A request queued after the receiver gave up never got its reply.
    for (q, t) in queues.iter().zip(tallies.iter_mut()) {
        t.fail.conn_error += q.lock().expect("queue lock poisoned").len() as u64;
    }
    pass.sent = sent.load(Ordering::SeqCst);
    pass
}

fn sleep_until(win: &Window, due: u64) {
    loop {
        let now = win.now_ns();
        if now >= due {
            return;
        }
        std::thread::sleep(Duration::from_nanos(due - now));
    }
}

/// The open loop's receiving side. Ends when the sender is done and every
/// request sent has its reply, or a connection fails (every request still
/// unanswered then counts as failed).
fn receive(
    mut readers: Vec<(FrameReader<TcpStream>, RawFd)>,
    queues: &[Mutex<VecDeque<(Pending, u64)>>],
    tallies: &mut [&mut Tally],
    sent: &AtomicU64,
    done: &AtomicBool,
    win: Window,
) -> Pass {
    let mut pass = Pass::default();
    let mut received = 0u64;
    let mut last_reply = 0u64;
    let mut frame = Vec::new();
    let (epoll, mut events) = match Epoll::new() {
        Ok(e) => (e, Events::with_capacity(readers.len())),
        Err(_) => return fail_all(pass, queues, tallies, done),
    };
    for (c, &(_, fd)) in readers.iter().enumerate() {
        if epoll.add(fd, c as u64, Interest::READ).is_err() {
            return fail_all(pass, queues, tallies, done);
        }
    }
    let mut idle_since = Instant::now();
    loop {
        if done.load(Ordering::SeqCst) && received == sent.load(Ordering::SeqCst) {
            break;
        }
        if epoll
            .wait(&mut events, Some(Duration::from_millis(10)))
            .is_err()
        {
            return fail_all(pass, queues, tallies, done);
        }
        if events.is_empty() {
            if received == sent.load(Ordering::SeqCst) {
                idle_since = Instant::now();
            } else if idle_since.elapsed() > REPLY_TIMEOUT {
                return fail_all(pass, queues, tallies, done);
            }
            continue;
        }
        idle_since = Instant::now();
        let ready: Vec<usize> = events.iter().map(|e| e.token as usize).collect();
        for c in ready {
            let (reader, _) = &mut readers[c];
            loop {
                match reader.read_frame(&mut frame) {
                    Ok(true) => {}
                    Ok(false) | Err(_) => return fail_all(pass, queues, tallies, done),
                }
                let t = win.now_ns();
                let popped = queues[c].lock().expect("queue lock poisoned").pop_front();
                let Some((p, due)) = popped else {
                    // A reply nobody asked for.
                    tallies[c].fail.error_reply += 1;
                    return fail_all(pass, queues, tallies, done);
                };
                received += 1;
                if tallies[c].check(&p, Response::decode(&frame)) && due >= win.warm_ns {
                    record(&mut pass, &p, t - due);
                    pass.completed += 1;
                    last_reply = last_reply.max(t);
                }
                if !reader.has_buffered_frame() {
                    break;
                }
            }
        }
    }
    // Completions divided by the window, or by the time the last of them
    // arrived if a backlog outlasted it: a shortfall against the offered
    // rate is a backlog, never hidden.
    pass.seconds = (last_reply.max(win.end_ns) - win.warm_ns) as f64 / 1e9;
    pass
}

fn fail_all(
    mut pass: Pass,
    queues: &[Mutex<VecDeque<(Pending, u64)>>],
    tallies: &mut [&mut Tally],
    done: &AtomicBool,
) -> Pass {
    done.store(true, Ordering::SeqCst);
    for (q, t) in queues.iter().zip(tallies.iter_mut()) {
        let mut q = q.lock().expect("queue lock poisoned");
        t.fail.conn_error += q.len() as u64;
        q.clear();
    }
    pass.seconds = 0.0;
    pass
}
