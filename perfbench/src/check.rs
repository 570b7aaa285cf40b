//! Verification of every reply, and the acknowledged-write audit.
//!
//! Each key is pinned to one connection ([`crate::workload::owner`]), so the
//! value a GET must return is exactly known when it is sent: the last value
//! that connection wrote to the key, or the preloaded record. A [`Model`]
//! (sender side) remembers what was written; a [`Tally`] (receiver side)
//! checks each reply and remembers which writes were acknowledged.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;

use p4lru_server::{Client, Response};

use crate::workload::{expected, value_for, SET_BIT};

/// Failures by kind. Every one counts against `failed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    /// ERR replies, undecodable replies, or a reply of the wrong kind.
    pub error_reply: u64,
    /// Requests lost to a dropped connection or a reply timeout.
    pub conn_error: u64,
    /// NOT_FOUND for a key that was preloaded or written.
    pub not_found: u64,
    /// A GET whose value is not the expected one.
    pub wrong_value: u64,
    /// An acknowledged SET whose value was missing after the restart.
    pub lost_ack: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.error_reply + self.conn_error + self.not_found + self.wrong_value + self.lost_ack
    }

    pub fn add(&mut self, o: &Failures) {
        self.error_reply += o.error_reply;
        self.conn_error += o.conn_error;
        self.not_found += o.not_found;
        self.wrong_value += o.wrong_value;
        self.lost_ack += o.lost_ack;
    }
}

/// Requests attempted and failures, summed over a run.
#[derive(Debug, Default)]
pub struct Account {
    pub attempted: u64,
    pub fail: Failures,
}

/// One request as sent: the op word and, for a GET, the nonce of the value
/// it must read (`None`: the preloaded record); for a SET, the nonce it
/// writes.
#[derive(Clone, Copy, Debug)]
pub struct Pending {
    pub op: u64,
    pub nonce: Option<u64>,
}

impl Pending {
    pub fn key(&self) -> u64 {
        self.op & !SET_BIT
    }

    pub fn is_set(&self) -> bool {
        self.op & SET_BIT != 0
    }
}

/// What one connection has written, in send order.
#[derive(Debug)]
pub struct Model {
    tag: u64,
    next: u64,
    written: HashMap<u64, u64>,
}

impl Model {
    /// `tag` makes this connection's nonces unique among all writers.
    pub fn new(tag: u64) -> Self {
        Self {
            tag: tag << 48,
            next: 0,
            written: HashMap::new(),
        }
    }

    /// Registers a request about to be sent.
    pub fn prepare(&mut self, op: u64) -> Pending {
        let key = op & !SET_BIT;
        let nonce = if op & SET_BIT != 0 {
            self.next += 1;
            let n = self.tag | self.next;
            self.written.insert(key, n);
            Some(n)
        } else {
            self.written.get(&key).copied()
        };
        Pending { op, nonce }
    }
}

/// Encodes a prepared request into `buf` (a GET, or a SET of its value).
pub fn encode(p: &Pending, buf: &mut Vec<u8>) {
    match p.nonce {
        Some(n) if p.is_set() => {
            p4lru_server::protocol::encode_set(p.key(), &value_for(p.key(), n), buf)
        }
        _ => p4lru_server::protocol::encode_get(p.key(), buf),
    }
}

/// Reply checking and acknowledged writes for one connection.
#[derive(Debug, Default)]
pub struct Tally {
    pub acked: HashMap<u64, u64>,
    pub fail: Failures,
}

impl Tally {
    /// Checks one decoded reply against its request. True when correct.
    pub fn check(
        &mut self,
        p: &Pending,
        reply: Result<Response, p4lru_server::protocol::ProtocolError>,
    ) -> bool {
        match (p.is_set(), reply) {
            (true, Ok(Response::Ok)) => {
                self.acked
                    .insert(p.key(), p.nonce.expect("a SET carries its nonce"));
                true
            }
            (false, Ok(Response::Value(v))) if v[..] == expected(p.key(), p.nonce)[..] => true,
            (false, Ok(Response::Value(_))) => {
                self.fail.wrong_value += 1;
                false
            }
            (false, Ok(Response::NotFound)) => {
                self.fail.not_found += 1;
                false
            }
            _ => {
                self.fail.error_reply += 1;
                false
            }
        }
    }
}

/// Reads back every acknowledged write through `addr` and counts the ones
/// whose value is not the last acknowledged one. Returns reads attempted.
pub fn audit(addr: SocketAddr, acked: &HashMap<u64, u64>, fail: &mut Failures) -> io::Result<u64> {
    let mut keys: Vec<(u64, u64)> = acked.iter().map(|(&k, &n)| (k, n)).collect();
    keys.sort_unstable();
    let total = keys.len() as u64;
    let mut client = Client::connect_timeout(&addr, crate::load::REPLY_TIMEOUT)?;
    let mut checked = 0u64;
    'chunks: for chunk in keys.chunks(64) {
        let sent = chunk
            .iter()
            .try_for_each(|&(key, _)| client.send_get(key))
            .and_then(|()| client.flush());
        if sent.is_err() {
            break;
        }
        for &(key, nonce) in chunk {
            match client.recv() {
                Ok(Response::Value(v)) if v[..] == value_for(key, nonce)[..] => {}
                Ok(Response::Value(_)) | Ok(Response::NotFound) => fail.lost_ack += 1,
                Ok(_) => fail.error_reply += 1,
                Err(_) => break 'chunks,
            }
            checked += 1;
        }
    }
    // Reads lost to a dropped connection were never verified.
    fail.conn_error += total - checked;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::sync::Mutex;
    use std::thread::JoinHandle;
    use std::time::Duration;

    use p4lru_kvstore::db::record_for;
    use p4lru_server::{FrameReader, FrameWriter, Request, Response};

    use super::*;
    use crate::load::{self, ConnState, Window};
    use crate::workload::{self, KeyDist, WORKLOADS};

    #[derive(Clone, Copy)]
    enum Fault {
        None,
        /// GETs of this key return a value with one byte flipped.
        CorruptGet(u64),
        /// SETs of this key are acknowledged and thrown away.
        DropSet(u64),
    }

    /// A scripted stand-in for serverd: a correct in-memory store over the
    /// preloaded records, except for one injected fault. Serves `conns`
    /// connections concurrently, then exits.
    fn fake_server(items: u64, conns: usize, fault: Fault) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound");
        let handle = std::thread::spawn(move || {
            let store = Mutex::new(HashMap::<u64, Vec<u8>>::new());
            std::thread::scope(|s| {
                for _ in 0..conns {
                    let (stream, _) = listener.accept().expect("accept");
                    let store = &store;
                    s.spawn(move || serve(stream, items, fault, store));
                }
            });
        });
        (addr, handle)
    }

    fn serve(stream: TcpStream, items: u64, fault: Fault, store: &Mutex<HashMap<u64, Vec<u8>>>) {
        let mut reader = FrameReader::new(stream.try_clone().expect("clone"));
        let mut writer = FrameWriter::new(stream);
        let (mut frame, mut out) = (Vec::new(), Vec::new());
        while let Ok(true) = reader.read_frame(&mut frame) {
            let reply = match Request::decode(&frame) {
                Ok(Request::Get { key }) => {
                    let stored = store.lock().unwrap().get(&key).cloned();
                    match stored.or_else(|| (key < items).then(|| record_for(key).to_vec())) {
                        Some(mut v) => {
                            if let Fault::CorruptGet(k) = fault {
                                if k == key {
                                    v[20] ^= 1;
                                }
                            }
                            Response::Value(v)
                        }
                        None => Response::NotFound,
                    }
                }
                Ok(Request::Set { key, value }) => {
                    if !matches!(fault, Fault::DropSet(k) if k == key) {
                        store.lock().unwrap().insert(key, value);
                    }
                    Response::Ok
                }
                _ => Response::Err("unsupported".into()),
            };
            reply.encode(&mut out);
            writer.write_frame(&out).expect("write");
            if !reader.has_buffered_frame() && writer.flush().is_err() {
                return;
            }
        }
    }

    fn run_closed(fault: Fault) -> Failures {
        let wl = &WORKLOADS[0];
        let dist = KeyDist::new(wl.items, wl.zipf_s);
        let streams: Vec<Vec<u64>> = (0..2)
            .map(|c| workload::conn_stream(wl, &dist, 3, c, 10_000))
            .collect();
        let fault = match fault {
            Fault::CorruptGet(_) => Fault::CorruptGet(
                streams[0]
                    .iter()
                    .find(|&&op| op & SET_BIT == 0)
                    .copied()
                    .unwrap(),
            ),
            f => f,
        };
        let (addr, server) = fake_server(wl.items, 2, fault);
        let mut states = vec![ConnState::new(1), ConnState::new(2)];
        let win = Window::starting_now(Duration::ZERO, Duration::from_millis(200));
        let pass = load::closed_loop(addr, &streams, 4, win, &mut states, 0);
        drop(pass);
        server.join().expect("fake server");
        let mut fail = Failures::default();
        for s in &states {
            fail.add(&s.tally.fail);
        }
        fail
    }

    #[test]
    fn a_correct_server_passes_every_check() {
        assert_eq!(run_closed(Fault::None).total(), 0);
    }

    #[test]
    fn checker_flags_a_wrong_value() {
        let fail = run_closed(Fault::CorruptGet(0));
        assert!(fail.wrong_value >= 1, "{fail:?}");
        assert_eq!(fail.total(), fail.wrong_value, "{fail:?}");
    }

    #[test]
    fn audit_flags_a_missing_acked_key() {
        let (addr, server) = fake_server(100, 2, Fault::DropSet(7));
        // Write keys 5..10 through the checker, then audit them.
        let mut model = Model::new(1);
        let mut tally = Tally::default();
        let mut client = Client::connect(addr).expect("connect");
        for key in 5..10u64 {
            let p = model.prepare(key | SET_BIT);
            let value = value_for(key, p.nonce.unwrap());
            client.set(key, &value).expect("set");
            assert!(tally.check(&p, Ok(Response::Ok)));
        }
        drop(client);
        let mut fail = Failures::default();
        assert_eq!(audit(addr, &tally.acked, &mut fail).expect("audit"), 5);
        server.join().expect("fake server");
        assert_eq!(
            fail,
            Failures {
                lost_ack: 1,
                ..Failures::default()
            }
        );
    }

    #[test]
    fn open_loop_paces_and_verifies() {
        let wl = &WORKLOADS[1];
        let dist = KeyDist::new(1000, wl.zipf_s);
        let ops: Vec<u64> = workload::global_stream(wl, &dist, 5, 2_000);
        let (addr, server) = fake_server(wl.items, 2, Fault::None);
        let mut states = vec![ConnState::new(1), ConnState::new(2)];
        let win = Window::starting_now(Duration::from_millis(100), Duration::from_millis(400));
        let pass = load::open_loop(addr, &ops, 2_000, win, &mut states);
        let (sent, rate) = (pass.sent, pass.throughput());
        drop(pass);
        server.join().expect("fake server");
        assert_eq!(sent, 1_000);
        assert!((rate - 2_000.0).abs() < 100.0, "{rate}");
        assert!(states.iter().all(|s| s.tally.fail.total() == 0));
    }
}
