//! In-process replays: each layer's public functions timed on the
//! workload's own request stream, with nothing else on the path.
//!
//! Each replay runs `REPS` times; the reported figure is the median time
//! per call.

use std::hint::black_box;
use std::time::Instant;

use p4lru_core::array::P4Lru3Array;
use p4lru_kvstore::db::record_for;
use p4lru_kvstore::{Addr48, Database};
use p4lru_obs::AtomicHistogram;
use p4lru_server::protocol::{encode_value, write_frame};
use p4lru_server::{shard_of, FrameReader, FrameWriter, Request, Response};
use p4lru_tier::{SwitchTier, SwitchTierConfig};

use crate::check::{encode, Model};
use crate::workload::{expected, Workload, SET_BIT};
use crate::{median, metric, Metric};

const REPS: usize = 5;

/// serverd's default cache hash seed, and its per-shard derivation.
const SERVER_SEED: u64 = 0x9412_C0DE;

fn cache_seed(shard: usize) -> u64 {
    SERVER_SEED ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Median over `REPS` runs of `f`'s wall time divided by `per`, in ns.
fn time_per<F: FnMut()>(per: usize, mut f: F) -> f64 {
    let runs = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / per.max(1) as f64
        })
        .collect();
    median(runs)
}

fn overwrite(slot: &mut Addr48, new: Addr48) {
    *slot = new;
}

/// Replays `ops` (the workload's request words) through each layer and
/// `latencies_ns` (the workload's own client latencies) through the
/// histogram the server records with.
pub fn replay(wl: &Workload, ops: &[u64], latencies_ns: &[u32]) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut model = Model::new(0xEE);
    let pending: Vec<_> = ops.iter().map(|&op| model.prepare(op)).collect();
    let depth = 32;

    // protocol: the server's side of every hop. Requests are read and
    // decoded; replies encoded and written, one flush per `depth`.
    let mut wire = Vec::new();
    let mut payload = Vec::new();
    for p in &pending {
        encode(p, &mut payload);
        write_frame(&mut wire, &payload).expect("writing to a Vec cannot fail");
    }
    let decode_ns = time_per(pending.len(), || {
        let mut reader = FrameReader::new(&wire[..]);
        let mut frame = Vec::new();
        while reader
            .read_frame(&mut frame)
            .expect("frames were just encoded")
        {
            black_box(Request::decode(&frame).expect("frames were just encoded"));
        }
    });
    let encode_ns = time_per(pending.len(), || {
        let mut writer = FrameWriter::new(Vec::with_capacity(1 << 16));
        let mut buf = Vec::new();
        for (i, p) in pending.iter().enumerate() {
            if p.is_set() {
                Response::Ok.encode(&mut buf);
            } else {
                encode_value(&expected(p.key(), p.nonce), &mut buf);
            }
            writer
                .write_frame(&buf)
                .expect("writing to a Vec cannot fail");
            if i % depth == depth - 1 {
                writer.flush().expect("writing to a Vec cannot fail");
                writer.inner_mut().clear();
            }
        }
        black_box(writer.pending());
    });
    out.push(metric("protocol.encode_ns", encode_ns, "ns"));
    out.push(metric("protocol.decode_ns", decode_ns, "ns"));

    // core: the GET keys through per-shard P4LRU3 arrays of the server's
    // size; a miss installs the key, as the shard does.
    let gets: Vec<u64> = ops
        .iter()
        .filter(|&&op| op & SET_BIT == 0)
        .copied()
        .collect();
    let mut missed = Vec::new();
    let update_ns = time_per(gets.len(), || {
        let mut arrays: Vec<P4Lru3Array<u64, Addr48>> = (0..wl.shards)
            .map(|s| P4Lru3Array::with_seed(wl.units, cache_seed(s)))
            .collect();
        missed.clear();
        for &key in &gets {
            let cache = &mut arrays[shard_of(key, wl.shards)];
            match cache.get(&key).copied() {
                Some(addr) => {
                    black_box(cache.update(key, addr, overwrite));
                }
                None => {
                    missed.push(key);
                    black_box(cache.update(key, Addr48::new(key), overwrite));
                }
            }
        }
    });
    out.push(metric("core.update_ns", update_ns, "ns"));

    // kvstore: the keys the arrays missed, looked up in a B+Tree of the
    // workload's size.
    let db = Database::populate(wl.items);
    let lookup_ns = time_per(missed.len(), || {
        for &key in &missed {
            black_box(db.lookup_by_key(key));
        }
    });
    drop(db);
    out.push(metric("kvstore.lookup_ns", lookup_ns, "ns"));

    // tier: the switch data plane at tierd's default size: GETs look up
    // (and admit on a miss), SETs invalidate.
    let tier_ns = time_per(ops.len(), || {
        let mut tier = SwitchTier::new(&SwitchTierConfig::default());
        for &op in ops {
            let key = op & !SET_BIT;
            if op & SET_BIT != 0 {
                black_box(tier.invalidate(key));
            } else if black_box(tier.lookup(key)).is_none() {
                let epoch = tier.epoch();
                black_box(tier.admit(key, record_for(key), epoch));
            }
        }
    });
    out.push(metric("tier.lookup_ns", tier_ns, "ns"));

    // obs: the histogram every traced server request records into.
    let record_ns = time_per(latencies_ns.len(), || {
        let hist = AtomicHistogram::new();
        for &ns in latencies_ns {
            hist.record_ns(u64::from(ns));
        }
        black_box(hist.count());
    });
    out.push(metric("obs.record_ns", record_ns, "ns"));
    out
}
