//! The three workloads and the seeded operation streams they send.
//!
//! Every size and rate here is an absolute constant, never derived from a
//! capacity measured at run time, so two commits are always offered the
//! same load. The same values are listed in `README.md`.

use p4lru_kvstore::db::record_for;
use p4lru_kvstore::VALUE_SIZE;

/// How the load generator paces requests.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Each connection keeps `depth` requests in flight.
    Closed { depth: usize },
    /// Requests are due at `rate` per second in total, whatever the replies
    /// do; latency counts from the instant a request was due.
    Open { rate: u64 },
}

/// Which daemons stand between the load generator and serverd.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chain {
    /// The client talks to serverd.
    Direct,
    /// client → p4lru_tierd → p4lru_routerd (one-node cluster) → serverd.
    TierRouter,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Pre-populated keys `0..items`; every request draws from them.
    pub items: u64,
    pub shards: usize,
    /// Front-cache units per shard (3 entries each).
    pub units: usize,
    /// WAL + snapshots under a fresh data dir, `--sync always`.
    pub durable: bool,
    pub get_frac: f64,
    pub zipf_s: f64,
    pub conns: usize,
    pub pace: Pace,
    pub chain: Chain,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "hot_read_pipelined",
        items: 100_000,
        shards: 4,
        units: 4096,
        durable: false,
        get_frac: 0.95,
        zipf_s: 0.9,
        conns: 2,
        pace: Pace::Closed { depth: 32 },
        chain: Chain::Direct,
    },
    Workload {
        name: "durable_write_open",
        items: 1_000_000,
        shards: 2,
        units: 4096,
        durable: true,
        get_frac: 0.5,
        zipf_s: 0.5,
        conns: 2,
        pace: Pace::Open { rate: 10_000 },
        chain: Chain::Direct,
    },
    Workload {
        name: "proxy_chain",
        items: 100_000,
        shards: 4,
        units: 4096,
        durable: false,
        get_frac: 0.95,
        zipf_s: 0.9,
        conns: 2,
        pace: Pace::Closed { depth: 32 },
        chain: Chain::TierRouter,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Load before the measured window, so caches fill and connections settle.
pub const WARMUP_S: f64 = 0.5;

/// A request is one word: the key, with the top bit set for a SET.
pub const SET_BIT: u64 = 1 << 63;

/// Maps Zipf rank `1..=items` to a key. Multiplying by a prime coprime with
/// the item count is a bijection on `0..items`, so the hot ranks are spread
/// over the key space (and over B+Tree leaves) the way YCSB scrambles them.
const RANK_MULT: u128 = 2_654_435_761;

/// splitmix64: a small, fast, seedable generator. The benchmark draws its
/// inputs with its own generator and Zipf sampler rather than
/// `p4lru-traffic`'s, so a change to that crate never changes what the
/// benchmark sends.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over keys `0..items` by inverse CDF: exact, and one binary search
/// per draw.
pub struct KeyDist {
    cdf: Vec<f64>,
    items: u64,
}

impl KeyDist {
    pub fn new(items: u64, s: f64) -> Self {
        assert!(items > 0, "a workload needs keys");
        let mut cdf = Vec::with_capacity(items as usize);
        let mut total = 0.0;
        for rank in 1..=items {
            total += (rank as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf, items }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u64;
        ((u128::from(rank + 1) * RANK_MULT) % u128::from(self.items)) as u64
    }
}

/// The connection that carries every request for `key`. Pinning each key to
/// one connection makes the expected reply of every GET exact: one
/// connection's requests to one key run in order.
pub fn owner(key: u64, conns: usize) -> usize {
    (key % conns as u64) as usize
}

fn draw(wl: &Workload, dist: &KeyDist, rng: &mut Rng) -> u64 {
    let key = dist.sample(rng);
    if rng.next_f64() < wl.get_frac {
        key
    } else {
        key | SET_BIT
    }
}

/// Connection `conn`'s closed-loop stream: the workload's key distribution
/// conditioned on the keys `conn` owns. The union over connections is the
/// workload's distribution exactly.
pub fn conn_stream(wl: &Workload, dist: &KeyDist, seed: u64, conn: usize, len: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ (conn as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let op = draw(wl, dist, &mut rng);
        if owner(op & !SET_BIT, wl.conns) == conn {
            out.push(op);
        }
    }
    out
}

/// The open-loop stream: one schedule for all connections; each request
/// goes to its key's owner.
pub fn global_stream(wl: &Workload, dist: &KeyDist, seed: u64, len: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x5851_F42D_4C95_7F2D);
    (0..len).map(|_| draw(wl, dist, &mut rng)).collect()
}

/// The value a SET writes: the key, a nonce unique to this write, zeros.
/// Preloaded records (`record_for`) have the same layout with a hash of the
/// key as the nonce, so one comparison checks either.
pub fn value_for(key: u64, nonce: u64) -> [u8; VALUE_SIZE] {
    let mut v = [0u8; VALUE_SIZE];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&nonce.to_le_bytes());
    v
}

/// What a GET of `key` must return, given the nonce of the last SET this
/// benchmark sent for it (`None`: never written, so the preloaded record).
pub fn expected(key: u64, nonce: Option<u64>) -> [u8; VALUE_SIZE] {
    match nonce {
        Some(n) => value_for(key, n),
        None => record_for(key),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let wl = &WORKLOADS[0];
        let dist = KeyDist::new(wl.items, wl.zipf_s);
        let a = conn_stream(wl, &dist, 7, 1, 1000);
        assert_eq!(a, conn_stream(wl, &dist, 7, 1, 1000));
        assert_ne!(a, conn_stream(wl, &dist, 8, 1, 1000));
        assert!(a.iter().all(|op| owner(op & !SET_BIT, wl.conns) == 1));
        assert!(a.iter().all(|op| (op & !SET_BIT) < wl.items));
    }

    #[test]
    fn mix_and_skew_match_the_workload() {
        let wl = &WORKLOADS[0];
        let dist = KeyDist::new(wl.items, wl.zipf_s);
        let ops = global_stream(wl, &dist, 1, 200_000);
        let sets = ops.iter().filter(|&&op| op & SET_BIT != 0).count();
        let frac = sets as f64 / ops.len() as f64;
        assert!((frac - 0.05).abs() < 0.005, "set fraction {frac}");
        // Rank 1 maps to one fixed key and is the most frequent.
        let hot = (RANK_MULT % u128::from(wl.items)) as u64;
        let hot_count = ops.iter().filter(|&&op| op & !SET_BIT == hot).count();
        let other = ops
            .iter()
            .filter(|&&op| op & !SET_BIT == (hot + 1) % wl.items)
            .count();
        assert!(hot_count > 10 * other.max(1), "{hot_count} vs {other}");
    }

    #[test]
    fn rank_mapping_is_a_bijection() {
        for items in [100_000u64, 1_000_000] {
            let mut seen = vec![false; items as usize];
            for rank in 1..=items {
                let k = ((u128::from(rank) * RANK_MULT) % u128::from(items)) as usize;
                assert!(!seen[k], "collision at rank {rank}");
                seen[k] = true;
            }
        }
    }
}
