//! Exact latency percentiles.
//!
//! Every sample is kept (nanoseconds, `u32`), and a percentile is the
//! nearest-rank order statistic of all of them. A run of the hottest
//! workload keeps a few million samples, which is tens of megabytes; that is
//! the price of percentiles that can show a 1% change. Samples above
//! `u32::MAX` ns (4.29 s) saturate; the load generator fails an operation
//! long before that.

/// All samples of one latency distribution.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    samples: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record_ns(&mut self, ns: u64) {
        self.samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn merge(&mut self, other: &Recorder) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// The nearest-rank `q`-quantile in nanoseconds: the smallest sample
    /// with at least `q * n` samples at or below it. `None` when empty.
    /// Reorders the samples (selection, not a full sort).
    pub fn quantile_ns(&mut self, q: f64) -> Option<u64> {
        let n = self.samples.len();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        let (_, nth, _) = self.samples.select_nth_unstable(rank - 1);
        Some(u64::from(*nth))
    }

    /// [`Self::quantile_ns`] in microseconds; 0 when empty.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.quantile_ns(q).map_or(0.0, |ns| ns as f64 / 1e3)
    }

    pub fn samples(&self) -> &[u32] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest rank on a fully sorted copy: the reference definition.
    fn reference(samples: &[u32], q: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        u64::from(sorted[rank.min(sorted.len()) - 1])
    }

    #[test]
    fn matches_nearest_rank_on_sorted_samples() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 12_345] {
            let mut r = Recorder::new();
            for _ in 0..n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Long-tailed, with duplicates.
                r.record_ns((x % 1000) * (1 + (x >> 60)));
            }
            let copy = r.samples().to_vec();
            for q in [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(r.quantile_ns(q), Some(reference(&copy, q)), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn tells_apart_a_one_percent_shift() {
        let mut a = Recorder::new();
        let mut b = Recorder::new();
        for i in 0..10_000u64 {
            a.record_ns(50_000 + i);
            b.record_ns((50_000 + i) * 101 / 100);
        }
        let (pa, pb) = (a.quantile_ns(0.5).unwrap(), b.quantile_ns(0.5).unwrap());
        assert_eq!(pa, 54_999);
        assert_eq!(pb, 54_999 * 101 / 100);
    }

    #[test]
    fn empty_and_saturating() {
        let mut r = Recorder::new();
        assert_eq!(r.quantile_ns(0.5), None);
        assert_eq!(r.quantile_us(0.5), 0.0);
        r.record_ns(u64::MAX);
        assert_eq!(r.quantile_ns(1.0), Some(u64::from(u32::MAX)));
    }
}
