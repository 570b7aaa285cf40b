//! Prometheus text scraped from a daemon's `/metrics`, and histogram
//! deltas between two scrapes (every family is cumulative per process).

use std::net::SocketAddr;

/// One scrape: `(family, labels, value)` per sample line.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    samples: Vec<(String, String, f64)>,
}

impl Scrape {
    pub fn fetch(addr: SocketAddr) -> Result<Self, String> {
        let (status, body) = p4lru_obs::http::http_get(addr, "/metrics")
            .map_err(|e| format!("scrape {addr}: {e}"))?;
        if !status.contains("200") {
            return Err(format!("scrape {addr}: {status}"));
        }
        Ok(Self::parse(&body))
    }

    pub fn parse(text: &str) -> Self {
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                let value = value.parse().ok()?;
                let (name, labels) = match series.split_once('{') {
                    Some((n, rest)) => (n, rest.trim_end_matches('}')),
                    None => (series, ""),
                };
                Some((name.to_string(), labels.to_string(), value))
            })
            .collect();
        Self { samples }
    }

    fn matching<'a>(
        &'a self,
        name: &'a str,
        filter: &'a [(&str, &str)],
    ) -> impl Iterator<Item = &'a (String, String, f64)> {
        self.samples.iter().filter(move |(n, labels, _)| {
            n == name && filter.iter().all(|(k, v)| label(labels, k) == Some(v))
        })
    }

    pub fn max(&self, name: &str) -> f64 {
        self.matching(name, &[]).map(|s| s.2).fold(0.0, f64::max)
    }

    /// The distinct values of label `key` on family `name`, in order seen.
    pub fn label_values(&self, name: &str, key: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for (_, labels, _) in self.matching(name, &[]) {
            if let Some(v) = label(labels, key) {
                if !out.iter().any(|o| o == v) {
                    out.push(v.to_string());
                }
            }
        }
        out
    }

    /// Cumulative `(le, count)` buckets of histogram `base`, summed over
    /// the series that match `filter`, sorted by bound (`+Inf` last).
    fn buckets(&self, base: &str, filter: &[(&str, &str)]) -> Vec<(f64, f64)> {
        let name = format!("{base}_bucket");
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (_, labels, v) in self.matching(&name, filter) {
            let Some(le) = label(labels, "le") else {
                continue;
            };
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::NAN)
            };
            match out.iter_mut().find(|(b, _)| *b == le) {
                Some((_, c)) => *c += v,
                None => out.push((le, *v)),
            }
        }
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

fn label<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
    labels.split(',').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key).then(|| v.trim_matches('"'))
    })
}

/// The `q`-quantile, in microseconds, of the samples a histogram gained
/// between two scrapes, interpolated linearly inside the bucket that holds
/// the rank (Prometheus `histogram_quantile`). 0 when nothing was recorded.
pub fn hist_quantile_us(
    before: &Scrape,
    after: &Scrape,
    base: &str,
    filter: &[(&str, &str)],
    q: f64,
) -> f64 {
    let b = before.buckets(base, filter);
    let a = after.buckets(base, filter);
    let gained: Vec<(f64, f64)> = a
        .iter()
        .map(|&(le, c)| {
            let prior = b.iter().find(|(l, _)| *l == le).map_or(0.0, |x| x.1);
            (le, c - prior)
        })
        .collect();
    let total = gained.last().map_or(0.0, |x| x.1);
    if total <= 0.0 {
        return 0.0;
    }
    let rank = (q * total).ceil().max(1.0);
    let (mut lower, mut below) = (0.0, 0.0);
    for &(le, cum) in &gained {
        if cum >= rank {
            if le.is_infinite() {
                return lower * 1e6;
            }
            let within = (rank - below) / (cum - below).max(1.0);
            return (lower + (le - lower) * within) * 1e6;
        }
        lower = le;
        below = cum;
    }
    lower * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filters_and_histogram_deltas() {
        let before = Scrape::parse(
            "# TYPE x counter\nx{shard=\"0\"} 5\nx{shard=\"1\"} 7\n\
             h_bucket{stage=\"a\",le=\"0.000001\"} 0\nh_bucket{stage=\"a\",le=\"0.000002\"} 10\n\
             h_bucket{stage=\"a\",le=\"+Inf\"} 10\n",
        );
        let after = Scrape::parse(
            "x{shard=\"0\"} 15\nx{shard=\"1\"} 8\n\
             h_bucket{stage=\"a\",le=\"0.000001\"} 50\nh_bucket{stage=\"a\",le=\"0.000002\"} 110\n\
             h_bucket{stage=\"a\",le=\"+Inf\"} 110\n",
        );
        assert_eq!(after.max("x"), 15.0);
        assert_eq!(after.label_values("h_bucket", "stage"), vec!["a"]);
        // 100 new samples: 50 in (0,1us], 50 in (1us,2us].
        let p50 = hist_quantile_us(&before, &after, "h", &[("stage", "a")], 0.5);
        assert!((p50 - 1.0).abs() < 1e-9, "{p50}");
        let p99 = hist_quantile_us(&before, &after, "h", &[("stage", "a")], 0.99);
        assert!((p99 - 1.98).abs() < 1e-9, "{p99}");
        assert_eq!(hist_quantile_us(&after, &after, "h", &[], 0.5), 0.0);
    }
}
