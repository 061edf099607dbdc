//! Exact order statistics for the timed windows.

/// Exact nearest-rank percentile of an ascending slice: the value at
/// 1-based rank `ceil(q * n)` (rank 1 when that rounds to 0). `None`
/// for an empty slice. The reference the recorder is tested against.
#[cfg(test)]
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len() as u64, q) as usize - 1])
}

/// 1-based nearest rank of quantile `q` among `n >= 1` samples.
fn rank(n: u64, q: f64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Median of a handful of per-window figures (mean of the middle two
/// when the count is even). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Exact nearest-rank quantile of per-window figures, in any order.
/// `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len() as u64, q) as usize - 1])
}

/// Latencies below this many nanoseconds are counted in 1 ns bins; the
/// rest are kept verbatim. 2^20 ns ≈ 1 ms covers every loopback round
/// trip short of a scheduling stall.
const DIRECT_NS: usize = 1 << 20;

/// Every latency of a run, in constant memory, with percentiles exact
/// to the nanosecond: a counting sort at the clock's own resolution, so
/// `percentile` returns what sorting the raw samples and taking the
/// nearest rank would (a unit test holds it to that). A raw sample
/// vector would grow with throughput — 100 MB on the cache-hit workload
/// — and with it the driver's own `rss_mb`.
pub struct LatencyRecorder {
    bins: Vec<u32>,
    overflow: Vec<u64>,
    count: u64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyRecorder {
    pub fn new() -> Self {
        LatencyRecorder {
            bins: vec![0; DIRECT_NS],
            overflow: Vec::new(),
            count: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.bins.get_mut(ns as usize) {
            Some(bin) => *bin += 1,
            None => self.overflow.push(ns),
        }
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact nearest-rank percentile in nanoseconds; `None` when empty.
    pub fn percentile(&mut self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let mut remaining = rank(self.count, q);
        for (ns, &c) in self.bins.iter().enumerate() {
            if remaining <= u64::from(c) {
                return Some(ns as u64);
            }
            remaining -= u64::from(c);
        }
        self.overflow.sort_unstable();
        Some(self.overflow[remaining as usize - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_graph::rng::Xorshift64;

    #[test]
    fn nearest_rank_on_the_small_cases() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[3, 9], 0.5), Some(3));
        assert_eq!(percentile(&[3, 9], 0.51), Some(9));
        assert_eq!(percentile(&[3, 9], 0.0), Some(3));
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&thousand, 0.5), Some(500));
        assert_eq!(percentile(&thousand, 0.99), Some(990));
        assert_eq!(percentile(&thousand, 0.999), Some(999));
        assert_eq!(percentile(&thousand, 1.0), Some(1000));
    }

    #[test]
    fn recorder_agrees_with_the_sorted_vector() {
        let mut rec = LatencyRecorder::new();
        assert_eq!(rec.percentile(0.5), None);
        let mut rng = Xorshift64::seed_from_u64(11);
        for n in [1usize, 2, 1000] {
            let mut rec = LatencyRecorder::new();
            let mut raw = Vec::new();
            for i in 0..n {
                // Mostly in range, one in ten far beyond the direct bins.
                let ns = if i % 10 == 9 {
                    DIRECT_NS as u64 + rng.gen_u64_below(1 << 30)
                } else {
                    rng.gen_u64_below(50_000)
                };
                rec.record(ns);
                raw.push(ns);
            }
            raw.sort_unstable();
            assert_eq!(rec.count(), n as u64);
            for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(rec.percentile(q), percentile(&raw, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn median_of_windows() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quantile_of_windows_is_the_nearest_rank() {
        assert_eq!(quantile(&[], 0.9), None);
        assert_eq!(quantile(&[4.0], 0.9), Some(4.0));
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&ten, 0.9), Some(9.0));
        assert_eq!(quantile(&ten, 0.5), Some(5.0));
        assert_eq!(quantile(&ten, 1.0), Some(10.0));
    }
}
