//! Serving metrics: lock-free counters plus a fixed-bucket latency
//! histogram good enough for p50/p95/p99 under concurrent load.
//!
//! Everything is `AtomicU64` with relaxed ordering — the counters are
//! statistics, not synchronization. The histogram buckets latencies by
//! power of two nanoseconds (bucket `i` covers `[2^(i-1), 2^i)` ns), so
//! recording is a `leading_zeros` and one atomic add, and percentile
//! estimates are exact to within a factor of two, which is all a serving
//! dashboard needs.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

const BUCKETS: usize = 64;

/// Power-of-two-bucketed latency histogram.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    fn bucket_of(nanos: u64) -> usize {
        // 0 ns -> bucket 0; otherwise floor(log2) + 1, saturating.
        if nanos == 0 {
            0
        } else {
            ((64 - nanos.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Upper bound (exclusive) of a bucket in nanoseconds.
    fn bucket_bound(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Records one observation.
    pub fn record(&self, nanos: u64) {
        self.buckets[Self::bucket_of(nanos)].fetch_add(1, Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    /// Upper bound (in ns) of the bucket containing the `q`-quantile,
    /// for `q` in `[0, 1]`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // Nearest-rank: the ceil(q * n)-th observation. `q * n` is computed
        // in f64, which can land a hair above the exact product (e.g.
        // 0.07 * 100 = 7.000000000000001) and make `ceil` overshoot by a
        // whole rank; snap back to the nearest integer when we are within
        // f64 noise of it.
        let scaled = q.clamp(0.0, 1.0) * total as f64;
        let rounded = scaled.round();
        let rank = if (scaled - rounded).abs() < 1e-9 {
            rounded
        } else {
            scaled.ceil()
        };
        let rank = (rank as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(BUCKETS - 1)
    }
}

/// Counters for one engine instance. Shared by reference between the
/// workers and whoever renders snapshots.
#[derive(Default)]
pub struct Metrics {
    /// Queries answered via the single-query (cached) path.
    pub single_queries: AtomicU64,
    /// Batch calls served.
    pub batches: AtomicU64,
    /// Queries answered inside batches.
    pub batch_queries: AtomicU64,
    /// Single-query cache hits.
    pub cache_hits: AtomicU64,
    /// Single-query cache misses.
    pub cache_misses: AtomicU64,
    /// Label decode/store errors observed while serving.
    pub decode_errors: AtomicU64,
    /// TCP connections accepted and served (hl-net daemon).
    pub connections_opened: AtomicU64,
    /// TCP connections turned away at the connection cap.
    pub connections_rejected: AtomicU64,
    /// Request frames handled over the network.
    pub net_requests: AtomicU64,
    /// Error frames sent over the network.
    pub net_errors: AtomicU64,
    /// Per-query latency across both paths.
    pub latency: LatencyHistogram,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Queries served over both paths.
    pub fn total_queries(&self) -> u64 {
        self.single_queries.load(Relaxed) + self.batch_queries.load(Relaxed)
    }

    /// Takes a consistent-enough snapshot for rendering. (Counters are
    /// read individually; exact cross-counter consistency is not needed.)
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            single_queries: self.single_queries.load(Relaxed),
            batches: self.batches.load(Relaxed),
            batch_queries: self.batch_queries.load(Relaxed),
            cache_hits: self.cache_hits.load(Relaxed),
            cache_misses: self.cache_misses.load(Relaxed),
            decode_errors: self.decode_errors.load(Relaxed),
            connections_opened: self.connections_opened.load(Relaxed),
            connections_rejected: self.connections_rejected.load(Relaxed),
            net_requests: self.net_requests.load(Relaxed),
            net_errors: self.net_errors.load(Relaxed),
            latency_count: self.latency.count(),
            p50_ns: self.latency.quantile(0.50),
            p95_ns: self.latency.quantile(0.95),
            p99_ns: self.latency.quantile(0.99),
        }
    }
}

/// A point-in-time copy of [`Metrics`], renderable with `Display`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub single_queries: u64,
    pub batches: u64,
    pub batch_queries: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub decode_errors: u64,
    pub connections_opened: u64,
    pub connections_rejected: u64,
    pub net_requests: u64,
    pub net_errors: u64,
    pub latency_count: u64,
    /// Bucket upper bounds: latency percentiles are exact to a factor of 2.
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

/// Writes the positional form of [`MetricsSnapshot`] from one list of its
/// fields, so the word order exists once; a field missing from the list,
/// or listed twice, does not compile.
macro_rules! word_order {
    ($($field:ident),*) => {
        /// The snapshot as fixed-order words — what HLNP ships.
        pub fn to_words(&self) -> [u64; 14] {
            [$(self.$field),*]
        }

        /// The snapshot those [`to_words`](Self::to_words) words came from.
        pub fn from_words([$($field),*]: [u64; 14]) -> Self {
            MetricsSnapshot { $($field),* }
        }
    };
}

impl MetricsSnapshot {
    word_order!(
        single_queries,
        batches,
        batch_queries,
        cache_hits,
        cache_misses,
        decode_errors,
        connections_opened,
        connections_rejected,
        net_requests,
        net_errors,
        latency_count,
        p50_ns,
        p95_ns,
        p99_ns
    );

    /// Queries served over both paths.
    pub fn total_queries(&self) -> u64 {
        self.single_queries + self.batch_queries
    }

    /// Cache hit rate over the single-query path, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let denom = self.cache_hits + self.cache_misses;
        if denom == 0 {
            0.0
        } else {
            self.cache_hits as f64 / denom as f64
        }
    }

    /// Renders the snapshot as the multi-line text block shown by the
    /// `hubserve` CLI (no trailing newline). The network
    /// lines only appear once the daemon has seen traffic, so in-process
    /// reports stay unchanged.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // Writing to a String cannot fail; errors are discarded.
        let _ = writeln!(out, "queries served      {}", self.total_queries());
        let _ = writeln!(out, "  single            {}", self.single_queries);
        let _ = writeln!(
            out,
            "  batched           {} (in {} batches)",
            self.batch_queries, self.batches
        );
        let _ = writeln!(
            out,
            "cache               {} hits / {} misses ({:.1}% hit rate)",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.hit_rate()
        );
        let _ = writeln!(out, "decode errors       {}", self.decode_errors);
        if self.connections_opened + self.connections_rejected + self.net_requests > 0 {
            let _ = writeln!(
                out,
                "connections         {} served / {} rejected",
                self.connections_opened, self.connections_rejected
            );
            let _ = writeln!(
                out,
                "net requests        {} ({} error frames)",
                self.net_requests, self.net_errors
            );
        }
        let _ = writeln!(out, "latency (n={})", self.latency_count);
        let _ = writeln!(out, "  p50  < {} ns", self.p50_ns);
        let _ = writeln!(out, "  p95  < {} ns", self.p95_ns);
        let _ = write!(out, "  p99  < {} ns", self.p99_ns);
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let h = LatencyHistogram::new();
        // 90 fast observations (~100 ns) and 10 slow (~1 ms).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 128); // 100 ns lands in (64, 128]
        assert!(h.quantile(0.95) >= 1_000_000 / 2);
        assert!(h.quantile(0.99) >= 1_000_000 / 2);
    }

    #[test]
    fn quantile_rank_is_exact_despite_f64_rounding() {
        // 7 observations in bucket 1 and 93 in a higher bucket. The 7%
        // quantile is the 7th observation — still in bucket 1. In f64,
        // 0.07 * 100 = 7.000000000000001, so a bare `ceil` asks for rank
        // 8 and reports the slow bucket instead.
        let h = LatencyHistogram::new();
        for _ in 0..7 {
            h.record(1);
        }
        for _ in 0..93 {
            h.record(1_000);
        }
        assert_eq!(h.quantile(0.07), 2, "rank 7 of 100 is the last 1-ns obs");
        // And `round` alone would be wrong the other way: a genuinely
        // fractional rank must still round *up*. q=0.72 over 10
        // observations is rank ceil(7.2) = 8, not round(7.2) = 7.
        let h = LatencyHistogram::new();
        for _ in 0..7 {
            h.record(1);
        }
        for _ in 0..3 {
            h.record(1_000);
        }
        assert_eq!(h.quantile(0.72), 1024, "rank 8 of 10 is a slow obs");
    }

    #[test]
    fn quantiles_tiny_samples_hand_computed() {
        // n = 1: every quantile is that one observation's bucket.
        let h = LatencyHistogram::new();
        h.record(100); // bucket (64, 128]
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 128, "q={q} with n=1");
        }
        // n = 4 at 1, 10, 100, 1000 ns: nearest-rank places p50 on the
        // 2nd observation, p95/p99/p100 on the 4th, p25 on the 1st.
        let h = LatencyHistogram::new();
        for v in [1, 10, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.25), 2); // rank 1: 1 ns -> bucket (0, 2]
        assert_eq!(h.quantile(0.5), 16); // rank 2: 10 ns -> (8, 16]
        assert_eq!(h.quantile(0.95), 1024); // rank 4: 1000 ns -> (512, 1024]
        assert_eq!(h.quantile(0.99), 1024);
        assert_eq!(h.quantile(1.0), 1024);
    }

    #[test]
    fn quantile_matches_sorted_vector_oracle() {
        // Exact nearest-rank oracle on the raw observations: for q =
        // num/den, the q-quantile is the ceil(q*n)-th smallest observation
        // (rank 1 for q = 0), and the histogram must report that
        // observation's bucket bound. Rational rank arithmetic keeps the
        // oracle itself exempt from the f64 rounding the histogram has to
        // defend against.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 2, 3, 7, 10, 64, 100, 1000] {
            let h = LatencyHistogram::new();
            let mut values: Vec<u64> = (0..n).map(|_| (next() % 1000) << (next() % 30)).collect();
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            for den in [1u64, 2, 3, 4, 7, 10, 20, 100] {
                for num in 0..=den {
                    let q = num as f64 / den as f64;
                    let rank =
                        ((num as u128 * n as u128).div_ceil(den as u128) as usize).clamp(1, n);
                    let expect = LatencyHistogram::bucket_bound(LatencyHistogram::bucket_of(
                        values[rank - 1],
                    ));
                    assert_eq!(
                        h.quantile(q),
                        expect,
                        "q={num}/{den} over n={n} must hit rank {rank}"
                    );
                }
            }
        }
        // Single-bucket corner: every observation in one bucket, so every
        // quantile (q=1.0 rank rounding included) reports that bound.
        let h = LatencyHistogram::new();
        for _ in 0..5 {
            h.record(300); // bucket (256, 512]
        }
        for q in [0.0, 0.2, 0.5, 0.9999, 1.0] {
            assert_eq!(h.quantile(q), 512, "q={q} in the single-bucket case");
        }
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn snapshot_totals_add_up() {
        let m = Metrics::new();
        m.single_queries.fetch_add(3, Relaxed);
        m.batch_queries.fetch_add(7, Relaxed);
        m.cache_hits.fetch_add(1, Relaxed);
        m.cache_misses.fetch_add(2, Relaxed);
        let s = m.snapshot();
        assert_eq!(s.total_queries(), 10);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        let rendered = s.to_string();
        assert!(rendered.contains("queries served      10"));
        assert!(rendered.contains("p99"));
    }

    #[test]
    fn render_text_adds_net_lines_only_under_traffic() {
        let m = Metrics::new();
        let quiet = m.snapshot().render_text();
        assert!(!quiet.contains("net requests"));
        m.connections_opened.fetch_add(2, Relaxed);
        m.net_requests.fetch_add(5, Relaxed);
        m.net_errors.fetch_add(1, Relaxed);
        let s = m.snapshot();
        let text = s.render_text();
        assert!(text.contains("connections         2 served / 0 rejected"));
        assert!(text.contains("net requests        5 (1 error frames)"));
        assert_eq!(text, s.to_string(), "Display must match render_text");
    }
}
