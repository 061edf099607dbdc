//! The query engine: distance queries answered from a decoded, read-only
//! labeling, on the threads of whoever calls it.
//!
//! Labels are decoded from the store once, before construction, into the
//! [`FlatLabeling`] CSR arena — whatever the store's format — and every
//! query is that arena's merge-join.
//! The arena (plus its LRU cache) lives inside an immutable **epoch**
//! behind a versioned `Arc` cell: every query snapshots the current epoch
//! with one brief read-lock clone and then runs lock-free against that
//! generation. [`QueryEngine::reload`] swaps in a new epoch atomically —
//! in-flight queries finish on the old one, which is freed when its last
//! snapshot drops.
//!
//! The engine owns no threads. Two paths:
//!
//! - [`QueryEngine::query_batch`] validates the batch, pins one epoch and
//!   answers straight into the output slice. A batch large enough to pay
//!   for it is split over scoped threads — at most the engine's width,
//!   the calling thread taking the first share — and every other batch
//!   runs on the calling thread alone. Batches bypass the cache: bulk
//!   workloads rarely repeat pairs, and the merge join is cheap enough
//!   that cache traffic would only add contention.
//! - [`QueryEngine::query`] answers one pair on the calling thread through
//!   the sharded LRU cache — the point-lookup path, where skew is common.
//!
//! Both paths record into the shared [`Metrics`].

use std::fmt;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use hl_core::FlatLabeling;
use hl_graph::sync::{read_unpoisoned, write_unpoisoned};
use hl_graph::{Distance, NodeId};

use crate::cache::ShardedLruCache;
use crate::metrics::{Metrics, MetricsSnapshot};

/// Fewest pairs a batch must give each thread before `query_batch` splits
/// it. A scoped spawn plus join measures about 15 µs on the benchmark host
/// and a join 0.4–1.3 µs (`hl-core.join_ns` in `benchmark/`), so a share
/// this size is at least 100 µs of work against that cost; below it the
/// split loses to the calling thread alone.
const MIN_PAIRS_PER_THREAD: usize = 256;

/// Errors surfaced by the serving paths.
#[derive(Debug)]
pub enum EngineError {
    /// A query named a vertex outside the labeling.
    NodeOutOfRange { node: NodeId, num_nodes: usize },
    /// The OS refused to start a thread for one share of a split batch.
    WorkerSpawn(std::io::Error),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of range for labeling with {num_nodes} nodes"
                )
            }
            EngineError::WorkerSpawn(e) => write!(f, "failed to spawn worker thread: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::WorkerSpawn(e) => Some(e),
            EngineError::NodeOutOfRange { .. } => None,
        }
    }
}

/// One immutable generation of served data: the arena plus its own LRU
/// cache. The cache lives *inside* the epoch so a reload can never serve
/// a distance cached from a different store — swapping the epoch swaps
/// the cache with it, atomically.
struct Epoch {
    /// Monotonically increasing generation number, starting at 0.
    serial: u64,
    labeling: FlatLabeling,
    cache: ShardedLruCache,
}

impl Epoch {
    /// A generation with an empty single-query cache of 65,536 entries,
    /// sharded at least four ways so point lookups from `width` threads
    /// rarely meet on a shard lock.
    fn new(serial: u64, labeling: FlatLabeling, width: usize) -> Arc<Epoch> {
        Arc::new(Epoch {
            serial,
            labeling,
            cache: ShardedLruCache::new(1 << 16, width.max(4)),
        })
    }

    fn check_node(&self, v: NodeId) -> Result<(), EngineError> {
        if (v as usize) < self.labeling.num_nodes() {
            Ok(())
        } else {
            Err(EngineError::NodeOutOfRange {
                node: v,
                num_nodes: self.labeling.num_nodes(),
            })
        }
    }
}

/// A distance-query server over one labeling at a time, shareable across
/// threads. Queries snapshot the current epoch `Arc` (one brief read-lock
/// clone) and then run lock-free against that immutable generation; a
/// concurrent [`QueryEngine::reload`] write-locks only for the pointer
/// swap. In-flight queries keep the old epoch alive through their clone,
/// and the old arena + cache are freed when the last such clone drops.
pub struct QueryEngine {
    epoch: RwLock<Arc<Epoch>>,
    metrics: Metrics,
    /// Most threads one batch may run on, the caller's included. Whoever
    /// puts the engine on a socket also sizes its request pool from this.
    width: usize,
}

impl QueryEngine {
    /// An engine of width `num_workers` (at least one) over an
    /// already-decoded labeling. Starts no thread and cannot fail; the
    /// `Result` is the signature the frozen `benchmark/` compiles against.
    pub fn new(labeling: FlatLabeling, num_workers: usize) -> Result<Self, EngineError> {
        let width = num_workers.max(1);
        Ok(QueryEngine {
            epoch: RwLock::new(Epoch::new(0, labeling, width)),
            metrics: Metrics::new(),
            width,
        })
    }

    fn pin(&self) -> Arc<Epoch> {
        Arc::clone(&read_unpoisoned(&self.epoch))
    }

    /// The engine's width: the most threads one batch is split over, and
    /// the size of the request pool a daemon runs in front of it.
    pub fn num_workers(&self) -> usize {
        self.width
    }

    /// Number of vertices the engine currently serves.
    pub fn num_nodes(&self) -> usize {
        self.pin().labeling.num_nodes()
    }

    /// Total `(hub, distance)` entries in the served arena, `Σ_v |S_v|`.
    pub fn num_entries(&self) -> usize {
        self.pin().labeling.num_entries()
    }

    /// Heap footprint of the served arena, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.pin().labeling.heap_bytes()
    }

    /// Serial number of the epoch currently being served. Starts at 0 and
    /// increments on every successful [`QueryEngine::reload`].
    pub fn epoch(&self) -> u64 {
        self.pin().serial
    }

    /// Atomically replaces the served labeling with `labeling` and
    /// returns the new epoch serial. Queries that already snapshotted the
    /// old epoch finish against it — consistently, including whole
    /// batches — and the old arena and its cache are freed when the last
    /// such query retires. The new epoch starts with a fresh, empty cache
    /// so no stale distance can cross the swap.
    ///
    /// Validation is the *caller's* job: hand this only a store that
    /// already parsed cleanly (the serving daemon opens and validates the
    /// file before calling reload, so a corrupt file never evicts the
    /// healthy epoch).
    pub fn reload(&self, labeling: FlatLabeling) -> u64 {
        let mut slot = write_unpoisoned(&self.epoch);
        let serial = slot.serial + 1;
        *slot = Epoch::new(serial, labeling, self.width);
        serial
    }

    /// The label of vertex `v` in the current epoch as the `(hub,
    /// distance)` pairs the wire ships for router-side merge joins.
    pub fn label_of(&self, v: NodeId) -> Result<Vec<(NodeId, Distance)>, EngineError> {
        let epoch = self.pin();
        epoch.check_node(v)?;
        Ok(epoch.labeling.pairs_of(v).collect())
    }

    /// Live metrics for this engine.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Convenience for [`Metrics::snapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Answers one query through the current epoch's LRU cache, on the
    /// calling thread.
    pub fn query(&self, u: NodeId, v: NodeId) -> Result<Distance, EngineError> {
        let epoch = self.pin();
        epoch.check_node(u)?;
        epoch.check_node(v)?;
        let started = Instant::now();
        let key = ShardedLruCache::pair_key(u, v);
        let m = &self.metrics;
        let d = match epoch.cache.get(key) {
            Some(d) => {
                m.cache_hits.fetch_add(1, Relaxed);
                d
            }
            None => {
                let d = epoch.labeling.query(u, v);
                epoch.cache.insert(key, d);
                m.cache_misses.fetch_add(1, Relaxed);
                d
            }
        };
        m.single_queries.fetch_add(1, Relaxed);
        m.latency.record(elapsed_ns(started));
        Ok(d)
    }

    /// Answers a batch of queries in input order. The whole batch is
    /// validated before any pair is answered, so an out-of-range pair
    /// costs nothing but the scan — and the epoch pinned for validation is
    /// the one every pair answers from, so a reload landing mid-batch
    /// cannot mix two stores in one result.
    ///
    /// Runs on the calling thread, joined by up to `num_workers() - 1`
    /// scoped threads when every one of them gets at least
    /// `MIN_PAIRS_PER_THREAD` pairs; [`EngineError::WorkerSpawn`] if the
    /// OS refuses one.
    pub fn query_batch(&self, pairs: &[(NodeId, NodeId)]) -> Result<Vec<Distance>, EngineError> {
        let epoch = self.pin();
        for &(u, v) in pairs {
            epoch.check_node(u)?;
            epoch.check_node(v)?;
        }
        self.metrics.batches.fetch_add(1, Relaxed);
        let mut out = vec![0 as Distance; pairs.len()];
        let threads = split_width(self.width, pairs.len());
        if threads == 1 {
            self.answer(&epoch, pairs, &mut out);
            return Ok(out);
        }
        let epoch: &Epoch = &epoch;
        let share = pairs.len().div_ceil(threads);
        let mut shares = pairs.chunks(share).zip(out.chunks_mut(share));
        let first = shares.next();
        std::thread::scope(|scope| -> std::io::Result<()> {
            for (pairs, out) in shares {
                // Not joined by hand: the scope joins every share before
                // it returns, on the error path too.
                std::thread::Builder::new()
                    .spawn_scoped(scope, move || self.answer(epoch, pairs, out))?;
            }
            if let Some((pairs, out)) = first {
                self.answer(epoch, pairs, out);
            }
            Ok(())
        })
        .map_err(EngineError::WorkerSpawn)?;
        Ok(out)
    }

    /// Answers `pairs` into `out` from `epoch` — the one the batch was
    /// validated against, not the current one — uncached, timing each.
    fn answer(&self, epoch: &Epoch, pairs: &[(NodeId, NodeId)], out: &mut [Distance]) {
        for (&(u, v), d) in pairs.iter().zip(out) {
            let started = Instant::now();
            *d = epoch.labeling.query(u, v);
            self.metrics.latency.record(elapsed_ns(started));
        }
        self.metrics
            .batch_queries
            .fetch_add(pairs.len() as u64, Relaxed);
    }
}

/// Threads a batch of `len` pairs runs on for an engine of `width`: as
/// many as get [`MIN_PAIRS_PER_THREAD`] pairs each, at least the caller's.
fn split_width(width: usize, len: usize) -> usize {
    width.min(len / MIN_PAIRS_PER_THREAD).max(1)
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_core::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;
    use hl_graph::INFINITY;

    fn engine(workers: usize) -> (hl_graph::Graph, QueryEngine) {
        let g = generators::grid(6, 7);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        (g, QueryEngine::new(hl, workers).unwrap())
    }

    #[test]
    fn batch_matches_bfs() {
        let (g, eng) = engine(3);
        let n = g.num_nodes() as NodeId;
        let pairs: Vec<(NodeId, NodeId)> =
            (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
        let got = eng.query_batch(&pairs).unwrap();
        let mut at = 0;
        for u in 0..n {
            let dist = hl_graph::bfs::bfs_distances(&g, u);
            for v in 0..n {
                assert_eq!(got[at], dist[v as usize], "d({u},{v})");
                at += 1;
            }
        }
        assert_eq!(eng.snapshot().batch_queries, pairs.len() as u64);
    }

    #[test]
    fn single_path_uses_cache() {
        let (_, eng) = engine(2);
        let a = eng.query(0, 5).unwrap();
        let b = eng.query(5, 0).unwrap(); // symmetric pair shares the entry
        assert_eq!(a, b);
        let s = eng.snapshot();
        assert_eq!(s.single_queries, 2);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn out_of_range_is_typed_error() {
        let (_, eng) = engine(1);
        let n = eng.num_nodes() as NodeId;
        assert!(matches!(
            eng.query(0, n),
            Err(EngineError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            eng.query_batch(&[(0, 1), (n + 3, 0)]),
            Err(EngineError::NodeOutOfRange { .. })
        ));
        // The failed batch must not have dispatched partial work.
        assert_eq!(eng.snapshot().batch_queries, 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (_, eng) = engine(2);
        assert_eq!(eng.query_batch(&[]).unwrap(), Vec::<Distance>::new());
    }

    #[test]
    fn batch_smaller_than_pool() {
        let (g, eng) = engine(8);
        let d = eng.query_batch(&[(0, 1)]).unwrap();
        assert_eq!(d, vec![hl_graph::bfs::bfs_distances(&g, 0)[1]]);
    }

    #[test]
    fn split_width_gives_every_thread_a_full_share() {
        let min = MIN_PAIRS_PER_THREAD;
        for width in [1, 2, 3] {
            assert_eq!(split_width(width, 0), 1);
            assert_eq!(split_width(width, 2 * min - 1), 1);
            assert_eq!(split_width(width, 2 * min), width.min(2));
            assert_eq!(split_width(width, 3 * min - 1), width.min(2));
            assert_eq!(split_width(width, 3 * min), width.min(3));
            assert_eq!(split_width(width, 100 * min), width);
        }
    }

    #[test]
    fn batches_around_the_first_split_are_exact_in_order_and_counted() {
        // 42² = 1764 distinct pairs: room for one past the first split.
        let g = generators::grid(6, 7);
        let n = g.num_nodes() as NodeId;
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let truth: Vec<Vec<Distance>> = (0..n)
            .map(|u| hl_graph::bfs::bfs_distances(&g, u))
            .collect();
        let all: Vec<(NodeId, NodeId)> = (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
        let first_split = 2 * MIN_PAIRS_PER_THREAD;
        assert!(all.len() > first_split);
        for width in [1, 2, 3] {
            let eng = QueryEngine::new(hl.clone(), width).unwrap();
            let mut asked = 0u64;
            for (i, len) in [first_split - 1, first_split, first_split + 1]
                .into_iter()
                .enumerate()
            {
                let pairs = &all[i..i + len];
                let got = eng.query_batch(pairs).unwrap();
                let want: Vec<Distance> = pairs
                    .iter()
                    .map(|&(u, v)| truth[u as usize][v as usize])
                    .collect();
                assert_eq!(got, want, "width {width}, batch of {len}");
                asked += len as u64;
            }
            let s = eng.snapshot();
            assert_eq!(s.batches, 3);
            assert_eq!(s.batch_queries, asked);
            assert_eq!(s.latency_count, asked);
            // Batches must not touch the single-query cache, split or not.
            assert_eq!(s.cache_hits + s.cache_misses, 0);
        }
    }

    #[test]
    fn disconnected_pairs_serve_infinity() {
        // Two disjoint copies of a 3x3 grid: distance across them is ∞.
        let base = generators::grid(3, 3);
        let n = base.num_nodes();
        let mut all: Vec<(NodeId, NodeId)> = base.edges().map(|(u, v, _)| (u, v)).collect();
        all.extend(
            base.edges()
                .map(|(u, v, _)| (u + n as NodeId, v + n as NodeId)),
        );
        let g = hl_graph::builder::graph_from_edges(2 * n, &all).unwrap();
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let eng = QueryEngine::new(hl, 2).unwrap();
        assert_eq!(eng.query(0, n as NodeId).unwrap(), INFINITY);
    }
}
