//! The query engine: a fixed-size worker pool answering distance queries
//! from a decoded, read-only labeling shared across threads.
//!
//! Labels are decoded from the store once at construction — into a
//! [`ServedLabeling`]: either the canonical [`hl_core::FlatLabeling`] CSR
//! arena or the byte-tuned [`hl_core::CompactLabeling`] form.
//! The arena (plus its LRU cache) lives inside an immutable **epoch**
//! behind a versioned `Arc` cell: every query snapshots the current epoch
//! with one brief read-lock clone and then runs lock-free against that
//! generation. [`QueryEngine::reload`] swaps in a new epoch atomically —
//! in-flight queries finish on the old one, which is freed when its last
//! snapshot drops. Construction-time code hands the engine a nested
//! [`hl_core::HubLabeling`] if that is what it has; the engine flattens
//! it once at startup.
//!
//! Two paths:
//!
//! - [`QueryEngine::query_batch`] shards a batch of pairs across the pool
//!   over an mpsc channel and reassembles results in input order. Batches
//!   bypass the cache: bulk workloads rarely repeat pairs, and the merge
//!   join is cheap enough that cache traffic would only add contention.
//!   Batches of at most [`SMALL_BATCH_INLINE`] pairs skip the pool
//!   entirely and are answered on the calling thread — for tiny batches
//!   the channel round-trip costs more than the queries themselves.
//! - [`QueryEngine::query`] answers one pair on the calling thread through
//!   the sharded LRU cache — the point-lookup path, where skew is common.
//!
//! Both paths record into the shared [`Metrics`].

use std::fmt;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use hl_graph::sync::{lock_unpoisoned, read_unpoisoned, write_unpoisoned};
use hl_graph::{Distance, NodeId};

use crate::cache::ShardedLruCache;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::served::ServedLabeling;
use crate::store::{LabelStore, StoreError};

/// Default number of entries the single-query cache holds.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

/// Largest batch answered inline on the calling thread instead of being
/// sharded across the worker pool (the mpsc round-trip dominates below
/// this; `hl-server.pool_overhead_ns` in `benchmark/` measures it).
pub const SMALL_BATCH_INLINE: usize = 4;

/// Errors surfaced by the serving paths.
#[derive(Debug)]
pub enum EngineError {
    /// A query named a vertex outside the labeling.
    NodeOutOfRange { node: NodeId, num_nodes: usize },
    /// The worker pool is gone (the engine is mid-drop).
    PoolShutdown,
    /// The OS refused to start a worker thread at construction.
    WorkerSpawn(std::io::Error),
    /// The backing label store failed to decode.
    Store(StoreError),
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
            EngineError::PoolShutdown => write!(f, "worker pool is shut down"),
            EngineError::WorkerSpawn(e) => write!(f, "failed to spawn worker thread: {e}"),
            EngineError::Store(e) => write!(f, "label store error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::WorkerSpawn(e) => Some(e),
            EngineError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

/// One immutable generation of served data: the arena plus its own LRU
/// cache. The cache lives *inside* the epoch so a reload can never serve
/// a distance cached from a different store — swapping the epoch swaps
/// the cache with it, atomically.
struct Epoch {
    /// Monotonically increasing generation number, starting at 0.
    serial: u64,
    labeling: ServedLabeling,
    cache: ShardedLruCache,
}

/// State shared between the engine handle and its workers. Queries
/// snapshot the current epoch `Arc` (one brief read-lock clone) and then
/// run lock-free against that immutable generation; a concurrent
/// [`QueryEngine::reload`] write-locks only for the pointer swap.
/// In-flight queries keep the old epoch alive through their clone, and
/// the old arena + cache are freed when the last such clone drops.
struct Shared {
    epoch: RwLock<Arc<Epoch>>,
    metrics: Metrics,
    cache_capacity: usize,
    cache_shards: usize,
}

impl Shared {
    fn snapshot(&self) -> Arc<Epoch> {
        Arc::clone(&read_unpoisoned(&self.epoch))
    }
}

struct BatchJob {
    pairs: Vec<(NodeId, NodeId)>,
    /// Index of this shard's first pair within the original batch.
    offset: usize,
    /// The generation this batch was validated against: every shard of a
    /// batch answers from the same epoch even if a reload lands mid-batch.
    epoch: Arc<Epoch>,
    reply: Sender<(usize, Vec<Distance>)>,
}

/// A multi-threaded distance-query server over one immutable labeling.
pub struct QueryEngine {
    shared: Arc<Shared>,
    /// `Some` while serving; taken and dropped on shutdown so workers see
    /// a closed channel and exit their receive loops.
    sender: Mutex<Option<Sender<BatchJob>>>,
    workers: Vec<JoinHandle<()>>,
    num_workers: usize,
}

impl QueryEngine {
    /// Decodes every label out of `store` — straight into the flat arena,
    /// with no intermediate per-vertex allocations — and starts
    /// `num_workers` worker threads (at least one) with the default cache
    /// size.
    pub fn from_store(store: &LabelStore, num_workers: usize) -> Result<Self, EngineError> {
        Self::new(store.to_flat()?, num_workers)
    }

    /// Starts an engine over an already-decoded labeling. Accepts either
    /// query-time arena (the flat CSR or the compact form) or anything
    /// convertible into one — a nested [`hl_core::HubLabeling`] is
    /// flattened once, here.
    pub fn new(
        labeling: impl Into<ServedLabeling>,
        num_workers: usize,
    ) -> Result<Self, EngineError> {
        Self::with_cache_capacity(labeling, num_workers, DEFAULT_CACHE_CAPACITY)
    }

    /// Starts an engine with an explicit single-query cache capacity.
    ///
    /// Fails with [`EngineError::WorkerSpawn`] if the OS cannot start a
    /// worker thread; any workers already started are reaped first.
    pub fn with_cache_capacity(
        labeling: impl Into<ServedLabeling>,
        num_workers: usize,
        cache_capacity: usize,
    ) -> Result<Self, EngineError> {
        let num_workers = num_workers.max(1);
        let cache_shards = num_workers.max(4);
        let shared = Arc::new(Shared {
            epoch: RwLock::new(Arc::new(Epoch {
                serial: 0,
                labeling: labeling.into(),
                cache: ShardedLruCache::new(cache_capacity, cache_shards),
            })),
            metrics: Metrics::new(),
            cache_capacity,
            cache_shards,
        });
        let (tx, rx) = channel::<BatchJob>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(num_workers);
        for i in 0..num_workers {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            let spawned = std::thread::Builder::new()
                .name(format!("hubserve-worker-{i}"))
                .spawn(move || worker_loop(shared, rx));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Close the channel so the workers that did start see
                    // a disconnect and exit, then reap them before failing.
                    drop(tx);
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(EngineError::WorkerSpawn(e));
                }
            }
        }
        Ok(QueryEngine {
            shared,
            sender: Mutex::new(Some(tx)),
            workers,
            num_workers,
        })
    }

    /// Number of worker threads in the pool.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Number of vertices the engine currently serves.
    pub fn num_nodes(&self) -> usize {
        self.shared.snapshot().labeling.num_nodes()
    }

    /// Total `(hub, distance)` entries in the served arena, `Σ_v |S_v|`.
    pub fn num_entries(&self) -> usize {
        self.shared.snapshot().labeling.num_entries()
    }

    /// Heap footprint of the served arena, in bytes — exact for both
    /// arena forms.
    pub fn heap_bytes(&self) -> usize {
        self.shared.snapshot().labeling.heap_bytes()
    }

    /// Which arena form the current epoch serves: `"flat"` or `"compact"`.
    pub fn arena_kind(&self) -> &'static str {
        self.shared.snapshot().labeling.kind()
    }

    /// Serial number of the epoch currently being served. Starts at 0 and
    /// increments on every successful [`QueryEngine::reload`].
    pub fn epoch(&self) -> u64 {
        self.shared.snapshot().serial
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
    pub fn reload(&self, labeling: impl Into<ServedLabeling>) -> u64 {
        let labeling = labeling.into();
        let cache = ShardedLruCache::new(self.shared.cache_capacity, self.shared.cache_shards);
        let mut slot = write_unpoisoned(&self.shared.epoch);
        let serial = slot.serial + 1;
        *slot = Arc::new(Epoch {
            serial,
            labeling,
            cache,
        });
        serial
    }

    /// The label of vertex `v` in the current epoch, as owned parallel
    /// arrays — what the wire layer ships for router-side merge joins.
    pub fn label_of(&self, v: NodeId) -> Result<(Vec<NodeId>, Vec<Distance>), EngineError> {
        let epoch = self.shared.snapshot();
        check_node_in(&epoch, v)?;
        Ok(epoch.labeling.label_of(v))
    }

    /// Live metrics for this engine.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Convenience for [`Metrics::snapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Answers one query through the current epoch's LRU cache, on the
    /// calling thread.
    pub fn query(&self, u: NodeId, v: NodeId) -> Result<Distance, EngineError> {
        let epoch = self.shared.snapshot();
        check_node_in(&epoch, u)?;
        check_node_in(&epoch, v)?;
        let started = Instant::now();
        let key = ShardedLruCache::pair_key(u, v);
        let m = &self.shared.metrics;
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

    /// Answers a batch of queries, sharded across the worker pool.
    /// Results come back in input order. The whole batch is validated
    /// before any work is dispatched, so an out-of-range pair costs
    /// nothing but the scan — and the epoch snapshotted for validation is
    /// the one every shard answers from, so a reload landing mid-batch
    /// cannot mix two stores in one result.
    pub fn query_batch(&self, pairs: &[(NodeId, NodeId)]) -> Result<Vec<Distance>, EngineError> {
        let epoch = self.shared.snapshot();
        for &(u, v) in pairs {
            check_node_in(&epoch, u)?;
            check_node_in(&epoch, v)?;
        }
        let m = &self.shared.metrics;
        m.batches.fetch_add(1, Relaxed);
        if pairs.is_empty() {
            return Ok(Vec::new());
        }

        // Small-batch fast path: answer on the calling thread. The pool
        // exists to spread *work*, and a handful of merge joins is less
        // work than one channel send plus a reply-channel wakeup.
        if pairs.len() <= SMALL_BATCH_INLINE {
            let mut out = Vec::with_capacity(pairs.len());
            for &(u, v) in pairs {
                let started = Instant::now();
                out.push(epoch.labeling.query(u, v));
                m.latency.record(elapsed_ns(started));
            }
            m.batch_queries.fetch_add(pairs.len() as u64, Relaxed);
            return Ok(out);
        }

        let chunk = pairs.len().div_ceil(self.num_workers);
        let (reply_tx, reply_rx) = channel();
        let mut shards = 0;
        {
            let guard = lock_unpoisoned(&self.sender);
            let tx = guard.as_ref().ok_or(EngineError::PoolShutdown)?;
            for (i, part) in pairs.chunks(chunk).enumerate() {
                tx.send(BatchJob {
                    pairs: part.to_vec(),
                    offset: i * chunk,
                    epoch: Arc::clone(&epoch),
                    reply: reply_tx.clone(),
                })
                .map_err(|_| EngineError::PoolShutdown)?;
                shards += 1;
            }
        }
        drop(reply_tx);

        let mut out = vec![0 as Distance; pairs.len()];
        for _ in 0..shards {
            let (offset, distances) = reply_rx.recv().map_err(|_| EngineError::PoolShutdown)?;
            out[offset..offset + distances.len()].copy_from_slice(&distances);
        }
        Ok(out)
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        // Closing the channel wakes every worker out of `recv`.
        drop(lock_unpoisoned(&self.sender).take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn check_node_in(epoch: &Epoch, v: NodeId) -> Result<(), EngineError> {
    if (v as usize) < epoch.labeling.num_nodes() {
        Ok(())
    } else {
        Err(EngineError::NodeOutOfRange {
            node: v,
            num_nodes: epoch.labeling.num_nodes(),
        })
    }
}

fn worker_loop(shared: Arc<Shared>, rx: Arc<Mutex<Receiver<BatchJob>>>) {
    loop {
        // Hold the receiver lock only while dequeuing, never while working.
        let job = match lock_unpoisoned(&rx).recv() {
            Ok(job) => job,
            Err(_) => return, // channel closed: engine dropped
        };
        let mut distances = Vec::with_capacity(job.pairs.len());
        for &(u, v) in &job.pairs {
            let started = Instant::now();
            // The job's pinned epoch, not the current one: the batch was
            // validated against it, and all shards must agree on a store.
            distances.push(job.epoch.labeling.query(u, v));
            shared.metrics.latency.record(elapsed_ns(started));
        }
        shared
            .metrics
            .batch_queries
            .fetch_add(job.pairs.len() as u64, Relaxed);
        // A dead reply receiver just means the caller gave up; drop the result.
        let _ = job.reply.send((job.offset, distances));
    }
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
    fn small_batches_take_the_inline_path_and_still_count() {
        let (g, eng) = engine(4);
        let dist0 = hl_graph::bfs::bfs_distances(&g, 0);
        // Exactly at, and just over, the inline threshold.
        let small: Vec<(NodeId, NodeId)> =
            (1..=SMALL_BATCH_INLINE as NodeId).map(|v| (0, v)).collect();
        let over: Vec<(NodeId, NodeId)> = (1..=SMALL_BATCH_INLINE as NodeId + 1)
            .map(|v| (0, v))
            .collect();
        let got_small = eng.query_batch(&small).unwrap();
        let got_over = eng.query_batch(&over).unwrap();
        for (i, &(_, v)) in small.iter().enumerate() {
            assert_eq!(got_small[i], dist0[v as usize]);
        }
        for (i, &(_, v)) in over.iter().enumerate() {
            assert_eq!(got_over[i], dist0[v as usize]);
        }
        let s = eng.snapshot();
        assert_eq!(s.batches, 2);
        assert_eq!(s.batch_queries, (small.len() + over.len()) as u64);
        assert_eq!(s.latency_count, s.batch_queries);
        // The inline path must not touch the single-query cache.
        assert_eq!(s.cache_hits + s.cache_misses, 0);
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
