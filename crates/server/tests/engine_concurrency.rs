//! The engine under concurrent fire: several client threads interleaving
//! batch and cached single queries while the worker pool serves them.
//! Answers must stay exact and the metrics must account for every query.

use std::sync::Arc;

use hl_core::pll::PrunedLandmarkLabeling;
use hl_graph::bfs::bfs_distances;
use hl_graph::rng::Xorshift64;
use hl_graph::{generators, Distance, NodeId};
use hl_server::engine::SAMPLE_EVERY;
use hl_server::QueryEngine;

#[test]
fn four_client_threads_batch_and_single() {
    let g = generators::connected_gnm(200, 300, 5);
    let n = g.num_nodes();
    let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();

    // Ground truth once, up front.
    let truth: Vec<Vec<Distance>> = (0..n).map(|u| bfs_distances(&g, u as NodeId)).collect();
    let truth = Arc::new(truth);

    let engine = Arc::new(QueryEngine::new(hl, 4).unwrap());
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 40;
    const BATCH: usize = 64;
    const SINGLES: usize = 32;

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let engine = Arc::clone(&engine);
            let truth = Arc::clone(&truth);
            std::thread::spawn(move || {
                let mut rng = Xorshift64::seed_from_u64(900 + c as u64);
                for _ in 0..ROUNDS {
                    // One batch...
                    let pairs: Vec<(NodeId, NodeId)> = (0..BATCH)
                        .map(|_| (rng.gen_index(n) as NodeId, rng.gen_index(n) as NodeId))
                        .collect();
                    let got = engine.query_batch(&pairs).unwrap();
                    for (&(u, v), &d) in pairs.iter().zip(&got) {
                        assert_eq!(d, truth[u as usize][v as usize], "batch d({u},{v})");
                    }
                    // ...then a burst of cached point lookups, drawn from a
                    // small hot set so the cache actually gets hits.
                    for _ in 0..SINGLES {
                        let u = rng.gen_index(n.min(10)) as NodeId;
                        let v = rng.gen_index(n.min(10)) as NodeId;
                        let d = engine.query(u, v).unwrap();
                        assert_eq!(d, truth[u as usize][v as usize], "single d({u},{v})");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let s = engine.snapshot();
    let expect_batches = (CLIENTS * ROUNDS) as u64;
    let expect_batch_queries = (CLIENTS * ROUNDS * BATCH) as u64;
    let expect_singles = (CLIENTS * ROUNDS * SINGLES) as u64;
    assert_eq!(s.batches, expect_batches);
    assert_eq!(s.batch_queries, expect_batch_queries);
    assert_eq!(s.single_queries, expect_singles);
    // Every single query is either a hit or a miss — no query goes
    // unaccounted, even under contention.
    assert_eq!(s.cache_hits + s.cache_misses, expect_singles);
    // A 10x10 hot set over thousands of lookups must mostly hit.
    assert!(
        s.cache_hits > s.cache_misses,
        "expected a mostly-hitting cache: {} hits vs {} misses",
        s.cache_hits,
        s.cache_misses
    );
    // The histogram saw every batch pair, and single queries one in
    // SAMPLE_EVERY at that weight, the first included.
    assert_eq!(
        s.latency_count,
        expect_batch_queries + SAMPLE_EVERY * expect_singles.div_ceil(SAMPLE_EVERY)
    );
    assert_eq!(s.total_queries(), expect_batch_queries + expect_singles);
    assert_eq!(s.decode_errors, 0);
    assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
}

#[test]
fn concurrent_batches_keep_input_order() {
    let g = generators::grid(10, 10);
    let n = g.num_nodes();
    let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
    let engine = Arc::new(QueryEngine::new(hl, 8).unwrap());

    // Each thread sends a batch whose expected answers are distinguishable
    // by construction (distance from a fixed source in scan order), so any
    // cross-batch or intra-batch reordering shows up immediately.
    let handles: Vec<_> = (0..6)
        .map(|c| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let src = (c * 7 % n) as NodeId;
                let pairs: Vec<(NodeId, NodeId)> = (0..n as NodeId).map(|v| (src, v)).collect();
                let got = engine.query_batch(&pairs).unwrap();
                (src, got)
            })
        })
        .collect();
    for h in handles {
        let (src, got) = h.join().unwrap();
        let truth = bfs_distances(&g, src);
        assert_eq!(got, truth, "batch from source {src} came back permuted");
    }
}

#[test]
fn engine_shutdown_joins_workers_cleanly() {
    // Dropping engines with in-flight-capable pools must not hang or leak:
    // create and drop a few in a row, querying each first.
    let g = generators::random_tree(50, 2);
    let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
    for workers in [1, 2, 8] {
        let engine = QueryEngine::new(hl.clone(), workers).unwrap();
        let d = engine.query_batch(&[(0, 1), (1, 2)]).unwrap();
        assert_eq!(d.len(), 2);
        drop(engine);
    }
}
