//! The epoch-swap contract under fire: queries hammering the engine from
//! several threads while the served labeling is reloaded over and over
//! must only ever see answers that are exactly right for *one of the two
//! valid stores* — never a mix, never an error, never a panic.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hl_core::pll::PrunedLandmarkLabeling;
use hl_core::FlatLabeling;
use hl_graph::{generators, Distance, NodeId};
use hl_server::QueryEngine;

/// Two stores over *different* graphs on the same vertex set, so most
/// pairs have different true distances and a cross-epoch mixup is
/// observable.
fn two_stores() -> (FlatLabeling, FlatLabeling) {
    let g1 = generators::grid(8, 8);
    let g2 = generators::connected_gnm(64, 80, 42);
    let f1 = PrunedLandmarkLabeling::by_degree(&g1).into_labeling();
    let f2 = PrunedLandmarkLabeling::by_degree(&g2).into_labeling();
    (f1, f2)
}

#[test]
fn queries_never_mix_epochs_across_50_reloads() {
    let (f1, f2) = two_stores();
    let n = f1.num_nodes() as NodeId;
    assert_eq!(f2.num_nodes(), f1.num_nodes());

    // Ground truth per store for every pair.
    let truth = |f: &FlatLabeling| -> Vec<Distance> {
        (0..n)
            .flat_map(|u| (0..n).map(move |v| (u, v)))
            .map(|(u, v)| f.query(u, v))
            .collect()
    };
    let (t1, t2) = (truth(&f1), truth(&f2));

    let engine = Arc::new(QueryEngine::new(f1.clone(), 2).expect("engine"));
    let stop = Arc::new(AtomicBool::new(false));
    let checked = Arc::new(AtomicU64::new(0));

    let mut hammers = Vec::new();
    for t in 0..4u64 {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let checked = Arc::clone(&checked);
        let (t1, t2) = (t1.clone(), t2.clone());
        hammers.push(std::thread::spawn(move || {
            let mut x = t.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            let mut rng = move || {
                // xorshift64*, plenty for picking pairs
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                x.wrapping_mul(0x2545_f491_4f6c_dd1d)
            };
            while !stop.load(Ordering::Relaxed) {
                let u = (rng() % n as u64) as NodeId;
                let v = (rng() % n as u64) as NodeId;
                let at = u as usize * n as usize + v as usize;

                // Single-query path: the answer must match one store.
                let d = engine.query(u, v).expect("query must not error");
                assert!(
                    d == t1[at] || d == t2[at],
                    "d({u},{v}) = {d} matches neither store ({} / {})",
                    t1[at],
                    t2[at]
                );

                // Batch path: the whole batch must come from ONE epoch.
                let pairs: Vec<(NodeId, NodeId)> = (0..32)
                    .map(|_| ((rng() % n as u64) as NodeId, (rng() % n as u64) as NodeId))
                    .collect();
                let got = engine.query_batch(&pairs).expect("batch must not error");
                let from = |t: &[Distance]| {
                    pairs
                        .iter()
                        .zip(&got)
                        .all(|(&(u, v), &d)| d == t[u as usize * n as usize + v as usize])
                };
                assert!(
                    from(&t1) || from(&t2),
                    "batch mixed epochs or matched neither store"
                );
                checked.fetch_add(1 + pairs.len() as u64, Ordering::Relaxed);
            }
        }));
    }

    // 50 reloads alternating between the two stores, racing the hammers.
    let mut serial = 0;
    for i in 0..50 {
        let next = if i % 2 == 0 { f2.clone() } else { f1.clone() };
        let got = engine.reload(next);
        assert_eq!(got, serial + 1, "epoch serials must increment by one");
        serial = got;
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert_eq!(engine.epoch(), 50);

    stop.store(true, Ordering::Relaxed);
    for h in hammers {
        h.join().expect("hammer thread must not panic");
    }
    // The race has to have actually exercised queries to mean anything.
    assert!(
        checked.load(Ordering::Relaxed) > 1000,
        "hammers barely ran; the test proved nothing"
    );
}

#[test]
fn reload_replaces_answers_and_clears_cache() {
    let (f1, f2) = two_stores();
    let engine = QueryEngine::new(f1.clone(), 1).expect("engine");
    assert_eq!(engine.epoch(), 0);

    // Find a pair whose distance differs across the stores, prime the
    // cache with the old answer, then reload: the cached entry must not
    // survive into the new epoch.
    let n = f1.num_nodes() as NodeId;
    let (u, v) = (0..n)
        .flat_map(|u| (0..n).map(move |v| (u, v)))
        .find(|&(u, v)| f1.query(u, v) != f2.query(u, v))
        .expect("stores must disagree somewhere");
    assert_eq!(engine.query(u, v).unwrap(), f1.query(u, v));
    assert_eq!(engine.query(u, v).unwrap(), f1.query(u, v)); // cached

    assert_eq!(engine.reload(f2.clone()), 1);
    assert_eq!(engine.epoch(), 1);
    assert_eq!(
        engine.query(u, v).unwrap(),
        f2.query(u, v),
        "stale cache entry served across a reload"
    );
}

#[test]
fn reload_can_change_node_count() {
    let small = PrunedLandmarkLabeling::by_degree(&generators::grid(3, 3)).into_labeling();
    let big = PrunedLandmarkLabeling::by_degree(&generators::grid(10, 10)).into_labeling();
    let engine = QueryEngine::new(small, 2).expect("engine");
    assert_eq!(engine.num_nodes(), 9);
    assert!(engine.query(0, 50).is_err());
    engine.reload(big);
    assert_eq!(engine.num_nodes(), 100);
    assert!(engine.query(0, 50).is_ok());
    let label = engine.label_of(99).expect("label fetch");
    assert!(!label.is_empty());
}
