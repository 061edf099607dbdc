//! Parallel-vs-sequential equivalence suite.
//!
//! For every graph family the ISSUE names — sparse gnm, unit-weight grid,
//! power-law, and a small paper `H_{b,ℓ}` gadget — the parallel pipeline
//! must produce labels **byte-identical** to sequential PLL at every
//! thread count, and those labels must answer every queried pair with the
//! exact BFS/Dijkstra distance.

use hl_build::{build_with_order, BuildConfig};
use hl_core::pll::PrunedLandmarkLabeling;
use hl_core::FlatLabeling;
use hl_graph::rng::Xorshift64;
use hl_graph::{generators, Graph, NodeId};
use hl_lowerbound::{GadgetParams, HGraph};

fn sequential_flat(g: &Graph, order: &[NodeId]) -> FlatLabeling {
    PrunedLandmarkLabeling::with_order(g, order.to_vec()).into_labeling()
}

/// Asserts byte-identity across threads ∈ {1, 2, 4} and spot-checks the
/// labels against ground-truth single-source distances from a few seeded
/// sources.
fn assert_equivalent_and_exact(g: &Graph, name: &str) {
    let order = hl_core::order::by_degree(g);
    let reference = sequential_flat(g, &order);
    for threads in [1usize, 2, 4] {
        let out = build_with_order(g, order.clone(), BuildConfig::with_threads(threads))
            .unwrap_or_else(|e| panic!("{name}: build failed at {threads} threads: {e}"));
        assert_eq!(
            out.labeling, reference,
            "{name}: labels diverge from sequential PLL at {threads} threads"
        );
        assert_eq!(out.stats.threads, threads);
    }
    // Ground truth: full single-source distances from seeded sources.
    let n = g.num_nodes();
    let mut rng = Xorshift64::seed_from_u64(0xE0_11AB);
    for _ in 0..4 {
        let s = rng.gen_index(n) as NodeId;
        let truth = hl_graph::dijkstra::shortest_path_distances(g, s);
        for _ in 0..200 {
            let v = rng.gen_index(n) as NodeId;
            assert_eq!(
                reference.query(s, v),
                truth[v as usize],
                "{name}: wrong distance for ({s}, {v})"
            );
        }
    }
}

#[test]
fn gnm_equivalence() {
    let g = generators::connected_gnm(400, 500, 11);
    assert_equivalent_and_exact(&g, "connected_gnm(400, 500)");
}

#[test]
fn grid_equivalence() {
    let g = generators::grid(17, 19);
    assert_equivalent_and_exact(&g, "grid(17, 19)");
}

#[test]
fn power_law_equivalence() {
    let g = generators::power_law_configuration(600, 25, 13);
    assert_equivalent_and_exact(&g, "power_law_configuration(600)");
}

#[test]
fn rmat_equivalence() {
    let g = generators::rmat(9, 2048, 5);
    assert_equivalent_and_exact(&g, "rmat(9, 2048)");
}

#[test]
fn weighted_road_style_equivalence() {
    let g = generators::grid_with_shortcuts(12, 14, 30, 7);
    assert_equivalent_and_exact(&g, "grid_with_shortcuts(12, 14, 30)");
}

#[test]
fn paper_gadget_equivalence() {
    // A small H_{b,ℓ} hard instance from Theorem 2.1 — adversarial
    // structure for hub labelings, so a good equivalence probe.
    let params = GadgetParams::new(3, 2).unwrap();
    let h = HGraph::build(params);
    assert_equivalent_and_exact(h.graph(), "H_{3,2}");
}

#[test]
fn every_order_is_thread_invariant() {
    use hl_core::order;
    let g = generators::connected_gnm(200, 260, 3);
    let orders = [
        ("degree", order::by_degree(&g)),
        ("bfs-level", order::by_bfs_level(&g)),
        (
            "betweenness",
            order::by_sampled_betweenness(&g, 16, 2).unwrap(),
        ),
        ("random", order::random(&g, 4)),
    ];
    for (name, order) in orders {
        let one = build_with_order(&g, order.clone(), BuildConfig::sequential()).unwrap();
        let four = build_with_order(&g, order, BuildConfig::with_threads(4)).unwrap();
        assert_eq!(
            one.labeling, four.labeling,
            "order {name} is not thread-invariant"
        );
    }
}
