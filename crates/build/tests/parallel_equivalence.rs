//! Parallel-vs-sequential equivalence suite.
//!
//! For every graph family the ISSUE names — sparse gnm, unit-weight grid,
//! power-law, and a small paper `H_{b,ℓ}` gadget — the parallel pipeline
//! must produce labels **byte-identical** to sequential PLL at every
//! thread count, and those labels must answer every queried pair with the
//! exact BFS/Dijkstra distance. Both sides drive one search kernel
//! (`hl_core::pll`), so the last test holds every driver to a reference
//! that shares no code with it.

use hl_build::{build_with_order, BuildConfig};
use hl_core::approx::approx_pll;
use hl_core::cover::verify_exact;
use hl_core::hierarchical::canonical_hhl;
use hl_core::pll::PrunedLandmarkLabeling;
use hl_core::FlatLabeling;
use hl_graph::rng::Xorshift64;
use hl_graph::{generators, Graph, NodeId};
use hl_lowerbound::{GGraph, GadgetParams, HGraph};

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

/// The pruned-search kernel against its independent reference. For a fixed
/// order the minimal hierarchical labeling is unique (Abraham et al. 2012,
/// Babenko et al. 2015), so `canonical_hhl` — APSP plus the definition, no
/// search, no pruning — must equal PLL bit for bit, through every driver
/// of the kernel and on the graphs the paper builds to be hard.
#[test]
fn every_driver_equals_canonical_hhl() {
    let gadget = |b, ell| GadgetParams::new(b, ell).unwrap();
    let edges = hl_graph::builder::graph_from_edges;
    let mut rows = vec![
        ("weighted_grid(5,5)", generators::weighted_grid(5, 5, 2)),
        ("H(2,2)", HGraph::build(gadget(2, 2)).graph().clone()),
        ("H(3,2)", HGraph::build(gadget(3, 2)).graph().clone()),
        ("G(1,1)", GGraph::build(gadget(1, 1)).graph().clone()),
        ("disconnected", edges(7, &[(0, 1), (1, 2), (3, 4)]).unwrap()),
        // Theorem 1.4's weight-0 chains: a root covered at distance 0.
        (
            "reduce_degree(star(13), 3)",
            hl_graph::transform::reduce_degree(&generators::star(13), 3)
                .unwrap()
                .graph,
        ),
        ("n = 0", edges(0, &[]).unwrap()),
        ("n = 1", edges(1, &[]).unwrap()),
    ];
    for seed in [3u64, 14, 15] {
        rows.push((
            "connected_gnm(28,14)",
            generators::connected_gnm(28, 14, seed),
        ));
    }
    for (name, g) in rows {
        let order = hl_core::order::by_degree(&g);
        let reference = canonical_hhl(&g, &order).unwrap();
        assert!(verify_exact(&g, &reference).unwrap().is_exact(), "{name}");
        let parallel = |config| {
            build_with_order(&g, order.clone(), config)
                .unwrap()
                .labeling
        };
        let columns = [
            ("with_order", sequential_flat(&g, &order)),
            ("approx_pll(.., 0)", approx_pll(&g, order.clone(), 0)),
            ("build, 1 thread", parallel(BuildConfig::sequential())),
            // Batches of 2, 4, 8, … roots: the commit filter does real work.
            ("build, 2 threads", parallel(BuildConfig::with_threads(2))),
        ];
        for (driver, labeling) in columns {
            assert_eq!(labeling, reference, "{name} through {driver}");
        }
    }
}
