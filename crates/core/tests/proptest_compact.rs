//! Randomized property tests for the compact arena: on every graph
//! family the benches use (gnm, grid, power-law, rmat), the delta-coded
//! [`CompactLabeling`] must agree entry-for-entry with the flat CSR
//! arena *and* with BFS ground truth, including through the flat →
//! compact → flat round-trip.
//!
//! Seeded [`Xorshift64`] case generation keeps the suite deterministic
//! and offline (same style as `proptest_flat.rs`).

use hl_core::flat::FlatLabeling;
use hl_core::pll::PrunedLandmarkLabeling;
use hl_core::CompactLabeling;
use hl_graph::bfs::bfs_distances;
use hl_graph::rng::Xorshift64;
use hl_graph::{generators, Graph, NodeId};

const CASES: u64 = 12;

fn gnm_graph(rng: &mut Xorshift64) -> Graph {
    let n = rng.gen_range_usize(5, 40);
    let max_extra = n * (n - 1) / 2 - (n - 1);
    let extra = rng.gen_index(30).min(max_extra);
    generators::connected_gnm(n, extra, rng.next_u64())
}

fn grid_graph(rng: &mut Xorshift64) -> Graph {
    let rows = rng.gen_range_usize(2, 8);
    let cols = rng.gen_range_usize(2, 8);
    generators::grid(rows, cols)
}

fn power_law_graph(rng: &mut Xorshift64) -> Graph {
    let n = rng.gen_range_usize(10, 50);
    generators::power_law_configuration(n, 25, rng.next_u64())
}

fn rmat_graph(rng: &mut Xorshift64) -> Graph {
    let scale = rng.gen_range_usize(4, 6) as u32;
    let m = (1usize << scale) * 3;
    generators::rmat(scale, m, rng.next_u64())
}

/// Checks `compact == flat == BFS` for **all** pairs of `g`.
fn assert_compact_matches_everywhere(g: &Graph) {
    let flat: FlatLabeling = PrunedLandmarkLabeling::by_degree(g).into_labeling();
    let compact = CompactLabeling::from_flat(&flat).expect("unit-weight distances fit u32");
    assert_eq!(
        compact.to_flat(),
        flat,
        "flat -> compact -> flat round-trip"
    );

    let n = g.num_nodes() as NodeId;
    for u in 0..n {
        let truth = bfs_distances(g, u);
        for v in 0..n {
            let want = truth[v as usize];
            assert_eq!(flat.query(u, v), want, "flat d({u},{v})");
            assert_eq!(compact.query(u, v), want, "compact d({u},{v})");
        }
    }
}

#[test]
fn compact_matches_flat_and_bfs_on_gnm() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(5000 + case);
        assert_compact_matches_everywhere(&gnm_graph(&mut rng));
    }
}

#[test]
fn compact_matches_flat_and_bfs_on_grids() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(6000 + case);
        assert_compact_matches_everywhere(&grid_graph(&mut rng));
    }
}

#[test]
fn compact_matches_flat_and_bfs_on_power_law() {
    // Configuration-model graphs are usually disconnected, so these cases
    // also cover the INFINITY (no common hub) paths of both kernels.
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(7000 + case);
        assert_compact_matches_everywhere(&power_law_graph(&mut rng));
    }
}

#[test]
fn compact_matches_flat_and_bfs_on_rmat() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(8000 + case);
        assert_compact_matches_everywhere(&rmat_graph(&mut rng));
    }
}

#[test]
fn compact_stats_agree_with_flat_on_random_graphs() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(9000 + case);
        let g = gnm_graph(&mut rng);
        let flat: FlatLabeling = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let compact = CompactLabeling::from_flat(&flat).unwrap();
        assert_eq!(compact.num_nodes(), flat.num_nodes());
        assert_eq!(compact.num_entries(), flat.num_entries());
        // The whole point: the compact arena never costs more heap.
        assert!(compact.heap_bytes() <= flat.heap_bytes());
    }
}
