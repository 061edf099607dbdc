//! Randomized property tests for the flat CSR arena: on arbitrary random
//! graphs, `FlatLabeling::query` must agree entry-for-entry with BFS
//! ground truth, and `FlatLabeling::from_pair_lists` must agree with a
//! map-based reference on arbitrary unsorted, duplicated pair lists.
//!
//! Seeded [`Xorshift64`] case generation keeps the suite deterministic
//! and offline (same style as `proptest_labelings.rs`).

use hl_core::flat::FlatLabeling;
use hl_core::pll::PrunedLandmarkLabeling;
use hl_graph::bfs::bfs_distances;
use hl_graph::rng::Xorshift64;
use hl_graph::{generators, NodeId};

const CASES: u64 = 24;

/// A connected sparse unit-weight gnm graph drawn from the case rng.
fn gnm_graph(rng: &mut Xorshift64) -> hl_graph::Graph {
    let n = rng.gen_range_usize(5, 40);
    let max_extra = n * (n - 1) / 2 - (n - 1);
    let extra = rng.gen_index(30).min(max_extra);
    generators::connected_gnm(n, extra, rng.next_u64())
}

/// A small grid with random dimensions.
fn grid_graph(rng: &mut Xorshift64) -> hl_graph::Graph {
    let rows = rng.gen_range_usize(2, 8);
    let cols = rng.gen_range_usize(2, 8);
    generators::grid(rows, cols)
}

/// Checks `flat == BFS` for **all** pairs of `g`.
fn assert_flat_matches_everywhere(g: &hl_graph::Graph, flat: &FlatLabeling) {
    let n = g.num_nodes() as NodeId;
    for u in 0..n {
        let truth = bfs_distances(g, u);
        for v in 0..n {
            assert_eq!(flat.query(u, v), truth[v as usize], "flat d({u},{v})");
        }
    }
}

#[test]
fn flat_query_matches_nested_and_bfs_on_gnm() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(case);
        let g = gnm_graph(&mut rng);
        let flat = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        assert_flat_matches_everywhere(&g, &flat);
    }
}

#[test]
fn flat_query_matches_nested_and_bfs_on_grids() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(1000 + case);
        let g = grid_graph(&mut rng);
        let flat = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        assert_flat_matches_everywhere(&g, &flat);
    }
}

#[test]
fn from_pair_lists_matches_a_map_reference_on_arbitrary_labels() {
    // Lists with gaps, empty vertices, any order and repeated hubs — not
    // necessarily a valid cover, but the constructor must not care: each
    // run comes out strictly increasing with the minimum of every
    // repeated hub, and passes the arena's own validator. One distance in
    // four sits at the top of the u32 lane, which must hold it exactly.
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(3000 + case);
        let n = rng.gen_range_usize(1, 30);
        let lists: Vec<Vec<(NodeId, u64)>> = (0..n)
            .map(|_| {
                (0..rng.gen_index(9))
                    .map(|_| {
                        let d = match rng.gen_index(4) {
                            0 => u64::from(u32::MAX) - rng.gen_index(3) as u64,
                            _ => rng.gen_index(100) as u64,
                        };
                        (rng.gen_index(n) as NodeId, d)
                    })
                    .collect()
            })
            .collect();
        let flat = FlatLabeling::from_pair_lists(lists.clone()).unwrap();
        assert_eq!(flat.num_nodes(), n);
        for (v, list) in lists.iter().enumerate() {
            let mut want = std::collections::BTreeMap::new();
            for &(h, d) in list {
                want.entry(h)
                    .and_modify(|m: &mut u64| *m = d.min(*m))
                    .or_insert(d);
            }
            let got: Vec<_> = flat.pairs_of(v as NodeId).collect();
            assert_eq!(got, want.into_iter().collect::<Vec<_>>(), "vertex {v}");
        }
        let rebuilt = FlatLabeling::from_raw_parts(
            flat.raw_offsets().to_vec(),
            flat.raw_hubs().to_vec(),
            flat.raw_dists().to_vec(),
        );
        assert_eq!(rebuilt.as_ref(), Ok(&flat));
    }
}
