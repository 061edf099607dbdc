//! Randomized property tests for the graph substrate.
//!
//! These were originally `proptest` properties; offline builds cannot
//! resolve crates.io, so they now run over seeded [`Xorshift64`] input
//! streams — same properties, deterministic case generation.

use hl_graph::apsp::DistanceMatrix;
use hl_graph::bfs::bfs_distances;
use hl_graph::dijkstra::{
    bidirectional_distance, count_shortest_paths, dijkstra_distance_between, dijkstra_distances,
};
use hl_graph::properties::{connected_components, is_connected};
use hl_graph::rng::Xorshift64;
use hl_graph::sptree::ShortestPathTree;
use hl_graph::transform::{reduce_degree, subdivide_weights};
use hl_graph::{generators, GraphBuilder, NodeId, INFINITY};

const CASES: u64 = 48;

/// A connected sparse unit-weight graph drawn from the case rng.
fn sparse_graph(rng: &mut Xorshift64) -> hl_graph::Graph {
    let n = rng.gen_range_usize(4, 40);
    let max_extra = n * (n - 1) / 2 - (n - 1);
    let extra = rng.gen_index(30).min(max_extra);
    generators::connected_gnm(n, extra, rng.next_u64())
}

/// A connected weighted graph (weights 1..=10).
fn weighted_graph(rng: &mut Xorshift64) -> hl_graph::Graph {
    let side = rng.gen_range_usize(4, 25);
    generators::weighted_grid(side, 3, rng.next_u64())
}

#[test]
fn bfs_triangle_inequality() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(case);
        let g = sparse_graph(&mut rng);
        let d0 = bfs_distances(&g, 0);
        let d1 = bfs_distances(&g, 1);
        for v in 0..g.num_nodes() {
            // d(0, v) <= d(0, 1) + d(1, v)
            assert!(d0[v] <= d1[v].saturating_add(d0[1]));
        }
    }
}

#[test]
fn bfs_edge_relaxation_consistency() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(1000 + case);
        let g = sparse_graph(&mut rng);
        let d = bfs_distances(&g, 0);
        for (u, v, _) in g.edges() {
            let (du, dv) = (d[u as usize], d[v as usize]);
            assert!(
                du.abs_diff(dv) <= 1,
                "adjacent vertices differ by at most one hop"
            );
        }
    }
}

#[test]
fn dijkstra_matches_bfs_on_unit_graphs() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(2000 + case);
        let g = sparse_graph(&mut rng);
        assert_eq!(bfs_distances(&g, 0), dijkstra_distances(&g, 0));
    }
}

#[test]
fn point_to_point_matches_sssp() {
    for case in 0..CASES / 2 {
        let mut rng = Xorshift64::seed_from_u64(3000 + case);
        let g = weighted_graph(&mut rng);
        let d = dijkstra_distances(&g, 2);
        for t in (0..g.num_nodes() as NodeId).step_by(5) {
            assert_eq!(dijkstra_distance_between(&g, 2, t), d[t as usize]);
            assert_eq!(bidirectional_distance(&g, 2, t), d[t as usize]);
        }
    }
}

#[test]
fn apsp_symmetric_and_matches_sssp() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(4000 + case);
        let g = sparse_graph(&mut rng);
        let m = DistanceMatrix::compute(&g).unwrap();
        let s = 3 % g.num_nodes() as NodeId;
        let d = bfs_distances(&g, s);
        for v in 0..g.num_nodes() as NodeId {
            assert_eq!(m.distance(s, v), d[v as usize]);
            assert_eq!(m.distance(s, v), m.distance(v, s));
        }
    }
}

#[test]
fn path_counts_positive_for_reachable() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(5000 + case);
        let g = sparse_graph(&mut rng);
        let (d, c) = count_shortest_paths(&g, 0);
        for v in 0..g.num_nodes() {
            assert_eq!(d[v] != INFINITY, c[v] > 0);
        }
    }
}

#[test]
fn path_counts_survive_doubling_every_weight() {
    // The unit-weight graph counts over BFS distances, its doubled copy
    // over Dijkstra's; both must see the same shortest-path DAG.
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(6000 + case);
        let g = sparse_graph(&mut rng);
        let mut doubled = GraphBuilder::new(g.num_nodes());
        for (u, v, w) in g.edges() {
            doubled.add_edge(u, v, 2 * w).unwrap();
        }
        let doubled = doubled.build();
        assert!(!doubled.is_unit_weighted());
        let (d1, c1) = count_shortest_paths(&g, 0);
        let (d2, c2) = count_shortest_paths(&doubled, 0);
        assert_eq!(
            d1.iter().map(|&d| d.saturating_mul(2)).collect::<Vec<_>>(),
            d2
        );
        assert_eq!(c1, c2);
    }
}

#[test]
fn sptree_paths_have_correct_length() {
    for case in 0..CASES / 2 {
        let mut rng = Xorshift64::seed_from_u64(7000 + case);
        let g = weighted_graph(&mut rng);
        let t = ShortestPathTree::build(&g, 0);
        let d = dijkstra_distances(&g, 0);
        for v in (0..g.num_nodes() as NodeId).step_by(3) {
            if let Some(path) = t.path_to(v) {
                let mut len = 0;
                for w in path.windows(2) {
                    len += g.edge_weight(w[0], w[1]).unwrap();
                }
                assert_eq!(len, d[v as usize]);
            }
        }
    }
}

#[test]
fn sptree_parent_is_the_smallest_tight_neighbour() {
    // Unit-weight (BFS distances) and weighted (Dijkstra) cases alternate.
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(13_000 + case);
        let g = if case % 2 == 0 {
            sparse_graph(&mut rng)
        } else {
            weighted_graph(&mut rng)
        };
        let root = rng.gen_index(g.num_nodes()) as NodeId;
        let t = ShortestPathTree::build(&g, root);
        let d = dijkstra_distances(&g, root);
        assert_eq!(t.parent(root), Some(root));
        for v in (0..g.num_nodes() as NodeId).filter(|&v| v != root) {
            assert_eq!(t.distance(v), d[v as usize]);
            let smallest_tight = g
                .neighbors(v)
                .filter(|&(u, w)| d[u as usize] != INFINITY && d[u as usize] + w == d[v as usize])
                .map(|(u, _)| u)
                .min();
            assert_eq!(t.parent(v), smallest_tight, "case {case}, vertex {v}");
        }
    }
}

#[test]
fn closure_is_superset_and_closed() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(8000 + case);
        let g = sparse_graph(&mut rng);
        let t = ShortestPathTree::build(&g, 0);
        let n = g.num_nodes();
        let picks = rng.gen_range_usize(1, 6);
        let set: Vec<NodeId> = (0..picks).map(|_| rng.gen_index(n) as NodeId).collect();
        let closure = t.ancestor_closure(&set);
        for &v in &set {
            assert!(closure.contains(&v));
        }
        // Closed under parents.
        for &v in &closure {
            if let Some(p) = t.parent(v) {
                assert!(closure.contains(&p));
            }
        }
    }
}

#[test]
fn degree_reduction_preserves_distances() {
    for case in 0..CASES / 2 {
        let mut rng = Xorshift64::seed_from_u64(9000 + case);
        let n = rng.gen_range_usize(8, 30);
        let hub = rng.gen_range_usize(4, 20).min(n - 1);
        let g = generators::skewed_sparse(n, hub, rng.next_u64());
        let red = reduce_degree(&g, 3).unwrap();
        assert!(red.graph.max_degree() <= 5);
        let orig = bfs_distances(&g, 0);
        let new = dijkstra_distances(&red.graph, red.representative[0]);
        for v in 0..n {
            assert_eq!(orig[v], new[red.representative[v] as usize]);
        }
    }
}

#[test]
fn subdivision_preserves_distances() {
    for case in 0..CASES / 2 {
        let mut rng = Xorshift64::seed_from_u64(10_000 + case);
        let g = weighted_graph(&mut rng);
        let sub = subdivide_weights(&g).unwrap();
        let orig = dijkstra_distances(&g, 0);
        let new = dijkstra_distances(&sub.graph, 0);
        for v in 0..g.num_nodes() {
            assert_eq!(orig[v], new[v]);
        }
    }
}

#[test]
fn components_partition_vertices() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(11_000 + case);
        let g = sparse_graph(&mut rng);
        let (labels, k) = connected_components(&g);
        assert!(k >= 1);
        assert!(labels.iter().all(|&l| (l as usize) < k));
        assert!(is_connected(&g)); // connected_gnm always connected
    }
}

#[test]
fn builder_dedup_idempotent() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(12_000 + case);
        let m = rng.gen_index(60);
        let edges: Vec<(u32, u32, u64)> = (0..m)
            .map(|_| {
                (
                    rng.gen_index(20) as u32,
                    rng.gen_index(20) as u32,
                    rng.gen_range_u64(1, 50),
                )
            })
            .collect();
        let mut b1 = GraphBuilder::new(20);
        let mut b2 = GraphBuilder::new(20);
        for &(u, v, w) in &edges {
            if u != v {
                b1.add_edge(u, v, w).unwrap();
                b2.add_edge(u, v, w).unwrap();
                b2.add_edge(v, u, w).unwrap(); // duplicates must not change result
            }
        }
        assert_eq!(b1.build(), b2.build());
    }
}
