//! Separator-based hub labeling (Gavoille–Peleg–Pérennes–Raz style).
//!
//! Recursively split the graph along balanced separators; every vertex
//! stores, as hubs, all separator vertices of every recursion level it
//! belongs to, with *true graph* distances. For a pair `u, v`, consider
//! the first recursion step that puts them in different parts (or removes
//! one of them): every `u–v` path crosses that separator, so some
//! separator vertex lies on a shortest path and is a hub of both.
//!
//! Correctness holds for **any** graph; sizes are `O(√n·log n)` hubs on
//! planar/grid-like inputs where the BFS-level heuristic finds `O(√n)`
//! separators — the scheme the paper quotes for planar graphs (§1.1).
//!
//! Note hubs store distances in the *full* graph (not the part), which can
//! only help: the labeling stays admissible and the cover argument still
//! holds because the crossing separator vertex realizes a full-graph
//! shortest path.

use hl_graph::dijkstra::shortest_path_distances;
use hl_graph::separator::bfs_level_separator;
use hl_graph::{Graph, GraphError, NodeId, INFINITY};

use crate::flat::FlatLabeling;

/// Builds the separator-based labeling.
///
/// Runs one SSSP per separator vertex over the full graph, so the cost is
/// `O(#hubs · (m + n log n))`.
///
/// # Errors
///
/// [`GraphError::DistanceOverflow`] when a hub distance exceeds the
/// arena's `u32` lane.
pub fn separator_labeling(g: &Graph) -> Result<FlatLabeling, GraphError> {
    let n = g.num_nodes();
    let mut pairs: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); n];
    // Work list of parts to split.
    let mut stack: Vec<Vec<NodeId>> = vec![(0..n as NodeId).collect()];
    while let Some(part) = stack.pop() {
        if part.is_empty() {
            continue;
        }
        if part.len() == 1 {
            // Singleton: it is its own hub (distance 0).
            pairs[part[0] as usize].push((part[0], 0));
            continue;
        }
        let sep = bfs_level_separator(g, &part);
        // Every separator vertex becomes a hub of every vertex in the part
        // (including the separator itself), at full-graph distance.
        for &s in &sep.vertices {
            let dist = shortest_path_distances(g, s);
            for &v in &part {
                if dist[v as usize] != INFINITY {
                    pairs[v as usize].push((s, dist[v as usize]));
                }
            }
        }
        for piece in sep.parts {
            stack.push(piece);
        }
    }
    Ok(FlatLabeling::from_pair_lists(pairs)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::verify_exact;
    use crate::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    #[test]
    fn exact_on_grid() {
        let g = generators::grid(8, 8);
        let hl = separator_labeling(&g).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn exact_on_path_cycle_tree() {
        for g in [
            generators::path(40),
            generators::cycle(33),
            generators::random_tree(50, 4),
        ] {
            let hl = separator_labeling(&g).unwrap();
            assert!(verify_exact(&g, &hl).unwrap().is_exact());
        }
    }

    #[test]
    fn exact_on_weighted_grid() {
        let g = generators::weighted_grid(6, 6, 11);
        let hl = separator_labeling(&g).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn exact_on_sparse_random_and_expander() {
        for g in [
            generators::connected_gnm(60, 30, 7),
            generators::union_of_matchings(40, 3, 8),
        ] {
            let hl = separator_labeling(&g).unwrap();
            assert!(verify_exact(&g, &hl).unwrap().is_exact());
        }
    }

    #[test]
    fn exact_on_disconnected() {
        let g = hl_graph::builder::graph_from_edges(7, &[(0, 1), (2, 3), (4, 5)]).unwrap();
        let hl = separator_labeling(&g).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn sqrt_scaling_on_grids() {
        // Label sizes on k x k grids should grow ~ k (the separator size),
        // i.e. ~ sqrt(n): going 8x8 -> 16x16 should ~double the average,
        // not ~quadruple it.
        let small = separator_labeling(&generators::grid(8, 8)).unwrap();
        let large = separator_labeling(&generators::grid(16, 16)).unwrap();
        let ratio = large.average_hubs() / small.average_hubs();
        assert!(
            ratio < 3.2,
            "expected ~2x growth for 4x vertices, got {ratio:.2} ({} -> {})",
            small.average_hubs(),
            large.average_hubs()
        );
    }

    #[test]
    fn competitive_with_pll_on_grids() {
        let g = generators::grid(12, 12);
        let sep = separator_labeling(&g).unwrap();
        let pll = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        // Both should be well below the trivial n hubs per vertex.
        assert!(sep.average_hubs() < 72.0);
        assert!(sep.max_hubs() < 144);
        // And within a moderate factor of each other.
        assert!(sep.average_hubs() < 6.0 * pll.average_hubs());
    }

    #[test]
    fn logarithmic_on_paths() {
        // On a path every BFS-level separator is a single vertex, so the
        // recursion gives ~log n hubs per vertex.
        let g = generators::path(256);
        let hl = separator_labeling(&g).unwrap();
        assert!(
            hl.max_hubs() <= 12,
            "path separators are single vertices: max = {}",
            hl.max_hubs()
        );
    }

    #[test]
    fn bounded_on_bushy_trees() {
        // BFS levels of a balanced binary tree are large (2^k vertices), so
        // the heuristic pays more than a centroid would — but sizes must
        // stay well below n. (Use `tree::centroid_labeling` for the optimal
        // tree scheme.)
        let g = generators::balanced_binary_tree(7); // 255 vertices
        let hl = separator_labeling(&g).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
        assert!(hl.max_hubs() <= 80, "max = {}", hl.max_hubs());
    }
}
