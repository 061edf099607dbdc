//! Breadth-first search primitives for unit-weight graphs.

use std::collections::VecDeque;

use crate::graph::{Graph, NodeId, INFINITY};
use crate::Distance;

/// Single-source BFS distances (in hops) from `source`.
///
/// Entries of unreachable vertices are [`INFINITY`].
///
/// # Example
///
/// ```
/// use hl_graph::{generators, bfs::bfs_distances};
///
/// let g = generators::cycle(6);
/// assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 2, 1]);
/// ```
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<Distance> {
    let mut dist = vec![INFINITY; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbor_ids(u) {
            if dist[v as usize] == INFINITY {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Hop distance between a single pair, stopping as soon as `target` is
/// settled. Returns [`INFINITY`] when unreachable.
pub fn bfs_distance_between(g: &Graph, source: NodeId, target: NodeId) -> Distance {
    if source == target {
        return 0;
    }
    let mut dist = vec![INFINITY; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbor_ids(u) {
            if dist[v as usize] == INFINITY {
                if v == target {
                    return du + 1;
                }
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::generators;

    #[test]
    fn distances_on_path() {
        let d = bfs_distances(&generators::path(5), 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unreachable_is_infinity() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], INFINITY);
        assert_eq!(d[3], INFINITY);
    }

    #[test]
    fn pairwise_early_exit_matches_full() {
        let g = generators::grid(4, 5);
        let d = bfs_distances(&g, 3);
        for t in 0..g.num_nodes() as NodeId {
            assert_eq!(bfs_distance_between(&g, 3, t), d[t as usize]);
        }
    }
}
