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
    bfs_distances_bounded(g, source, INFINITY)
}

/// BFS distances from `source`, exploring only vertices within `bound` hops.
///
/// Vertices farther than `bound` (or unreachable) get [`INFINITY`].
pub fn bfs_distances_bounded(g: &Graph, source: NodeId, bound: Distance) -> Vec<Distance> {
    let mut dist = vec![INFINITY; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        if du >= bound {
            continue;
        }
        for &v in g.neighbor_ids(u) {
            if dist[v as usize] == INFINITY {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// BFS that also returns, for each vertex, the parent on a canonical
/// (smallest-parent-id) shortest path tree rooted at `source`.
///
/// `parent[source] == source`; unreachable vertices have parent
/// `NodeId::MAX`.
pub fn bfs_with_parents(g: &Graph, source: NodeId) -> (Vec<Distance>, Vec<NodeId>) {
    let mut dist = vec![INFINITY; g.num_nodes()];
    let mut parent = vec![NodeId::MAX; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    parent[source as usize] = source;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbor_ids(u) {
            if dist[v as usize] == INFINITY {
                dist[v as usize] = du + 1;
                // Neighbors are scanned in increasing id order and BFS pops
                // vertices in increasing distance order, so the first parent
                // found is the smallest-id parent at the previous level.
                parent[v as usize] = u;
                queue.push_back(v);
            }
        }
    }
    (dist, parent)
}

/// Counts shortest paths from `source` to every vertex (saturating at
/// `u64::MAX`), along with the distances.
///
/// A count of exactly 1 certifies a *unique* shortest path, the property
/// exploited throughout Section 2 of the paper.
///
/// # Example
///
/// ```
/// use hl_graph::{generators, bfs::bfs_count_paths};
///
/// let g = generators::cycle(6);
/// let (dist, count) = bfs_count_paths(&g, 0);
/// assert_eq!(dist[3], 3);
/// assert_eq!(count[3], 2, "two ways around an even cycle");
/// ```
pub fn bfs_count_paths(g: &Graph, source: NodeId) -> (Vec<Distance>, Vec<u64>) {
    let mut dist = vec![INFINITY; g.num_nodes()];
    let mut count = vec![0u64; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    count[source as usize] = 1;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        let cu = count[u as usize];
        for &v in g.neighbor_ids(u) {
            if dist[v as usize] == INFINITY {
                dist[v as usize] = du + 1;
                count[v as usize] = cu;
                queue.push_back(v);
            } else if dist[v as usize] == du + 1 {
                count[v as usize] = count[v as usize].saturating_add(cu);
            }
        }
    }
    (dist, count)
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

    fn path5() -> Graph {
        generators::path(5)
    }

    #[test]
    fn distances_on_path() {
        let g = path5();
        let d = bfs_distances(&g, 0);
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
    fn bounded_bfs_stops() {
        let g = path5();
        let d = bfs_distances_bounded(&g, 0, 2);
        assert_eq!(d, vec![0, 1, 2, INFINITY, INFINITY]);
    }

    #[test]
    fn bounded_zero_only_source() {
        let g = path5();
        let d = bfs_distances_bounded(&g, 2, 0);
        assert_eq!(d, vec![INFINITY, INFINITY, 0, INFINITY, INFINITY]);
    }

    #[test]
    fn parents_form_tree() {
        let g = generators::grid(3, 3);
        let (d, p) = bfs_with_parents(&g, 0);
        for v in 0..9u32 {
            if v == 0 {
                assert_eq!(p[0], 0);
                continue;
            }
            let pv = p[v as usize];
            assert_eq!(d[pv as usize] + 1, d[v as usize]);
            assert!(g.has_edge(pv, v));
        }
    }

    #[test]
    fn path_counting_on_cycle() {
        // On an even cycle the antipodal vertex has exactly 2 shortest paths.
        let g = generators::cycle(6);
        let (d, c) = bfs_count_paths(&g, 0);
        assert_eq!(d[3], 3);
        assert_eq!(c[3], 2);
        assert_eq!(c[1], 1);
        assert_eq!(c[2], 1);
    }

    #[test]
    fn path_counting_on_grid() {
        // In a 3x3 grid the opposite corner has C(4,2) = 6 shortest paths.
        let g = generators::grid(3, 3);
        let (d, c) = bfs_count_paths(&g, 0);
        assert_eq!(d[8], 4);
        assert_eq!(c[8], 6);
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
