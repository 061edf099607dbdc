//! Dijkstra-based shortest paths for weighted graphs (weight 0 allowed).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::bfs;
use crate::graph::{Graph, NodeId, INFINITY};
use crate::Distance;

/// Single-source shortest-path distances from `source`.
///
/// Dispatches to BFS when the graph is unit-weighted. Unreachable vertices
/// get [`INFINITY`].
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn shortest_path_distances(g: &Graph, source: NodeId) -> Vec<Distance> {
    if g.is_unit_weighted() {
        bfs::bfs_distances(g, source)
    } else {
        dijkstra_distances(g, source)
    }
}

/// Dijkstra distances from `source` (no unit-weight dispatch).
pub fn dijkstra_distances(g: &Graph, source: NodeId) -> Vec<Distance> {
    let mut dist = vec![INFINITY; g.num_nodes()];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((du, u))) = heap.pop() {
        if du > dist[u as usize] {
            continue;
        }
        for (v, w) in g.neighbors(u) {
            let nd = du.saturating_add(w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// Counts shortest paths from `source` to every vertex (saturating at
/// `u64::MAX`), along with the [`shortest_path_distances`].
///
/// A count of exactly 1 certifies a *unique* shortest path, the key
/// structural property of the `H_{b,l}` gadget (Lemma 2.2).
///
/// # Example
///
/// ```
/// use hl_graph::{generators, dijkstra::count_shortest_paths};
///
/// let g = generators::cycle(6);
/// let (dist, count) = count_shortest_paths(&g, 0);
/// assert_eq!(dist[3], 3);
/// assert_eq!(count[3], 2, "two ways around an even cycle");
/// ```
///
/// # Panics
///
/// Debug-asserts that every edge weight is strictly positive; path counts
/// are ill-defined in the presence of zero-weight edges.
pub fn count_shortest_paths(g: &Graph, source: NodeId) -> (Vec<Distance>, Vec<u64>) {
    debug_assert!(
        g.edges().all(|(_, _, w)| w > 0),
        "count_shortest_paths requires strictly positive edge weights"
    );
    let dist = shortest_path_distances(g, source);
    // With final distances known, count paths over the shortest-path DAG in
    // increasing-distance order; positive weights make every tight edge go
    // from a strictly smaller distance to a strictly larger one.
    let mut order: Vec<NodeId> = (0..g.num_nodes() as NodeId)
        .filter(|&v| v != source && dist[v as usize] != INFINITY)
        .collect();
    order.sort_unstable_by_key(|&v| dist[v as usize]);
    let mut count = vec![0u64; g.num_nodes()];
    count[source as usize] = 1;
    for v in order {
        let dv = dist[v as usize];
        count[v as usize] = g
            .neighbors(v)
            .filter(|&(u, w)| dist[u as usize] != INFINITY && dist[u as usize] + w == dv)
            .fold(0, |c, (u, _)| c.saturating_add(count[u as usize]));
    }
    (dist, count)
}

/// Point-to-point distance with early termination once `target` is settled.
pub fn dijkstra_distance_between(g: &Graph, source: NodeId, target: NodeId) -> Distance {
    if source == target {
        return 0;
    }
    let mut dist = vec![INFINITY; g.num_nodes()];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((du, u))) = heap.pop() {
        if u == target {
            return du;
        }
        if du > dist[u as usize] {
            continue;
        }
        for (v, w) in g.neighbors(u) {
            let nd = du + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    INFINITY
}

/// Bidirectional Dijkstra point-to-point distance.
///
/// Settles vertices from both endpoints alternately and stops when the two
/// search frontiers certify optimality (`top_f + top_b >= best`).
pub fn bidirectional_distance(g: &Graph, source: NodeId, target: NodeId) -> Distance {
    if source == target {
        return 0;
    }
    let n = g.num_nodes();
    let mut dist_f = vec![INFINITY; n];
    let mut dist_b = vec![INFINITY; n];
    let mut heap_f = BinaryHeap::new();
    let mut heap_b = BinaryHeap::new();
    dist_f[source as usize] = 0;
    dist_b[target as usize] = 0;
    heap_f.push(Reverse((0u64, source)));
    heap_b.push(Reverse((0u64, target)));
    let mut best = INFINITY;
    loop {
        let tf = heap_f.peek().map(|Reverse((d, _))| *d);
        let tb = heap_b.peek().map(|Reverse((d, _))| *d);
        match (tf, tb) {
            (None, None) => break,
            (Some(a), Some(b)) if a.saturating_add(b) >= best => break,
            _ => {}
        }
        // Expand the side with the smaller top; a side that ran dry is
        // skipped (the other may still improve `best`... it cannot, but
        // breaking keeps the invariant simple).
        let forward = match (tf, tb) {
            (Some(a), Some(b)) => a <= b,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!(),
        };
        let (heap, dist, other) = if forward {
            (&mut heap_f, &mut dist_f, &dist_b)
        } else {
            (&mut heap_b, &mut dist_b, &dist_f)
        };
        if let Some(Reverse((du, u))) = heap.pop() {
            if du > dist[u as usize] {
                continue;
            }
            if other[u as usize] != INFINITY {
                best = best.min(du.saturating_add(other[u as usize]));
            }
            for (v, w) in g.neighbors(u) {
                let nd = du + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                    if other[v as usize] != INFINITY {
                        best = best.min(nd.saturating_add(other[v as usize]));
                    }
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_weighted_edges;
    use crate::generators;

    fn weighted_diamond() -> Graph {
        // 0 -1- 1 -1- 3 and 0 -3- 2 -0- 3 : d(0,3) = 2 via 0-1-3
        graph_from_weighted_edges(4, &[(0, 1, 1), (1, 3, 1), (0, 2, 3), (2, 3, 0)]).unwrap()
    }

    #[test]
    fn dijkstra_basic() {
        let g = weighted_diamond();
        let d = dijkstra_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 2]);
    }

    #[test]
    fn zero_weight_edges() {
        let g = graph_from_weighted_edges(3, &[(0, 1, 0), (1, 2, 0)]).unwrap();
        let d = dijkstra_distances(&g, 0);
        assert_eq!(d, vec![0, 0, 0]);
    }

    #[test]
    fn dispatch_matches_bfs_on_unit_graph() {
        let g = generators::grid(4, 4);
        for s in 0..4 {
            assert_eq!(shortest_path_distances(&g, s), dijkstra_distances(&g, s));
        }
    }

    #[test]
    fn count_paths_unique_on_tree() {
        let g = generators::balanced_binary_tree(4);
        let (_, c) = count_shortest_paths(&g, 0);
        for (v, &count) in c.iter().enumerate() {
            assert_eq!(count, 1, "vertex {v}: trees have unique shortest paths");
        }
    }

    #[test]
    fn path_counting_on_cycle() {
        // On an even cycle the antipodal vertex has exactly 2 shortest paths.
        let (d, c) = count_shortest_paths(&generators::cycle(6), 0);
        assert_eq!(d[3], 3);
        assert_eq!(c[..4], [1, 1, 1, 2]);
    }

    #[test]
    fn path_counting_on_grid() {
        // In a 3x3 grid the opposite corner has C(4,2) = 6 shortest paths.
        let (d, c) = count_shortest_paths(&generators::grid(3, 3), 0);
        assert_eq!(d[8], 4);
        assert_eq!(c[8], 6);
    }

    #[test]
    fn point_to_point_and_bidirectional_agree() {
        let g = generators::weighted_grid(5, 5, 0xC0FFEE);
        let full = dijkstra_distances(&g, 7);
        for t in 0..g.num_nodes() as NodeId {
            assert_eq!(dijkstra_distance_between(&g, 7, t), full[t as usize]);
            assert_eq!(bidirectional_distance(&g, 7, t), full[t as usize]);
        }
    }

    #[test]
    fn bidirectional_disconnected() {
        let g = graph_from_weighted_edges(4, &[(0, 1, 2), (2, 3, 2)]).unwrap();
        assert_eq!(bidirectional_distance(&g, 0, 3), INFINITY);
        assert_eq!(dijkstra_distance_between(&g, 0, 3), INFINITY);
    }
}
