//! Canonical shortest-path trees and path extraction.
//!
//! The proof of Theorem 2.1 fixes, for every vertex `v`, an arbitrary
//! shortest-path tree `T_v` and replaces hub sets `S_v` with the vertex set
//! `S*_v` of the minimal subtree of `T_v` containing them. This module
//! provides those trees with a *canonical* deterministic choice
//! (smallest-id parents, on every graph) plus the closure operation.

use crate::dijkstra::shortest_path_distances;
use crate::graph::{Graph, NodeId, INFINITY};
use crate::Distance;

/// A rooted canonical shortest-path tree.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    root: NodeId,
    dist: Vec<Distance>,
    parent: Vec<NodeId>,
}

impl ShortestPathTree {
    /// Builds the canonical shortest-path tree rooted at `root`: the
    /// distances are [`shortest_path_distances`], and every other reachable
    /// `v` takes as parent the smallest-id neighbour `u` with
    /// `d(u) + w(u, v) = d(v)`. Positive weights make every such `u`
    /// strictly closer to the root, so the parent chains form a tree.
    ///
    /// # Panics
    ///
    /// Debug-asserts that every edge weight is strictly positive; with a
    /// zero-weight edge two tight neighbours can be each other's parent.
    pub fn build(g: &Graph, root: NodeId) -> Self {
        debug_assert!(
            g.edges().all(|(_, _, w)| w > 0),
            "canonical trees require strictly positive edge weights"
        );
        let dist = shortest_path_distances(g, root);
        let parent = (0..g.num_nodes() as NodeId)
            .map(|v| {
                if v == root {
                    return root;
                }
                g.neighbors(v)
                    .filter(|&(u, w)| {
                        let du = dist[u as usize];
                        du != INFINITY && du + w == dist[v as usize]
                    })
                    .map(|(u, _)| u)
                    .min()
                    .unwrap_or(NodeId::MAX)
            })
            .collect();
        ShortestPathTree { root, dist, parent }
    }

    /// The tree root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Distance from the root to `v`.
    pub fn distance(&self, v: NodeId) -> Distance {
        self.dist[v as usize]
    }

    /// Parent of `v` in the tree (`root`'s parent is itself); `None` when
    /// `v` is unreachable.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let p = self.parent[v as usize];
        if p == NodeId::MAX {
            None
        } else {
            Some(p)
        }
    }

    /// The root-to-`v` path as a vertex sequence (inclusive); `None` when
    /// unreachable.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[v as usize] == INFINITY {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while cur != self.root {
            cur = self.parent[cur as usize];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Closes `set` under tree ancestors: returns the vertex set of the
    /// minimal subtree rooted at the root containing all of `set` — the
    /// `S*_v` of Theorem 2.1 (Eq. 1). Unreachable members are dropped.
    pub fn ancestor_closure(&self, set: &[NodeId]) -> Vec<NodeId> {
        let mut in_closure = vec![false; self.dist.len()];
        in_closure[self.root as usize] = true;
        for &v in set {
            if self.dist[v as usize] == INFINITY {
                continue;
            }
            let mut cur = v;
            while !in_closure[cur as usize] {
                in_closure[cur as usize] = true;
                cur = self.parent[cur as usize];
            }
        }
        (0..self.dist.len() as NodeId)
            .filter(|&v| in_closure[v as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::generators;

    #[test]
    fn path_extraction_on_grid() {
        let g = generators::grid(3, 3);
        let t = ShortestPathTree::build(&g, 0);
        let p = t.path_to(8).unwrap();
        assert_eq!(p.len(), 5, "4 hops from corner to corner");
        assert_eq!(p[0], 0);
        assert_eq!(p[4], 8);
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn unreachable_has_no_path() {
        let g = graph_from_edges(3, &[(0, 1)]).unwrap();
        let t = ShortestPathTree::build(&g, 0);
        assert!(t.path_to(2).is_none());
        assert_eq!(t.parent(2), None);
        assert_eq!(t.distance(2), INFINITY);
    }

    #[test]
    fn root_properties() {
        let g = generators::path(4);
        let t = ShortestPathTree::build(&g, 2);
        assert_eq!(t.root(), 2);
        assert_eq!(t.parent(2), Some(2));
        assert_eq!(t.path_to(2).unwrap(), vec![2]);
    }

    #[test]
    fn closure_contains_set_and_ancestors() {
        let g = generators::balanced_binary_tree(3);
        let t = ShortestPathTree::build(&g, 0);
        // Leaves 7 and 9: closure must contain their root paths.
        let closure = t.ancestor_closure(&[7, 9]);
        // path to 7: 0,1,3,7 ; path to 9: 0,1,4,9
        let expected: Vec<NodeId> = vec![0, 1, 3, 4, 7, 9];
        assert_eq!(closure, expected);
    }

    #[test]
    fn closure_of_empty_set_is_root() {
        let g = generators::path(5);
        let t = ShortestPathTree::build(&g, 3);
        assert_eq!(t.ancestor_closure(&[]), vec![3]);
    }

    #[test]
    fn closure_size_bounded_by_depth_times_set() {
        let g = generators::grid(5, 5);
        let t = ShortestPathTree::build(&g, 0);
        let set = [24u32, 20, 4];
        let closure = t.ancestor_closure(&set);
        let max_depth = 8; // hop diameter of the grid from corner
        assert!(closure.len() <= (max_depth + 1) * set.len());
        for &v in &set {
            assert!(closure.contains(&v));
        }
    }

    #[test]
    fn unit_weight_parent_is_the_smallest_tight_neighbour() {
        // BFS from 0 discovers 9 (through 3) before 7 (through 5); both are
        // tight for 10, and the canonical tree hangs 10 under 7.
        let edges = [(0, 5), (0, 3), (3, 9), (5, 7), (7, 10), (9, 10)];
        let g = graph_from_edges(11, &edges).unwrap();
        let t = ShortestPathTree::build(&g, 0);
        assert_eq!(t.distance(10), 3);
        assert_eq!(t.parent(10), Some(7));
        assert_eq!(t.path_to(10).unwrap(), vec![0, 5, 7, 10]);
    }

    #[test]
    fn weighted_tree_canonical_parents() {
        let g = generators::weighted_grid(4, 4, 77);
        let t = ShortestPathTree::build(&g, 0);
        for v in 1..16u32 {
            let p = t.parent(v).unwrap();
            let w = g.edge_weight(p, v).unwrap();
            assert_eq!(t.distance(p) + w, t.distance(v));
        }
    }
}
