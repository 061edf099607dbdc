//! Pruned Landmark Labeling (PLL), the canonical practical construction of
//! exact hub labelings (2-hop covers, Cohen–Halperin–Kaplan–Zwick), computed with the pruning
//! strategy of Akiba–Iwata–Yoshida.
//!
//! Vertices are processed in a given importance order; a pruned BFS/Dijkstra
//! from the `k`-th vertex adds it as a hub only to vertices whose distance
//! is not already covered by earlier hubs. The result is exact *by
//! construction* for any processing order; the order only affects size.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hl_graph::{Distance, Graph, NodeId, INFINITY};

use crate::flat::FlatLabeling;
use crate::order;
use crate::order::OrderError;

/// A finished PLL labeling, remembering the order it was built with.
#[derive(Debug, Clone)]
pub struct PrunedLandmarkLabeling {
    labeling: FlatLabeling,
    order: Vec<NodeId>,
}

impl PrunedLandmarkLabeling {
    /// Builds the labeling with the classic decreasing-degree order.
    pub fn by_degree(g: &Graph) -> Self {
        Self::with_order(g, order::by_degree(g))
    }

    /// Builds the labeling with a seeded random order (useful as a
    /// worst-case-ish contrast to importance orders).
    pub fn by_random_order(g: &Graph, seed: u64) -> Self {
        Self::with_order(g, order::random(g, seed))
    }

    /// Builds the labeling with sampled-betweenness order.
    ///
    /// # Errors
    ///
    /// Returns [`OrderError`] when the order heuristic cannot produce a
    /// meaningful order (`samples == 0`, disconnected graph) — the old
    /// behaviour silently fell back to a signal-free permutation.
    pub fn by_betweenness(g: &Graph, samples: usize, seed: u64) -> Result<Self, OrderError> {
        Ok(Self::with_order(
            g,
            order::by_sampled_betweenness(g, samples, seed)?,
        ))
    }

    /// Builds the labeling processing vertices in the given order.
    ///
    /// Uses pruned BFS on unit-weight graphs and pruned Dijkstra otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the vertex set.
    pub fn with_order(g: &Graph, order: Vec<NodeId>) -> Self {
        assert!(
            order::is_permutation(&order, g.num_nodes()),
            "PLL order must be a permutation of the vertex set"
        );
        let labeling = if g.is_unit_weighted() {
            build_unit(g, &order)
        } else {
            build_weighted(g, &order)
        };
        PrunedLandmarkLabeling { labeling, order }
    }

    /// The vertex order the labeling was built with.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Borrow the underlying labeling.
    pub fn labeling(&self) -> &FlatLabeling {
        &self.labeling
    }

    /// Extracts the underlying labeling.
    pub fn into_labeling(self) -> FlatLabeling {
        self.labeling
    }
}

/// Shared pruning oracle: distance upper bound for `(root, u)` from the
/// labels built so far, using a scratch table indexed by hub id.
struct Pruner {
    /// dist_from_root[h] = d(root, h) if h is a hub of root's label so far.
    dist_from_root: Vec<Distance>,
    touched: Vec<NodeId>,
}

impl Pruner {
    fn new(n: usize) -> Self {
        Pruner {
            dist_from_root: vec![INFINITY; n],
            touched: Vec::new(),
        }
    }

    fn load_root(&mut self, root_label: &[(NodeId, Distance)]) {
        for &(h, d) in root_label {
            self.dist_from_root[h as usize] = d;
            self.touched.push(h);
        }
    }

    /// Upper bound on d(root, u) via already-assigned hubs.
    fn query(&self, u_label: &[(NodeId, Distance)]) -> Distance {
        let mut best = INFINITY;
        for &(h, d) in u_label {
            let dr = self.dist_from_root[h as usize];
            if dr != INFINITY {
                let cand = dr.saturating_add(d);
                if cand < best {
                    best = cand;
                }
            }
        }
        best
    }

    fn clear(&mut self) {
        for &h in &self.touched {
            self.dist_from_root[h as usize] = INFINITY;
        }
        self.touched.clear();
    }
}

fn build_unit(g: &Graph, order: &[NodeId]) -> FlatLabeling {
    let n = g.num_nodes();
    let mut labels: Vec<Vec<(NodeId, Distance)>> = vec![Vec::new(); n];
    let mut pruner = Pruner::new(n);
    let mut dist = vec![INFINITY; n];
    let mut visited: Vec<NodeId> = Vec::new();
    for &root in order {
        let root_label = labels[root as usize].clone();
        pruner.load_root(&root_label);
        let mut queue = VecDeque::new();
        dist[root as usize] = 0;
        visited.push(root);
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            // Prune: if existing labels already certify d(root, u) <= du,
            // adding root as a hub of u is redundant, and (by the pruning
            // lemma) so is expanding beyond u.
            if pruner.query(&labels[u as usize]) <= du {
                continue;
            }
            labels[u as usize].push((root, du));
            for &v in g.neighbor_ids(u) {
                if dist[v as usize] == INFINITY {
                    dist[v as usize] = du + 1;
                    visited.push(v);
                    queue.push_back(v);
                }
            }
        }
        for &v in &visited {
            dist[v as usize] = INFINITY;
        }
        visited.clear();
        pruner.clear();
    }
    FlatLabeling::from_pair_lists(labels)
}

fn build_weighted(g: &Graph, order: &[NodeId]) -> FlatLabeling {
    let n = g.num_nodes();
    let mut labels: Vec<Vec<(NodeId, Distance)>> = vec![Vec::new(); n];
    let mut pruner = Pruner::new(n);
    let mut dist = vec![INFINITY; n];
    let mut visited: Vec<NodeId> = Vec::new();
    for &root in order {
        let root_label = labels[root as usize].clone();
        pruner.load_root(&root_label);
        let mut heap = BinaryHeap::new();
        dist[root as usize] = 0;
        visited.push(root);
        heap.push(Reverse((0u64, root)));
        while let Some(Reverse((du, u))) = heap.pop() {
            if du > dist[u as usize] {
                continue;
            }
            if pruner.query(&labels[u as usize]) <= du {
                continue;
            }
            labels[u as usize].push((root, du));
            for (v, w) in g.neighbors(u) {
                let nd = du.saturating_add(w);
                if nd < dist[v as usize] {
                    if dist[v as usize] == INFINITY {
                        visited.push(v);
                    }
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        for &v in &visited {
            dist[v as usize] = INFINITY;
        }
        visited.clear();
        pruner.clear();
    }
    FlatLabeling::from_pair_lists(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::verify_exact;
    use hl_graph::generators;

    #[test]
    fn exact_on_path() {
        let g = generators::path(10);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn exact_on_grid_all_orders() {
        let g = generators::grid(5, 6);
        for hl in [
            PrunedLandmarkLabeling::by_degree(&g),
            PrunedLandmarkLabeling::by_random_order(&g, 1),
            PrunedLandmarkLabeling::by_betweenness(&g, 10, 2).unwrap(),
            PrunedLandmarkLabeling::with_order(&g, order::by_closeness(&g).unwrap()),
            PrunedLandmarkLabeling::with_order(&g, order::by_bfs_level(&g)),
        ] {
            assert!(verify_exact(&g, hl.labeling()).unwrap().is_exact());
        }
    }

    #[test]
    fn exact_on_weighted_grid() {
        let g = generators::weighted_grid(6, 6, 13);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn exact_on_disconnected_graph() {
        let g = hl_graph::builder::graph_from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let report = verify_exact(&g, &hl).unwrap();
        assert!(
            report.is_exact(),
            "infinity must round-trip for separated pairs"
        );
    }

    #[test]
    fn star_labels_are_tiny() {
        // On a star, processing the center first gives every leaf a
        // two-hub label {center, self}.
        let g = generators::star(50);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        assert!(hl.max_hubs() <= 2);
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn tree_labels_logarithmic_scale() {
        let g = generators::balanced_binary_tree(7); // 255 vertices
        let hl = PrunedLandmarkLabeling::by_betweenness(&g, 32, 3)
            .unwrap()
            .into_labeling();
        // Heuristic orders on a balanced tree should stay well below n/2.
        assert!(hl.average_hubs() < 24.0, "avg = {}", hl.average_hubs());
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn first_vertex_in_order_hits_everything() {
        let g = generators::cycle(9);
        let pll = PrunedLandmarkLabeling::by_degree(&g);
        let first = pll.order()[0];
        let hl = pll.labeling();
        for v in 0..9u32 {
            assert!(
                hl.hubs_of(v).contains(&first),
                "first-order vertex is a universal hub"
            );
        }
    }

    #[test]
    fn zero_weight_edges_handled() {
        let g = hl_graph::builder::graph_from_weighted_edges(4, &[(0, 1, 0), (1, 2, 3), (2, 3, 0)])
            .unwrap();
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
        assert_eq!(hl.query(0, 3), 3);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rejects_bad_order() {
        let g = generators::path(3);
        let _ = PrunedLandmarkLabeling::with_order(&g, vec![0, 0, 1]);
    }

    #[test]
    fn random_order_deterministic() {
        let g = generators::connected_gnm(30, 15, 4);
        let a = PrunedLandmarkLabeling::by_random_order(&g, 9).into_labeling();
        let b = PrunedLandmarkLabeling::by_random_order(&g, 9).into_labeling();
        assert_eq!(a, b);
    }
}
