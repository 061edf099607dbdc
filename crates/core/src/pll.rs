//! Pruned Landmark Labeling (PLL), the canonical practical construction of
//! exact hub labelings (2-hop covers, Cohen–Halperin–Kaplan–Zwick), computed with the pruning
//! strategy of Akiba–Iwata–Yoshida.
//!
//! Vertices are processed in a given importance order; a pruned BFS/Dijkstra
//! from the `k`-th vertex adds it as a hub only to vertices whose distance
//! is not already covered by earlier hubs. The result is exact *by
//! construction* for any processing order; the order only affects size.
//!
//! The one-root search is written here once — [`SearchScratch::search`],
//! one BFS loop and one Dijkstra loop over a [`LabelAccumulator`] — and
//! everything that builds labels by pruning drives it: one sequential
//! driver (exact PLL at slack 0, [`crate::approx`] above it) and
//! `hl-build`'s parallel batches.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hl_graph::{Distance, Graph, NodeId, INFINITY};

use crate::flat::{FlatLabeling, FlatLayoutError};
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
    /// Panics as [`PrunedLandmarkLabeling::with_order`] does.
    pub fn by_degree(g: &Graph) -> Self {
        Self::with_order(g, order::by_degree(g))
    }

    /// Builds the labeling with a seeded random order (useful as a
    /// worst-case-ish contrast to importance orders).
    /// Panics as [`PrunedLandmarkLabeling::with_order`] does.
    pub fn by_random_order(g: &Graph, seed: u64) -> Self {
        Self::with_order(g, order::random(g, seed))
    }

    /// Builds the labeling with sampled-betweenness order.
    /// Panics as [`PrunedLandmarkLabeling::with_order`] does.
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
    /// Panics if `order` is not a permutation of the vertex set, or if a
    /// label distance exceeds `u32::MAX`, the arena's distance lane
    /// (`hl_build` reports both as typed errors instead).
    pub fn with_order(g: &Graph, order: Vec<NodeId>) -> Self {
        let labeling = pruned_labeling(g, &order, 0);
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

/// The labels assigned so far: one growable hub column and one distance
/// column per vertex, appended in root order. Nothing reads a column
/// sorted while it grows (the pruning test scans it whole), so the sort
/// by hub id happens once, in [`LabelAccumulator::freeze`].
#[derive(Debug)]
pub struct LabelAccumulator {
    hubs: Vec<Vec<NodeId>>,
    dists: Vec<Vec<Distance>>,
    entries: usize,
}

impl LabelAccumulator {
    /// No labels yet, over `n` vertices.
    pub fn new(n: usize) -> Self {
        LabelAccumulator {
            hubs: vec![Vec::new(); n],
            dists: vec![Vec::new(); n],
            entries: 0,
        }
    }

    /// Total entries so far, `Σ_v |S_v|`.
    pub fn num_entries(&self) -> usize {
        self.entries
    }

    /// Appends `(hub, dist)` to vertex `v`'s label.
    pub fn push(&mut self, v: NodeId, hub: NodeId, dist: Distance) {
        self.hubs[v as usize].push(hub);
        self.dists[v as usize].push(dist);
        self.entries += 1;
    }

    fn label(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Distance)> + '_ {
        let (hs, ds) = (&self.hubs[v as usize], &self.dists[v as usize]);
        hs.iter().copied().zip(ds.iter().copied())
    }

    /// Sorts each label by hub id into the query-time arena, one vertex
    /// at a time so the columns are released as the arena fills.
    ///
    /// # Errors
    ///
    /// [`FlatLayoutError::DistanceTooWide`] when a label distance exceeds
    /// the arena's `u32` lane.
    pub fn freeze(self) -> Result<FlatLabeling, FlatLayoutError> {
        let mut flat = FlatLabeling::with_capacity(self.hubs.len(), self.entries);
        let mut pairs = Vec::new();
        for (hs, ds) in self.hubs.into_iter().zip(self.dists) {
            pairs.extend(hs.into_iter().zip(ds));
            flat.push_pairs(&mut pairs)?;
            pairs.clear();
        }
        Ok(flat)
    }
}

/// Per-worker buffers of the pruned search: every `O(n)` allocation a
/// root needs, paid once per worker instead of once per root.
#[derive(Debug)]
pub struct SearchScratch {
    /// Tentative distance from the current root.
    dist: Vec<Distance>,
    /// Vertices whose `dist` entry must be reset after the search.
    visited: Vec<NodeId>,
    /// `root_dist[h]` = `d(root, h)` for the hubs `h` the root already
    /// has, `INFINITY` elsewhere: the root side of the pruning test's
    /// min-plus join, expanded into an array once per root.
    root_dist: Vec<Distance>,
    /// Hubs loaded into `root_dist` (for cheap reset).
    touched: Vec<NodeId>,
    queue: VecDeque<NodeId>,
    heap: BinaryHeap<Reverse<(Distance, NodeId)>>,
    pops: u64,
    pruned: u64,
}

impl SearchScratch {
    /// Buffers for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        SearchScratch {
            dist: vec![INFINITY; n],
            visited: Vec::new(),
            root_dist: vec![INFINITY; n],
            touched: Vec::new(),
            queue: VecDeque::new(),
            heap: BinaryHeap::new(),
            pops: 0,
            pruned: 0,
        }
    }

    /// `(pops, pruned)`: vertices popped, and pops cut by the pruning
    /// test, over every search run with this scratch.
    pub fn counters(&self) -> (u64, u64) {
        (self.pops, self.pruned)
    }

    /// One pruned search from `root` — BFS on unit-weight graphs,
    /// Dijkstra otherwise — against `labels`, which it only reads.
    /// Returns `(v, d(root, v))` for every vertex `v` that needs `root` as
    /// a hub, in pop order: a popped `u` at distance `du` is dropped, and
    /// not expanded, when hubs in `labels` already certify
    /// `d(root, u) <= du + slack` (`slack = 0` is exact PLL).
    pub fn search(
        &mut self,
        g: &Graph,
        labels: &LabelAccumulator,
        root: NodeId,
        slack: Distance,
    ) -> Vec<(NodeId, Distance)> {
        for (h, d) in labels.label(root) {
            self.root_dist[h as usize] = d;
            self.touched.push(h);
        }
        let mut kept = Vec::new();
        self.dist[root as usize] = 0;
        self.visited.push(root);
        if g.is_unit_weighted() {
            self.queue.push_back(root);
            while let Some(u) = self.queue.pop_front() {
                let du = self.dist[u as usize];
                if self.covered(labels, u, du.saturating_add(slack)) {
                    continue;
                }
                kept.push((u, du));
                for &v in g.neighbor_ids(u) {
                    if self.dist[v as usize] == INFINITY {
                        self.dist[v as usize] = du + 1;
                        self.visited.push(v);
                        self.queue.push_back(v);
                    }
                }
            }
        } else {
            self.heap.push(Reverse((0, root)));
            while let Some(Reverse((du, u))) = self.heap.pop() {
                if du > self.dist[u as usize] {
                    continue;
                }
                if self.covered(labels, u, du.saturating_add(slack)) {
                    continue;
                }
                kept.push((u, du));
                for (v, w) in g.neighbors(u) {
                    let nd = du.saturating_add(w);
                    if nd < self.dist[v as usize] {
                        if self.dist[v as usize] == INFINITY {
                            self.visited.push(v);
                        }
                        self.dist[v as usize] = nd;
                        self.heap.push(Reverse((nd, v)));
                    }
                }
            }
        }
        for v in self.visited.drain(..) {
            self.dist[v as usize] = INFINITY;
        }
        for h in self.touched.drain(..) {
            self.root_dist[h as usize] = INFINITY;
        }
        kept
    }

    /// The pruning test: does some hub shared by the (pre-loaded) root
    /// and `u` certify `d(root, u) <= bound`?
    fn covered(&mut self, labels: &LabelAccumulator, u: NodeId, bound: Distance) -> bool {
        self.pops += 1;
        for (h, d) in labels.label(u) {
            let dr = self.root_dist[h as usize];
            if dr != INFINITY && dr.saturating_add(d) <= bound {
                self.pruned += 1;
                return true;
            }
        }
        false
    }
}

/// The sequential driver, the whole of [`PrunedLandmarkLabeling::with_order`]
/// (`slack = 0`) and of [`crate::approx::approx_pll`]: for each root in
/// order, search, then append what the search kept.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the vertex set, or if a
/// label distance exceeds `u32::MAX`, the arena's distance lane.
pub(crate) fn pruned_labeling(g: &Graph, order: &[NodeId], slack: Distance) -> FlatLabeling {
    assert!(
        order::is_permutation(order, g.num_nodes()),
        "PLL order must be a permutation of the vertex set"
    );
    let mut labels = LabelAccumulator::new(g.num_nodes());
    let mut scratch = SearchScratch::new(g.num_nodes());
    for &root in order {
        for (v, d) in scratch.search(g, &labels, root, slack) {
            labels.push(v, root, d);
        }
    }
    let frozen = labels.freeze();
    assert!(
        frozen.is_ok(),
        "PLL label distances must fit the arena's u32 lane: {frozen:?}"
    );
    frozen.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::verify_exact;
    use hl_graph::generators;

    #[test]
    fn first_search_reaches_everything() {
        let g = generators::path(5);
        let kept = SearchScratch::new(5).search(&g, &LabelAccumulator::new(5), 0, 0);
        assert_eq!(kept, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
    }

    #[test]
    fn earlier_labels_prune_later_searches() {
        // Path 0-1-2-3-4 with vertex 2 a hub of everyone: a search from 0
        // stops at 2 (it and every farther vertex are covered); slack 1
        // changes nothing, slack 2 stops it at 1 (2 + 1 <= 1 + 2).
        let g = generators::path(5);
        let mut labels = LabelAccumulator::new(5);
        for v in 0..5u32 {
            labels.push(v, 2, (i64::from(v) - 2).unsigned_abs());
        }
        let mut scratch = SearchScratch::new(5);
        assert_eq!(scratch.search(&g, &labels, 0, 0), vec![(0, 0), (1, 1)]);
        assert_eq!(scratch.counters(), (3, 1));
        assert_eq!(scratch.search(&g, &labels, 0, 1), vec![(0, 0), (1, 1)]);
        assert_eq!(scratch.search(&g, &labels, 0, 2), vec![(0, 0)]);
    }

    #[test]
    fn scratch_resets_between_searches() {
        let g = generators::cycle(6);
        let labels = LabelAccumulator::new(6);
        let mut scratch = SearchScratch::new(6);
        let a = scratch.search(&g, &labels, 3, 0);
        let b = scratch.search(&g, &labels, 3, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_search_uses_dijkstra() {
        let g =
            hl_graph::builder::graph_from_weighted_edges(3, &[(0, 1, 5), (1, 2, 5), (0, 2, 20)])
                .unwrap();
        let kept = SearchScratch::new(3).search(&g, &LabelAccumulator::new(3), 0, 0);
        assert_eq!(kept, vec![(0, 0), (1, 5), (2, 10)]);
    }

    #[test]
    fn freeze_sorts_each_label_by_hub_id_and_equals_from_pair_lists() {
        let appended = [(0, 5, 2), (0, 1, 7), (1, 0, 1), (0, 3, 4), (1, 1, 0)];
        let mut labels = LabelAccumulator::new(3);
        let mut lists = vec![Vec::new(); 3];
        for (v, hub, dist) in appended {
            labels.push(v, hub, dist);
            lists[v as usize].push((hub, dist));
        }
        assert_eq!(labels.num_entries(), 5);
        let flat = labels.freeze().unwrap();
        assert_eq!(flat.hubs_of(0), &[1, 3, 5]);
        assert_eq!(flat.dists_of(0), &[7, 4, 2]);
        assert!(flat.hubs_of(2).is_empty());
        assert_eq!(Ok(flat), FlatLabeling::from_pair_lists(lists));
    }

    #[test]
    fn freeze_rejects_a_distance_past_the_u32_lane() {
        let mut labels = LabelAccumulator::new(2);
        labels.push(0, 0, 0);
        labels.push(1, 0, 1 << 32);
        assert_eq!(
            labels.freeze(),
            Err(FlatLayoutError::DistanceTooWide {
                vertex: 1,
                distance: 1 << 32
            })
        );
    }

    #[test]
    #[should_panic(expected = "u32 lane")]
    fn sequential_driver_panics_on_a_distance_past_the_u32_lane() {
        // The `# Panics` precondition of `with_order`: the edge alone is
        // a label distance of 2^32.
        let g = hl_graph::builder::graph_from_weighted_edges(2, &[(0, 1, 1 << 32)]).unwrap();
        let _ = PrunedLandmarkLabeling::with_order(&g, vec![0, 1]);
    }

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
