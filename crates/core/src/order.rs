//! Vertex orderings for ordering-sensitive constructions (PLL, greedy).
//!
//! PLL label sizes depend heavily on processing important vertices first;
//! these orders are the standard heuristics. Each is a free function (the
//! `experiments` ablation sweeps all six); the two that win on label
//! entries — degree everywhere but road-like grids, sampled betweenness
//! there (EXPERIMENTS.md) — are also [`VertexOrder`] strategy objects, so
//! a construction (notably [`crate::pll::build_with_strategy`]) takes the
//! ordering as a pluggable parameter without special-casing names.
//!
//! Orders that can silently degrade — sampled betweenness with zero
//! samples, closeness on a disconnected graph — return a typed
//! [`OrderError`] instead of a quietly meaningless permutation.

use hl_graph::dijkstra::shortest_path_distances;
use hl_graph::properties::connected_components;
use hl_graph::rng::Xorshift64;
use hl_graph::sptree::ShortestPathTree;
use hl_graph::{Graph, NodeId, INFINITY};

/// Why an ordering heuristic refused to produce an order.
///
/// These are the "silent degradation" cases: the old code returned a
/// permutation that *looked* fine but carried no ordering signal (all-zero
/// scores, unreachable vertices counted as distance zero). Callers that
/// want a fallback should match on the variant and pick a different order
/// explicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderError {
    /// Sampled betweenness with `samples == 0`: every score would be zero
    /// and the "order" would collapse to the identity permutation.
    ZeroSamples,
    /// The heuristic assumes a connected graph, but this one has several
    /// components — unreachable vertices would be scored as if they were
    /// at distance zero (closeness) or never sampled at all (betweenness
    /// with few samples), producing an arbitrary order.
    Disconnected {
        /// Number of connected components found.
        components: usize,
    },
}

impl std::fmt::Display for OrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderError::ZeroSamples => {
                write!(f, "betweenness order needs at least one sample source")
            }
            OrderError::Disconnected { components } => write!(
                f,
                "order heuristic assumes a connected graph, found {components} components"
            ),
        }
    }
}

impl std::error::Error for OrderError {}

/// A pluggable vertex-ordering strategy.
///
/// Implementations compute a permutation of `0..n` to feed an
/// ordering-sensitive construction (PLL processes vertices front to back,
/// so "important" vertices must come first). Strategies carry their own
/// parameters (seed, sample count), which keeps construction pipelines
/// free of per-heuristic knobs.
pub trait VertexOrder {
    /// Short stable name for CLI flags, stats and bench snapshots.
    fn name(&self) -> &'static str;

    /// Computes the processing order for `g`.
    ///
    /// # Errors
    ///
    /// Returns [`OrderError`] when the heuristic cannot produce a
    /// meaningful order for this graph (see the variants).
    fn compute(&self, g: &Graph) -> Result<Vec<NodeId>, OrderError>;
}

/// Vertices by decreasing degree (ties by id) — the classic PLL heuristic.
pub fn by_degree(g: &Graph) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    order
}

/// Seeded uniformly random order.
pub fn random(g: &Graph, seed: u64) -> Vec<NodeId> {
    let mut rng = Xorshift64::seed_from_u64(seed);
    let mut order: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    rng.shuffle(&mut order);
    order
}

/// Approximate-betweenness order: counts, over `samples` seeded random
/// sources, how often each vertex appears on a canonical shortest-path
/// tree path, and sorts by decreasing count.
///
/// This favors vertices through which many shortest paths route — the
/// "highway" vertices that make good early hubs.
///
/// # Errors
///
/// Returns [`OrderError::ZeroSamples`] when `samples == 0` (every score
/// would be zero) and [`OrderError::Disconnected`] on disconnected graphs
/// (components missed by the sample sources would be left unscored and
/// fall back to an arbitrary identity tail).
pub fn by_sampled_betweenness(
    g: &Graph,
    samples: usize,
    seed: u64,
) -> Result<Vec<NodeId>, OrderError> {
    if samples == 0 {
        return Err(OrderError::ZeroSamples);
    }
    let n = g.num_nodes();
    let (_, components) = connected_components(g);
    if components > 1 {
        return Err(OrderError::Disconnected { components });
    }
    let mut rng = Xorshift64::seed_from_u64(seed);
    let mut score = vec![0u64; n];
    let mut sources: Vec<NodeId> = (0..n as NodeId).collect();
    rng.shuffle(&mut sources);
    for &s in sources.iter().take(samples.min(n)) {
        let t = ShortestPathTree::build(g, s);
        // Accumulate subtree sizes: each vertex's count of descendants is
        // the number of shortest paths from s (in the canonical tree)
        // passing through it.
        let mut order: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| t.distance(v) != INFINITY)
            .collect();
        order.sort_unstable_by_key(|&v| std::cmp::Reverse(t.distance(v)));
        let mut subtree = vec![1u64; n];
        for &v in &order {
            if v != s {
                if let Some(p) = t.parent(v) {
                    subtree[p as usize] += subtree[v as usize];
                }
            }
            score[v as usize] += subtree[v as usize];
        }
    }
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(score[v as usize]), v));
    Ok(order)
}

/// Order by decreasing eccentricity-centrality (closeness-like): vertices
/// with small total distance to everything come first. Quadratic; for small
/// graphs and experiments only.
///
/// # Errors
///
/// Returns [`OrderError::Disconnected`] on disconnected graphs, where
/// "total distance" is undefined (the old behaviour scored unreachable
/// pairs as distance zero, making isolated vertices look maximally
/// central).
pub fn by_closeness(g: &Graph) -> Result<Vec<NodeId>, OrderError> {
    let n = g.num_nodes();
    let (_, components) = connected_components(g);
    if components > 1 {
        return Err(OrderError::Disconnected { components });
    }
    let mut total = vec![0u128; n];
    for v in 0..n as NodeId {
        let d = shortest_path_distances(g, v);
        total[v as usize] = d.iter().map(|&x| x as u128).sum();
    }
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.sort_by_key(|&v| (total[v as usize], v));
    Ok(order)
}

/// BFS-level order: repeatedly roots a BFS at the highest-degree vertex
/// not yet reached, then sorts by (level, decreasing degree, id).
///
/// Vertices near the structural "center" of each component come first —
/// a cheap `O(n + m)` stand-in for closeness that scales to millions of
/// vertices and handles disconnected graphs (every component gets its own
/// root).
pub fn by_bfs_level(g: &Graph) -> Vec<NodeId> {
    let n = g.num_nodes();
    let mut level = vec![INFINITY; n];
    let mut by_deg: Vec<NodeId> = by_degree(g);
    let mut queue = std::collections::VecDeque::new();
    for &root in &by_deg {
        if level[root as usize] != INFINITY {
            continue;
        }
        level[root as usize] = 0;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbor_ids(u) {
                if level[v as usize] == INFINITY {
                    level[v as usize] = level[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
    }
    // `by_deg` is already (degree desc, id asc); a stable sort by level
    // keeps that as the tie-break within each level.
    by_deg.sort_by_key(|&v| level[v as usize]);
    by_deg
}

/// Validates that `order` is a permutation of `0..n`.
pub fn is_permutation(order: &[NodeId], n: usize) -> bool {
    if order.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &v in order {
        if (v as usize) >= n || seen[v as usize] {
            return false;
        }
        seen[v as usize] = true;
    }
    true
}

/// [`VertexOrder`] strategy for [`by_degree`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DegreeOrder;

impl VertexOrder for DegreeOrder {
    fn name(&self) -> &'static str {
        "degree"
    }

    fn compute(&self, g: &Graph) -> Result<Vec<NodeId>, OrderError> {
        Ok(by_degree(g))
    }
}

/// [`VertexOrder`] strategy for [`by_sampled_betweenness`].
#[derive(Debug, Clone, Copy)]
pub struct BetweennessOrder {
    /// Number of seeded BFS/SSSP sources to sample.
    pub samples: usize,
    /// RNG seed for source selection.
    pub seed: u64,
}

impl VertexOrder for BetweennessOrder {
    fn name(&self) -> &'static str {
        "betweenness"
    }

    fn compute(&self, g: &Graph) -> Result<Vec<NodeId>, OrderError> {
        by_sampled_betweenness(g, self.samples, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_graph::generators;

    #[test]
    fn all_orders_are_permutations() {
        let g = generators::connected_gnm(40, 20, 5);
        for order in [
            by_degree(&g),
            random(&g, 7),
            by_sampled_betweenness(&g, 8, 7).unwrap(),
            by_closeness(&g).unwrap(),
            by_bfs_level(&g),
        ] {
            assert!(is_permutation(&order, 40));
        }
    }

    #[test]
    fn degree_order_puts_hub_first() {
        let g = generators::star(10);
        assert_eq!(by_degree(&g)[0], 0);
    }

    #[test]
    fn closeness_order_on_path_starts_central() {
        let g = generators::path(9);
        let order = by_closeness(&g).unwrap();
        assert_eq!(order[0], 4, "middle of the path minimizes total distance");
    }

    #[test]
    fn betweenness_order_on_star_puts_center_first() {
        let g = generators::star(12);
        let order = by_sampled_betweenness(&g, 6, 1).unwrap();
        assert_eq!(order[0], 0);
    }

    #[test]
    fn betweenness_rejects_zero_samples() {
        let g = generators::path(5);
        assert_eq!(
            by_sampled_betweenness(&g, 0, 1),
            Err(OrderError::ZeroSamples)
        );
    }

    #[test]
    fn betweenness_and_closeness_reject_disconnected() {
        let g = hl_graph::builder::graph_from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        assert_eq!(
            by_sampled_betweenness(&g, 4, 1),
            Err(OrderError::Disconnected { components: 3 })
        );
        assert_eq!(
            by_closeness(&g),
            Err(OrderError::Disconnected { components: 3 })
        );
        let msg = by_closeness(&g).unwrap_err().to_string();
        assert!(msg.contains("3 components"), "{msg}");
    }

    #[test]
    fn bfs_level_order_on_star_puts_center_first() {
        let g = generators::star(12);
        let order = by_bfs_level(&g);
        assert_eq!(order[0], 0);
        // Leaves follow in id order (all level 1, degree 1).
        assert_eq!(&order[1..4], &[1, 2, 3]);
    }

    #[test]
    fn bfs_level_order_handles_disconnected_graphs() {
        let g = hl_graph::builder::graph_from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let order = by_bfs_level(&g);
        assert!(is_permutation(&order, 6));
        // Component roots (the highest-degree vertex of each component)
        // sit at level 0, so they precede every leaf.
        assert_eq!(order[0], 1, "degree-2 center of the path component");
    }

    #[test]
    fn random_order_is_seeded() {
        let g = generators::path(20);
        assert_eq!(random(&g, 3), random(&g, 3));
        assert_ne!(random(&g, 3), random(&g, 4));
    }

    #[test]
    fn strategy_objects_match_free_functions() {
        let g = generators::connected_gnm(30, 15, 2);
        let betweenness = BetweennessOrder {
            samples: 6,
            seed: 9,
        };
        let pairs: [(&dyn VertexOrder, Vec<NodeId>); 2] = [
            (&DegreeOrder, by_degree(&g)),
            (&betweenness, by_sampled_betweenness(&g, 6, 9).unwrap()),
        ];
        for (strategy, expected) in pairs {
            assert_eq!(
                strategy.compute(&g).unwrap(),
                expected,
                "{}",
                strategy.name()
            );
            assert!(!strategy.name().is_empty());
        }
    }

    #[test]
    fn is_permutation_rejects_bad_inputs() {
        assert!(!is_permutation(&[0, 0], 2));
        assert!(!is_permutation(&[0, 5], 2));
        assert!(!is_permutation(&[0], 2));
        assert!(is_permutation(&[1, 0], 2));
    }
}
