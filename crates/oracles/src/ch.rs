//! Contraction Hierarchies (Geisberger–Sanders–Schultes–Delling, WEA
//! 2008) — the flagship practical shortest-path index the paper mentions
//! alongside hub labels ("contraction hierarchies and algorithms with arc
//! flags", §1.1). Hub labels can in fact be read off a CH by collecting
//! upward search spaces; here the CH is implemented directly with:
//!
//! * lazy node ordering by edge difference + contracted-neighbor count,
//! * witness searches (bounded Dijkstra avoiding the contracted vertex),
//! * shortcut creation preserving all pairwise distances,
//! * the bidirectional *upward* query.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use hl_graph::{Distance, Graph, NodeId, INFINITY};

use crate::oracle::QueryStats;

/// A built contraction hierarchy.
///
/// # Example
///
/// ```
/// use hl_graph::generators;
/// use hl_oracles::ContractionHierarchy;
///
/// let g = generators::weighted_grid(4, 4, 1);
/// let ch = ContractionHierarchy::build(&g);
/// let truth = hl_graph::dijkstra::dijkstra_distances(&g, 0);
/// assert_eq!(ch.query(0, 15), truth[15]);
/// ```
#[derive(Debug, Clone)]
pub struct ContractionHierarchy {
    /// rank[v] = contraction position (0 contracted first = least
    /// important).
    rank: Vec<u32>,
    /// Upward adjacency: for each v, edges to higher-ranked neighbors
    /// (original + shortcuts), sorted by target.
    up: Vec<Vec<(NodeId, Distance)>>,
    num_shortcuts: usize,
}

impl ContractionHierarchy {
    /// Builds the hierarchy.
    ///
    /// Ordering: a lazy heap on `edge_difference + contracted_neighbors`,
    /// re-evaluated on pop (the standard lazy-update scheme).
    pub fn build(g: &Graph) -> Self {
        let n = g.num_nodes();
        // Working graph: adjacency maps with current (possibly shortcut)
        // weights among non-contracted vertices. Ordered maps, because the
        // order a contracted vertex's neighbours are paired in decides
        // which shortcuts later witness searches see: a `HashMap` made the
        // hierarchy differ from one `build` to the next.
        let mut adj: Vec<BTreeMap<NodeId, Distance>> = vec![BTreeMap::new(); n];
        for (u, v, w) in g.edges() {
            insert_min(&mut adj, u, v, w);
        }
        let mut contracted = vec![false; n];
        let mut contracted_neighbors = vec![0u32; n];
        let mut rank = vec![0u32; n];
        let mut all_edges: Vec<(NodeId, NodeId, Distance)> = g.edges().collect();
        let mut num_shortcuts = 0usize;

        let mut heap: BinaryHeap<Reverse<(i64, NodeId)>> = (0..n as NodeId)
            .map(|v| Reverse((priority(&adj, &contracted, &contracted_neighbors, v), v)))
            .collect();
        let mut next_rank = 0u32;
        while let Some(Reverse((p, v))) = heap.pop() {
            if contracted[v as usize] {
                continue;
            }
            // Lazy re-evaluation: if the priority went stale, push back.
            let fresh = priority(&adj, &contracted, &contracted_neighbors, v);
            if fresh > p {
                heap.push(Reverse((fresh, v)));
                continue;
            }
            // Contract v.
            rank[v as usize] = next_rank;
            next_rank += 1;
            contracted[v as usize] = true;
            let neighbors: Vec<(NodeId, Distance)> =
                adj[v as usize].iter().map(|(&u, &w)| (u, w)).collect();
            for &(u, _) in &neighbors {
                contracted_neighbors[u as usize] += 1;
                adj[u as usize].remove(&v);
            }
            for i in 0..neighbors.len() {
                for j in (i + 1)..neighbors.len() {
                    let (a, wa) = neighbors[i];
                    let (b, wb) = neighbors[j];
                    let via = wa + wb;
                    if !has_witness(&adj, a, b, via) {
                        if insert_min(&mut adj, a, b, via) {
                            num_shortcuts += 1;
                        }
                        all_edges.push((a, b, via));
                    }
                }
            }
            adj[v as usize].clear();
        }

        // Upward adjacency from every edge ever created.
        let mut up: Vec<Vec<(NodeId, Distance)>> = vec![Vec::new(); n];
        for (u, v, w) in all_edges {
            let (lo, hi) = if rank[u as usize] < rank[v as usize] {
                (u, v)
            } else {
                (v, u)
            };
            up[lo as usize].push((hi, w));
        }
        for row in &mut up {
            row.sort_unstable();
            // Parallel shortcut duplicates: keep the minimum weight.
            row.dedup_by(|next, kept| {
                if next.0 == kept.0 {
                    kept.1 = kept.1.min(next.1);
                    true
                } else {
                    false
                }
            });
        }
        ContractionHierarchy {
            rank,
            up,
            num_shortcuts,
        }
    }

    /// Number of shortcut edges added during construction.
    pub fn num_shortcuts(&self) -> usize {
        self.num_shortcuts
    }

    /// Contraction rank of a vertex (higher = more important).
    pub fn rank(&self, v: NodeId) -> u32 {
        self.rank[v as usize]
    }

    /// Exact point-to-point query: bidirectional Dijkstra over the upward
    /// graph, meeting at the highest-ranked vertex of the shortest path.
    pub fn query(&self, s: NodeId, t: NodeId) -> Distance {
        self.query_with_stats(s, t).0
    }

    /// Query with instrumentation.
    pub fn query_with_stats(&self, s: NodeId, t: NodeId) -> (Distance, QueryStats) {
        let mut stats = QueryStats::default();
        if s == t {
            return (0, stats);
        }
        let df = self.upward_sssp(s, &mut stats);
        let db = self.upward_sssp(t, &mut stats);
        let mut best = INFINITY;
        for (v, d) in &df {
            if let Some(d2) = db.get(v) {
                best = best.min(d.saturating_add(*d2));
            }
        }
        (best, stats)
    }

    fn upward_sssp(&self, s: NodeId, stats: &mut QueryStats) -> HashMap<NodeId, Distance> {
        let mut dist: HashMap<NodeId, Distance> = HashMap::new();
        let mut heap = BinaryHeap::new();
        dist.insert(s, 0);
        heap.push(Reverse((0u64, s)));
        while let Some(Reverse((du, u))) = heap.pop() {
            if du > dist[&u] {
                continue;
            }
            stats.settled += 1;
            for &(v, w) in &self.up[u as usize] {
                let nd = du + w;
                if nd < *dist.get(&v).unwrap_or(&INFINITY) {
                    dist.insert(v, nd);
                    stats.relaxed += 1;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }
}

/// Inserts edge `{u, v}` keeping the minimum weight; returns `true` when a
/// brand-new edge was created.
fn insert_min(adj: &mut [BTreeMap<NodeId, Distance>], u: NodeId, v: NodeId, w: Distance) -> bool {
    let mut fresh = false;
    let e = adj[u as usize].entry(v).or_insert_with(|| {
        fresh = true;
        w
    });
    *e = (*e).min(w);
    let e = adj[v as usize].entry(u).or_insert(w);
    *e = (*e).min(w);
    fresh
}

/// Witness search: is there a path `a → b` of length `<= cap` in the
/// current remaining graph (the contracted vertex is already detached)?
/// Bounded Dijkstra with a hop limit — failing to find a witness is always
/// safe (an extra shortcut never breaks correctness).
fn has_witness(adj: &[BTreeMap<NodeId, Distance>], a: NodeId, b: NodeId, cap: Distance) -> bool {
    const HOP_LIMIT: u32 = 16;
    let mut dist: HashMap<NodeId, (Distance, u32)> = HashMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(a, (0, 0));
    heap.push(Reverse((0u64, 0u32, a)));
    while let Some(Reverse((du, hops, u))) = heap.pop() {
        if du > cap {
            return false;
        }
        if u == b {
            return du <= cap;
        }
        if let Some(&(best, best_hops)) = dist.get(&u) {
            if du > best || (du == best && hops > best_hops) {
                continue;
            }
        }
        if hops == HOP_LIMIT {
            continue;
        }
        for (&v, &w) in &adj[u as usize] {
            let nd = du + w;
            if nd <= cap {
                let better = match dist.get(&v) {
                    None => true,
                    Some(&(d, _)) => nd < d,
                };
                if better {
                    dist.insert(v, (nd, hops + 1));
                    heap.push(Reverse((nd, hops + 1, v)));
                }
            }
        }
    }
    false
}

/// Node-ordering priority: edge difference (shortcuts that contraction
/// would add minus edges removed) plus the contracted-neighbors term.
fn priority(
    adj: &[BTreeMap<NodeId, Distance>],
    contracted: &[bool],
    contracted_neighbors: &[u32],
    v: NodeId,
) -> i64 {
    debug_assert!(!contracted[v as usize]);
    let neighbors: Vec<(NodeId, Distance)> =
        adj[v as usize].iter().map(|(&u, &w)| (u, w)).collect();
    let deg = neighbors.len() as i64;
    let mut shortcuts = 0i64;
    for i in 0..neighbors.len() {
        for j in (i + 1)..neighbors.len() {
            let (a, wa) = neighbors[i];
            let (b, wb) = neighbors[j];
            // Approximate: count a shortcut unless a direct a-b edge is
            // already at most wa + wb (full witness search at ordering time
            // is too slow; the real contraction re-checks).
            let direct = adj[a as usize].get(&b).copied().unwrap_or(INFINITY);
            if direct > wa + wb {
                shortcuts += 1;
            }
        }
    }
    2 * (shortcuts - deg) + contracted_neighbors[v as usize] as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_graph::apsp::DistanceMatrix;
    use hl_graph::dijkstra::dijkstra_distances;
    use hl_graph::generators;

    fn check_all_pairs(g: &Graph) {
        let ch = ContractionHierarchy::build(g);
        let m = DistanceMatrix::compute(g).unwrap();
        for u in 0..g.num_nodes() as NodeId {
            for v in 0..g.num_nodes() as NodeId {
                assert_eq!(ch.query(u, v), m.distance(u, v), "pair {u},{v}");
            }
        }
    }

    #[test]
    fn build_is_a_function_of_the_graph() {
        // On weighted grids the neighbour pairing order shows; with
        // `HashMap` adjacency this failed on every run.
        let g = generators::weighted_grid(12, 12, 13);
        let (a, b) = (
            ContractionHierarchy::build(&g),
            ContractionHierarchy::build(&g),
        );
        assert_eq!(a.rank, b.rank);
        assert_eq!(a.num_shortcuts(), b.num_shortcuts());
        assert_eq!(a.up, b.up);
    }

    #[test]
    fn exact_on_path_and_cycle() {
        check_all_pairs(&generators::path(20));
        check_all_pairs(&generators::cycle(15));
    }

    #[test]
    fn exact_on_weighted_grid() {
        check_all_pairs(&generators::weighted_grid(6, 6, 4));
    }

    #[test]
    fn exact_on_sparse_random() {
        check_all_pairs(&generators::connected_gnm(60, 40, 6));
    }

    #[test]
    fn exact_on_tree_and_star() {
        check_all_pairs(&generators::random_tree(40, 2));
        check_all_pairs(&generators::star(25));
    }

    #[test]
    fn exact_on_disconnected() {
        let g = hl_graph::builder::graph_from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        check_all_pairs(&g);
    }

    #[test]
    fn exact_on_expander() {
        check_all_pairs(&generators::union_of_matchings(40, 3, 9));
    }

    #[test]
    fn query_search_space_is_small_on_grids() {
        let g = generators::weighted_grid(12, 12, 8);
        let ch = ContractionHierarchy::build(&g);
        let truth = dijkstra_distances(&g, 0);
        let (d, stats) = ch.query_with_stats(0, 143);
        assert_eq!(d, truth[143]);
        assert!(
            stats.settled < 2 * g.num_nodes(),
            "CH upward spaces should be small: settled {}",
            stats.settled
        );
    }

    #[test]
    fn ranks_are_a_permutation() {
        let g = generators::grid(5, 5);
        let ch = ContractionHierarchy::build(&g);
        let mut ranks: Vec<u32> = (0..25u32).map(|v| ch.rank(v)).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn shortcut_count_reported() {
        let g = generators::weighted_grid(6, 6, 1);
        let ch = ContractionHierarchy::build(&g);
        // Grids need some shortcuts but far fewer than n^2.
        assert!(ch.num_shortcuts() < 36 * 36);
    }
}
