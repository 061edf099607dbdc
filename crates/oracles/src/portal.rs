//! Portal oracles: the naive `S/T` tradeoff curve.
//!
//! The paper's introduction asks for oracles with `S·T = Õ(n²)` between
//! the trivial endpoints (`S = Õ(n)` with Dijkstra queries, `S = Õ(n²)`
//! with table lookups) and notes hub labeling is the main candidate
//! technique. The *portal oracle* is the straightforward interpolation:
//! store full distance rows for `k` portal vertices, and answer queries by
//! bidirectional Dijkstra seeded with the portal upper bound
//! `min_p d(u,p) + d(p,v)` — exact always, faster as `k` grows (and exact
//! immediately when an endpoint is a portal or a portal lies on a shortest
//! path). Charting settled vertices vs `k` draws the tradeoff curve the
//! hub-labeling point then beats.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hl_graph::dijkstra::shortest_path_distances;
use hl_graph::{Distance, Graph, NodeId, INFINITY};

use crate::oracle::{DistanceOracle, QueryStats};

/// A portal oracle over `k` stored distance rows.
#[derive(Debug)]
pub struct PortalOracle<'g> {
    graph: &'g Graph,
    rows: Vec<Vec<Distance>>,
    is_portal: Vec<bool>,
    portal_index: Vec<usize>,
}

impl<'g> PortalOracle<'g> {
    /// Builds the oracle with the `k` highest-degree vertices as portals.
    pub fn by_degree(graph: &'g Graph, k: usize) -> Self {
        let mut order: Vec<NodeId> = (0..graph.num_nodes() as NodeId).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        order.truncate(k.min(graph.num_nodes()));
        Self::with_portals(graph, order)
    }

    /// Builds the oracle with explicit portals.
    pub fn with_portals(graph: &'g Graph, portals: Vec<NodeId>) -> Self {
        let rows: Vec<Vec<Distance>> = portals
            .iter()
            .map(|&p| shortest_path_distances(graph, p))
            .collect();
        let mut is_portal = vec![false; graph.num_nodes()];
        let mut portal_index = vec![usize::MAX; graph.num_nodes()];
        for (i, &p) in portals.iter().enumerate() {
            is_portal[p as usize] = true;
            portal_index[p as usize] = i;
        }
        PortalOracle {
            graph,
            rows,
            is_portal,
            portal_index,
        }
    }

    /// Table space in bytes (`k · n` distances).
    pub fn memory_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.len() * std::mem::size_of::<Distance>())
            .sum()
    }

    /// Upper bound on `d(u, v)` through the best portal.
    pub fn portal_upper_bound(&self, u: NodeId, v: NodeId) -> Distance {
        let mut best = INFINITY;
        for row in &self.rows {
            let (du, dv) = (row[u as usize], row[v as usize]);
            if du != INFINITY && dv != INFINITY {
                best = best.min(du + dv);
            }
        }
        best
    }

    /// Exact query with instrumentation: table lookup when an endpoint is
    /// a portal, otherwise bidirectional Dijkstra bounded by the portal
    /// upper bound.
    pub fn query_with_stats(&self, u: NodeId, v: NodeId) -> (Distance, QueryStats) {
        let mut stats = QueryStats::default();
        if u == v {
            return (0, stats);
        }
        if self.is_portal[u as usize] {
            return (self.rows[self.portal_index[u as usize]][v as usize], stats);
        }
        if self.is_portal[v as usize] {
            return (self.rows[self.portal_index[v as usize]][u as usize], stats);
        }
        let mut best = self.portal_upper_bound(u, v);
        // Bidirectional Dijkstra with `best` as the incumbent: searches
        // terminate as soon as top_f + top_b >= best.
        let n = self.graph.num_nodes();
        let mut dist_f = vec![INFINITY; n];
        let mut dist_b = vec![INFINITY; n];
        let mut heap_f = BinaryHeap::new();
        let mut heap_b = BinaryHeap::new();
        dist_f[u as usize] = 0;
        dist_b[v as usize] = 0;
        heap_f.push(Reverse((0u64, u)));
        heap_b.push(Reverse((0u64, v)));
        loop {
            let tf = heap_f.peek().map(|Reverse((d, _))| *d);
            let tb = heap_b.peek().map(|Reverse((d, _))| *d);
            match (tf, tb) {
                (None, None) => break,
                (Some(a), Some(b)) if a.saturating_add(b) >= best => break,
                _ => {}
            }
            let forward = match (tf, tb) {
                (Some(a), Some(b)) => a <= b,
                (Some(_), None) => true,
                _ => false,
            };
            if !forward && tb.is_none() {
                break;
            }
            let (heap, dist, other) = if forward {
                (&mut heap_f, &mut dist_f, &dist_b)
            } else {
                (&mut heap_b, &mut dist_b, &dist_f)
            };
            if let Some(Reverse((du, x))) = heap.pop() {
                if du > dist[x as usize] {
                    continue;
                }
                stats.settled += 1;
                if other[x as usize] != INFINITY {
                    best = best.min(du.saturating_add(other[x as usize]));
                }
                for (y, w) in self.graph.neighbors(x) {
                    let nd = du + w;
                    if nd < dist[y as usize] {
                        dist[y as usize] = nd;
                        stats.relaxed += 1;
                        heap.push(Reverse((nd, y)));
                        if other[y as usize] != INFINITY {
                            best = best.min(nd.saturating_add(other[y as usize]));
                        }
                    }
                }
            }
        }
        (best, stats)
    }
}

impl DistanceOracle for PortalOracle<'_> {
    fn name(&self) -> &'static str {
        "portal"
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        self.query_with_stats(u, v).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_graph::apsp::DistanceMatrix;
    use hl_graph::generators;

    fn check_exact(g: &Graph, oracle: &PortalOracle<'_>) {
        let m = DistanceMatrix::compute(g).unwrap();
        for u in 0..g.num_nodes() as NodeId {
            for v in 0..g.num_nodes() as NodeId {
                assert_eq!(oracle.distance(u, v), m.distance(u, v), "pair {u},{v}");
            }
        }
    }

    #[test]
    fn exact_at_every_portal_count() {
        let g = generators::weighted_grid(6, 6, 7);
        for k in [0usize, 1, 4, 16, 36] {
            let oracle = PortalOracle::by_degree(&g, k);
            check_exact(&g, &oracle);
        }
    }

    #[test]
    fn exact_on_disconnected() {
        let g = hl_graph::builder::graph_from_edges(6, &[(0, 1), (2, 3)]).unwrap();
        check_exact(&g, &PortalOracle::by_degree(&g, 2));
    }

    #[test]
    fn full_portal_set_is_table_lookup() {
        let g = generators::grid(5, 5);
        let oracle = PortalOracle::by_degree(&g, 25);
        let (_, stats) = oracle.query_with_stats(3, 19);
        assert_eq!(stats.settled, 0, "every endpoint is a portal");
        assert_eq!(oracle.memory_bytes(), 25 * 25 * 8);
    }

    #[test]
    fn more_portals_settle_fewer_vertices() {
        let g = generators::weighted_grid(14, 14, 3);
        let sparse = PortalOracle::by_degree(&g, 2);
        let dense = PortalOracle::by_degree(&g, 60);
        let mut settled_sparse = 0usize;
        let mut settled_dense = 0usize;
        for i in 0..40u64 {
            let (u, v) = (((i * 37) % 196) as NodeId, ((i * 113) % 196) as NodeId);
            let (d1, s1) = sparse.query_with_stats(u, v);
            let (d2, s2) = dense.query_with_stats(u, v);
            assert_eq!(d1, d2);
            settled_sparse += s1.settled;
            settled_dense += s2.settled;
        }
        assert!(
            settled_dense < settled_sparse,
            "dense {settled_dense} should beat sparse {settled_sparse}"
        );
    }

    #[test]
    fn upper_bound_is_valid() {
        let g = generators::connected_gnm(50, 25, 9);
        let oracle = PortalOracle::by_degree(&g, 5);
        let m = DistanceMatrix::compute(&g).unwrap();
        for u in 0..50u32 {
            for v in 0..50u32 {
                assert!(oracle.portal_upper_bound(u, v) >= m.distance(u, v));
            }
        }
    }
}
