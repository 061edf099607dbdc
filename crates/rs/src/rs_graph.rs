//! The classical Ruzsa–Szemerédi graph built from a progression-free set.
//!
//! Given a 3-AP-free set `B ⊆ [0, K)` and a base-point range `[0, N)`, the
//! bipartite graph has left vertices `y = x + a` and right vertices
//! `z = x + 2a` (on disjoint integer ranges), one edge per pair
//! `(x, a) ∈ [N] × B`, and the edge set partitions into the `N` matchings
//! `M_x = { (x + a, x + 2a) : a ∈ B }`.
//!
//! **Why `M_x` is induced:** a cross edge between `(x+a, x+2a)` and
//! `(x+b, x+2b)` would be `(x+a, x+2b) = (x'+c, x'+2c)` for some pair
//! `(x', c)`, forcing `c = 2b − a` and hence the arithmetic progression
//! `a, b, c ∈ B` — which AP-freeness collapses to `a = b = c`. With
//! `|B| = N / 2^{Θ(√log N)}` (Behrend) the graph has `n` vertices,
//! `≤ n` induced matchings and `n² / 2^{Θ(√log n)}` edges, witnessing the
//! upper-bound side of `RS(n)`.

use hl_graph::{Graph, GraphBuilder, NodeId};

use crate::behrend;

/// A Ruzsa–Szemerédi graph together with its induced-matching partition.
#[derive(Debug, Clone)]
pub struct RsGraph {
    graph: Graph,
    matchings: Vec<Vec<(NodeId, NodeId)>>,
    base_points: usize,
    difference_set: Vec<u64>,
}

impl RsGraph {
    /// Builds the RS graph for base points `[0, base_points)` and the given
    /// AP-free difference set.
    ///
    /// # Panics
    ///
    /// Panics if `difference_set` is not 3-AP-free (checked eagerly — the
    /// induced-matching guarantee would silently fail otherwise).
    pub fn from_ap_free_set(base_points: usize, difference_set: &[u64]) -> Self {
        assert!(
            behrend::is_ap_free(difference_set),
            "difference set must be 3-AP-free for matchings to be induced"
        );
        let n = base_points as u64;
        let max_b = difference_set.iter().copied().max().unwrap_or(0);
        // Left vertices: y = x + a ∈ [0, n + max_b); right: z = x + 2a.
        let left_size = (n + max_b) as usize;
        let right_size = (n + 2 * max_b) as usize;
        let offset = left_size as u64;
        let mut builder =
            GraphBuilder::with_capacity(left_size + right_size, base_points * difference_set.len());
        let mut matchings = Vec::with_capacity(base_points);
        for x in 0..n {
            let mut m = Vec::with_capacity(difference_set.len());
            for &a in difference_set {
                let y = (x + a) as NodeId;
                let z = (offset + x + 2 * a) as NodeId;
                #[expect(
                    clippy::expect_used,
                    reason = "y < left_size and z < left_size + right_size by the difference-set bounds"
                )]
                builder.add_unit_edge(y, z).expect("rs vertices in range");
                m.push((y, z));
            }
            if !m.is_empty() {
                matchings.push(m);
            }
        }
        RsGraph {
            graph: builder.build(),
            matchings,
            base_points,
            difference_set: difference_set.to_vec(),
        }
    }

    /// Builds the densest RS graph on roughly `target_vertices` vertices
    /// using the best constructible AP-free difference set
    /// ([`behrend::best_ap_free_set`]).
    ///
    /// The construction uses base points `[0, N)` with `N ≈ target/5` so
    /// that `left + right ≈ (N + K) + (N + 2K) ≤ target` where the
    /// difference set lives in `[0, K)`, `K = N`.
    pub fn behrend(target_vertices: usize) -> Self {
        let n = (target_vertices / 5).max(2) as u64;
        let b = behrend::best_ap_free_set(n);
        RsGraph::from_ap_free_set(n as usize, &b)
    }

    /// The underlying bipartite graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The induced-matching partition (one matching per base point).
    pub fn matchings(&self) -> &[Vec<(NodeId, NodeId)>] {
        &self.matchings
    }

    /// Number of base points `N` (upper bound on the number of matchings).
    pub fn base_points(&self) -> usize {
        self.base_points
    }

    /// The AP-free difference set used.
    pub fn difference_set(&self) -> &[u64] {
        &self.difference_set
    }

    /// `true` when the number of matchings is at most the number of
    /// vertices — the condition in Definition 1.3.
    pub fn is_ruzsa_szemeredi(&self) -> bool {
        self.matchings.len() <= self.graph.num_nodes()
    }

    /// Edge density ratio `n² / m` — an empirical upper-bound witness for
    /// `RS(n)` (every RS graph has `m ≤ n²/RS(n)`, so `RS(n) ≤ n²/m`).
    pub fn rs_upper_witness(&self) -> f64 {
        let n = self.graph.num_nodes() as f64;
        let m = self.graph.num_edges().max(1) as f64;
        n * n / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::induced::{is_induced_matching, is_induced_matching_partition};

    #[test]
    fn tiny_rs_graph_structure() {
        // B = {0, 1} is AP-free; N = 3 base points.
        let rs = RsGraph::from_ap_free_set(3, &[0, 1]);
        assert_eq!(rs.base_points(), 3);
        assert_eq!(rs.matchings().len(), 3);
        assert_eq!(rs.graph().num_edges(), 6);
        assert!(rs.is_ruzsa_szemeredi());
    }

    #[test]
    fn matchings_are_induced() {
        let rs = RsGraph::from_ap_free_set(12, &[0, 1, 3, 4, 9]);
        for m in rs.matchings() {
            assert!(is_induced_matching(rs.graph(), m));
        }
        assert!(is_induced_matching_partition(rs.graph(), rs.matchings()));
    }

    #[test]
    fn behrend_rs_graph_is_valid_partition() {
        let rs = RsGraph::behrend(300);
        assert!(rs.is_ruzsa_szemeredi());
        assert!(is_induced_matching_partition(rs.graph(), rs.matchings()));
    }

    #[test]
    fn ap_violating_set_rejected() {
        let result = std::panic::catch_unwind(|| RsGraph::from_ap_free_set(4, &[0, 1, 2]));
        assert!(result.is_err());
    }

    #[test]
    fn edge_count_formula() {
        let b = crate::behrend::behrend_set(40);
        let rs = RsGraph::from_ap_free_set(40, &b);
        assert_eq!(rs.graph().num_edges(), 40 * b.len());
        assert_eq!(rs.difference_set(), &b[..]);
    }

    #[test]
    fn witness_improves_with_size() {
        // Denser construction => smaller n²/m witness; the witness for a
        // larger Behrend graph should remain within a sane range.
        let small = RsGraph::behrend(100);
        let w = small.rs_upper_witness();
        assert!(w > 1.0);
    }

    #[test]
    fn empty_difference_set() {
        let rs = RsGraph::from_ap_free_set(5, &[]);
        assert_eq!(rs.graph().num_edges(), 0);
        assert_eq!(rs.matchings().len(), 0);
    }
}
