//! Middle-layer removal: the graphs `H'_{b,ℓ}` / `G'_{b,ℓ}` of Section 3.
//!
//! Removing a subset `W` of the middle layer `V_ℓ` makes the
//! `v_{0,x} → v_{2ℓ,z}` distance *sensitive* to the presence of the
//! midpoint (Observation 3.1): if `v_{ℓ,(x+z)/2}` is present, the distance
//! is exactly the unique-path length `L₀`; if it was removed, every
//! remaining path is strictly longer. The Sum-Index protocol of
//! Theorem 1.6 decodes one bit from exactly this dichotomy.

use hl_graph::{Distance, Graph, GraphBuilder, NodeId};

use crate::hgraph::HGraph;
use crate::params::GadgetParams;

/// `H_{b,ℓ}` with a subset of the middle layer removed.
#[derive(Debug, Clone)]
pub struct RemovedMiddle {
    params: GadgetParams,
    graph: Graph,
    removed: Vec<bool>,
}

impl RemovedMiddle {
    /// Removes from `h` every middle-layer vertex `v_{ℓ,y}` for which
    /// `keep(y) == false`. Vertex ids are preserved (removed vertices
    /// simply become isolated), so the `H` codec keeps working.
    pub fn build(h: &HGraph, keep: impl Fn(&[u64]) -> bool) -> Self {
        let params = h.params();
        let ell = params.ell as u64;
        let mut removed = vec![false; h.graph().num_nodes()];
        for y in h.all_vectors() {
            if !keep(&y) {
                removed[h.node_id(ell, &y) as usize] = true;
            }
        }
        let mut builder = GraphBuilder::with_capacity(h.graph().num_nodes(), h.graph().num_edges());
        for (u, v, w) in h.graph().edges() {
            if !removed[u as usize] && !removed[v as usize] {
                #[expect(
                    clippy::expect_used,
                    reason = "endpoints come from a graph with the same node count"
                )]
                builder.add_edge(u, v, w).expect("edges in range");
            }
        }
        RemovedMiddle {
            params,
            graph: builder.build(),
            removed,
        }
    }

    /// The gadget parameters.
    pub fn params(&self) -> GadgetParams {
        self.params
    }

    /// The pruned graph (same vertex ids as the original `H`).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// `true` when vertex `v` was removed.
    pub fn is_removed(&self, v: NodeId) -> bool {
        self.removed[v as usize]
    }

    /// Number of removed middle vertices.
    pub fn num_removed(&self) -> usize {
        self.removed.iter().filter(|&&r| r).count()
    }
}

/// Observation 3.1: decodes whether the midpoint `v_{ℓ,(x+z)/2}` was
/// present, from `x`, `z` and the measured `v_{0,x} → v_{2ℓ,z}` distance
/// in the pruned graph.
///
/// Returns `true` (present) iff the distance equals the unique-path length
/// `L₀ = 2ℓA + Σ(z_k−x_k)²/2`; any removal forces a strictly larger
/// distance (or disconnection).
pub fn decode_midpoint_presence(
    params: &GadgetParams,
    x: &[u64],
    z: &[u64],
    measured: Distance,
) -> bool {
    measured == params.unique_sp_length(x, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_graph::dijkstra::dijkstra_distance_between;

    fn h22() -> HGraph {
        HGraph::build(GadgetParams::new(2, 2).unwrap())
    }

    #[test]
    fn no_removal_keeps_graph() {
        let h = h22();
        let r = RemovedMiddle::build(&h, |_| true);
        assert_eq!(r.num_removed(), 0);
        assert_eq!(r.graph().num_edges(), h.graph().num_edges());
    }

    #[test]
    fn removal_isolates_vertices() {
        let h = h22();
        let r = RemovedMiddle::build(&h, |y| y != [0, 0]);
        assert_eq!(r.num_removed(), 1);
        let dead = h.node_id(2, &[0, 0]);
        assert!(r.is_removed(dead));
        assert_eq!(r.graph().degree(dead), 0);
        assert_eq!(r.graph().num_edges(), h.graph().num_edges() - 8);
    }

    #[test]
    fn distance_sensitive_to_midpoint() {
        let h = h22();
        let params = h.params();
        let x = [1u64, 0];
        let z = [3u64, 2];
        let mid = [2u64, 1];
        let src = h.node_id(0, &x);
        let dst = h.node_id(4, &z);
        // Midpoint present: distance = L0.
        let keep_all = RemovedMiddle::build(&h, |_| true);
        let d1 = dijkstra_distance_between(keep_all.graph(), src, dst);
        assert!(decode_midpoint_presence(&params, &x, &z, d1));
        // Midpoint removed: strictly longer.
        let pruned = RemovedMiddle::build(&h, |y| y != mid);
        let d2 = dijkstra_distance_between(pruned.graph(), src, dst);
        assert!(d2 > d1);
        assert!(!decode_midpoint_presence(&params, &x, &z, d2));
    }

    #[test]
    fn unrelated_removals_do_not_affect_decoding() {
        let h = h22();
        let params = h.params();
        let x = [0u64, 0];
        let z = [2u64, 2];
        // Remove half the middle layer but keep the midpoint (1,1).
        let pruned = RemovedMiddle::build(&h, |y| (y[0] + y[1]) % 2 == 0);
        assert!(pruned.num_removed() > 0);
        let d = dijkstra_distance_between(pruned.graph(), h.node_id(0, &x), h.node_id(4, &z));
        assert!(decode_midpoint_presence(&params, &x, &z, d));
    }

    #[test]
    fn every_even_pair_decodes_correctly_under_random_removal() {
        let h = HGraph::build(GadgetParams::new(1, 2).unwrap());
        let params = h.params();
        // Deterministic pseudo-random keep pattern.
        let keep = |y: &[u64]| !(y[0] * 31 + y[1] * 17).is_multiple_of(3);
        let pruned = RemovedMiddle::build(&h, keep);
        for (x, z, mid) in h.even_pairs() {
            let d = dijkstra_distance_between(pruned.graph(), h.node_id(0, &x), h.node_id(4, &z));
            assert_eq!(
                decode_midpoint_presence(&params, &x, &z, d),
                keep(&mid),
                "pair {x:?} {z:?}"
            );
        }
    }
}
