//! The max-degree-3 unweighted expansion `G_{b,ℓ}` of `H_{b,ℓ}`
//! (Theorem 2.1).
//!
//! Every `H`-vertex `v` becomes a *core* vertex attached to two perfectly
//! balanced binary trees `T^in_v` and `T^out_v` (each with `s` leaves and
//! depth `b`), and every `H`-edge `{u, v}` of weight `w` becomes a unit
//! path of `w − 2b − 2` edges between the corresponding leaves
//! `u^out_v → v^in_u`, so that core-to-core distances in `G` equal weighted
//! distances in `H` while the maximum degree drops to 3.

use hl_graph::{Graph, GraphBuilder, NodeId};

use crate::hgraph::HGraph;
use crate::params::GadgetParams;

/// Every gadget endpoint is either an id the builder handed out via
/// `add_node` or an offset inside the preallocated core/tree blocks, so
/// the out-of-range error `add_unit_edge` can return is unreachable.
fn must_link(builder: &mut GraphBuilder, u: NodeId, v: NodeId) {
    #[expect(
        clippy::expect_used,
        reason = "endpoints come from the builder or the precomputed block layout"
    )]
    builder
        .add_unit_edge(u, v)
        .expect("gadget endpoints are inside the preallocated layout");
}

/// The graph `G_{b,ℓ}` with its mapping back to `H_{b,ℓ}`.
#[derive(Debug, Clone)]
pub struct GGraph {
    params: GadgetParams,
    graph: Graph,
    /// Core vertex in `G` of each `H`-vertex.
    core: Vec<NodeId>,
    /// Number of non-auxiliary (core + tree) vertices.
    structured: usize,
}

impl GGraph {
    /// Expands `H_{b,ℓ}` into `G_{b,ℓ}`.
    pub fn build(params: GadgetParams) -> Self {
        let h = HGraph::build(params);
        Self::from_hgraph(&h)
    }

    /// Expands an already-built [`HGraph`].
    pub fn from_hgraph(h: &HGraph) -> Self {
        let params = h.params();
        let s = params.side();
        let b = params.b as u64;
        let ell = params.ell as u64;
        let level_size = params.level_size();
        let h_n = params.h_num_nodes();
        let tree_nodes = 2 * s - 1;

        // Layout per H-vertex: [core, T_in block?, T_out block?].
        let mut core = vec![0 as NodeId; h_n as usize];
        let mut in_base = vec![NodeId::MAX; h_n as usize];
        let mut out_base = vec![NodeId::MAX; h_n as usize];
        let mut next: u64 = 0;
        for hv in 0..h_n {
            let level = hv / level_size;
            core[hv as usize] = next as NodeId;
            next += 1;
            if level > 0 {
                in_base[hv as usize] = next as NodeId;
                next += tree_nodes;
            }
            if level < 2 * ell {
                out_base[hv as usize] = next as NodeId;
                next += tree_nodes;
            }
        }
        let structured = next as usize;
        let mut builder = GraphBuilder::with_capacity(structured, structured * 2);

        // Trees and root links.
        for hv in 0..h_n as usize {
            for &base in [in_base[hv], out_base[hv]].iter() {
                if base == NodeId::MAX {
                    continue;
                }
                must_link(&mut builder, core[hv], base);
                for k in 0..(s - 1) {
                    let node = base + k as NodeId;
                    must_link(&mut builder, node, base + (2 * k + 1) as NodeId);
                    must_link(&mut builder, node, base + (2 * k + 2) as NodeId);
                }
            }
        }

        // Subdivided H-edges between tree leaves.
        let a = params.base_weight();
        let leaf = |base: NodeId, t: u64| base + (s - 1 + t) as NodeId;
        for i in 0..2 * ell {
            let c = if i < ell { i } else { 2 * ell - i - 1 } as usize;
            let stride = s.pow(c as u32);
            for idx in 0..level_size {
                let ju = (idx / stride) % s;
                let hu = (i * level_size + idx) as usize;
                for jv in 0..s {
                    let widx = idx - ju * stride + jv * stride;
                    let hv = ((i + 1) * level_size + widx) as usize;
                    let delta = ju.abs_diff(jv);
                    let w = a + delta * delta;
                    // Path of w - 2b - 2 unit edges between the two leaves.
                    let from = leaf(out_base[hu], jv);
                    let to = leaf(in_base[hv], ju);
                    let hops = w - 2 * b - 2;
                    debug_assert!(hops >= 1);
                    let mut prev = from;
                    for _ in 1..hops {
                        let mid = builder.add_node();
                        must_link(&mut builder, prev, mid);
                        prev = mid;
                    }
                    must_link(&mut builder, prev, to);
                }
            }
        }

        GGraph {
            params,
            graph: builder.build(),
            core,
            structured,
        }
    }

    /// The gadget parameters.
    pub fn params(&self) -> GadgetParams {
        self.params
    }

    /// The underlying unit-weight graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The `G`-core vertex of `H`-vertex `hv`.
    ///
    /// # Panics
    ///
    /// Panics if `hv` is out of range.
    pub fn core(&self, hv: NodeId) -> NodeId {
        self.core[hv as usize]
    }

    /// Number of core + tree vertices (the rest are path subdivisions).
    pub fn num_structured(&self) -> usize {
        self.structured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_graph::bfs::bfs_distances;
    use hl_graph::properties::is_connected;

    fn g11() -> (HGraph, GGraph) {
        let p = GadgetParams::new(1, 1).unwrap();
        let h = HGraph::build(p);
        let g = GGraph::from_hgraph(&h);
        (h, g)
    }

    #[test]
    fn max_degree_is_three() {
        for (b, ell) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
            let g = GGraph::build(GadgetParams::new(b, ell).unwrap());
            assert_eq!(g.graph().max_degree(), 3, "G({b},{ell})");
            assert!(is_connected(g.graph()));
            assert!(g.graph().is_unit_weighted());
        }
    }

    #[test]
    fn cores_have_degree_at_most_two() {
        let (h, g) = g11();
        for hv in 0..h.graph().num_nodes() as NodeId {
            assert!(g.graph().degree(g.core(hv)) <= 2);
        }
    }

    #[test]
    fn distances_match_h_across_levels() {
        // The paper's claim holds for vertices on *different* levels
        // (Lemma 2.2's proof: "for any u ∈ V_i and v ∈ V_j with i < j");
        // same-level pairs may shortcut through a tree without visiting the
        // core, saving the two root-core edges.
        let (h, g) = g11();
        let level_size = h.params().level_size();
        for hu in 0..h.graph().num_nodes() as NodeId {
            let dh = hl_graph::dijkstra::dijkstra_distances(h.graph(), hu);
            let dg = bfs_distances(g.graph(), g.core(hu));
            for hv in 0..h.graph().num_nodes() as NodeId {
                if hu as u64 / level_size == hv as u64 / level_size && hu != hv {
                    // Same level: G may only be shorter-or-equal.
                    assert!(dg[g.core(hv) as usize] <= dh[hv as usize]);
                    continue;
                }
                assert_eq!(
                    dg[g.core(hv) as usize],
                    dh[hv as usize],
                    "distance mismatch {hu}-{hv}"
                );
            }
        }
    }

    #[test]
    fn distances_match_h_figure1_sample() {
        let p = GadgetParams::new(2, 2).unwrap();
        let h = HGraph::build(p);
        let g = GGraph::from_hgraph(&h);
        let hu = h.node_id(0, &[1, 0]);
        let hz = h.node_id(4, &[3, 2]);
        let dg = bfs_distances(g.graph(), g.core(hu));
        assert_eq!(dg[g.core(hz) as usize], 4 * 96 + 4);
    }

    #[test]
    fn node_count_scales_with_total_weight() {
        let p = GadgetParams::new(2, 2).unwrap();
        let h = HGraph::build(p);
        let g = GGraph::from_hgraph(&h);
        let total_w: u64 = h.graph().edges().map(|(_, _, w)| w).sum();
        let n = g.graph().num_nodes() as u64;
        // n = structured + sum(w - 2b - 3); structured is lower order.
        assert!(
            n > total_w / 2 && n < total_w + 10_000,
            "n = {n}, total weight = {total_w}"
        );
    }

    #[test]
    fn structured_count_formula() {
        let (h, g) = g11();
        // level 0 and 2: core + one tree (3 nodes) each = 4; level 1: core +
        // two trees = 7. Two vertices per level.
        let expected = 2 * (4 + 7 + 4);
        assert_eq!(g.num_structured(), expected);
        assert_eq!(h.graph().num_nodes(), 6);
    }

    #[test]
    fn all_aux_vertices_have_degree_two() {
        let (_, g) = g11();
        for v in g.num_structured()..g.graph().num_nodes() {
            assert_eq!(g.graph().degree(v as NodeId), 2, "aux vertex {v}");
        }
    }
}
