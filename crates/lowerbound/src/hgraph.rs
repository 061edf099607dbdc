//! The layered weighted gadget `H_{b,ℓ}` of Theorem 2.1 (Figure 1).

use hl_graph::{Graph, GraphBuilder, NodeId, Weight};

use crate::params::GadgetParams;

/// The graph `H_{b,ℓ}` together with its vertex codec.
///
/// Vertex `v_{i,⃗j}` (level `i ∈ [0, 2ℓ]`, vector `⃗j ∈ [0, s)^ℓ`) has id
/// `i · s^ℓ + Σ_k j_k s^k`.
///
/// # Example
///
/// ```
/// use hl_lowerbound::{GadgetParams, HGraph};
///
/// # fn main() -> Result<(), hl_graph::GraphError> {
/// let h = HGraph::build(GadgetParams::new(2, 2)?);
/// assert_eq!(h.graph().num_nodes(), 80);
/// assert_eq!(h.graph().num_edges(), 256);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HGraph {
    params: GadgetParams,
    graph: Graph,
}

impl HGraph {
    /// Constructs `H_{b,ℓ}`.
    pub fn build(params: GadgetParams) -> Self {
        let s = params.side();
        let ell = params.ell as u64;
        let level_size = params.level_size();
        let a = params.base_weight();
        let n = params.h_num_nodes() as usize;
        let mut builder = GraphBuilder::with_capacity(n, params.h_num_edges() as usize);
        // Edges between level i and i+1 change coordinate c(i):
        // 0-indexed, c = i for i < ℓ and c = 2ℓ - i - 1 for i >= ℓ.
        for i in 0..2 * ell {
            let c = if i < ell { i } else { 2 * ell - i - 1 } as usize;
            let stride = s.pow(c as u32);
            for idx in 0..level_size {
                let jc = (idx / stride) % s;
                let u = (i * level_size + idx) as NodeId;
                for target in 0..s {
                    let delta = jc.abs_diff(target);
                    let widx = idx - jc * stride + target * stride;
                    let v = ((i + 1) * level_size + widx) as NodeId;
                    let w: Weight = a + delta * delta;
                    #[expect(
                        clippy::expect_used,
                        reason = "u and v index the h_num_nodes layout that sized the builder"
                    )]
                    builder.add_edge(u, v, w).expect("gadget edges in range");
                }
            }
        }
        HGraph {
            params,
            graph: builder.build(),
        }
    }

    /// The gadget parameters.
    pub fn params(&self) -> GadgetParams {
        self.params
    }

    /// The underlying weighted graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Id of vertex `v_{level, coords}`.
    ///
    /// # Panics
    ///
    /// Panics if `level > 2ℓ`, `coords.len() != ℓ`, or any coordinate is
    /// `>= s`.
    pub fn node_id(&self, level: u64, coords: &[u64]) -> NodeId {
        assert!(level <= 2 * self.params.ell as u64, "level out of range");
        assert_eq!(coords.len(), self.params.ell as usize, "wrong dimension");
        let s = self.params.side();
        let mut idx = 0u64;
        for (k, &j) in coords.iter().enumerate() {
            assert!(j < s, "coordinate out of range");
            idx += j * s.pow(k as u32);
        }
        (level * self.params.level_size() + idx) as NodeId
    }

    /// Inverse of [`HGraph::node_id`]: `(level, coords)` of a vertex.
    pub fn node_coords(&self, v: NodeId) -> (u64, Vec<u64>) {
        let level_size = self.params.level_size();
        let s = self.params.side();
        let level = v as u64 / level_size;
        let mut idx = v as u64 % level_size;
        let mut coords = Vec::with_capacity(self.params.ell as usize);
        for _ in 0..self.params.ell {
            coords.push(idx % s);
            idx /= s;
        }
        (level, coords)
    }

    /// Iterates over all vectors in `[0, s)^ℓ`.
    pub fn all_vectors(&self) -> impl Iterator<Item = Vec<u64>> + '_ {
        let s = self.params.side();
        let ell = self.params.ell as usize;
        (0..self.params.level_size()).map(move |mut idx| {
            let mut coords = Vec::with_capacity(ell);
            for _ in 0..ell {
                coords.push(idx % s);
                idx /= s;
            }
            coords
        })
    }

    /// Iterates over the Lemma 2.2 pairs: `(x, z)` with `z_k − x_k` even
    /// for all `k`, yielding `(x, z, midpoint)`.
    pub fn even_pairs(&self) -> impl Iterator<Item = (Vec<u64>, Vec<u64>, Vec<u64>)> + '_ {
        self.all_vectors().flat_map(move |x| {
            let x2 = x.clone();
            self.all_vectors().filter_map(move |z| {
                if x2.iter().zip(&z).all(|(&a, &c)| a.abs_diff(c) % 2 == 0) {
                    let mid: Vec<u64> = x2.iter().zip(&z).map(|(&a, &c)| (a + c) / 2).collect();
                    Some((x2.clone(), z, mid))
                } else {
                    None
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_graph::dijkstra::dijkstra_distances;
    use hl_graph::properties::is_connected;

    fn h22() -> HGraph {
        HGraph::build(GadgetParams::new(2, 2).unwrap())
    }

    #[test]
    fn counts_match_closed_forms() {
        for (b, ell) in [(1, 1), (2, 1), (1, 2), (2, 2), (2, 3)] {
            let p = GadgetParams::new(b, ell).unwrap();
            let h = HGraph::build(p);
            assert_eq!(h.graph().num_nodes() as u64, p.h_num_nodes(), "{p}");
            assert_eq!(h.graph().num_edges() as u64, p.h_num_edges(), "{p}");
        }
    }

    #[test]
    fn codec_roundtrip() {
        let h = h22();
        for level in 0..=4 {
            for idx in 0..16u64 {
                let coords = vec![idx % 4, idx / 4];
                let id = h.node_id(level, &coords);
                assert_eq!(h.node_coords(id), (level, coords));
            }
        }
    }

    #[test]
    fn degrees_are_two_s() {
        let h = h22();
        let g = h.graph();
        for v in 0..g.num_nodes() as NodeId {
            let (level, _) = h.node_coords(v);
            let expected = if level == 0 || level == 4 { 4 } else { 8 };
            assert_eq!(g.degree(v), expected, "vertex {v} at level {level}");
        }
    }

    #[test]
    fn connected_and_weights_in_range() {
        let h = h22();
        assert!(is_connected(h.graph()));
        let a = h.params().base_weight();
        let s = h.params().side();
        for (_, _, w) in h.graph().edges() {
            assert!(w >= a && w <= a + (s - 1) * (s - 1));
        }
    }

    #[test]
    fn edge_weights_match_coordinate_gaps() {
        let h = h22();
        // Level 0 -> 1 changes coordinate 0: (1,0) -> (3,0) has weight A+4.
        let u = h.node_id(0, &[1, 0]);
        let v = h.node_id(1, &[3, 0]);
        assert_eq!(h.graph().edge_weight(u, v), Some(96 + 4));
        // (1,0) -> (1,2) differs in coordinate 1 which is NOT the designated
        // coordinate of levels 0 -> 1: no edge.
        let w = h.node_id(1, &[1, 2]);
        assert_eq!(h.graph().edge_weight(u, w), None);
        // Level 2 -> 3 changes coordinate 1 (descending phase).
        let p = h.node_id(2, &[2, 1]);
        let q = h.node_id(3, &[2, 3]);
        assert_eq!(h.graph().edge_weight(p, q), Some(96 + 4));
    }

    #[test]
    fn figure1_blue_path_distance() {
        // Figure 1: d(v_{0,(1,0)}, v_{4,(3,2)}) = 4A + 4 via v_{2,(2,1)}.
        let h = h22();
        let u = h.node_id(0, &[1, 0]);
        let z = h.node_id(4, &[3, 2]);
        let d = dijkstra_distances(h.graph(), u);
        assert_eq!(d[z as usize], 4 * 96 + 4);
    }

    #[test]
    fn even_pairs_count() {
        let h = h22();
        // s^ℓ · (s/2)^ℓ = 16 · 4 = 64.
        assert_eq!(h.even_pairs().count(), 64);
        for (x, z, mid) in h.even_pairs() {
            for k in 0..2 {
                assert_eq!(x[k] + z[k], 2 * mid[k]);
            }
        }
    }

    #[test]
    fn all_vectors_unique() {
        let h = h22();
        let vs: Vec<_> = h.all_vectors().collect();
        assert_eq!(vs.len(), 16);
        let set: std::collections::HashSet<_> = vs.iter().collect();
        assert_eq!(set.len(), 16);
    }
}
