//! The Sum-Index protocol on the *actual max-degree-3 graph* `G'_{b,ℓ}` —
//! the form in which Theorem 1.6 is stated ("distance labeling in graphs
//! on n vertices and max-degree 3 requires …").
//!
//! `G'` is too large for a full PLL labeling at interesting parameters
//! (`G_{2,2}` has ≈25k vertices), but the theorem only queries pairs
//! `(v_{0,2x}, v_{2ℓ,2z})` — and *every* surviving path between levels 0
//! and `2ℓ` crosses the middle layer through a surviving core (in `G` the
//! only link between `T^in_v` and `T^out_v` is the core of `v`). The
//! distances to the `s^ℓ` middle cores therefore form an exact distance
//! labeling for the queried bipartite pair set, with `s^ℓ = m·2^ℓ` hubs
//! per label. Removing a middle vertex in `G'` means cutting its core from
//! both trees.

use hl_graph::bfs::bfs_distances;
use hl_graph::{Graph, GraphBuilder, GraphError, NodeId};
use hl_labeling::hub_scheme::{decode_distance, encode_label};
use hl_labeling::scheme::{BitLabel, SchemeStats};
use hl_lowerbound::removal::decode_midpoint_presence;
use hl_lowerbound::{GGraph, GadgetParams, HGraph};

use crate::problem::SumIndexInstance;
use crate::repr::Repr;

/// Protocol over the pruned max-degree-3 graph `G'_{b,ℓ}` with
/// middle-layer-core labels.
#[derive(Debug)]
pub struct GPrimeProtocol {
    params: GadgetParams,
    repr: Repr,
    h: HGraph,
    /// Bit labels of the level-0 query cores, indexed by `repr` index.
    alice_labels: Vec<BitLabel>,
    /// Bit labels of the level-2ℓ query cores, indexed by `repr` index.
    bob_labels: Vec<BitLabel>,
    graph_nodes: usize,
    max_degree: usize,
}

impl GPrimeProtocol {
    /// Builds the shared setup: `G'` plus the middle-core labels of all
    /// possible query vertices.
    ///
    /// # Errors
    ///
    /// Rejects word-length mismatches (and propagates graph errors).
    pub fn new(params: GadgetParams, instance: &SumIndexInstance) -> Result<Self, GraphError> {
        let repr = Repr::new(params);
        let m = repr.modulus();
        if instance.len() as u64 != m {
            return Err(GraphError::InvalidParameters {
                reason: format!("word length {} != (s/2)^l = {}", instance.len(), m),
            });
        }
        let h = HGraph::build(params);
        let g = GGraph::from_hgraph(&h);
        let ell = params.ell as u64;

        // Prune: cut the core of every removed middle vertex out of G.
        let mut removed_core = vec![false; g.graph().num_nodes()];
        for y in h.all_vectors() {
            if !instance.bit(repr.encode(&y) as usize) {
                removed_core[g.core(h.node_id(ell, &y)) as usize] = true;
            }
        }
        let g_pruned = drop_incident_edges(g.graph(), &removed_core);
        let max_degree = g_pruned.max_degree();

        // Middle hubs: all middle cores, surviving or not (unreachable ones
        // simply drop out of the labels), in the increasing id order a
        // label lists its hubs in.
        let mut middle_cores: Vec<NodeId> = h
            .all_vectors()
            .map(|y| g.core(h.node_id(ell, &y)))
            .collect();
        middle_cores.sort_unstable();

        let label_of = |v: NodeId| -> BitLabel {
            let dist = bfs_distances(&g_pruned, v);
            // BFS hop counts stay below n, so the one distance that does
            // not fit the u32 lane is `INFINITY`: an unreachable core.
            let (hubs, dists): (Vec<NodeId>, Vec<u32>) = middle_cores
                .iter()
                .filter_map(|&c| u32::try_from(dist[c as usize]).ok().map(|d| (c, d)))
                .unzip();
            encode_label(&hubs, &dists)
        };

        let mut alice_labels = Vec::with_capacity(m as usize);
        let mut bob_labels = Vec::with_capacity(m as usize);
        for idx in 0..m {
            let x = repr.decode(idx);
            let doubled: Vec<u64> = x.iter().map(|&d| 2 * d).collect();
            alice_labels.push(label_of(g.core(h.node_id(0, &doubled))));
            bob_labels.push(label_of(g.core(h.node_id(2 * ell, &doubled))));
        }
        Ok(GPrimeProtocol {
            params,
            repr,
            h,
            alice_labels,
            bob_labels,
            graph_nodes: g_pruned.num_nodes(),
            max_degree,
        })
    }

    /// Runs the protocol for inputs `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is `>= m`.
    pub fn run(&self, a: u64, b: u64) -> bool {
        let dist = decode_distance(&self.alice_labels[a as usize], &self.bob_labels[b as usize]);
        let x = self.repr.decode(a);
        let z = self.repr.decode(b);
        let dx: Vec<u64> = x.iter().map(|&d| 2 * d).collect();
        let dz: Vec<u64> = z.iter().map(|&d| 2 * d).collect();
        decode_midpoint_presence(&self.params, &dx, &dz, dist)
    }

    /// Number of vertices of `G'` (the `n` of Theorem 1.6).
    pub fn graph_nodes(&self) -> usize {
        self.graph_nodes
    }

    /// Max degree of the pruned graph (must stay `<= 3`).
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Label-size statistics across all query vertices.
    pub fn label_stats(&self) -> SchemeStats {
        let all: Vec<BitLabel> = self
            .alice_labels
            .iter()
            .chain(&self.bob_labels)
            .cloned()
            .collect();
        SchemeStats::of(&all)
    }

    /// The underlying `H` gadget (for inspection).
    pub fn hgraph(&self) -> &HGraph {
        &self.h
    }
}

/// Copy of `g` with all edges incident to flagged vertices removed.
fn drop_incident_edges(g: &Graph, flagged: &[bool]) -> Graph {
    let mut b = GraphBuilder::with_capacity(g.num_nodes(), g.num_edges());
    for (u, v, w) in g.edges() {
        if !flagged[u as usize] && !flagged[v as usize] {
            #[expect(
                clippy::expect_used,
                reason = "endpoints come from a graph with the same node count"
            )]
            b.add_edge(u, v, w).expect("edges in range");
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_exhaustively_on_degree3_graph() {
        let params = GadgetParams::new(2, 2).unwrap();
        let m = Repr::new(params).modulus() as usize;
        for seed in [1u64, 2] {
            let instance = SumIndexInstance::random(m, seed);
            let protocol = GPrimeProtocol::new(params, &instance).unwrap();
            assert!(protocol.max_degree() <= 3);
            assert!(protocol.graph_nodes() > 20_000, "G(2,2) is ~25k vertices");
            for a in 0..m as u64 {
                for b in 0..m as u64 {
                    assert_eq!(
                        protocol.run(a, b),
                        instance.answer(a as usize, b as usize),
                        "seed={seed} a={a} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn agrees_with_h_protocol() {
        let params = GadgetParams::new(2, 2).unwrap();
        let m = Repr::new(params).modulus() as usize;
        let instance = SumIndexInstance::random(m, 9);
        let on_g = GPrimeProtocol::new(params, &instance).unwrap();
        let on_h = crate::protocol::GraphProtocol::new(params, &instance).unwrap();
        for a in 0..m as u64 {
            for b in 0..m as u64 {
                assert_eq!(on_g.run(a, b), on_h.run(a, b));
            }
        }
    }

    #[test]
    fn label_sizes_scale_with_middle_layer() {
        let params = GadgetParams::new(2, 2).unwrap();
        let m = Repr::new(params).modulus() as usize;
        let instance = SumIndexInstance::random(m, 3);
        let protocol = GPrimeProtocol::new(params, &instance).unwrap();
        let stats = protocol.label_stats();
        // s^l = 16 hubs, distances ~ 4A+spread (hundreds): label sizes in
        // the hundreds of bits, not tens of thousands.
        assert!(stats.max_bits > 64);
        assert!(stats.max_bits < 16 * 64);
    }

    #[test]
    fn rejects_wrong_word_length() {
        let params = GadgetParams::new(2, 2).unwrap();
        let instance = SumIndexInstance::random(3, 0);
        assert!(GPrimeProtocol::new(params, &instance).is_err());
    }
}
