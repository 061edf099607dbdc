//! The paper's Sum-Index protocol (proof of Theorem 1.6), executed end to
//! end on either graph the proof names.
//!
//! Both parties share `S` and the gadget parameters, so both can build the
//! *same* pruned graph (middle vertex `v_{ℓ,y}` kept iff `S_{repr(y)} = 1`)
//! and the same deterministic distance labels. Alice sends the label of
//! `v_{0,2x}` (where `repr(x) = a`) plus `a`; Bob sends the label of
//! `v_{2ℓ,2z}` plus `b`. The referee decodes the exact
//! `v_{0,2x}`-`v_{2ℓ,2z}` distance from the two labels and applies
//! Observation 3.1: the distance equals the unique-path length iff the
//! midpoint `v_{ℓ,x+z}` survived, i.e. iff `S_{(a+b) mod m} = 1`.
//!
//! [`GraphProtocol`] has one constructor per graph:
//!
//! * [`GraphProtocol::on_h_prime`] — the pruned `H'_{b,ℓ}`, every vertex
//!   labeled by any [`DistanceLabelingScheme`]. The theorem is
//!   scheme-agnostic ("distance labeling in graphs ... requires at least
//!   ... bits per vertex"), so hub labels and full distance vectors
//!   compare on one instance. Distances between the queried levels equal
//!   those of `G'` (verified in `hl-lowerbound`); the degree-3 expansion
//!   matters for the *counting* of `n`, not for correctness.
//! * [`GraphProtocol::on_g_prime`] — the max-degree-3 `G'_{b,ℓ}` the
//!   theorem is stated for. It is too large for a full PLL labeling at
//!   interesting parameters (`G_{2,2}` has ≈25k vertices), but every
//!   surviving path between levels 0 and `2ℓ` crosses the middle layer
//!   through a surviving core (in `G` the only link between `T^in_v` and
//!   `T^out_v` is the core of `v`). The distances to the `s^ℓ` middle cores
//!   therefore form an exact distance labeling of the queried pairs, with
//!   `s^ℓ = m·2^ℓ` hubs per label, γ-coded as hub labels are. Removing a
//!   middle vertex in `G'` cuts its core from both trees.

use hl_graph::bfs::bfs_distances;
use hl_graph::{Graph, GraphBuilder, GraphError, NodeId};
use hl_labeling::hub_scheme::{encode_label, HubPllScheme};
use hl_labeling::scheme::{BitLabel, DistanceLabelingScheme, SchemeStats};
use hl_lowerbound::removal::{decode_midpoint_presence, RemovedMiddle};
use hl_lowerbound::{GGraph, GadgetParams, HGraph};

use crate::naive::index_bits;
use crate::problem::SumIndexInstance;
use crate::repr::Repr;

/// One party's message: a distance label plus the party's index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The distance label of the queried vertex.
    pub label: BitLabel,
    /// The sender's input index (`a` or `b`).
    pub index: u64,
}

impl Message {
    /// Total message size in bits (label + index).
    pub fn num_bits(&self, m: usize) -> usize {
        self.label.num_bits() + index_bits(m) as usize
    }
}

/// Cost summary of a protocol instantiation, for the experiment tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolCosts {
    /// Word length `m`.
    pub m: usize,
    /// Number of vertices of the pruned graph.
    pub graph_nodes: usize,
    /// Largest message over all inputs (bits).
    pub max_message_bits: usize,
    /// Average message size over the level-0/level-2ℓ query vertices.
    pub avg_message_bits: f64,
    /// The naive protocol's Alice message (`m + ⌈log m⌉` bits).
    pub naive_bits: usize,
    /// The `Ω(√m)` lower-bound anchor.
    pub sqrt_m: f64,
}

/// The shared deterministic setup both parties compute from `(params, S)`.
///
/// # Example
///
/// ```
/// use hl_labeling::hub_scheme::HubPllScheme;
/// use hl_lowerbound::GadgetParams;
/// use hl_sumindex::{protocol::GraphProtocol, repr::Repr, SumIndexInstance};
///
/// # fn main() -> Result<(), hl_graph::GraphError> {
/// let params = GadgetParams::new(2, 2)?;
/// let m = Repr::new(params).modulus() as usize;
/// let instance = SumIndexInstance::random(m, 1);
/// let protocol = GraphProtocol::on_h_prime(params, &instance, &HubPllScheme)?;
/// assert_eq!(protocol.run(1, 2), instance.answer(1, 2));
/// # Ok(())
/// # }
/// ```
pub struct GraphProtocol<'s> {
    params: GadgetParams,
    repr: Repr,
    /// Decodes two labels into a distance (the hub scheme's γ decoder
    /// for `G'`).
    scheme: &'s dyn DistanceLabelingScheme,
    /// Alice's label for each index `a`.
    alice_labels: Vec<BitLabel>,
    /// Bob's label for each index `b`.
    bob_labels: Vec<BitLabel>,
    /// Size statistics over every label the setup built.
    label_stats: SchemeStats,
    graph_nodes: usize,
    max_degree: usize,
}

impl<'s> GraphProtocol<'s> {
    /// The protocol on the pruned `H'_{b,ℓ}`, every vertex labeled by
    /// `scheme`.
    ///
    /// # Errors
    ///
    /// Rejects instances whose length differs from `m = (s/2)^ℓ`, and
    /// propagates the scheme's encode errors.
    pub fn on_h_prime(
        params: GadgetParams,
        instance: &SumIndexInstance,
        scheme: &'s dyn DistanceLabelingScheme,
    ) -> Result<Self, GraphError> {
        let (repr, h) = shared_gadget(params, instance)?;
        let pruned = RemovedMiddle::build(&h, |y| instance.bit(repr.encode(y) as usize));
        let labels = scheme.encode(pruned.graph())?;
        let pick = |level| {
            query_vertices(&h, repr, level)
                .map(|v| labels[v as usize].clone())
                .collect()
        };
        Ok(GraphProtocol {
            params,
            repr,
            scheme,
            alice_labels: pick(0),
            bob_labels: pick(2 * u64::from(params.ell)),
            label_stats: SchemeStats::of(&labels),
            graph_nodes: pruned.graph().num_nodes() - pruned.num_removed(),
            max_degree: pruned.graph().max_degree(),
        })
    }

    /// The protocol on the max-degree-3 `G'_{b,ℓ}`, each query vertex
    /// labeled by its distances to the middle cores (see the module docs).
    ///
    /// # Errors
    ///
    /// Rejects instances whose length differs from `m = (s/2)^ℓ`.
    pub fn on_g_prime(
        params: GadgetParams,
        instance: &SumIndexInstance,
    ) -> Result<GraphProtocol<'static>, GraphError> {
        let (repr, h) = shared_gadget(params, instance)?;
        let g = GGraph::from_hgraph(&h);
        let ell = u64::from(params.ell);

        // Prune: cut the core of every removed middle vertex out of G.
        let mut removed_core = vec![false; g.graph().num_nodes()];
        for y in h.all_vectors() {
            if !instance.bit(repr.encode(&y) as usize) {
                removed_core[g.core(h.node_id(ell, &y)) as usize] = true;
            }
        }
        let g_pruned = drop_incident_edges(g.graph(), &removed_core);

        // Middle hubs: all middle cores, surviving or not (unreachable ones
        // simply drop out of the labels), in the increasing id order a
        // label lists its hubs in.
        let mut middle_cores: Vec<NodeId> = h
            .all_vectors()
            .map(|y| g.core(h.node_id(ell, &y)))
            .collect();
        middle_cores.sort_unstable();
        let label_of = |v: NodeId| -> BitLabel {
            let dist = bfs_distances(&g_pruned, g.core(v));
            // BFS hop counts stay below n, so the one distance that does
            // not fit the u32 lane is `INFINITY`: an unreachable core.
            let (hubs, dists): (Vec<NodeId>, Vec<u32>) = middle_cores
                .iter()
                .filter_map(|&c| u32::try_from(dist[c as usize]).ok().map(|d| (c, d)))
                .unzip();
            encode_label(&hubs, &dists)
        };

        let mut alice_labels: Vec<BitLabel> = query_vertices(&h, repr, 0)
            .chain(query_vertices(&h, repr, 2 * ell))
            .map(label_of)
            .collect();
        let label_stats = SchemeStats::of(&alice_labels);
        let bob_labels = alice_labels.split_off(repr.modulus() as usize);
        Ok(GraphProtocol {
            params,
            repr,
            scheme: &HubPllScheme,
            alice_labels,
            bob_labels,
            label_stats,
            graph_nodes: g_pruned.num_nodes(),
            max_degree: g_pruned.max_degree(),
        })
    }

    /// Alice's message for input `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a >= m`.
    pub fn alice_message(&self, a: u64) -> Message {
        Message {
            label: self.alice_labels[a as usize].clone(),
            index: a,
        }
    }

    /// Bob's message for input `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b >= m`.
    pub fn bob_message(&self, b: u64) -> Message {
        Message {
            label: self.bob_labels[b as usize].clone(),
            index: b,
        }
    }

    /// The referee: decodes the distance from the two labels and reads the
    /// bit via Observation 3.1. Uses only public parameters and the two
    /// messages — never the word or the graph.
    ///
    /// # Panics
    ///
    /// Panics if either index is `>= m`.
    pub fn referee(&self, alice: &Message, bob: &Message) -> bool {
        let dist = self.scheme.decode(&alice.label, &bob.label);
        let x = doubled(self.repr, alice.index);
        let z = doubled(self.repr, bob.index);
        decode_midpoint_presence(&self.params, &x, &z, dist)
    }

    /// Runs the protocol for inputs `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is `>= m`.
    pub fn run(&self, a: u64, b: u64) -> bool {
        self.referee(&self.alice_message(a), &self.bob_message(b))
    }

    /// Cost summary over all possible inputs.
    pub fn costs(&self) -> ProtocolCosts {
        let m = self.repr.modulus() as usize;
        let bits: Vec<usize> = (self.alice_labels.iter().chain(&self.bob_labels))
            .map(|label| label.num_bits() + index_bits(m) as usize)
            .collect();
        ProtocolCosts {
            m,
            graph_nodes: self.graph_nodes,
            max_message_bits: bits.iter().copied().max().unwrap_or(0),
            avg_message_bits: bits.iter().sum::<usize>() as f64 / (2 * m) as f64,
            naive_bits: m + index_bits(m) as usize,
            sqrt_m: (m as f64).sqrt(),
        }
    }

    /// Size statistics over every label the setup built: each vertex of
    /// `H'`, or the `2m` query vertices of `G'`.
    pub fn label_stats(&self) -> SchemeStats {
        self.label_stats
    }

    /// The name of the scheme whose decoder the referee runs, for tables:
    /// `hub-pll` on `G'` too, whose labels are middle-core distances.
    pub fn scheme_name(&self) -> &'static str {
        self.scheme.name()
    }

    /// Number of vertices of the pruned graph (the `n` of Theorem 1.6).
    pub fn graph_nodes(&self) -> usize {
        self.graph_nodes
    }

    /// Max degree of the pruned graph (at most 3 for `G'`).
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }
}

/// The word-length check and the gadget both constructors start from.
fn shared_gadget(
    params: GadgetParams,
    instance: &SumIndexInstance,
) -> Result<(Repr, HGraph), GraphError> {
    let repr = Repr::new(params);
    if instance.len() as u64 != repr.modulus() {
        return Err(GraphError::InvalidParameters {
            reason: format!(
                "word length {} != (s/2)^l = {}",
                instance.len(),
                repr.modulus()
            ),
        });
    }
    Ok((repr, HGraph::build(params)))
}

/// `2x` for the restricted-box vector `x` with `repr(x) = index`: the
/// coordinates of the vertex a party holding `index` queries.
fn doubled(repr: Repr, index: u64) -> Vec<u64> {
    repr.decode(index).iter().map(|&d| 2 * d).collect()
}

/// The `H` vertex `v_{level,2x}` of every index `repr(x)`, in index order:
/// Alice's vertices at level 0, Bob's at level `2ℓ`.
fn query_vertices(h: &HGraph, repr: Repr, level: u64) -> impl Iterator<Item = NodeId> + '_ {
    (0..repr.modulus()).map(move |i| h.node_id(level, &doubled(repr, i)))
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
    use hl_labeling::full_vector::FullVectorScheme;

    fn params(b: u32, ell: u32) -> (GadgetParams, usize) {
        let params = GadgetParams::new(b, ell).unwrap();
        (params, Repr::new(params).modulus() as usize)
    }

    fn assert_correct(protocol: &GraphProtocol, instance: &SumIndexInstance) {
        let m = instance.len() as u64;
        for a in 0..m {
            for b in 0..m {
                assert_eq!(
                    protocol.run(a, b),
                    instance.answer(a as usize, b as usize),
                    "a={a} b={b}"
                );
            }
        }
    }

    fn exhaustive_check(b: u32, ell: u32, seed: u64) {
        let (params, m) = params(b, ell);
        let instance = SumIndexInstance::random(m, seed);
        let protocol = GraphProtocol::on_h_prime(params, &instance, &HubPllScheme).unwrap();
        assert_correct(&protocol, &instance);
    }

    #[test]
    fn correct_exhaustively_b2_l2() {
        exhaustive_check(2, 2, 11);
    }

    #[test]
    fn correct_exhaustively_b3_l2() {
        exhaustive_check(3, 2, 12);
    }

    #[test]
    fn correct_exhaustively_b2_l3() {
        exhaustive_check(2, 3, 13);
    }

    #[test]
    fn correct_with_full_vector_scheme() {
        let (params, m) = params(2, 2);
        let instance = SumIndexInstance::random(m, 5);
        let protocol = GraphProtocol::on_h_prime(params, &instance, &FullVectorScheme).unwrap();
        assert_correct(&protocol, &instance);
    }

    #[test]
    fn correct_on_constant_words() {
        let (params, m) = params(2, 2);
        for word in [vec![true; m], vec![false; m]] {
            let instance = SumIndexInstance::new(word);
            let protocol = GraphProtocol::on_h_prime(params, &instance, &HubPllScheme).unwrap();
            assert_correct(&protocol, &instance);
        }
    }

    #[test]
    fn rejects_wrong_word_length() {
        let (params, _) = params(2, 2);
        let instance = SumIndexInstance::random(5, 0);
        assert!(GraphProtocol::on_h_prime(params, &instance, &HubPllScheme).is_err());
        assert!(GraphProtocol::on_h_prime(params, &instance, &FullVectorScheme).is_err());
        assert!(GraphProtocol::on_g_prime(params, &instance).is_err());
    }

    #[test]
    fn costs_are_reported() {
        let (params, m) = params(3, 2);
        let instance = SumIndexInstance::random(m, 7);
        let protocol = GraphProtocol::on_h_prime(params, &instance, &HubPllScheme).unwrap();
        let costs = protocol.costs();
        assert_eq!(costs.m, 16);
        assert_eq!(costs.naive_bits, 16 + 4);
        assert!(costs.max_message_bits > 0);
        assert!(costs.avg_message_bits <= costs.max_message_bits as f64);
        assert!((costs.sqrt_m - 4.0).abs() < 1e-9);
        let alice = protocol.alice_message(3);
        assert!(alice.num_bits(m) <= costs.max_message_bits);
    }

    #[test]
    fn alice_and_bob_vertices_are_distinct_levels() {
        let (params, _) = params(2, 2);
        let h = HGraph::build(params);
        let repr = Repr::new(params);
        assert!(query_vertices(&h, repr, 0).all(|v| v < 16), "level 0");
        assert!(query_vertices(&h, repr, 4).all(|v| v >= 4 * 16), "level 2l");
    }

    #[test]
    fn hub_labels_smaller_than_full_vectors_here() {
        let (params, m) = params(3, 2);
        let instance = SumIndexInstance::random(m, 1);
        let hub = GraphProtocol::on_h_prime(params, &instance, &HubPllScheme).unwrap();
        let full = GraphProtocol::on_h_prime(params, &instance, &FullVectorScheme).unwrap();
        assert!(hub.label_stats().average_bits < full.label_stats().average_bits);
        assert_eq!(hub.label_stats().num_labels, 320, "every vertex of H'(3,2)");
        assert_eq!(hub.scheme_name(), "hub-pll");
        assert_eq!(full.scheme_name(), "full-vector");
    }

    #[test]
    fn correct_exhaustively_on_degree3_graph() {
        let (params, m) = params(2, 2);
        for seed in [1u64, 2] {
            let instance = SumIndexInstance::random(m, seed);
            let protocol = GraphProtocol::on_g_prime(params, &instance).unwrap();
            assert!(protocol.max_degree() <= 3);
            assert!(protocol.graph_nodes() > 20_000, "G(2,2) is ~25k vertices");
            assert_correct(&protocol, &instance);
        }
    }

    #[test]
    fn g_prime_agrees_with_h_prime() {
        let (params, m) = params(2, 2);
        let instance = SumIndexInstance::random(m, 9);
        let on_g = GraphProtocol::on_g_prime(params, &instance).unwrap();
        let on_h = GraphProtocol::on_h_prime(params, &instance, &HubPllScheme).unwrap();
        for a in 0..m as u64 {
            for b in 0..m as u64 {
                assert_eq!(on_g.run(a, b), on_h.run(a, b));
            }
        }
    }

    #[test]
    fn label_sizes_scale_with_middle_layer() {
        let (params, m) = params(2, 2);
        let instance = SumIndexInstance::random(m, 3);
        let protocol = GraphProtocol::on_g_prime(params, &instance).unwrap();
        let stats = protocol.label_stats();
        assert_eq!(stats.num_labels, 2 * m, "Alice's and Bob's query cores");
        // s^l = 16 hubs, distances ~ 4A+spread (hundreds): label sizes in
        // the hundreds of bits, not tens of thousands.
        assert!(stats.max_bits > 64);
        assert!(stats.max_bits < 16 * 64);
    }
}
