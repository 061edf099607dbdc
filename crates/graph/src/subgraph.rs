//! Induced subgraph extraction with id remapping.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, NodeId};

/// An induced subgraph together with the vertex-id correspondence.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The extracted graph (vertices renumbered `0..k`).
    pub graph: Graph,
    /// `to_original[new_id] = old_id`.
    pub to_original: Vec<NodeId>,
    /// `to_new[old_id] = Some(new_id)` for kept vertices.
    pub to_new: Vec<Option<NodeId>>,
}

/// Extracts the subgraph induced by `keep` (order and duplicates are
/// normalized; ids are remapped to `0..k` preserving the original order).
///
/// # Panics
///
/// Panics if a vertex in `keep` is out of range.
pub fn induced_subgraph(g: &Graph, keep: &[NodeId]) -> InducedSubgraph {
    let mut kept: Vec<NodeId> = keep.to_vec();
    kept.sort_unstable();
    kept.dedup();
    let mut to_new = vec![None; g.num_nodes()];
    for (new, &old) in kept.iter().enumerate() {
        assert!((old as usize) < g.num_nodes(), "vertex {old} out of range");
        to_new[old as usize] = Some(new as NodeId);
    }
    // Both endpoints are remapped indices into `kept`, which sized the
    // builder, so the out-of-range error is unreachable.
    fn must_add(builder: &mut GraphBuilder, u: NodeId, v: NodeId, w: crate::Weight) {
        #[expect(
            clippy::expect_used,
            reason = "both endpoints are indices into kept, which sized the builder"
        )]
        builder
            .add_edge(u, v, w)
            .expect("subgraph endpoints remapped below kept.len()");
    }

    let mut builder = GraphBuilder::new(kept.len());
    for (new_u, &old) in kept.iter().enumerate() {
        for (v, w) in g.neighbors(old) {
            if v > old {
                if let Some(new_v) = to_new[v as usize] {
                    must_add(&mut builder, new_u as NodeId, new_v, w);
                }
            }
        }
    }
    InducedSubgraph {
        graph: builder.build(),
        to_original: kept,
        to_new,
    }
}

/// Extracts the connected component containing `v` as an induced subgraph.
pub fn component_of(g: &Graph, v: NodeId) -> InducedSubgraph {
    let (labels, _) = crate::properties::connected_components(g);
    let target = labels[v as usize];
    let keep: Vec<NodeId> = (0..g.num_nodes() as NodeId)
        .filter(|&u| labels[u as usize] == target)
        .collect();
    induced_subgraph(g, &keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_weighted_edges;
    use crate::generators;

    #[test]
    fn keeps_internal_edges_only() {
        let g = generators::cycle(6);
        let sub = induced_subgraph(&g, &[0, 1, 2, 4]);
        assert_eq!(sub.graph.num_nodes(), 4);
        // Edges kept: 0-1, 1-2 (4 is isolated among the kept set).
        assert_eq!(sub.graph.num_edges(), 2);
        assert_eq!(sub.to_original, vec![0, 1, 2, 4]);
        assert_eq!(sub.to_new[4], Some(3));
        assert_eq!(sub.to_new[3], None);
    }

    #[test]
    fn weights_preserved() {
        let g = graph_from_weighted_edges(4, &[(0, 1, 9), (1, 2, 4), (2, 3, 2)]).unwrap();
        let sub = induced_subgraph(&g, &[1, 2]);
        assert_eq!(sub.graph.edge_weight(0, 1), Some(4));
    }

    #[test]
    fn duplicates_and_order_normalized() {
        let g = generators::path(5);
        let a = induced_subgraph(&g, &[3, 1, 2, 2]);
        let b = induced_subgraph(&g, &[1, 2, 3]);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.to_original, b.to_original);
    }

    #[test]
    fn component_extraction() {
        let g = crate::builder::graph_from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let c0 = component_of(&g, 1);
        assert_eq!(c0.graph.num_nodes(), 3);
        assert_eq!(c0.graph.num_edges(), 2);
        let c1 = component_of(&g, 4);
        assert_eq!(c1.graph.num_nodes(), 2);
        let c2 = component_of(&g, 5);
        assert_eq!(c2.graph.num_nodes(), 1);
    }

    #[test]
    fn empty_keep_set() {
        let g = generators::path(3);
        let sub = induced_subgraph(&g, &[]);
        assert_eq!(sub.graph.num_nodes(), 0);
    }
}
