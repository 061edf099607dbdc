//! Incremental, validating construction of [`Graph`]s.

use crate::error::GraphError;
use crate::graph::{Graph, NodeId, Weight};

/// Builder accumulating undirected edges before freezing them into a CSR
/// [`Graph`].
///
/// Duplicate edges are allowed during accumulation; [`GraphBuilder::build`]
/// keeps the *minimum* weight among duplicates (the natural semantics for
/// shortest-path work).
///
/// # Example
///
/// ```
/// use hl_graph::GraphBuilder;
///
/// # fn main() -> Result<(), hl_graph::GraphError> {
/// let mut b = GraphBuilder::new(2);
/// b.add_edge(0, 1, 9)?;
/// b.add_edge(1, 0, 4)?; // duplicate, lower weight wins
/// let g = b.build();
/// assert_eq!(g.edge_weight(0, 1), Some(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId, Weight)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `num_nodes` vertices.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with capacity reserved for `num_edges` edges.
    pub fn with_capacity(num_nodes: usize, num_edges: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::with_capacity(num_edges),
        }
    }

    /// Number of vertices the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Grows the vertex set to at least `n` vertices and returns the builder
    /// for chaining.
    pub fn grow_to(&mut self, n: usize) -> &mut Self {
        self.num_nodes = self.num_nodes.max(n);
        self
    }

    /// Adds a fresh vertex and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.num_nodes as NodeId;
        self.num_nodes += 1;
        id
    }

    /// Adds the undirected edge `{u, v}` with weight `w`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is not a valid
    /// vertex and [`GraphError::SelfLoop`] when `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) -> Result<(), GraphError> {
        if u as usize >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: u as u64,
                num_nodes: self.num_nodes,
            });
        }
        if v as usize >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: v as u64,
                num_nodes: self.num_nodes,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u as u64 });
        }
        self.edges.push((u.min(v), u.max(v), w));
        Ok(())
    }

    /// Adds an undirected unit-weight edge.
    ///
    /// # Errors
    ///
    /// Same as [`GraphBuilder::add_edge`].
    pub fn add_unit_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        self.add_edge(u, v, 1)
    }

    /// Freezes the accumulated edges into an immutable CSR [`Graph`].
    ///
    /// Duplicates collapse to their minimum weight. Adjacency lists come out
    /// sorted by neighbor id.
    pub fn build(mut self) -> Graph {
        // Sort (u, v, w); duplicates become adjacent with the smallest weight
        // first, so a linear dedup pass keeps the minimum.
        self.edges.sort_unstable();
        self.edges
            .dedup_by(|next, kept| next.0 == kept.0 && next.1 == kept.1);

        let n = self.num_nodes;
        let mut degree = vec![0usize; n];
        for &(u, v, _) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let total = offsets[n];
        let mut targets = vec![0 as NodeId; total];
        let mut weights = vec![0 as Weight; total];
        let mut cursor = offsets.clone();
        let mut unit = true;
        for &(u, v, w) in &self.edges {
            unit &= w == 1;
            let cu = cursor[u as usize];
            targets[cu] = v;
            weights[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize];
            targets[cv] = u;
            weights[cv] = w;
            cursor[v as usize] += 1;
        }
        // Edges were sorted by (u, v); the forward copies are therefore
        // already sorted per row, but the reverse copies need a per-row sort.
        for v in 0..n {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            let row: &mut Vec<(NodeId, Weight)> = &mut targets[lo..hi]
                .iter()
                .copied()
                .zip(weights[lo..hi].iter().copied())
                .collect::<Vec<_>>();
            row.sort_unstable_by_key(|&(t, _)| t);
            for (i, &(t, w)) in row.iter().enumerate() {
                targets[lo + i] = t;
                weights[lo + i] = w;
            }
        }
        let num_edges = self.edges.len();
        Graph::from_csr(offsets, targets, weights, num_edges, unit)
    }
}

/// Builds a unit-weight graph straight from an edge list.
///
/// Convenience for tests and generators.
///
/// # Errors
///
/// Propagates [`GraphError`] from edge insertion.
pub fn graph_from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for &(u, v) in edges {
        b.add_unit_edge(u, v)?;
    }
    Ok(b.build())
}

/// Builds a weighted graph straight from an edge list.
///
/// # Errors
///
/// Propagates [`GraphError`] from edge insertion.
pub fn graph_from_weighted_edges(
    n: usize,
    edges: &[(NodeId, NodeId, Weight)],
) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for &(u, v, w) in edges {
        b.add_edge(u, v, w)?;
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(0, 2, 1),
            Err(GraphError::NodeOutOfRange {
                node: 2,
                num_nodes: 2
            })
        );
        assert_eq!(
            b.add_edge(5, 0, 1),
            Err(GraphError::NodeOutOfRange {
                node: 5,
                num_nodes: 2
            })
        );
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(b.add_edge(1, 1, 1), Err(GraphError::SelfLoop { node: 1 }));
    }

    #[test]
    fn dedup_keeps_minimum_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 7).unwrap();
        b.add_edge(1, 0, 3).unwrap();
        b.add_edge(0, 1, 5).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3));
    }

    #[test]
    fn adjacency_sorted() {
        let mut b = GraphBuilder::new(5);
        for v in [4u32, 2, 3, 1] {
            b.add_edge(0, v, v as u64).unwrap();
        }
        let g = b.build();
        assert_eq!(g.neighbor_ids(0), &[1, 2, 3, 4]);
        let ws: Vec<_> = g.neighbors(0).map(|(_, w)| w).collect();
        assert_eq!(ws, vec![1, 2, 3, 4]);
    }

    #[test]
    fn add_node_grows() {
        let mut b = GraphBuilder::new(1);
        let v = b.add_node();
        assert_eq!(v, 1);
        b.add_edge(0, 1, 1).unwrap();
        assert_eq!(b.build().num_nodes(), 2);
    }

    #[test]
    fn grow_to_never_shrinks() {
        let mut b = GraphBuilder::new(5);
        b.grow_to(3);
        assert_eq!(b.num_nodes(), 5);
        b.grow_to(9);
        assert_eq!(b.num_nodes(), 9);
    }

    #[test]
    fn zero_weight_edges_supported() {
        let g = graph_from_weighted_edges(3, &[(0, 1, 0), (1, 2, 0)]).unwrap();
        assert!(!g.is_unit_weighted());
        assert_eq!(g.edge_weight(0, 1), Some(0));
    }

    #[test]
    fn from_edges_helpers() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(g.is_unit_weighted());
        assert_eq!(g.num_edges(), 2);
        assert!(graph_from_edges(1, &[(0, 1)]).is_err());
    }
}
