//! A common oracle interface and instrumented comparisons.

use hl_graph::dijkstra::{bidirectional_distance, dijkstra_distance_between};
use hl_graph::{Distance, Graph, NodeId};

use hl_core::FlatLabeling;

use crate::alt::AltOracle;
use crate::ch::ContractionHierarchy;

/// Per-query instrumentation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Vertices settled (popped with final distance).
    pub settled: usize,
    /// Edge relaxations that improved a tentative distance.
    pub relaxed: usize,
}

/// Anything that answers exact point-to-point distance queries.
pub trait DistanceOracle {
    /// Short name for tables.
    fn name(&self) -> &'static str;

    /// Exact distance between `u` and `v`
    /// ([`hl_graph::INFINITY`] when disconnected).
    fn distance(&self, u: NodeId, v: NodeId) -> Distance;
}

/// Plain Dijkstra, recomputed per query (the `S = O(n)`, `T = O(m log n)`
/// endpoint of the tradeoff curve).
#[derive(Debug, Clone, Copy)]
pub struct DijkstraOracle<'g> {
    /// The graph queried against.
    pub graph: &'g Graph,
}

impl DistanceOracle for DijkstraOracle<'_> {
    fn name(&self) -> &'static str {
        "dijkstra"
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        dijkstra_distance_between(self.graph, u, v)
    }
}

/// Bidirectional Dijkstra, recomputed per query.
#[derive(Debug, Clone, Copy)]
pub struct BidirectionalOracle<'g> {
    /// The graph queried against.
    pub graph: &'g Graph,
}

impl DistanceOracle for BidirectionalOracle<'_> {
    fn name(&self) -> &'static str {
        "bidirectional"
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        bidirectional_distance(self.graph, u, v)
    }
}

impl DistanceOracle for AltOracle<'_> {
    fn name(&self) -> &'static str {
        "alt"
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        self.query_with_stats(u, v).0
    }
}

impl DistanceOracle for ContractionHierarchy {
    fn name(&self) -> &'static str {
        "contraction-hierarchy"
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        self.query(u, v)
    }
}

/// A hub labeling used as an oracle (the `S = O(n·|S_v|)`, `T = O(|S_v|)`
/// point of the curve — the subject of the paper).
#[derive(Debug, Clone)]
pub struct HubLabelOracle {
    /// The labeling answering the queries.
    pub labeling: FlatLabeling,
}

impl DistanceOracle for HubLabelOracle {
    fn name(&self) -> &'static str {
        "hub-labels"
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        self.labeling.query(u, v)
    }
}

/// Cross-checks a set of oracles against each other on the given queries;
/// returns the first disagreement as
/// `(oracle_name, u, v, value, reference)`.
pub fn cross_check(
    oracles: &[&dyn DistanceOracle],
    queries: &[(NodeId, NodeId)],
) -> Option<(&'static str, NodeId, NodeId, Distance, Distance)> {
    for &(u, v) in queries {
        let reference = oracles.first()?.distance(u, v);
        for oracle in &oracles[1..] {
            let got = oracle.distance(u, v);
            if got != reference {
                return Some((oracle.name(), u, v, got, reference));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_core::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    #[test]
    fn all_oracles_agree() {
        let g = generators::weighted_grid(7, 7, 6);
        let dij = DijkstraOracle { graph: &g };
        let bi = BidirectionalOracle { graph: &g };
        let alt = AltOracle::with_farthest_landmarks(&g, 4);
        let ch = ContractionHierarchy::build(&g);
        let labeling = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let hub = HubLabelOracle { labeling };
        let queries: Vec<(NodeId, NodeId)> = (0..49)
            .flat_map(|u| [(u, (u * 3) % 49), (u, 48 - u)])
            .collect();
        let oracles: [&dyn DistanceOracle; 5] = [&dij, &bi, &alt, &ch, &hub];
        assert_eq!(cross_check(&oracles, &queries), None);
    }

    #[test]
    fn cross_check_reports_disagreement() {
        let g = generators::path(4);
        let good = DijkstraOracle { graph: &g };
        // A deliberately broken "oracle".
        struct Liar;
        impl DistanceOracle for Liar {
            fn name(&self) -> &'static str {
                "liar"
            }
            fn distance(&self, _: NodeId, _: NodeId) -> Distance {
                7
            }
        }
        let oracles: [&dyn DistanceOracle; 2] = [&good, &Liar];
        let found = cross_check(&oracles, &[(0, 1)]);
        assert_eq!(found, Some(("liar", 0, 1, 7, 1)));
    }

    #[test]
    fn oracle_names_distinct() {
        let g = generators::path(3);
        let names = [
            DijkstraOracle { graph: &g }.name(),
            BidirectionalOracle { graph: &g }.name(),
            "alt",
            "contraction-hierarchy",
            "hub-labels",
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
