//! Approximate hub labels + correction tables = exact labeling — the
//! architecture §1.1 of the paper describes for the state-of-the-art
//! general-graph distance labelings ("constructing such (small)
//! approximate hub-sets and complementing it with explicit correction
//! tables … suffices").
//!
//! The corrected labeling stores, per vertex `u`, the approximate hub
//! label plus a sorted table of `(v, true_distance)` for every `v` whose
//! query through the approximate labels is wrong. The query first checks
//! both endpoints' correction tables, then falls back to the hub join —
//! exact by construction, with total correction size equal to the number
//! of erroneous pairs (each stored on the smaller-id side).

use hl_graph::apsp::DistanceMatrix;
use hl_graph::{Distance, Graph, GraphError, NodeId};

use crate::approx::approx_pll;
use crate::flat::FlatLabeling;
use crate::order;

/// An exact labeling assembled from approximate hubs + corrections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrectedLabeling {
    hubs: FlatLabeling,
    /// Per-vertex sorted `(partner, true_distance)` corrections; a pair is
    /// stored once, on its smaller endpoint.
    corrections: Vec<Vec<(NodeId, Distance)>>,
}

impl CorrectedLabeling {
    /// Builds the corrected labeling from slack-pruned PLL.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from the APSP ground-truth computation.
    pub fn build(g: &Graph, slack: Distance, seed: u64) -> Result<Self, GraphError> {
        let ord = if seed == 0 {
            order::by_degree(g)
        } else {
            order::random(g, seed)
        };
        let hubs = approx_pll(g, ord, slack);
        let truth = DistanceMatrix::compute(g)?;
        let n = g.num_nodes() as NodeId;
        let mut corrections: Vec<Vec<(NodeId, Distance)>> = vec![Vec::new(); n as usize];
        for u in 0..n {
            for v in u..n {
                if hubs.query(u, v) != truth.distance(u, v) {
                    corrections[u as usize].push((v, truth.distance(u, v)));
                }
            }
        }
        Ok(CorrectedLabeling { hubs, corrections })
    }

    /// Exact distance query: corrections first, hub join otherwise.
    pub fn query(&self, u: NodeId, v: NodeId) -> Distance {
        let (lo, hi) = (u.min(v), u.max(v));
        if let Ok(i) = self.corrections[lo as usize].binary_search_by_key(&hi, |&(p, _)| p) {
            return self.corrections[lo as usize][i].1;
        }
        self.hubs.query(u, v)
    }

    /// The underlying approximate hub labeling.
    pub fn hubs(&self) -> &FlatLabeling {
        &self.hubs
    }

    /// Total correction entries (= number of erroneous pairs).
    pub fn num_corrections(&self) -> usize {
        self.corrections.iter().map(|c| c.len()).sum()
    }

    /// Size accounting: `(total hubs, total corrections)` — the tradeoff
    /// the slack parameter controls.
    pub fn size_breakdown(&self) -> (usize, usize) {
        (self.hubs.total_hubs(), self.num_corrections())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_graph::generators;

    fn check_exact(g: &Graph, c: &CorrectedLabeling) {
        let m = DistanceMatrix::compute(g).unwrap();
        for u in 0..g.num_nodes() as NodeId {
            for v in 0..g.num_nodes() as NodeId {
                assert_eq!(c.query(u, v), m.distance(u, v), "pair {u},{v}");
            }
        }
    }

    #[test]
    fn exact_at_every_slack() {
        let g = generators::grid(7, 7);
        for slack in [0u64, 1, 2, 4] {
            let c = CorrectedLabeling::build(&g, slack, 0).unwrap();
            check_exact(&g, &c);
        }
    }

    #[test]
    fn zero_slack_needs_no_corrections() {
        let g = generators::connected_gnm(40, 20, 6);
        let c = CorrectedLabeling::build(&g, 0, 0).unwrap();
        assert_eq!(c.num_corrections(), 0);
        check_exact(&g, &c);
    }

    #[test]
    fn slack_trades_hubs_for_corrections() {
        let g = generators::grid(9, 9);
        let tight = CorrectedLabeling::build(&g, 0, 0).unwrap();
        let loose = CorrectedLabeling::build(&g, 2, 0).unwrap();
        let (h0, c0) = tight.size_breakdown();
        let (h2, c2) = loose.size_breakdown();
        assert!(h2 < h0, "hubs must shrink: {h2} vs {h0}");
        assert!(c2 > c0, "corrections must appear: {c2} vs {c0}");
        check_exact(&g, &loose);
    }

    #[test]
    fn exact_on_weighted_and_disconnected() {
        let g = generators::weighted_grid(5, 5, 8);
        check_exact(&g, &CorrectedLabeling::build(&g, 3, 0).unwrap());
        let d = hl_graph::builder::graph_from_edges(6, &[(0, 1), (2, 3)]).unwrap();
        check_exact(&d, &CorrectedLabeling::build(&d, 2, 0).unwrap());
    }

    #[test]
    fn random_order_also_exact() {
        let g = generators::connected_gnm(35, 18, 4);
        check_exact(&g, &CorrectedLabeling::build(&g, 2, 99).unwrap());
    }
}
