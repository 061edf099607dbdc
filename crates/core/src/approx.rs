//! Slack-pruned ("approximate") PLL.
//!
//! Section 1.1 of the paper describes how the best general-graph distance
//! labelings are built: an *approximate* hub labeling (small additive
//! error) plus explicit correction tables. This module provides the first
//! half: PLL whose pruning tolerates an additive `slack`, trading exactness
//! for smaller labels. Queries never underestimate; the overestimate is
//! bounded empirically (and is 0 for `slack = 0`, where this reduces to
//! ordinary PLL).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hl_graph::{Distance, Graph, NodeId, INFINITY};

use crate::flat::FlatLabeling;
use crate::label::LabelingView;
use crate::order;

/// Builds a slack-pruned PLL labeling: during the pruned search from each
/// root, vertex `u` is skipped when existing hubs already certify
/// `d(root, u) + slack`, i.e. `query(root, u) <= d(root, u) + slack`.
///
/// `slack = 0` gives exact PLL. Larger slack shrinks labels; the error of
/// the final labeling is *measured*, not guaranteed (repeated pruning can
/// compound), which is exactly what [`measure_additive_error`] and the
/// correction-table scheme in [`crate::corrected`] are for.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the vertex set.
pub fn approx_pll(g: &Graph, order_vec: Vec<NodeId>, slack: Distance) -> FlatLabeling {
    assert!(
        order::is_permutation(&order_vec, g.num_nodes()),
        "PLL order must be a permutation of the vertex set"
    );
    let n = g.num_nodes();
    let mut labels: Vec<Vec<(NodeId, Distance)>> = vec![Vec::new(); n];
    let mut dist_from_root = vec![INFINITY; n];
    let mut touched: Vec<NodeId> = Vec::new();
    let mut dist = vec![INFINITY; n];
    let mut visited: Vec<NodeId> = Vec::new();
    let unit = g.is_unit_weighted();
    for &root in &order_vec {
        for &(h, d) in &labels[root as usize] {
            dist_from_root[h as usize] = d;
            touched.push(h);
        }
        let prune = |labels_u: &[(NodeId, Distance)], du: Distance, table: &[Distance]| {
            let mut best = INFINITY;
            for &(h, d) in labels_u {
                let dr = table[h as usize];
                if dr != INFINITY {
                    best = best.min(dr.saturating_add(d));
                }
            }
            best <= du.saturating_add(slack)
        };
        if unit {
            let mut queue = VecDeque::new();
            dist[root as usize] = 0;
            visited.push(root);
            queue.push_back(root);
            while let Some(u) = queue.pop_front() {
                let du = dist[u as usize];
                if prune(&labels[u as usize], du, &dist_from_root) {
                    continue;
                }
                labels[u as usize].push((root, du));
                for &v in g.neighbor_ids(u) {
                    if dist[v as usize] == INFINITY {
                        dist[v as usize] = du + 1;
                        visited.push(v);
                        queue.push_back(v);
                    }
                }
            }
        } else {
            let mut heap = BinaryHeap::new();
            dist[root as usize] = 0;
            visited.push(root);
            heap.push(Reverse((0u64, root)));
            while let Some(Reverse((du, u))) = heap.pop() {
                if du > dist[u as usize] {
                    continue;
                }
                if prune(&labels[u as usize], du, &dist_from_root) {
                    continue;
                }
                labels[u as usize].push((root, du));
                for (v, w) in g.neighbors(u) {
                    let nd = du.saturating_add(w);
                    if nd < dist[v as usize] {
                        if dist[v as usize] == INFINITY {
                            visited.push(v);
                        }
                        dist[v as usize] = nd;
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
        }
        for &v in &visited {
            dist[v as usize] = INFINITY;
        }
        visited.clear();
        for &h in &touched {
            dist_from_root[h as usize] = INFINITY;
        }
        touched.clear();
    }
    FlatLabeling::from_pair_lists(labels)
}

/// Error profile of an approximate labeling against ground truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorProfile {
    /// Pairs checked.
    pub pairs: usize,
    /// Pairs answered exactly.
    pub exact: usize,
    /// Largest additive overestimate observed.
    pub max_error: u64,
    /// Sum of additive errors (for the mean).
    pub total_error: u64,
}

impl ErrorProfile {
    /// Mean additive error across all checked pairs.
    pub fn mean_error(&self) -> f64 {
        if self.pairs == 0 {
            return 0.0;
        }
        self.total_error as f64 / self.pairs as f64
    }
}

/// Measures the additive error of `labeling` on all pairs (APSP-based).
///
/// # Errors
///
/// Propagates [`hl_graph::GraphError`] from the ground-truth APSP
/// computation (e.g. a distance overflowing its dense-matrix encoding).
///
/// # Panics
///
/// Panics if the labeling ever *under*estimates — stored distances are
/// required to be true distances, so that would indicate corruption.
pub fn measure_additive_error<L: LabelingView>(
    g: &Graph,
    labeling: &L,
) -> Result<ErrorProfile, hl_graph::GraphError> {
    let m = hl_graph::apsp::DistanceMatrix::compute(g)?;
    let n = g.num_nodes() as NodeId;
    let mut profile = ErrorProfile::default();
    for u in 0..n {
        for v in u..n {
            let truth = m.distance(u, v);
            let answer = labeling.query(u, v);
            profile.pairs += 1;
            if truth == INFINITY {
                assert_eq!(answer, INFINITY, "phantom path for unreachable pair");
                profile.exact += 1;
                continue;
            }
            assert!(answer >= truth, "labeling underestimated {u}-{v}");
            let err = if answer == INFINITY {
                u64::MAX
            } else {
                answer - truth
            };
            if err == 0 {
                profile.exact += 1;
            } else {
                profile.max_error = profile.max_error.max(err);
                profile.total_error = profile.total_error.saturating_add(err);
            }
        }
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    #[test]
    fn zero_slack_is_exact_pll() {
        let g = generators::connected_gnm(40, 20, 3);
        let ord = order::by_degree(&g);
        let approx = approx_pll(&g, ord.clone(), 0);
        let exact = PrunedLandmarkLabeling::with_order(&g, ord).into_labeling();
        assert_eq!(approx, exact);
    }

    #[test]
    fn slack_shrinks_labels() {
        let g = generators::grid(9, 9);
        let ord = order::by_degree(&g);
        let exact = approx_pll(&g, ord.clone(), 0);
        let loose = approx_pll(&g, ord, 2);
        assert!(
            loose.total_hubs() < exact.total_hubs(),
            "slack 2: {} vs exact {}",
            loose.total_hubs(),
            exact.total_hubs()
        );
    }

    #[test]
    fn error_measured_and_bounded_by_observation() {
        let g = generators::grid(8, 8);
        let labeling = approx_pll(&g, order::by_degree(&g), 2);
        let profile = measure_additive_error(&g, &labeling).unwrap();
        assert!(profile.exact <= profile.pairs);
        // Empirically small; assert a loose sanity bound rather than a
        // theorem (pruning can compound).
        assert!(profile.max_error <= 8, "max error {}", profile.max_error);
        assert!(profile.mean_error() < 2.0);
    }

    #[test]
    fn exact_labeling_has_zero_error_profile() {
        let g = generators::random_tree(50, 2);
        let labeling = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let profile = measure_additive_error(&g, &labeling).unwrap();
        assert_eq!(profile.exact, profile.pairs);
        assert_eq!(profile.max_error, 0);
        assert_eq!(profile.mean_error(), 0.0);
    }

    #[test]
    fn weighted_graphs_supported() {
        let g = generators::weighted_grid(6, 6, 4);
        let labeling = approx_pll(&g, order::by_degree(&g), 3);
        let profile = measure_additive_error(&g, &labeling).unwrap();
        assert!(profile.pairs > 0);
    }

    #[test]
    fn disconnected_pairs_stay_unreachable() {
        let g = hl_graph::builder::graph_from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let labeling = approx_pll(&g, order::by_degree(&g), 2);
        assert_eq!(labeling.query(0, 3), INFINITY);
        let profile = measure_additive_error(&g, &labeling).unwrap();
        assert!(profile.pairs > 0);
    }
}
