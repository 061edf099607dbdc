//! Slack-pruned ("approximate") PLL.
//!
//! Section 1.1 of the paper describes how the best general-graph distance
//! labelings are built: an *approximate* hub labeling (small additive
//! error) plus explicit correction tables. This module provides the first
//! half: PLL whose pruning tolerates an additive `slack`, trading exactness
//! for smaller labels. Queries never underestimate; the overestimate is
//! bounded empirically (and is 0 for `slack = 0`, where this *is*
//! ordinary PLL: both are [`crate::pll`]'s sequential driver).

use hl_graph::{Distance, Graph, NodeId, INFINITY};

use crate::flat::FlatLabeling;
use crate::label::LabelingView;
use crate::pll::pruned_labeling;

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
/// Panics if `order` is not a permutation of the vertex set, or if a
/// label distance exceeds `u32::MAX`, the arena's distance lane.
pub fn approx_pll(g: &Graph, order: Vec<NodeId>, slack: Distance) -> FlatLabeling {
    pruned_labeling(g, &order, slack)
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
    use crate::order;
    use crate::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

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
