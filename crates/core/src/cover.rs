//! Verification that a hub labeling is a *shortest-path cover*, i.e. that
//! every distance query is answered exactly.

use hl_graph::apsp::DistanceMatrix;
use hl_graph::dijkstra::shortest_path_distances;
use hl_graph::sync::{fan_out, machine_workers};
use hl_graph::{Distance, Graph, GraphError, NodeId};

use crate::flat::FlatLabeling;

/// Outcome of a cover verification.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverReport {
    /// Number of ordered pairs checked.
    pub pairs_checked: usize,
    /// Pairs `(u, v, true_distance, labeling_answer)` where the labeling was
    /// wrong (capped at 32 entries to bound memory).
    pub violations: Vec<(NodeId, NodeId, u64, u64)>,
    /// Total number of violating pairs (not capped).
    pub num_violations: usize,
}

impl CoverReport {
    /// `true` when every checked query was exact.
    pub fn is_exact(&self) -> bool {
        self.num_violations == 0
    }

    /// Fraction of checked pairs answered exactly.
    pub fn accuracy(&self) -> f64 {
        if self.pairs_checked == 0 {
            return 1.0;
        }
        1.0 - self.num_violations as f64 / self.pairs_checked as f64
    }

    /// Counts one checked pair, keeping it as an example when it is wrong
    /// and fewer than [`MAX_RECORDED`] are kept.
    fn record(&mut self, u: NodeId, v: NodeId, truth: Distance, answer: Distance) {
        self.pairs_checked += 1;
        if answer != truth {
            self.num_violations += 1;
            if self.violations.len() < MAX_RECORDED {
                self.violations.push((u, v, truth, answer));
            }
        }
    }
}

const MAX_RECORDED: usize = 32;

/// Verifies the labeling against ground truth for **all** pairs, computing a
/// full APSP matrix. Quadratic memory — use on small/medium graphs.
///
/// # Errors
///
/// Propagates [`GraphError`] from the APSP computation (distance overflow).
pub fn verify_exact(g: &Graph, labeling: &FlatLabeling) -> Result<CoverReport, GraphError> {
    let m = DistanceMatrix::compute(g)?;
    let n = g.num_nodes() as NodeId;
    let mut report = CoverReport::default();
    for u in 0..n {
        for v in u..n {
            report.record(u, v, m.distance(u, v), labeling.query(u, v));
        }
    }
    Ok(report)
}

/// Verifies the labeling from `sources` only (each source against every
/// vertex), running one SSSP per source fanned out over the available
/// cores ([`fan_out`]) — linear memory per worker, suitable for large
/// graphs. The recorded violation examples are the first in source order,
/// whatever the schedule.
pub fn verify_from_sources(g: &Graph, labeling: &FlatLabeling, sources: &[NodeId]) -> CoverReport {
    let per_source = fan_out(&mut vec![(); machine_workers()], sources.len(), |(), i| {
        let s = sources[i];
        let dist = shortest_path_distances(g, s);
        let mut report = CoverReport::default();
        for v in 0..g.num_nodes() as NodeId {
            report.record(s, v, dist[v as usize], labeling.query(s, v));
        }
        report
    })
    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    let mut merged = CoverReport::default();
    for report in per_source {
        merged.pairs_checked += report.pairs_checked;
        merged.num_violations += report.num_violations;
        let room = MAX_RECORDED - merged.violations.len();
        merged
            .violations
            .extend(report.violations.into_iter().take(room));
    }
    merged
}

/// Verifies that the labeling is *admissible*: every stored hub distance
/// equals the true graph distance. (A labeling can be admissible without
/// being a cover, but never the other way around for correct stores.)
pub fn verify_hub_distances(g: &Graph, labeling: &FlatLabeling, sources: &[NodeId]) -> bool {
    for &s in sources {
        let dist = shortest_path_distances(g, s);
        for (&h, &d) in labeling.hubs_of(s).iter().zip(labeling.dists_of(s)) {
            if dist[h as usize] != Distance::from(d) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    #[test]
    fn pll_is_exact_on_grid() {
        let g = generators::grid(5, 5);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let report = verify_exact(&g, &hl).unwrap();
        assert!(report.is_exact());
        assert_eq!(report.pairs_checked, 25 * 26 / 2);
        assert_eq!(report.accuracy(), 1.0);
    }

    #[test]
    fn broken_labeling_detected() {
        let g = generators::path(4);
        // Labeling where everything claims distance via hub 0 only.
        let hl = FlatLabeling::from_pair_lists((0..4u64).map(|v| vec![(0, v)]).collect()).unwrap();
        // query(1,2) = 1 + 2 = 3, but true distance is 1.
        let report = verify_exact(&g, &hl).unwrap();
        assert!(!report.is_exact());
        assert!(report.accuracy() < 1.0);
        assert!(report
            .violations
            .iter()
            .any(|&(u, v, t, a)| (u, v) == (1, 2) && t == 1 && a == 3));
    }

    #[test]
    fn sampled_verification_agrees() {
        let g = generators::connected_gnm(60, 40, 17);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let full = verify_exact(&g, &hl).unwrap();
        let sampled = verify_from_sources(&g, &hl, &[0, 10, 20, 30]);
        assert!(full.is_exact());
        assert!(sampled.is_exact());
        assert_eq!(sampled.pairs_checked, 4 * 60);
    }

    #[test]
    fn violation_examples_follow_source_order() {
        // Self hubs only: every off-diagonal pair is wrong, and the 32
        // kept examples are the first in source order on any schedule.
        let g = generators::path(40);
        let hl = FlatLabeling::from_pair_lists((0..40u32).map(|v| vec![(v, 0)]).collect()).unwrap();
        let sources: Vec<NodeId> = (0..40u32).rev().collect();
        let report = verify_from_sources(&g, &hl, &sources);
        assert_eq!(report.pairs_checked, 40 * 40);
        assert_eq!(report.num_violations, 40 * 39);
        let expected: Vec<_> = sources
            .iter()
            .flat_map(|&s| (0..40u32).filter(move |&v| v != s).map(move |v| (s, v)))
            .map(|(s, v)| (s, v, u64::from(s.abs_diff(v)), hl_graph::INFINITY))
            .take(MAX_RECORDED)
            .collect();
        assert_eq!(report.violations, expected);
    }

    #[test]
    fn hub_distances_admissible() {
        let g = generators::weighted_grid(4, 4, 3);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let sources: Vec<_> = (0..16u32).collect();
        assert!(verify_hub_distances(&g, &hl, &sources));
    }

    #[test]
    fn inadmissible_detected() {
        let g = generators::path(3);
        let hl = FlatLabeling::from_pair_lists(vec![vec![(1, 99)], vec![], vec![]]).unwrap();
        assert!(!verify_hub_distances(&g, &hl, &[0]));
    }

    #[test]
    fn empty_labeling_on_single_vertex() {
        let g = generators::path(1);
        let hl = FlatLabeling::from_pair_lists(vec![vec![(0, 0)]]).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }
}
