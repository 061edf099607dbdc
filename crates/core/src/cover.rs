//! Verification that a hub labeling is a *shortest-path cover*, i.e. that
//! every distance query is answered exactly.

use hl_graph::apsp::DistanceMatrix;
use hl_graph::dijkstra::shortest_path_distances;
use hl_graph::sync::{into_inner_unpoisoned, lock_unpoisoned};
use hl_graph::{Distance, Graph, GraphError, NodeId};

use crate::label::LabelingView;

/// Outcome of a cover verification.
#[derive(Debug, Clone, PartialEq, Eq)]
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
}

const MAX_RECORDED: usize = 32;

/// Verifies the labeling against ground truth for **all** pairs, computing a
/// full APSP matrix. Quadratic memory — use on small/medium graphs.
///
/// Accepts any [`LabelingView`] — the arena [`crate::FlatLabeling`] or a
/// mounted store.
///
/// # Errors
///
/// Propagates [`GraphError`] from the APSP computation (distance overflow).
pub fn verify_exact<L: LabelingView>(g: &Graph, labeling: &L) -> Result<CoverReport, GraphError> {
    let m = DistanceMatrix::compute(g)?;
    let n = g.num_nodes() as NodeId;
    let mut report = CoverReport {
        pairs_checked: 0,
        violations: Vec::new(),
        num_violations: 0,
    };
    for u in 0..n {
        for v in u..n {
            let truth = m.distance(u, v);
            let answer = labeling.query(u, v);
            report.pairs_checked += 1;
            if answer != truth {
                report.num_violations += 1;
                if report.violations.len() < MAX_RECORDED {
                    report.violations.push((u, v, truth, answer));
                }
            }
        }
    }
    Ok(report)
}

/// Verifies the labeling from `sources` only (each source against every
/// vertex), running one SSSP per source — linear memory, suitable for large
/// graphs.
pub fn verify_from_sources<L: LabelingView>(
    g: &Graph,
    labeling: &L,
    sources: &[NodeId],
) -> CoverReport {
    let mut report = CoverReport {
        pairs_checked: 0,
        violations: Vec::new(),
        num_violations: 0,
    };
    for &s in sources {
        let dist = shortest_path_distances(g, s);
        for v in 0..g.num_nodes() as NodeId {
            let truth = dist[v as usize];
            let answer = labeling.query(s, v);
            report.pairs_checked += 1;
            if answer != truth {
                report.num_violations += 1;
                if report.violations.len() < MAX_RECORDED {
                    report.violations.push((s, v, truth, answer));
                }
            }
        }
    }
    report
}

/// Parallel variant of [`verify_from_sources`]: one SSSP per source,
/// fanned out over the available cores. Violation *examples* are capped as
/// in the sequential version (which sources' examples survive depends on
/// thread timing, but counts are exact).
pub fn verify_from_sources_parallel<L: LabelingView + Sync>(
    g: &Graph,
    labeling: &L,
    sources: &[NodeId],
) -> CoverReport {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(sources.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let merged = std::sync::Mutex::new(CoverReport {
        pairs_checked: 0,
        violations: Vec::new(),
        num_violations: 0,
    });
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= sources.len() {
                    break;
                }
                let local = verify_from_sources(g, labeling, &sources[i..=i]);
                let mut m = lock_unpoisoned(&merged);
                m.pairs_checked += local.pairs_checked;
                m.num_violations += local.num_violations;
                for v in local.violations {
                    if m.violations.len() < MAX_RECORDED {
                        m.violations.push(v);
                    }
                }
            });
        }
    });
    into_inner_unpoisoned(merged)
}

/// Verifies that the labeling is *admissible*: every stored hub distance
/// equals the true graph distance. (A labeling can be admissible without
/// being a cover, but never the other way around for correct stores.)
pub fn verify_hub_distances<L: LabelingView>(g: &Graph, labeling: &L, sources: &[NodeId]) -> bool {
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
    use crate::flat::FlatLabeling;
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
    fn parallel_verification_matches_sequential() {
        let g = generators::connected_gnm(80, 40, 21);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let sources: Vec<_> = (0..80u32).collect();
        let seq = verify_from_sources(&g, &hl, &sources);
        let par = verify_from_sources_parallel(&g, &hl, &sources);
        assert_eq!(seq.pairs_checked, par.pairs_checked);
        assert_eq!(seq.num_violations, par.num_violations);
        assert!(par.is_exact());
    }

    #[test]
    fn parallel_verification_counts_violations() {
        let g = generators::path(6);
        // Self hubs only: covers only the diagonal.
        let hl = FlatLabeling::from_pair_lists((0..6u32).map(|v| vec![(v, 0)]).collect()).unwrap();
        let sources: Vec<_> = (0..6u32).collect();
        let seq = verify_from_sources(&g, &hl, &sources);
        let par = verify_from_sources_parallel(&g, &hl, &sources);
        assert_eq!(seq.num_violations, par.num_violations);
        assert!(par.num_violations > 0);
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
