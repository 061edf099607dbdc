//! Greedy redundancy removal: shrink a hub labeling while preserving
//! exactness.
//!
//! Any construction can leave hubs no pair actually needs. This pass
//! removes hub `h` from `S_v` whenever every query `(v, ·)` still decodes
//! exactly without it — a cheap post-processing ablation that quantifies
//! how far each construction sits from (local) minimality.

use hl_graph::apsp::DistanceMatrix;
use hl_graph::{Graph, GraphError, NodeId};

use crate::flat::FlatLabeling;
use crate::label::merge_join;

/// Result of a minimization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimizeReport {
    /// Total hubs before.
    pub before: usize,
    /// Total hubs after.
    pub after: usize,
    /// Hubs removed.
    pub removed: usize,
}

/// Removes redundant hubs (greedy, per vertex, most recently added hub ids
/// first). The result is exact and *locally* minimal: no single hub can be
/// removed without breaking some query.
///
/// Quadratic memory (APSP); intended for experiment-scale instances.
///
/// # Errors
///
/// Propagates [`GraphError`] from the APSP computation.
pub fn minimize_labeling(
    g: &Graph,
    labeling: &FlatLabeling,
) -> Result<(FlatLabeling, MinimizeReport), GraphError> {
    let n = g.num_nodes();
    let truth = DistanceMatrix::compute(g)?;
    let before = labeling.num_entries();
    let mut labels: Vec<(Vec<NodeId>, Vec<u32>)> = (0..n as NodeId)
        .map(|v| (labeling.hubs_of(v).to_vec(), labeling.dists_of(v).to_vec()))
        .collect();
    // For pair (v, u) exactness after removing h from S_v, only queries
    // involving v change; recheck the row.
    for v in 0..n as NodeId {
        // Try dropping hubs from the largest id down: removing position
        // `i` leaves the positions still to be tried where they were.
        for i in (0..labels[v as usize].0.len()).rev() {
            let (mut hubs, mut dists) = labels[v as usize].clone();
            hubs.remove(i);
            dists.remove(i);
            let ok = (0..n as NodeId).all(|u| {
                let (other_hubs, other_dists) = if u == v {
                    (&hubs, &dists)
                } else {
                    (&labels[u as usize].0, &labels[u as usize].1)
                };
                merge_join(&hubs, &dists, other_hubs, other_dists) == truth.distance(v, u)
            });
            if ok {
                labels[v as usize] = (hubs, dists);
            }
        }
    }
    let mut minimized = FlatLabeling::with_capacity(n, before);
    for (hubs, dists) in &labels {
        minimized.push_label(hubs, dists);
    }
    let after = minimized.num_entries();
    Ok((
        minimized,
        MinimizeReport {
            before,
            after,
            removed: before - after,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::verify_exact;
    use crate::pll::PrunedLandmarkLabeling;
    use crate::random_threshold::{random_threshold_labeling, RandomThresholdParams};
    use hl_graph::generators;

    #[test]
    fn minimized_labeling_stays_exact() {
        let g = generators::connected_gnm(40, 20, 4);
        let hl = PrunedLandmarkLabeling::by_random_order(&g, 3).into_labeling();
        let (min, report) = minimize_labeling(&g, &hl).unwrap();
        assert!(verify_exact(&g, &min).unwrap().is_exact());
        assert_eq!(report.before - report.removed, report.after);
        assert!(report.after <= report.before);
    }

    #[test]
    fn shrinks_wasteful_labelings_substantially() {
        // The random-threshold construction stores whole balls; most of it
        // is redundant on a small graph.
        let g = generators::grid(5, 5);
        let (hl, _) = random_threshold_labeling(
            &g,
            RandomThresholdParams {
                threshold: 4,
                seed: 1,
            },
        )
        .unwrap();
        let (min, report) = minimize_labeling(&g, &hl).unwrap();
        assert!(verify_exact(&g, &min).unwrap().is_exact());
        assert!(
            (report.after as f64) < 0.8 * report.before as f64,
            "expected >20% shrink, got {} -> {}",
            report.before,
            report.after
        );
    }

    #[test]
    fn result_is_locally_minimal() {
        let g = generators::cycle(9);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let (min, _) = minimize_labeling(&g, &hl).unwrap();
        // Dropping any single remaining hub must break exactness.
        let truth = DistanceMatrix::compute(&g).unwrap();
        for v in 0..9u32 {
            for (h, _) in min.pairs_of(v) {
                let lanes = min.hubs_of(v).iter().zip(min.dists_of(v));
                let (hubs, dists): (Vec<NodeId>, Vec<u32>) =
                    lanes.filter(|&(&x, _)| x != h).unzip();
                let broken = (0..9u32).any(|u| {
                    let answer = if u == v {
                        merge_join(&hubs, &dists, &hubs, &dists)
                    } else {
                        merge_join(&hubs, &dists, min.hubs_of(u), min.dists_of(u))
                    };
                    answer != truth.distance(v, u)
                });
                assert!(broken, "hub ({v},{h}) was still removable");
            }
        }
    }

    #[test]
    fn already_minimal_labeling_unchanged() {
        // A path labeled by centroid decomposition is already very tight.
        let g = generators::path(9);
        let hl = crate::tree::centroid_labeling(&g).unwrap();
        let (min, report) = minimize_labeling(&g, &hl).unwrap();
        assert!(verify_exact(&g, &min).unwrap().is_exact());
        assert!(report.removed <= report.before / 4);
    }
}
