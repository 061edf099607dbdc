//! Canonical Hierarchical Hub Labeling (HHL), after Abraham–Delling–
//! Goldberg–Werneck (ESA 2012), which the paper cites as one of the
//! foundational hub-labeling frameworks.
//!
//! Given a total importance order on the vertices, the *canonical* labeling
//! puts `h` into `S_v` exactly when no strictly more important vertex lies
//! on any shortest `v–h` path. For every pair, the most important valid hub
//! is then present on both sides, so the labeling is exact for *any* order.
//! PLL with the same order produces a subset of the canonical labeling
//! (it is the minimal hierarchical labeling); the gap between the two is an
//! ablation the benches chart.
//!
//! The implementation is APSP-based (`O(n³)` time) and intended for the
//! small/medium instances used in experiments.

use hl_graph::apsp::DistanceMatrix;
use hl_graph::{Distance, Graph, GraphError, NodeId, INFINITY};

use crate::flat::FlatLabeling;
use crate::order;

/// Builds the canonical hierarchical labeling for `order` (earlier in the
/// slice = more important).
///
/// # Errors
///
/// Propagates [`GraphError`] from the APSP computation.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the vertex set.
pub fn canonical_hhl(g: &Graph, order: &[NodeId]) -> Result<FlatLabeling, GraphError> {
    assert!(
        order::is_permutation(order, g.num_nodes()),
        "HHL order must be a permutation of the vertex set"
    );
    let n = g.num_nodes();
    let m = DistanceMatrix::compute(g)?;
    // rank[v] = importance position (0 = most important).
    let mut rank = vec![0u32; n];
    for (pos, &v) in order.iter().enumerate() {
        rank[v as usize] = pos as u32;
    }
    let mut labels: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); n];
    for v in 0..n as NodeId {
        for h in 0..n as NodeId {
            let dvh = m.distance(v, h);
            if dvh == INFINITY {
                continue;
            }
            // h enters S_v unless a strictly more important vertex lies on
            // some shortest v-h path.
            let dominated = (0..n as NodeId).any(|x| {
                rank[x as usize] < rank[h as usize]
                    && m.distance(v, x) != INFINITY
                    && m.distance(x, h) != INFINITY
                    && m.distance(v, x) + m.distance(x, h) == dvh
            });
            if !dominated {
                labels[v as usize].push((h, dvh));
            }
        }
    }
    Ok(FlatLabeling::from_pair_lists(labels)?)
}

/// Convenience: canonical HHL with the decreasing-degree order.
///
/// # Errors
///
/// Propagates [`GraphError`] from the APSP computation.
pub fn canonical_hhl_by_degree(g: &Graph) -> Result<FlatLabeling, GraphError> {
    canonical_hhl(g, &order::by_degree(g))
}

/// Checks the *hierarchy* property: `h ∈ S_v` implies `rank(h) <= rank(v)`
/// is **not** required in general, but the nesting property is: if
/// `h ∈ S_v` then `S_h ∩ {more important than h}`-hubs of `v` route through
/// — here we verify the simpler defining property directly: no hub of `v`
/// is dominated by a more important vertex on a shortest path.
pub fn is_hierarchical(g: &Graph, labeling: &FlatLabeling, order: &[NodeId]) -> bool {
    let n = g.num_nodes();
    let Ok(m) = DistanceMatrix::compute(g) else {
        return false;
    };
    let mut rank = vec![0u32; n];
    for (pos, &v) in order.iter().enumerate() {
        rank[v as usize] = pos as u32;
    }
    for v in 0..n as NodeId {
        for (&h, &dvh) in labeling.hubs_of(v).iter().zip(labeling.dists_of(v)) {
            let dominated = (0..n as NodeId).any(|x| {
                rank[x as usize] < rank[h as usize]
                    && m.distance(v, x) != INFINITY
                    && m.distance(x, h) != INFINITY
                    && m.distance(v, x) + m.distance(x, h) == Distance::from(dvh)
            });
            if dominated {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::verify_exact;
    use crate::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    #[test]
    fn exact_on_families() {
        for g in [
            generators::path(12),
            generators::cycle(11),
            generators::grid(4, 5),
            generators::connected_gnm(30, 15, 3),
            generators::weighted_grid(4, 4, 2),
        ] {
            let hl = canonical_hhl_by_degree(&g).unwrap();
            assert!(verify_exact(&g, &hl).unwrap().is_exact());
        }
    }

    #[test]
    fn exact_for_any_order() {
        let g = generators::connected_gnm(25, 12, 8);
        for seed in 0..4 {
            let ord = order::random(&g, seed);
            let hl = canonical_hhl(&g, &ord).unwrap();
            assert!(verify_exact(&g, &hl).unwrap().is_exact(), "seed {seed}");
            assert!(is_hierarchical(&g, &hl, &ord));
        }
    }

    #[test]
    fn pll_is_subset_of_canonical() {
        let g = generators::connected_gnm(30, 18, 5);
        let ord = order::by_degree(&g);
        let canonical = canonical_hhl(&g, &ord).unwrap();
        let pll = PrunedLandmarkLabeling::with_order(&g, ord).into_labeling();
        for v in 0..30u32 {
            let canon: Vec<_> = canonical.pairs_of(v).collect();
            for pair in pll.pairs_of(v) {
                assert!(
                    canon.binary_search(&pair).is_ok(),
                    "PLL hub ({v},{pair:?}) missing from canonical HHL"
                );
            }
        }
        assert!(pll.num_entries() <= canonical.num_entries());
    }

    #[test]
    fn most_important_vertex_is_universal_hub() {
        let g = generators::grid(4, 4);
        let ord = order::by_degree(&g);
        let top = ord[0];
        let hl = canonical_hhl(&g, &ord).unwrap();
        for v in 0..16u32 {
            assert!(hl.hubs_of(v).contains(&top));
        }
    }

    #[test]
    fn disconnected_graphs_fine() {
        let g = hl_graph::builder::graph_from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let hl = canonical_hhl_by_degree(&g).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn rejects_bad_order() {
        let g = generators::path(3);
        let result = std::panic::catch_unwind(|| canonical_hhl(&g, &[0, 0, 1]));
        assert!(result.is_err());
    }
}
