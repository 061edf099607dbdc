//! Greedy 2-hop cover (Cohen, Halperin, Kaplan, Zwick; SICOMP 2003).
//!
//! Repeatedly pick the hub vertex maximizing the number of still-uncovered
//! pairs it covers, and add it to the labels of the two "sides" it serves.
//! This is the classical `O(log n)`-approximation of the optimal 2-hop
//! cover. The implementation is the straightforward cubic one, intended as
//! a *quality* baseline on small instances — it gives a near-optimal size
//! yardstick against which PLL and the Theorem 4.1 construction are
//! compared.
//!
//! This simplified variant re-evaluates marginal coverage each round
//! (`O(n)` rounds × `O(n²)` evaluation), fine for `n` up to a few hundred.

use hl_graph::apsp::DistanceMatrix;
use hl_graph::{Graph, GraphError, NodeId, INFINITY};

use crate::flat::FlatLabeling;

/// Greedy 2-hop cover construction.
///
/// # Errors
///
/// Propagates [`GraphError`] from the APSP computation.
///
/// # Example
///
/// ```
/// use hl_graph::generators;
/// use hl_core::greedy::greedy_cover;
/// use hl_core::cover::verify_exact;
///
/// # fn main() -> Result<(), hl_graph::GraphError> {
/// let g = generators::cycle(8);
/// let hl = greedy_cover(&g)?;
/// assert!(verify_exact(&g, &hl)?.is_exact());
/// # Ok(())
/// # }
/// ```
pub fn greedy_cover(g: &Graph) -> Result<FlatLabeling, GraphError> {
    let n = g.num_nodes();
    let m = DistanceMatrix::compute(g)?;
    // covered[u][v] for u <= v, flattened.
    let idx = |u: usize, v: usize| {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        a * n + b
    };
    let mut covered = vec![false; n * n];
    let mut uncovered = 0usize;
    let mut labels: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); n];
    for u in 0..n {
        // Self-hubs cover the diagonal for free.
        labels[u].push((u as NodeId, 0));
        covered[idx(u, u)] = true;
        for v in (u + 1)..n {
            if m.distance(u as NodeId, v as NodeId) == INFINITY {
                covered[idx(u, v)] = true; // unreachable pairs need no hub
            } else {
                uncovered += 1;
            }
        }
    }
    // Each round picks the hub h maximizing the number of still-uncovered
    // pairs (u, v) with h on a shortest u-v path, then adds h exactly to the
    // labels of the vertices participating in those pairs.
    while uncovered > 0 {
        let mut best_h = 0usize;
        let mut best_gain = 0usize;
        for h in 0..n {
            let mut gain = 0usize;
            let hrow = m.row(h as NodeId);
            for u in 0..n {
                let duh = hrow[u];
                if duh == u32::MAX {
                    continue;
                }
                for v in (u + 1)..n {
                    if covered[idx(u, v)] {
                        continue;
                    }
                    let dhv = hrow[v];
                    if dhv != u32::MAX
                        && duh as u64 + dhv as u64 == m.distance(u as NodeId, v as NodeId)
                    {
                        gain += 1;
                    }
                }
            }
            if gain > best_gain {
                best_gain = gain;
                best_h = h;
            }
        }
        debug_assert!(best_gain > 0, "uncovered pairs remain but no hub helps");
        let hrow = m.row(best_h as NodeId);
        let mut serves = vec![false; n];
        for u in 0..n {
            let duh = hrow[u];
            if duh == u32::MAX {
                continue;
            }
            for v in (u + 1)..n {
                if covered[idx(u, v)] {
                    continue;
                }
                let dhv = hrow[v];
                if dhv != u32::MAX
                    && duh as u64 + dhv as u64 == m.distance(u as NodeId, v as NodeId)
                {
                    covered[idx(u, v)] = true;
                    uncovered -= 1;
                    serves[u] = true;
                    serves[v] = true;
                }
            }
        }
        for u in 0..n {
            if serves[u] && u != best_h {
                labels[u].push((best_h as NodeId, hrow[u] as u64));
            }
        }
    }
    Ok(FlatLabeling::from_pair_lists(labels)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::verify_exact;
    use crate::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    #[test]
    fn exact_on_path() {
        let g = generators::path(8);
        let hl = greedy_cover(&g).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn exact_on_random_sparse() {
        let g = generators::connected_gnm(40, 20, 10);
        let hl = greedy_cover(&g).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn exact_on_weighted() {
        let g = generators::weighted_grid(4, 5, 8);
        let hl = greedy_cover(&g).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn exact_on_disconnected() {
        let g = hl_graph::builder::graph_from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let hl = greedy_cover(&g).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn star_uses_single_universal_hub() {
        let g = generators::star(20);
        let hl = greedy_cover(&g).unwrap();
        // The first chosen hub must be the center, covering everything.
        assert!((0..20).all(|v| hl.hubs_of(v).contains(&0)));
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn greedy_not_worse_than_pll_by_much_on_small_graphs() {
        // Greedy is the quality yardstick; it should never blow up past the
        // PLL size by more than a constant factor on small sparse graphs.
        let g = generators::connected_gnm(30, 15, 77);
        let greedy = greedy_cover(&g).unwrap();
        let pll = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        assert!(greedy.total_hubs() as f64 <= 3.0 * pll.total_hubs() as f64);
    }
}
