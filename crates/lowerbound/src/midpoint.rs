//! Verification of Lemma 2.2: for every pair `v_{0,x}`, `v_{2ℓ,z}` with
//! componentwise-even `z − x`, the shortest path is *unique*, has length
//! `2ℓA + Σ(z_k−x_k)²/2`, and passes through the midpoint
//! `v_{ℓ,(x+z)/2}`.

use hl_graph::dijkstra::count_shortest_paths;
use hl_graph::sptree::ShortestPathTree;
use hl_graph::NodeId;

use crate::accounting::h_triple;
use crate::hgraph::HGraph;

/// Result of checking one Lemma 2.2 pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MidpointCheck {
    /// The level-0 endpoint vector `x`.
    pub x: Vec<u64>,
    /// The level-`2ℓ` endpoint vector `z`.
    pub z: Vec<u64>,
    /// Measured shortest-path distance.
    pub distance: u64,
    /// Predicted unique shortest-path length.
    pub predicted: u64,
    /// Number of shortest paths found.
    pub path_count: u64,
    /// Whether the canonical shortest path passes the midpoint vertex.
    pub through_midpoint: bool,
}

impl MidpointCheck {
    /// `true` when the pair satisfies every claim of Lemma 2.2.
    pub fn holds(&self) -> bool {
        self.distance == self.predicted && self.path_count == 1 && self.through_midpoint
    }
}

/// The shortest-path data from one level-0 source `v_{0,x}` that every
/// pair check from it reads: distances, path counts and the canonical
/// tree.
struct FromSource {
    dist: Vec<u64>,
    count: Vec<u64>,
    tree: ShortestPathTree,
}

impl FromSource {
    fn new(h: &HGraph, x: &[u64]) -> Self {
        let src = h.node_id(0, x);
        let (dist, count) = count_shortest_paths(h.graph(), src);
        let tree = ShortestPathTree::build(h.graph(), src);
        FromSource { dist, count, tree }
    }

    /// Checks Lemma 2.2 for `(x, z)`, `x` being this run's source.
    fn check(&self, h: &HGraph, x: &[u64], z: &[u64]) -> MidpointCheck {
        let (_, mid, dst) = h_triple(h, x, z);
        MidpointCheck {
            x: x.to_vec(),
            z: z.to_vec(),
            distance: self.dist[dst as usize],
            predicted: h.params().unique_sp_length(x, z),
            path_count: self.count[dst as usize],
            through_midpoint: self.tree.path_to(dst).is_some_and(|p| p.contains(&mid)),
        }
    }
}

/// `true` when `z − x` is componentwise even, the lemma's hypothesis.
fn even_differences(x: &[u64], z: &[u64]) -> bool {
    x.iter().zip(z).all(|(&a, &c)| a.abs_diff(c) % 2 == 0)
}

/// Checks Lemma 2.2 for a single pair `(x, z)`.
///
/// # Panics
///
/// Panics if the coordinate differences are not all even (the lemma's
/// hypothesis) or the vectors have the wrong dimension.
pub fn check_pair(h: &HGraph, x: &[u64], z: &[u64]) -> MidpointCheck {
    assert!(
        even_differences(x, z),
        "Lemma 2.2 requires componentwise even differences"
    );
    FromSource::new(h, x).check(h, x, z)
}

/// Checks Lemma 2.2 for **all** even pairs of the gadget, one Dijkstra
/// run per source; returns the failures (empty = the lemma holds on this
/// instance).
pub fn check_all_pairs(h: &HGraph) -> Vec<MidpointCheck> {
    let mut failures = Vec::new();
    for x in h.all_vectors() {
        let run = FromSource::new(h, &x);
        let checks = h.all_vectors().filter(|z| even_differences(&x, z));
        failures.extend(checks.map(|z| run.check(h, &x, &z)).filter(|c| !c.holds()));
    }
    failures
}

/// The Figure 1 sanity check: in `H_{2,2}`, the blue path
/// `v_{0,(1,0)} → v_{4,(3,2)}` is the unique shortest path, has length
/// `4A + 4` and passes `v_{2,(2,1)}`; the red detour through `v_{2,(3,2)}`
/// costs `4A + 8`.
pub fn figure1_check(h: &HGraph) -> (MidpointCheck, u64) {
    assert_eq!(
        (h.params().b, h.params().ell),
        (2, 2),
        "Figure 1 uses b = ℓ = 2"
    );
    let blue = check_pair(h, &[1, 0], &[3, 2]);
    // Red path length: forced detour keeping coordinate deltas (2,0)+(0,2)
    // in unbalanced splits: climb to (3,2) directly then descend straight:
    // (A+4)+(A+4)+(A+0)+(A+0) = 4A + 8.
    let red = 4 * h.params().base_weight() + 8;
    (blue, red)
}

/// Verifies that core-to-core distances in `G_{b,ℓ}` equal the `H_{b,ℓ}`
/// distances for all level-0/level-2ℓ pairs — the final step of the proof
/// of Lemma 2.2 ("for any u ∈ V_i and v ∈ V_j ... dist_G = dist_H").
pub fn check_g_matches_h(
    h: &HGraph,
    g: &crate::ggraph::GGraph,
) -> Result<(), (NodeId, NodeId, u64, u64)> {
    let params = h.params();
    let two_ell = 2 * params.ell as u64;
    for x in h.all_vectors() {
        let hu = h.node_id(0, &x);
        let dh = hl_graph::dijkstra::dijkstra_distances(h.graph(), hu);
        let dg = hl_graph::bfs::bfs_distances(g.graph(), g.core(hu));
        for z in h.all_vectors() {
            let hv = h.node_id(two_ell, &z);
            let (a, b) = (dh[hv as usize], dg[g.core(hv) as usize]);
            if a != b {
                return Err((hu, hv, a, b));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ggraph::GGraph;
    use crate::params::GadgetParams;

    #[test]
    fn lemma22_holds_on_small_gadgets() {
        for (b, ell) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
            let h = HGraph::build(GadgetParams::new(b, ell).unwrap());
            let failures = check_all_pairs(&h);
            assert!(failures.is_empty(), "H({b},{ell}): {:?}", failures.first());
        }
    }

    #[test]
    fn figure1_blue_and_red() {
        let h = HGraph::build(GadgetParams::new(2, 2).unwrap());
        let (blue, red) = figure1_check(&h);
        assert!(blue.holds());
        assert_eq!(blue.distance, 4 * 96 + 4);
        assert_eq!(red, 4 * 96 + 8);
        assert!(red > blue.distance);
    }

    #[test]
    fn odd_differences_rejected() {
        let h = HGraph::build(GadgetParams::new(2, 2).unwrap());
        let result = std::panic::catch_unwind(|| check_pair(&h, &[0, 0], &[1, 0]));
        assert!(result.is_err());
    }

    #[test]
    fn check_pair_detailed_fields() {
        let h = HGraph::build(GadgetParams::new(2, 2).unwrap());
        let c = check_pair(&h, &[0, 0], &[2, 2]);
        assert!(c.holds());
        assert_eq!(c.predicted, 4 * 96 + 2 + 2);
        assert_eq!(c.path_count, 1);
    }

    #[test]
    fn zero_spread_pair() {
        // x == z: straight climb, still unique through the midpoint x.
        let h = HGraph::build(GadgetParams::new(1, 2).unwrap());
        let c = check_pair(&h, &[1, 1], &[1, 1]);
        assert!(c.holds());
        assert_eq!(c.predicted, 4 * h.params().base_weight());
    }

    #[test]
    fn g_distances_equal_h_distances() {
        for (b, ell) in [(1, 1), (2, 1), (1, 2)] {
            let h = HGraph::build(GadgetParams::new(b, ell).unwrap());
            let g = GGraph::from_hgraph(&h);
            assert_eq!(check_g_matches_h(&h, &g), Ok(()), "G({b},{ell})");
        }
    }
}
