//! Empirical highway-dimension estimation.
//!
//! Abraham et al. (J.ACM 2016), cited in the paper's §1.1, explain hub
//! labeling's practical success through the *highway dimension* `h`: a
//! network has highway dimension `h` if for every scale `r`, the shortest
//! paths of length in `(r, 2r]` can be hit by a vertex set that is
//! *locally sparse* (every ball of radius `2r` contains at most `h` of its
//! vertices). Road networks have small `h`; expanders do not.
//!
//! This module computes the empirical analogue: a greedy hitting set of
//! the canonical shortest paths per scale and its maximum density inside
//! any `2r`-ball. Greedy is an `O(log)`-approximation of the optimal
//! hitting set, so the reported values are upper-bound *estimates* of `h`
//! with the right qualitative ordering between families.

use hl_graph::sptree::ShortestPathTree;
use hl_graph::{Distance, Graph, NodeId, INFINITY};

/// Highway-dimension estimate at a single scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleEstimate {
    /// The scale `r` (paths of length in `(r, 2r]` are considered).
    pub r: Distance,
    /// Number of shortest paths at this scale (one canonical path per
    /// unordered pair).
    pub num_paths: usize,
    /// Size of the greedy hitting set.
    pub hitting_set: usize,
    /// Max hitting-set vertices inside any ball of radius `2r` — the
    /// local-sparsity measure defining the highway dimension.
    pub max_in_ball: usize,
}

/// Estimates the highway dimension of `g` at scale `r`.
///
/// Quadratic in `n` (an SSSP per vertex plus path extraction); intended
/// for experiment-scale graphs.
pub fn estimate_at_scale(g: &Graph, r: Distance) -> ScaleEstimate {
    let n = g.num_nodes() as NodeId;
    // Canonical shortest paths of length in (r, 2r], one per pair u < v.
    let mut paths: Vec<Vec<NodeId>> = Vec::new();
    for u in 0..n {
        let tree = ShortestPathTree::build(g, u);
        for v in (u + 1)..n {
            let d = tree.distance(v);
            if d != INFINITY && d > r && d <= 2 * r {
                if let Some(p) = tree.path_to(v) {
                    paths.push(p);
                }
            }
        }
    }
    let num_paths = paths.len();
    // Greedy hitting set.
    let mut hit: Vec<bool> = vec![false; paths.len()];
    let mut hitting: Vec<NodeId> = Vec::new();
    let mut remaining = paths.len();
    while remaining > 0 {
        let mut count = vec![0u32; n as usize];
        for (i, p) in paths.iter().enumerate() {
            if !hit[i] {
                for &x in p {
                    count[x as usize] += 1;
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "callers pass n >= 1, so 0..n is nonempty"
        )]
        let best = (0..n)
            .max_by_key(|&v| count[v as usize])
            .expect("nonempty graph");
        debug_assert!(count[best as usize] > 0);
        hitting.push(best);
        for (i, p) in paths.iter().enumerate() {
            if !hit[i] && p.contains(&best) {
                hit[i] = true;
                remaining -= 1;
            }
        }
    }
    // Local sparsity: max |hitting ∩ B(v, 2r)|.
    let mut max_in_ball = 0usize;
    if !hitting.is_empty() {
        for v in 0..n {
            let dist = hl_graph::dijkstra::shortest_path_distances(g, v);
            let in_ball = hitting
                .iter()
                .filter(|&&x| dist[x as usize] <= 2 * r)
                .count();
            max_in_ball = max_in_ball.max(in_ball);
        }
    }
    ScaleEstimate {
        r,
        num_paths,
        hitting_set: hitting.len(),
        max_in_ball,
    }
}

/// Sweeps scales `r = 1, 2, 4, …` up to the diameter and returns the
/// estimates; the *empirical highway dimension* is the max `max_in_ball`
/// across scales.
pub fn estimate(g: &Graph) -> Vec<ScaleEstimate> {
    let diam = hl_graph::properties::diameter_double_sweep(g);
    let mut out = Vec::new();
    let mut r = 1;
    while r <= diam.max(1) {
        out.push(estimate_at_scale(g, r));
        r *= 2;
    }
    out
}

/// The headline number: `max_r max_in_ball(r)`.
pub fn empirical_highway_dimension(g: &Graph) -> usize {
    estimate(g).iter().map(|e| e.max_in_ball).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_graph::generators;

    #[test]
    fn path_has_tiny_highway_dimension() {
        let g = generators::path(40);
        let h = empirical_highway_dimension(&g);
        // Greedy hitting does not optimize local sparsity, so the estimate
        // sits slightly above the true h (which is O(1) on a path).
        assert!(h <= 6, "a path is the easiest road network: h = {h}");
    }

    #[test]
    fn scale_estimate_fields_consistent() {
        let g = generators::grid(6, 6);
        let e = estimate_at_scale(&g, 2);
        assert!(e.num_paths > 0);
        assert!(e.hitting_set >= 1);
        assert!(e.max_in_ball <= e.hitting_set);
        assert_eq!(e.r, 2);
    }

    #[test]
    fn hitting_set_hits_everything() {
        // Re-derive: every path of the scale must contain a hitting vertex.
        let g = generators::grid(5, 5);
        let r = 2;
        let e = estimate_at_scale(&g, r);
        // Trivially consistent if the greedy loop terminated (remaining = 0);
        // sanity: a scale beyond the diameter has no paths.
        let beyond = estimate_at_scale(&g, 100);
        assert_eq!(beyond.num_paths, 0);
        assert_eq!(beyond.hitting_set, 0);
        assert!(e.hitting_set > 0);
    }

    #[test]
    fn grid_easier_than_expander() {
        // The qualitative ordering ADF+16 predicts: grid-like networks have
        // smaller highway dimension than expanders of the same size.
        let grid = generators::grid(7, 7);
        let exp = generators::union_of_matchings(48, 3, 3);
        let h_grid = empirical_highway_dimension(&grid);
        let h_exp = empirical_highway_dimension(&exp);
        assert!(
            h_grid <= h_exp,
            "grid h = {h_grid} should not exceed expander h = {h_exp}"
        );
    }

    #[test]
    fn sweep_covers_scales() {
        let g = generators::path(20);
        let sweep = estimate(&g);
        assert!(sweep.len() >= 4, "scales 1, 2, 4, 8, 16");
        for w in sweep.windows(2) {
            assert_eq!(w[1].r, w[0].r * 2);
        }
    }
}
