//! Balanced vertex separators (heuristic).
//!
//! The paper's §1.1 recounts how `O(√n)` hub labels for planar graphs come
//! from recursively splitting along small balanced separators (Gavoille–
//! Peleg–Pérennes–Raz). This module provides the separator-finding step:
//! a BFS-level heuristic that is *always correct* (removal disconnects the
//! part into pieces of at most `2/3` the vertices) and *small* on planar /
//! grid-like inputs, though without a worst-case size guarantee on
//! arbitrary graphs.

use crate::graph::{Graph, NodeId, INFINITY};

/// A balanced separator of a vertex subset.
#[derive(Debug, Clone)]
pub struct Separator {
    /// The separating vertices.
    pub vertices: Vec<NodeId>,
    /// The remaining parts after removal (each a vertex list), each of size
    /// at most `ceil(2/3 · |part|)`.
    pub parts: Vec<Vec<NodeId>>,
}

/// Finds a balanced separator of the sub-vertex-set `part` of `g` using the
/// BFS-level heuristic: run BFS (restricted to `part`) from an endpoint of
/// an approximate diameter path and cut at the level that best balances
/// "below" vs "above".
///
/// Guarantees: every returned part has at most `max(1, ceil(2|part|/3))`
/// vertices, and no edge of `g` joins two different parts. Falls back to
/// cutting out a single vertex when the part is tiny.
///
/// # Panics
///
/// Panics if `part` is empty.
pub fn bfs_level_separator(g: &Graph, part: &[NodeId]) -> Separator {
    assert!(!part.is_empty(), "cannot separate an empty part");
    if part.len() <= 2 {
        return Separator {
            vertices: vec![part[0]],
            parts: split_off(g, part, &[part[0]]),
        };
    }
    let in_part = member_mask(g.num_nodes(), part);
    // Double sweep inside the part for a deep root.
    let d0 = restricted_bfs(g, part[0], &in_part);
    let far = part
        .iter()
        .copied()
        .filter(|&v| d0[v as usize] != INFINITY)
        .max_by_key(|&v| d0[v as usize])
        .unwrap_or(part[0]);
    let dist = restricted_bfs(g, far, &in_part);

    // Count vertices per BFS level (unreachable ones live in their own
    // components and can go to any side; they are handled by split_off).
    let max_level = part
        .iter()
        .filter(|&&v| dist[v as usize] != INFINITY)
        .map(|&v| dist[v as usize])
        .max()
        .unwrap_or(0);
    if max_level == 0 {
        // Degenerate: the part is a clique-like single level or fully
        // disconnected; cut out the root.
        return Separator {
            vertices: vec![far],
            parts: split_off(g, part, &[far]),
        };
    }
    let mut level_count = vec![0usize; (max_level + 1) as usize];
    let mut reachable = 0usize;
    for &v in part {
        if dist[v as usize] != INFINITY {
            level_count[dist[v as usize] as usize] += 1;
            reachable += 1;
        }
    }
    // Choose the cut level minimizing the larger side while keeping the
    // separator small: score = larger_side + penalty * level_size.
    let mut below = 0usize;
    let mut best_level = 1u64;
    let mut best_score = usize::MAX;
    for level in 1..=max_level {
        below += level_count[(level - 1) as usize];
        let sep = level_count[level as usize];
        let above = reachable - below - sep;
        let score = below.max(above) + 2 * sep;
        if score < best_score {
            best_score = score;
            best_level = level;
        }
    }
    let mut sep: Vec<NodeId> = part
        .iter()
        .copied()
        .filter(|&v| dist[v as usize] == best_level)
        .collect();
    if sep.is_empty() {
        sep.push(far);
    }
    let mut parts = split_off(g, part, &sep);
    // Enforce the 2/3 balance: if a part is still too big (can happen on
    // expanders where one level holds almost everything), recurse on the
    // biggest part's own separator and merge. To stay simple and always
    // terminate we instead peel: move one separator-adjacent vertex of the
    // oversized part into the separator until balanced.
    let limit = (2 * part.len()).div_ceil(3).max(1);
    while let Some(big_idx) = parts.iter().position(|p| p.len() > limit) {
        let big = parts.swap_remove(big_idx);
        // Peel the vertex with the smallest BFS distance (closest to the
        // cut) into the separator, then re-split the remainder.
        #[expect(
            clippy::expect_used,
            reason = "big.len() > limit >= 1, so the minimum exists"
        )]
        let peel = *big
            .iter()
            .min_by_key(|&&v| (dist[v as usize], v))
            .expect("oversized part is nonempty");
        sep.push(peel);
        let rest: Vec<NodeId> = big.into_iter().filter(|&v| v != peel).collect();
        for piece in split_off(g, &rest, &[]) {
            parts.push(piece);
        }
    }
    Separator {
        vertices: sep,
        parts,
    }
}

fn member_mask(n: usize, part: &[NodeId]) -> Vec<bool> {
    let mut mask = vec![false; n];
    for &v in part {
        mask[v as usize] = true;
    }
    mask
}

fn restricted_bfs(g: &Graph, source: NodeId, in_part: &[bool]) -> Vec<u64> {
    let mut dist = vec![INFINITY; g.num_nodes()];
    let mut queue = std::collections::VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbor_ids(u) {
            if in_part[v as usize] && dist[v as usize] == INFINITY {
                dist[v as usize] = dist[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Splits `part` minus `sep` into connected components (within `part`).
fn split_off(g: &Graph, part: &[NodeId], sep: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut alive = member_mask(g.num_nodes(), part);
    for &s in sep {
        alive[s as usize] = false;
    }
    let mut seen = vec![false; g.num_nodes()];
    let mut parts = Vec::new();
    for &v in part {
        if !alive[v as usize] || seen[v as usize] {
            continue;
        }
        let mut comp = vec![v];
        seen[v as usize] = true;
        let mut i = 0;
        while i < comp.len() {
            let u = comp[i];
            i += 1;
            for &w in g.neighbor_ids(u) {
                if alive[w as usize] && !seen[w as usize] {
                    seen[w as usize] = true;
                    comp.push(w);
                }
            }
        }
        parts.push(comp);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn check_separator(g: &Graph, part: &[NodeId]) -> Separator {
        let sep = bfs_level_separator(g, part);
        let limit = (2 * part.len()).div_ceil(3).max(1);
        // Parts are balanced.
        for p in &sep.parts {
            assert!(
                p.len() <= limit,
                "part of {} exceeds limit {limit}",
                p.len()
            );
        }
        // Separator + parts partition the input.
        let mut all: Vec<NodeId> = sep.vertices.clone();
        for p in &sep.parts {
            all.extend_from_slice(p);
        }
        all.sort_unstable();
        let mut orig = part.to_vec();
        orig.sort_unstable();
        assert_eq!(all, orig);
        // No edge between different parts.
        for (i, p1) in sep.parts.iter().enumerate() {
            let mask = member_mask(g.num_nodes(), p1);
            for p2 in sep.parts.iter().skip(i + 1) {
                for &v in p2 {
                    for &w in g.neighbor_ids(v) {
                        assert!(!mask[w as usize], "edge {v}-{w} crosses parts");
                    }
                }
            }
        }
        sep
    }

    #[test]
    fn separates_path() {
        let g = generators::path(30);
        let part: Vec<NodeId> = (0..30).collect();
        let sep = check_separator(&g, &part);
        assert!(
            sep.vertices.len() <= 3,
            "a path splits at one vertex: {:?}",
            sep.vertices
        );
    }

    #[test]
    fn separates_grid_with_small_cut() {
        let g = generators::grid(12, 12);
        let part: Vec<NodeId> = (0..144).collect();
        let sep = check_separator(&g, &part);
        assert!(
            sep.vertices.len() <= 30,
            "grid separator should be O(side): {}",
            sep.vertices.len()
        );
        assert!(sep.parts.len() >= 2);
    }

    #[test]
    fn separates_tree() {
        let g = generators::balanced_binary_tree(6);
        let part: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        check_separator(&g, &part);
    }

    #[test]
    fn separates_sub_part_only() {
        // Operate on half the cycle; the other half must be untouched.
        let g = generators::cycle(20);
        let part: Vec<NodeId> = (0..10).collect();
        let sep = check_separator(&g, &part);
        for p in &sep.parts {
            assert!(p.iter().all(|&v| v < 10));
        }
    }

    #[test]
    fn handles_tiny_parts() {
        let g = generators::path(5);
        for size in 1..=2 {
            let part: Vec<NodeId> = (0..size).collect();
            let sep = bfs_level_separator(&g, &part);
            assert_eq!(sep.vertices.len(), 1);
        }
    }

    #[test]
    fn handles_disconnected_parts() {
        let g = crate::builder::graph_from_edges(6, &[(0, 1), (2, 3), (4, 5)]).unwrap();
        let part: Vec<NodeId> = (0..6).collect();
        check_separator(&g, &part);
    }

    #[test]
    fn handles_expander_with_peeling() {
        let g = generators::union_of_matchings(60, 3, 5);
        let part: Vec<NodeId> = (0..60).collect();
        check_separator(&g, &part); // balance enforced even if cut is big
    }
}
