//! Monotone hubsets and the `S*` ancestor-closure accounting of
//! Theorem 2.1.
//!
//! The paper's lower-bound proof fixes a canonical shortest-path tree `T_v`
//! per vertex and replaces each hubset `S_v` with `S*_v`: the vertex set of
//! the minimal subtree of `T_v` (rooted at `v`) containing `S_v`. Then
//! `|S*_v| <= diam(G) * |S_v|` (Eq. 1), and `S*` is *monotone*: if `x` is a
//! hub then so is every vertex on the canonical `v-x` path. For a pair
//! `u, v` joined by a unique shortest path, every vertex `y` on that path
//! satisfies `y ∈ S*_u or y ∈ S*_v` — the counting step of the proof.

use hl_graph::sptree::ShortestPathTree;
use hl_graph::{Graph, NodeId};

use crate::flat::FlatLabeling;

/// The monotone closure of a hub labeling: for every vertex `v`, the set
/// `S*_v` (as a sorted vertex list) with respect to the canonical
/// shortest-path tree rooted at `v`.
///
/// # Example
///
/// ```
/// use hl_graph::generators;
/// use hl_core::pll::PrunedLandmarkLabeling;
/// use hl_core::monotone::MonotoneClosure;
///
/// let g = generators::grid(3, 3);
/// let labeling = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
/// let closure = MonotoneClosure::compute(&g, &labeling);
/// assert!(closure.total_size() >= labeling.num_entries());
/// ```
#[derive(Debug, Clone)]
pub struct MonotoneClosure {
    sets: Vec<Vec<NodeId>>,
}

impl MonotoneClosure {
    /// Computes `S*_v` for every vertex. Runs one SSSP per vertex —
    /// quadratic, intended for instances small enough to verify.
    pub fn compute(g: &Graph, labeling: &FlatLabeling) -> Self {
        MonotoneClosure::at(g, labeling, 0..g.num_nodes() as NodeId)
    }

    /// Computes `S*_v` for the vertices in `roots` only, one SSSP each;
    /// every other set stays empty, so only `set`/`contains` at a root
    /// answer for the labeling (all an audit of triples whose endpoints are
    /// roots needs); `total_size` counts the roots' sets only.
    pub fn at(g: &Graph, labeling: &FlatLabeling, roots: impl IntoIterator<Item = NodeId>) -> Self {
        let mut sets = vec![Vec::new(); g.num_nodes()];
        for v in roots {
            let tree = ShortestPathTree::build(g, v);
            sets[v as usize] = tree.ancestor_closure(labeling.hubs_of(v));
        }
        MonotoneClosure { sets }
    }

    /// The closed set `S*_v` (sorted).
    pub fn set(&self, v: NodeId) -> &[NodeId] {
        &self.sets[v as usize]
    }

    /// `true` when `x ∈ S*_v`.
    pub fn contains(&self, v: NodeId, x: NodeId) -> bool {
        self.sets[v as usize].binary_search(&x).is_ok()
    }

    /// `Σ_v |S*_v|`.
    pub fn total_size(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }
}

/// Checks Eq. (1) of the paper: `|S*_v| <= (hop-diameter + 1) * |S_v|` for
/// every vertex (the `+1` accounts for `v` itself, present in every
/// closure; the paper's form absorbs it into the diameter factor).
///
/// Returns the first violating vertex if any.
pub fn check_closure_size_relation(
    g: &Graph,
    labeling: &FlatLabeling,
    closure: &MonotoneClosure,
    hop_diameter: u64,
) -> Option<NodeId> {
    for v in 0..g.num_nodes() as NodeId {
        let s = labeling.hubs_of(v).len();
        let star = closure.set(v).len();
        if star as u64 > (hop_diameter + 1) * (s.max(1) as u64) {
            return Some(v);
        }
    }
    None
}

/// Checks the *monotone cover* property exploited by the counting argument:
/// for each provided triple `(u, mid, v)` where `mid` lies on the unique
/// shortest `u-v` path, verifies `mid ∈ S*_u or mid ∈ S*_v`.
///
/// Returns the number of satisfied triples; equality with `triples.len()`
/// is what Theorem 2.1's proof requires — but note it requires it only for
/// *valid covers* combined with *unique* shortest paths, so feeding
/// arbitrary triples can legitimately return fewer.
pub fn count_midpoint_charges(
    closure: &MonotoneClosure,
    triples: &[(NodeId, NodeId, NodeId)],
) -> usize {
    triples
        .iter()
        .filter(|&&(u, mid, v)| closure.contains(u, mid) || closure.contains(v, mid))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pll::PrunedLandmarkLabeling;
    use hl_graph::dijkstra::count_shortest_paths;
    use hl_graph::properties::hop_diameter_exact;
    use hl_graph::{generators, INFINITY};

    #[test]
    fn closure_contains_hubs_and_self() {
        let g = generators::grid(4, 4);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let mc = MonotoneClosure::compute(&g, &hl);
        for v in 0..16u32 {
            assert!(mc.contains(v, v), "closure always contains the root");
            for &h in hl.hubs_of(v) {
                assert!(mc.contains(v, h), "closure contains every hub");
            }
        }
        assert!(mc.total_size() >= hl.num_entries());
    }

    #[test]
    fn closure_is_path_closed() {
        let g = generators::connected_gnm(30, 12, 5);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let mc = MonotoneClosure::compute(&g, &hl);
        for v in 0..30u32 {
            let tree = ShortestPathTree::build(&g, v);
            for &x in mc.set(v) {
                if let Some(p) = tree.parent(x) {
                    assert!(
                        mc.contains(v, p),
                        "parent of closure member must be in closure"
                    );
                }
            }
        }
    }

    #[test]
    fn size_relation_eq1_holds() {
        let g = generators::connected_gnm(40, 20, 6);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let mc = MonotoneClosure::compute(&g, &hl);
        let diam = hop_diameter_exact(&g);
        assert_eq!(check_closure_size_relation(&g, &hl, &mc, diam), None);
    }

    #[test]
    fn midpoint_charging_on_unique_paths() {
        // On a tree every shortest path is unique, so every on-path vertex
        // must be charged to one endpoint of every pair.
        let g = generators::balanced_binary_tree(4);
        let n = g.num_nodes() as NodeId;
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let mc = MonotoneClosure::compute(&g, &hl);
        let mut triples = Vec::new();
        for u in 0..n {
            let (dist, count) = count_shortest_paths(&g, u);
            let tree = ShortestPathTree::build(&g, u);
            for v in 0..n {
                if u == v || dist[v as usize] == INFINITY {
                    continue;
                }
                assert_eq!(count[v as usize], 1);
                for &mid in tree.path_to(v).unwrap().iter() {
                    triples.push((u, mid, v));
                }
            }
        }
        assert_eq!(count_midpoint_charges(&mc, &triples), triples.len());
    }
}
