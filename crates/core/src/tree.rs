//! Hub labeling for trees via centroid decomposition (Peleg-style), giving
//! `O(log n)` hubs per vertex — the classical tight construction the paper
//! cites for the tree case (`Θ(log² n)` bits after encoding).
//!
//! Every vertex stores, as hubs, the centroids of all decomposition pieces
//! containing it. For any pair `u, v`, the first centroid separating them
//! (the highest one on their path in the centroid tree) lies on the unique
//! tree shortest path, so the labeling is exact.

use hl_graph::dijkstra::shortest_path_distances;
use hl_graph::{Graph, GraphError, NodeId};

use crate::flat::FlatLabeling;

/// Builds the centroid-decomposition labeling of a tree.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `g` is not a tree
/// (`m != n - 1` or disconnected).
///
/// # Example
///
/// ```
/// use hl_graph::generators;
/// use hl_core::tree::centroid_labeling;
///
/// # fn main() -> Result<(), hl_graph::GraphError> {
/// let g = generators::balanced_binary_tree(5); // 63 vertices
/// let hl = centroid_labeling(&g)?;
/// assert!(hl.max_hubs() as u32 <= 7, "about log2(n) hubs per vertex");
/// # Ok(())
/// # }
/// ```
pub fn centroid_labeling(g: &Graph) -> Result<FlatLabeling, GraphError> {
    let n = g.num_nodes();
    if n == 0 {
        return Ok(FlatLabeling::new());
    }
    if g.num_edges() != n - 1 || !hl_graph::properties::is_connected(g) {
        return Err(GraphError::InvalidParameters {
            reason: "centroid labeling requires a connected tree".into(),
        });
    }
    let mut removed = vec![false; n];
    let mut pairs: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); n];
    // Iterative decomposition over components, each processed by finding its
    // centroid, labeling all its vertices with distances to the centroid,
    // then recursing on the split parts.
    let mut stack: Vec<NodeId> = vec![0];
    while let Some(start) = stack.pop() {
        if removed[start as usize] {
            continue;
        }
        let component = collect_component(g, start, &removed);
        let centroid = find_centroid(g, &component, &removed);
        // Distances within the component from the centroid.
        let dist = component_distances(g, centroid, &removed);
        for &v in &component {
            pairs[v as usize].push((centroid, dist[v as usize]));
        }
        removed[centroid as usize] = true;
        for &nb in g.neighbor_ids(centroid) {
            if !removed[nb as usize] {
                stack.push(nb);
            }
        }
    }
    Ok(FlatLabeling::from_pair_lists(pairs)?)
}

fn collect_component(g: &Graph, start: NodeId, removed: &[bool]) -> Vec<NodeId> {
    let mut seen = vec![start];
    let mut mark = std::collections::HashSet::new();
    mark.insert(start);
    let mut i = 0;
    while i < seen.len() {
        let u = seen[i];
        i += 1;
        for &v in g.neighbor_ids(u) {
            if !removed[v as usize] && mark.insert(v) {
                seen.push(v);
            }
        }
    }
    seen
}

fn find_centroid(g: &Graph, component: &[NodeId], removed: &[bool]) -> NodeId {
    let total = component.len();
    let in_comp: std::collections::HashSet<NodeId> = component.iter().copied().collect();
    // Subtree sizes via a rooted DFS from component[0].
    let root = component[0];
    let mut order: Vec<NodeId> = Vec::with_capacity(total);
    let mut parent: std::collections::HashMap<NodeId, NodeId> = std::collections::HashMap::new();
    parent.insert(root, root);
    let mut stack = vec![root];
    while let Some(u) = stack.pop() {
        order.push(u);
        for &v in g.neighbor_ids(u) {
            if !removed[v as usize] && in_comp.contains(&v) && !parent.contains_key(&v) {
                parent.insert(v, u);
                stack.push(v);
            }
        }
    }
    let mut size: std::collections::HashMap<NodeId, usize> =
        component.iter().map(|&v| (v, 1)).collect();
    for &u in order.iter().rev() {
        let p = parent[&u];
        if p != u {
            let su = size.get(&u).copied().unwrap_or(0);
            *size.entry(p).or_insert(0) += su;
        }
    }
    // The centroid minimizes the largest piece after removal.
    let mut best = root;
    let mut best_piece = usize::MAX;
    for &v in component {
        let mut largest = total - size[&v]; // the "up" piece
        for &c in g.neighbor_ids(v) {
            if in_comp.contains(&c) && parent.get(&c) == Some(&v) {
                largest = largest.max(size[&c]);
            }
        }
        if largest < best_piece || (largest == best_piece && v < best) {
            best_piece = largest;
            best = v;
        }
    }
    best
}

fn component_distances(g: &Graph, source: NodeId, removed: &[bool]) -> Vec<u64> {
    // BFS/Dijkstra restricted to non-removed vertices. For simplicity build
    // on the full-graph SSSP when nothing is removed yet; otherwise run a
    // small restricted Dijkstra here.
    if removed.iter().all(|&r| !r) {
        return shortest_path_distances(g, source);
    }
    let n = g.num_nodes();
    let mut dist = vec![u64::MAX; n];
    let mut heap = std::collections::BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(std::cmp::Reverse((0u64, source)));
    while let Some(std::cmp::Reverse((du, u))) = heap.pop() {
        if du > dist[u as usize] {
            continue;
        }
        for (v, w) in g.neighbors(u) {
            if removed[v as usize] {
                continue;
            }
            let nd = du + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(std::cmp::Reverse((nd, v)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::verify_exact;
    use hl_graph::generators;

    #[test]
    fn exact_on_path() {
        let g = generators::path(17);
        let hl = centroid_labeling(&g).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn exact_on_balanced_tree() {
        let g = generators::balanced_binary_tree(6);
        let hl = centroid_labeling(&g).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn exact_on_random_trees() {
        for seed in 0..5 {
            let g = generators::random_tree(90, seed);
            let hl = centroid_labeling(&g).unwrap();
            assert!(verify_exact(&g, &hl).unwrap().is_exact(), "seed {seed}");
        }
    }

    #[test]
    fn exact_on_star_and_caterpillar() {
        for g in [generators::star(33), generators::caterpillar(10, 4)] {
            let hl = centroid_labeling(&g).unwrap();
            assert!(verify_exact(&g, &hl).unwrap().is_exact());
        }
    }

    #[test]
    fn logarithmic_label_size() {
        // Centroid decomposition halves components, so every vertex gains
        // at most ceil(log2 n) + 1 hubs.
        let g = generators::path(256);
        let hl = centroid_labeling(&g).unwrap();
        assert!(hl.max_hubs() <= 9, "max = {}", hl.max_hubs());
        let g = generators::random_tree(500, 3);
        let hl = centroid_labeling(&g).unwrap();
        assert!(hl.max_hubs() <= 10, "max = {}", hl.max_hubs());
    }

    #[test]
    fn rejects_non_trees() {
        assert!(centroid_labeling(&generators::cycle(5)).is_err());
        let disconnected = hl_graph::builder::graph_from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(centroid_labeling(&disconnected).is_err());
    }

    #[test]
    fn single_vertex_tree() {
        let g = generators::path(1);
        let hl = centroid_labeling(&g).unwrap();
        assert_eq!(hl.hubs_of(0), &[0]);
    }

    #[test]
    fn two_vertex_tree() {
        let g = generators::path(2);
        let hl = centroid_labeling(&g).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
        assert_eq!(hl.query(0, 1), 1);
    }
}
