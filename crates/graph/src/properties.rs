//! Structural graph properties: connectivity, components, eccentricity,
//! diameter.

use crate::dijkstra::shortest_path_distances;
use crate::graph::{Graph, NodeId, INFINITY};
use crate::unionfind::UnionFind;
use crate::Distance;

/// Connected components as a labelling `component[v] -> 0..k` (labels are
/// assigned in order of first appearance) together with the component count.
pub fn connected_components(g: &Graph) -> (Vec<u32>, usize) {
    let n = g.num_nodes();
    let mut uf = UnionFind::new(n);
    for (u, v, _) in g.edges() {
        uf.union(u, v);
    }
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        let r = uf.find(v);
        if label[r as usize] == u32::MAX {
            label[r as usize] = next;
            next += 1;
        }
        label[v as usize] = label[r as usize];
    }
    (label, next as usize)
}

/// `true` when the graph has at most one connected component.
pub fn is_connected(g: &Graph) -> bool {
    g.num_nodes() <= 1 || connected_components(g).1 == 1
}

/// Weighted eccentricity of `v` (max finite distance); returns
/// [`INFINITY`] when some vertex is unreachable from `v`.
pub fn eccentricity(g: &Graph, v: NodeId) -> Distance {
    shortest_path_distances(g, v).into_iter().max().unwrap_or(0)
}

/// Exact weighted diameter by running SSSP from every vertex. Quadratic —
/// intended for the small and medium instances used in verification.
///
/// Returns [`INFINITY`] for disconnected graphs and `0` for graphs with
/// fewer than two vertices.
pub fn diameter_exact(g: &Graph) -> Distance {
    let n = g.num_nodes();
    if n <= 1 {
        return 0;
    }
    let mut best = 0;
    for v in 0..n as NodeId {
        let e = eccentricity(g, v);
        if e == INFINITY {
            return INFINITY;
        }
        best = best.max(e);
    }
    best
}

/// Double-sweep lower bound on the diameter: eccentricity of the farthest
/// vertex from an arbitrary start. Exact on trees; a lower bound in general.
pub fn diameter_double_sweep(g: &Graph) -> Distance {
    if g.num_nodes() == 0 {
        return 0;
    }
    let d0 = shortest_path_distances(g, 0);
    let (far, fd) = d0
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != INFINITY)
        .max_by_key(|(_, &d)| d)
        .map(|(v, &d)| (v as NodeId, d))
        .unwrap_or((0, 0));
    if fd == 0 {
        return 0;
    }
    eccentricity(g, far)
}

/// Unweighted (hop-count) diameter, exact, via BFS from every vertex.
pub fn hop_diameter_exact(g: &Graph) -> Distance {
    let n = g.num_nodes();
    if n <= 1 {
        return 0;
    }
    let mut best = 0;
    for v in 0..n as NodeId {
        let e = crate::bfs::bfs_distances(g, v)
            .into_iter()
            .max()
            .unwrap_or(0);
        if e == INFINITY {
            return INFINITY;
        }
        best = best.max(e);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::generators;

    #[test]
    fn components_of_forest() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let (labels, k) = connected_components(&g);
        assert_eq!(k, 3);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[3], labels[5]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn single_vertex_connected() {
        assert!(is_connected(&generators::path(1)));
    }

    #[test]
    fn diameter_of_path() {
        let g = generators::path(10);
        assert_eq!(diameter_exact(&g), 9);
        assert_eq!(diameter_double_sweep(&g), 9);
        assert_eq!(hop_diameter_exact(&g), 9);
    }

    #[test]
    fn diameter_of_cycle() {
        let g = generators::cycle(8);
        assert_eq!(diameter_exact(&g), 4);
    }

    #[test]
    fn diameter_disconnected_is_infinite() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter_exact(&g), INFINITY);
    }

    #[test]
    fn double_sweep_exact_on_trees() {
        let g = generators::random_tree(120, 42);
        assert_eq!(diameter_double_sweep(&g), diameter_exact(&g));
    }

    #[test]
    fn weighted_diameter() {
        let g = crate::builder::graph_from_weighted_edges(3, &[(0, 1, 5), (1, 2, 7)]).unwrap();
        assert_eq!(diameter_exact(&g), 12);
        assert_eq!(eccentricity(&g, 1), 7);
    }
}
