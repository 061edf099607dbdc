//! Dense all-pairs shortest path matrices.
//!
//! Ground truth for verifying hub labelings and distance labelings. Entries
//! are stored as `u32` (with `u32::MAX` = unreachable) to halve memory; all
//! instances used for full verification fit comfortably.

use std::sync::Mutex;

use crate::dijkstra::shortest_path_distances;
use crate::error::GraphError;
use crate::graph::{Graph, NodeId, INFINITY};
use crate::sync::{into_inner_unpoisoned, lock_unpoisoned};
use crate::Distance;

/// Sentinel for "unreachable" inside the dense matrix.
const UNREACHABLE: u32 = u32::MAX;

/// Dense `n x n` shortest-path distance matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<u32>,
}

impl DistanceMatrix {
    /// Computes the matrix by running SSSP from every vertex, in parallel
    /// across available cores.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DistanceOverflow`] if any finite distance
    /// exceeds `u32::MAX - 1`.
    pub fn compute(g: &Graph) -> Result<Self, GraphError> {
        let n = g.num_nodes();
        let mut data = vec![UNREACHABLE; n * n];
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let threads = threads.min(n.max(1));
        let next = std::sync::atomic::AtomicUsize::new(0);
        let error: Mutex<Option<GraphError>> = Mutex::new(None);

        // Hand out disjoint row slices to worker threads.
        let rows: Vec<Mutex<&mut [u32]>> = data.chunks_mut(n.max(1)).map(Mutex::new).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let v = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if v >= n {
                        break;
                    }
                    let dist = shortest_path_distances(g, v as NodeId);
                    // Checked before the row is locked, so no worker ever
                    // holds two guards at once.
                    if let Some(&d) = dist
                        .iter()
                        .find(|&&d| d != INFINITY && d >= UNREACHABLE as u64)
                    {
                        *lock_unpoisoned(&error) =
                            Some(GraphError::DistanceOverflow { distance: d });
                        return;
                    }
                    let mut row = lock_unpoisoned(&rows[v]);
                    for (u, &d) in dist.iter().enumerate() {
                        row[u] = if d == INFINITY { UNREACHABLE } else { d as u32 };
                    }
                });
            }
        });
        if let Some(e) = into_inner_unpoisoned(error) {
            return Err(e);
        }
        Ok(DistanceMatrix { n, data })
    }

    /// Number of vertices the matrix covers.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Distance between `u` and `v` ([`INFINITY`] when unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    #[inline]
    pub fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        let raw = self.data[u as usize * self.n + v as usize];
        if raw == UNREACHABLE {
            INFINITY
        } else {
            raw as Distance
        }
    }

    /// The full distance row of vertex `u`, as raw `u32` entries
    /// (`u32::MAX` = unreachable).
    pub fn row(&self, u: NodeId) -> &[u32] {
        &self.data[u as usize * self.n..(u as usize + 1) * self.n]
    }

    /// Iterates over all ordered pairs `(u, v, dist)` with finite distance.
    pub fn finite_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, Distance)> + '_ {
        (0..self.n as NodeId).flat_map(move |u| {
            (0..self.n as NodeId).filter_map(move |v| {
                let d = self.distance(u, v);
                if d == INFINITY {
                    None
                } else {
                    Some((u, v, d))
                }
            })
        })
    }

    /// Largest finite entry (the diameter for connected graphs).
    pub fn max_finite(&self) -> Distance {
        self.data
            .iter()
            .filter(|&&d| d != UNREACHABLE)
            .map(|&d| d as Distance)
            .max()
            .unwrap_or(0)
    }
}

/// The set of *valid hubs* `H_{uv} = { x : d(u,x) + d(x,v) = d(u,v) }` for a
/// pair, computed from a distance matrix. This is the central object of the
/// Theorem 4.1 construction.
pub fn valid_hubs(m: &DistanceMatrix, u: NodeId, v: NodeId) -> Vec<NodeId> {
    let duv = m.distance(u, v);
    if duv == INFINITY {
        return Vec::new();
    }
    (0..m.num_nodes() as NodeId)
        .filter(|&x| {
            let a = m.distance(u, x);
            let b = m.distance(x, v);
            a != INFINITY && b != INFINITY && a + b == duv
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{graph_from_edges, graph_from_weighted_edges};
    use crate::generators;

    #[test]
    fn matrix_matches_sssp() {
        let g = generators::weighted_grid(6, 7, 5);
        let m = DistanceMatrix::compute(&g).unwrap();
        for v in [0u32, 3, 17, 41] {
            let d = shortest_path_distances(&g, v);
            for u in 0..g.num_nodes() as NodeId {
                assert_eq!(m.distance(v, u), d[u as usize]);
            }
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        let g = generators::connected_gnm(40, 20, 8);
        let m = DistanceMatrix::compute(&g).unwrap();
        for u in 0..40u32 {
            for v in 0..40u32 {
                assert_eq!(m.distance(u, v), m.distance(v, u));
            }
        }
    }

    #[test]
    fn unreachable_pairs() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let m = DistanceMatrix::compute(&g).unwrap();
        assert_eq!(m.distance(0, 2), INFINITY);
        assert_eq!(m.distance(0, 1), 1);
        assert_eq!(
            m.finite_pairs().count(),
            8,
            "2 components of 2 vertices: 4 pairs each"
        );
    }

    #[test]
    fn max_finite_is_diameter() {
        let g = generators::path(9);
        let m = DistanceMatrix::compute(&g).unwrap();
        assert_eq!(m.max_finite(), 8);
    }

    #[test]
    fn valid_hubs_on_path() {
        let g = generators::path(5);
        let m = DistanceMatrix::compute(&g).unwrap();
        // Every vertex between 1 and 3 (inclusive) lies on the unique 1-3
        // shortest path.
        assert_eq!(valid_hubs(&m, 1, 3), vec![1, 2, 3]);
        // A vertex is its own only hub at distance 0... plus everything at
        // distance 0 from it, i.e. itself.
        assert_eq!(valid_hubs(&m, 2, 2), vec![2]);
    }

    #[test]
    fn valid_hubs_on_cycle() {
        let g = generators::cycle(6);
        let m = DistanceMatrix::compute(&g).unwrap();
        // Antipodal pair 0-3: both halves are shortest, all 6 vertices valid.
        assert_eq!(valid_hubs(&m, 0, 3).len(), 6);
        // Adjacent pair: only the two endpoints.
        assert_eq!(valid_hubs(&m, 0, 1), vec![0, 1]);
    }

    #[test]
    fn overflow_detected() {
        let g = graph_from_weighted_edges(2, &[(0, 1, u64::from(u32::MAX))]).unwrap();
        assert!(matches!(
            DistanceMatrix::compute(&g),
            Err(GraphError::DistanceOverflow { .. })
        ));
    }

    #[test]
    fn row_access() {
        let g = generators::path(4);
        let m = DistanceMatrix::compute(&g).unwrap();
        assert_eq!(m.row(0), &[0, 1, 2, 3]);
    }
}
