//! Deterministic and seeded-random graph families used by the experiments.
//!
//! All random generators take an explicit `u64` seed and are reproducible
//! bit-for-bit.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, NodeId, Weight};
use crate::rng::Xorshift64;

/// Every generator computes endpoints as indices below the builder's `n`,
/// so [`GraphBuilder::add_edge`] — whose only failure is an out-of-range
/// endpoint — cannot fail here. Funneling all insertions through this one
/// place keeps that argument (and its single waiver) in one spot.
fn must_add(b: &mut GraphBuilder, u: NodeId, v: NodeId, w: Weight) {
    #[expect(
        clippy::expect_used,
        reason = "every generator derives endpoints from indices < n, the only error add_edge can return"
    )]
    b.add_edge(u, v, w)
        .expect("generator endpoints are below n by construction");
}

fn must_add_unit(b: &mut GraphBuilder, u: NodeId, v: NodeId) {
    must_add(b, u, v, 1);
}

/// Path graph `0 - 1 - … - (n-1)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "path requires n >= 1");
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        must_add_unit(&mut b, (i - 1) as NodeId, i as NodeId);
    }
    b.build()
}

/// Cycle graph on `n >= 3` vertices.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle requires n >= 3");
    let mut b = GraphBuilder::with_capacity(n, n);
    for i in 0..n {
        must_add_unit(&mut b, i as NodeId, ((i + 1) % n) as NodeId);
    }
    b.build()
}

/// Star with center `0` and `n - 1` leaves.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n > 0, "star requires n >= 1");
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        must_add_unit(&mut b, 0, i as NodeId);
    }
    b.build()
}

/// Complete graph `K_n`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    assert!(n > 0, "complete requires n >= 1");
    let mut b = GraphBuilder::with_capacity(n, n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            must_add_unit(&mut b, i as NodeId, j as NodeId);
        }
    }
    b.build()
}

/// `rows x cols` 2-dimensional grid, unit weights. Vertex `(r, c)` has id
/// `r * cols + c`.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "grid requires positive dimensions");
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                must_add_unit(&mut b, id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                must_add_unit(&mut b, id(r, c), id(r + 1, c));
            }
        }
    }
    b.build()
}

/// `rows x cols` grid with seeded random integer weights in `[1, 10]` —
/// a stand-in for road-network-like inputs.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn weighted_grid(rows: usize, cols: usize, seed: u64) -> Graph {
    assert!(
        rows > 0 && cols > 0,
        "weighted_grid requires positive dimensions"
    );
    let mut rng = Xorshift64::seed_from_u64(seed);
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                let w: Weight = rng.gen_range_inclusive_u64(1, 10);
                must_add(&mut b, id(r, c), id(r, c + 1), w);
            }
            if r + 1 < rows {
                let w: Weight = rng.gen_range_inclusive_u64(1, 10);
                must_add(&mut b, id(r, c), id(r + 1, c), w);
            }
        }
    }
    b.build()
}

/// Perfectly balanced binary tree with `depth` full levels below the root
/// (depth 0 = a single vertex). Ids follow heap order (`children of v` are
/// `2v+1`, `2v+2`).
pub fn balanced_binary_tree(depth: u32) -> Graph {
    let n = (1usize << (depth + 1)) - 1;
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    for v in 1..n {
        must_add_unit(&mut b, ((v - 1) / 2) as NodeId, v as NodeId);
    }
    b.build()
}

/// Seeded uniformly random labelled tree (random attachment to a previously
/// inserted vertex — a random recursive tree).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n > 0, "random_tree requires n >= 1");
    let mut rng = Xorshift64::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        let parent = rng.gen_index(v);
        must_add_unit(&mut b, parent as NodeId, v as NodeId);
    }
    b.build()
}

/// Caterpillar: a spine path of `spine` vertices with `legs` pendant leaves
/// on each spine vertex.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine > 0, "caterpillar requires a nonempty spine");
    let n = spine * (legs + 1);
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    for i in 1..spine {
        must_add_unit(&mut b, (i - 1) as NodeId, i as NodeId);
    }
    let mut next = spine;
    for i in 0..spine {
        for _ in 0..legs {
            must_add_unit(&mut b, i as NodeId, next as NodeId);
            next += 1;
        }
    }
    b.build()
}

/// Connected sparse random graph: a uniformly random spanning tree
/// (recursive-attachment) plus `extra_edges` additional uniformly random
/// non-duplicate edges. This is the workspace's model for "graphs with
/// `m = O(n)`" — the sparse class the paper studies.
///
/// # Example
///
/// ```
/// use hl_graph::{generators, properties};
///
/// let g = generators::connected_gnm(100, 50, 7);
/// assert_eq!(g.num_edges(), 149);
/// assert!(properties::is_connected(&g));
/// ```
///
/// # Panics
///
/// Panics if `n < 2` or if the requested edges exceed `n(n-1)/2`.
pub fn connected_gnm(n: usize, extra_edges: usize, seed: u64) -> Graph {
    assert!(n >= 2, "connected_gnm requires n >= 2");
    let max_extra = n * (n - 1) / 2 - (n - 1);
    assert!(
        extra_edges <= max_extra,
        "requested {extra_edges} extra edges but only {max_extra} fit in a simple graph"
    );
    let mut rng = Xorshift64::seed_from_u64(seed);
    let mut present = std::collections::HashSet::new();
    let mut b = GraphBuilder::with_capacity(n, n - 1 + extra_edges);
    for v in 1..n {
        let parent = rng.gen_index(v);
        must_add_unit(&mut b, parent as NodeId, v as NodeId);
        present.insert((parent.min(v), parent.max(v)));
    }
    let mut added = 0;
    while added < extra_edges {
        let u = rng.gen_index(n);
        let v = rng.gen_index(n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if present.insert(key) {
            must_add_unit(&mut b, u as NodeId, v as NodeId);
            added += 1;
        }
    }
    b.build()
}

/// Seeded random `d`-regular-ish graph built as a union of `d` random
/// perfect matchings on an even vertex set (max degree `<= d`, and exactly
/// `d` unless a matching collides with a previous edge).
///
/// # Panics
///
/// Panics if `n` is odd or zero.
pub fn union_of_matchings(n: usize, d: usize, seed: u64) -> Graph {
    assert!(
        n > 0 && n.is_multiple_of(2),
        "union_of_matchings requires positive even n"
    );
    let mut rng = Xorshift64::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n / 2 * d);
    let mut perm: Vec<usize> = (0..n).collect();
    for _ in 0..d {
        rng.shuffle(&mut perm);
        for pair in perm.chunks_exact(2) {
            must_add_unit(&mut b, pair[0] as NodeId, pair[1] as NodeId);
        }
    }
    b.build()
}

/// Unit-disk graph: `n` seeded-random points in the unit square, an edge
/// between points at Euclidean distance at most `radius`, with weight
/// `round(1000 · distance) + 1`. Planar-like geometric structure — the
/// closest substitute for the road/planar networks of §1.1 that needs no
/// embedding machinery.
///
/// # Panics
///
/// Panics if `n == 0` or `radius <= 0.0`.
pub fn unit_disk(n: usize, radius: f64, seed: u64) -> Graph {
    assert!(n > 0, "unit_disk requires n >= 1");
    assert!(radius > 0.0, "radius must be positive");
    let mut rng = Xorshift64::seed_from_u64(seed);
    let points: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen_f64(), rng.gen_f64())).collect();
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = points[i].0 - points[j].0;
            let dy = points[i].1 - points[j].1;
            let d = (dx * dx + dy * dy).sqrt();
            if d <= radius {
                must_add(
                    &mut b,
                    i as NodeId,
                    j as NodeId,
                    (d * 1000.0).round() as Weight + 1,
                );
            }
        }
    }
    b.build()
}

/// Preferential-attachment graph (Barabási–Albert flavor): each new vertex
/// attaches to `m_edges` existing vertices chosen proportionally to degree
/// (by sampling endpoints of existing edges). Produces the heavy-tailed
/// degree distributions of the "real-world networks" the paper's §1.1
/// discusses.
///
/// # Panics
///
/// Panics if `n < 2` or `m_edges == 0`.
pub fn preferential_attachment(n: usize, m_edges: usize, seed: u64) -> Graph {
    assert!(n >= 2, "preferential_attachment requires n >= 2");
    assert!(m_edges >= 1, "each vertex must attach at least once");
    let mut rng = Xorshift64::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n * m_edges);
    // Endpoint pool: picking a uniform element = degree-proportional vertex.
    let mut pool: Vec<NodeId> = vec![0, 1];
    must_add_unit(&mut b, 0, 1);
    for v in 2..n {
        let mut targets = std::collections::BTreeSet::new();
        let want = m_edges.min(v);
        let mut attempts = 0;
        while targets.len() < want && attempts < 50 * want {
            targets.insert(pool[rng.gen_index(pool.len())]);
            attempts += 1;
        }
        for &t in &targets {
            must_add_unit(&mut b, v as NodeId, t);
            pool.push(v as NodeId);
            pool.push(t);
        }
    }
    b.build()
}

/// Skewed-degree sparse graph: a random tree plus a hub vertex adjacent to
/// `hub_degree` random vertices. Average degree stays `O(1)` while the
/// maximum degree is large — the case Theorem 1.4's degree-reduction
/// transform exists for.
///
/// # Panics
///
/// Panics if `n < 2` or `hub_degree >= n`.
pub fn skewed_sparse(n: usize, hub_degree: usize, seed: u64) -> Graph {
    assert!(n >= 2, "skewed_sparse requires n >= 2");
    assert!(hub_degree < n, "hub_degree must be < n");
    let mut rng = Xorshift64::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n - 1 + hub_degree);
    for v in 1..n {
        let parent = rng.gen_index(v);
        must_add_unit(&mut b, parent as NodeId, v as NodeId);
    }
    let mut attached = 0;
    while attached < hub_degree {
        let v = rng.gen_range_usize(1, n);
        must_add_unit(&mut b, 0, v as NodeId);
        attached += 1;
    }
    b.build()
}

/// Connects a possibly-fragmented edge set by threading one unit edge from
/// each additional component to component 0's representative, in vertex-id
/// order. Deterministic, adds at most `components - 1` edges, and keeps
/// every generator below it guaranteed-connected without rejection loops.
fn bridge_components(b: &mut GraphBuilder, uf: &mut crate::unionfind::UnionFind, n: usize) {
    if n == 0 {
        return;
    }
    let anchor = uf.find(0);
    for v in 1..n {
        let root = uf.find(v as u32);
        if root != anchor {
            must_add_unit(b, 0, v as NodeId);
            uf.union(0, v as u32);
        }
    }
}

/// R-MAT / Kronecker-style power-law graph (Chakrabarti–Zhan–Faloutsos):
/// each of the `m` edges picks its endpoints by descending `scale` levels
/// of a 2×2 quadrant matrix with probabilities `(a, b, c, d) =
/// (0.57, 0.19, 0.19, 0.05)` — the standard Graph500 parameters. The
/// vertex count is `2^scale`. Self-loops are re-rolled; duplicate edges
/// collapse in the builder (so `num_edges` is at most `m`). A final
/// union-find pass threads stray components onto vertex 0 so the result
/// is always connected.
///
/// Deterministic for a given `(scale, m, seed)` triple.
///
/// # Panics
///
/// Panics if `scale == 0`, `scale > 31`, or `m == 0`.
pub fn rmat(scale: u32, m: usize, seed: u64) -> Graph {
    assert!(scale > 0 && scale <= 31, "rmat requires 1 <= scale <= 31");
    assert!(m > 0, "rmat requires m >= 1");
    let n = 1usize << scale;
    let mut rng = Xorshift64::seed_from_u64(seed);
    let mut uf = crate::unionfind::UnionFind::new(n);
    let mut b = GraphBuilder::with_capacity(n, m + 64);
    // Graph500 quadrant probabilities; cumulative thresholds for one draw.
    const A: f64 = 0.57;
    const AB: f64 = 0.57 + 0.19;
    const ABC: f64 = 0.57 + 0.19 + 0.19;
    let mut placed = 0usize;
    while placed < m {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            let r = rng.gen_f64();
            let (bit_u, bit_v) = if r < A {
                (0, 0)
            } else if r < AB {
                (0, 1)
            } else if r < ABC {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | bit_u;
            v = (v << 1) | bit_v;
        }
        if u == v {
            continue;
        }
        must_add_unit(&mut b, u as NodeId, v as NodeId);
        uf.union(u as u32, v as u32);
        placed += 1;
    }
    bridge_components(&mut b, &mut uf, n);
    b.build()
}

/// Power-law graph via the configuration model: vertex `v >= 1` gets
/// `max(1, floor(c / v^(1/(gamma-1))))` stubs — the discretized inverse of
/// a power-law degree CDF with exponent `gamma` — the stub list is
/// shuffled once, and consecutive stub pairs become edges (self-loops
/// skipped, duplicates collapsed by the builder). A union-find bridging
/// pass connects the leftovers. `gamma` is given in tenths (e.g. `25`
/// means `γ = 2.5`) to keep the signature integral and hashable.
///
/// Deterministic for a given `(n, gamma_tenths, seed)` triple.
///
/// # Panics
///
/// Panics if `n < 2` or `gamma_tenths <= 10` (the exponent must exceed 1).
pub fn power_law_configuration(n: usize, gamma_tenths: u32, seed: u64) -> Graph {
    assert!(n >= 2, "power_law_configuration requires n >= 2");
    assert!(
        gamma_tenths > 10,
        "power-law exponent must exceed 1.0 (gamma_tenths > 10)"
    );
    let gamma = f64::from(gamma_tenths) / 10.0;
    let inv = 1.0 / (gamma - 1.0);
    // Scale constant so the largest degree is ~n^(1/(gamma-1)), capped at
    // n-1 to stay simple.
    let c = (n as f64).powf(inv);
    let mut stubs: Vec<NodeId> = Vec::new();
    for v in 0..n {
        let rank = (v + 1) as f64;
        let deg = (c / rank.powf(inv)).floor().max(1.0) as usize;
        let deg = deg.min(n - 1);
        for _ in 0..deg {
            stubs.push(v as NodeId);
        }
    }
    if !stubs.len().is_multiple_of(2) {
        stubs.pop();
    }
    let mut rng = Xorshift64::seed_from_u64(seed);
    rng.shuffle(&mut stubs);
    let mut uf = crate::unionfind::UnionFind::new(n);
    let mut b = GraphBuilder::with_capacity(n, stubs.len() / 2 + 64);
    for pair in stubs.chunks_exact(2) {
        if pair[0] == pair[1] {
            continue;
        }
        must_add_unit(&mut b, pair[0], pair[1]);
        uf.union(pair[0], pair[1]);
    }
    bridge_components(&mut b, &mut uf, n);
    b.build()
}

/// Road-style network: a `rows × cols` grid with seeded-random integer
/// edge weights in `[1, max_w]` (local streets), plus `shortcuts` long-range
/// weighted edges between uniformly random vertex pairs (highways). The
/// grid skeleton keeps it connected and near-planar; the shortcuts give it
/// the small-separator-but-not-quite structure of real road networks the
/// paper's §1.1 discusses.
///
/// Deterministic for a given `(rows, cols, shortcuts, seed)` tuple.
///
/// # Panics
///
/// Panics if `rows == 0` or `cols == 0`.
pub fn grid_with_shortcuts(rows: usize, cols: usize, shortcuts: usize, seed: u64) -> Graph {
    assert!(
        rows > 0 && cols > 0,
        "grid_with_shortcuts requires rows, cols >= 1"
    );
    let n = rows * cols;
    let max_w: u64 = 8;
    let mut rng = Xorshift64::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, 2 * n + shortcuts);
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                must_add(
                    &mut b,
                    id(r, c),
                    id(r, c + 1),
                    rng.gen_range_inclusive_u64(1, max_w),
                );
            }
            if r + 1 < rows {
                must_add(
                    &mut b,
                    id(r, c),
                    id(r + 1, c),
                    rng.gen_range_inclusive_u64(1, max_w),
                );
            }
        }
    }
    let mut placed = 0usize;
    while placed < shortcuts && n >= 2 {
        let u = rng.gen_index(n);
        let v = rng.gen_index(n);
        if u == v {
            continue;
        }
        // Highways are fast relative to hop count: weight scales sublinearly
        // with grid distance so they actually shorten routes.
        let (ur, uc) = (u / cols, u % cols);
        let (vr, vc) = (v / cols, v % cols);
        let manhattan = ur.abs_diff(vr) + uc.abs_diff(vc);
        let w = ((manhattan as u64) / 2).max(1);
        must_add(&mut b, u as NodeId, v as NodeId, w);
        placed += 1;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn path_shape() {
        let g = path(6);
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.max_degree(), 2);
        assert!(properties::is_connected(&g));
    }

    #[test]
    fn single_vertex_path() {
        let g = path(1);
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(7);
        assert_eq!(g.num_edges(), 7);
        assert!((0..7).all(|v| g.degree(v) == 2));
    }

    #[test]
    fn star_shape() {
        let g = star(9);
        assert_eq!(g.degree(0), 8);
        assert!((1..9).all(|v| g.degree(v) == 1));
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.num_edges(), 10);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
        assert!(properties::is_connected(&g));
    }

    #[test]
    fn weighted_grid_deterministic() {
        let a = weighted_grid(4, 4, 11);
        let b = weighted_grid(4, 4, 11);
        let c = weighted_grid(4, 4, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_unit_weighted() || a.edges().all(|(_, _, w)| w == 1));
    }

    #[test]
    fn balanced_tree_shape() {
        let g = balanced_binary_tree(3);
        assert_eq!(g.num_nodes(), 15);
        assert_eq!(g.num_edges(), 14);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn random_tree_is_tree() {
        let g = random_tree(64, 5);
        assert_eq!(g.num_edges(), 63);
        assert!(properties::is_connected(&g));
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 3);
        assert_eq!(g.num_nodes(), 16);
        assert_eq!(g.num_edges(), 15);
        assert!(properties::is_connected(&g));
    }

    #[test]
    fn connected_gnm_counts() {
        let g = connected_gnm(50, 30, 99);
        assert_eq!(g.num_nodes(), 50);
        assert_eq!(g.num_edges(), 79);
        assert!(properties::is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "extra edges")]
    fn connected_gnm_rejects_too_dense() {
        let _ = connected_gnm(4, 100, 0);
    }

    #[test]
    fn union_of_matchings_bounded_degree() {
        let g = union_of_matchings(32, 3, 7);
        assert!(g.max_degree() <= 3);
        assert!(g.num_edges() <= 48);
    }

    #[test]
    fn unit_disk_shape() {
        let g = unit_disk(150, 0.15, 4);
        assert_eq!(g.num_nodes(), 150);
        assert!(g.num_edges() > 0);
        // Geometric graphs at this density are mostly sparse.
        assert!(g.average_degree() < 12.0);
        // Weights reflect distances: all within (0, 1000·0.15 + 1].
        assert!(g.edges().all(|(_, _, w)| (1..=151).contains(&w)));
        assert_eq!(unit_disk(150, 0.15, 4), g, "seeded determinism");
    }

    #[test]
    fn preferential_attachment_shape() {
        let g = preferential_attachment(300, 2, 11);
        assert_eq!(g.num_nodes(), 300);
        assert!(properties::is_connected(&g));
        assert!(g.average_degree() <= 5.0, "stays sparse");
        // Heavy tail: the max degree should far exceed the average.
        assert!(g.max_degree() as f64 > 3.0 * g.average_degree());
    }

    #[test]
    fn preferential_attachment_deterministic() {
        assert_eq!(
            preferential_attachment(60, 2, 4),
            preferential_attachment(60, 2, 4)
        );
    }

    #[test]
    fn skewed_sparse_has_hub() {
        let g = skewed_sparse(200, 80, 3);
        assert!(g.degree(0) >= 40, "hub should have large degree");
        assert!(g.average_degree() < 4.0);
        assert!(properties::is_connected(&g));
    }

    #[test]
    fn generators_deterministic_by_seed() {
        assert_eq!(random_tree(30, 1), random_tree(30, 1));
        assert_eq!(connected_gnm(30, 10, 2), connected_gnm(30, 10, 2));
        assert_eq!(union_of_matchings(30, 2, 3), union_of_matchings(30, 2, 3));
    }

    #[test]
    fn rmat_shape_and_determinism() {
        let g = rmat(10, 4096, 7);
        assert_eq!(g.num_nodes(), 1024);
        assert!(g.num_edges() > 0 && g.num_edges() <= 4096 + 1024);
        assert!(properties::is_connected(&g), "bridging pass connects rmat");
        assert!(g.is_unit_weighted());
        // Skew: the busiest vertex sits far above the average degree.
        assert!(g.max_degree() as f64 > 4.0 * g.average_degree());
        assert_eq!(rmat(10, 4096, 7), g, "same seed, identical edge list");
        assert_ne!(rmat(10, 4096, 8), g, "different seed, different graph");
    }

    #[test]
    fn power_law_configuration_shape_and_determinism() {
        let g = power_law_configuration(2000, 25, 5);
        assert_eq!(g.num_nodes(), 2000);
        assert!(properties::is_connected(&g));
        assert!(g.average_degree() < 12.0, "stays sparse");
        assert!(
            g.max_degree() as f64 > 5.0 * g.average_degree(),
            "heavy tail"
        );
        assert_eq!(power_law_configuration(2000, 25, 5), g);
        assert_ne!(power_law_configuration(2000, 25, 6), g);
    }

    #[test]
    fn grid_with_shortcuts_shape_and_determinism() {
        let g = grid_with_shortcuts(20, 30, 50, 9);
        assert_eq!(g.num_nodes(), 600);
        assert!(properties::is_connected(&g), "grid skeleton connects it");
        assert!(!g.is_unit_weighted(), "road weights are non-uniform");
        // 2·20·30 - 20 - 30 grid edges plus up to 50 shortcuts.
        assert!(g.num_edges() >= 1150);
        assert_eq!(grid_with_shortcuts(20, 30, 50, 9), g);
        assert_ne!(grid_with_shortcuts(20, 30, 50, 10), g);
    }
}
