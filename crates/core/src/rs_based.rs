//! The hub-labeling construction of **Theorem 4.1** (Kosowski–Uznański–
//! Viennot, PODC 2019), which bounds average hubset size on bounded-degree
//! graphs by `O(n / RS(n)^{1/c})` through the structure of induced
//! matchings, and its extension to constant *average* degree
//! (**Theorem 1.4**) via the degree-reduction transform.
//!
//! The algorithm, faithfully following the proof:
//!
//! 1. For every pair `u, v` let `H_uv = { x : d(u,x) + d(x,v) = d(u,v) }`
//!    be its *valid hubs*.
//! 2. Pick a random set `S` of size `(n/D)·ln D`; with probability
//!    `≥ 1 − 1/D` it hits `H_uv` for each pair with `|H_uv| ≥ D`. Pairs it
//!    misses go to fallback sets `Q_u` (storing the partner directly).
//! 3. Color vertices uniformly with `D³` colors. Pairs with `|H_uv| ≤ D`
//!    whose hub set suffered a color collision go to fallback sets `R_u`.
//! 4. For every `(a, b)` with `1 ≤ a+b ≤ D` and every vertex `h`, form the
//!    bipartite graph `E^h_{a,b}` of properly-colored pairs `(u, v)` with
//!    `h ∈ H_uv`, `d(u,h) = a`, `d(h,v) = b`; take a maximal matching and
//!    use its endpoints as a vertex cover; covered endpoints add `h` to
//!    their set `F`. (The proof shows the union of the matchings per color
//!    class is an *induced matching* partition of a Ruzsa–Szemerédi graph,
//!    which is what bounds `Σ|F_v|` by `O(D⁵ n²/RS(n))`.)
//! 5. Final hubsets: `H_v = {v} ∪ S ∪ Q_v ∪ R_v ∪ N(F_v)` where `N` is the
//!    closed neighborhood.
//!
//! Exactness is unconditional: randomness only affects *sizes* (through the
//! fallback sets), never correctness. The module reports the full size
//! breakdown so experiments can chart each term of the bound
//! `n|S| + n²/D + n²/D + D⁵·n²/RS(n)`.

use std::collections::HashMap;

use hl_graph::apsp::DistanceMatrix;
use hl_graph::{Distance, Graph, GraphError, NodeId, INFINITY};

use crate::flat::FlatLabeling;

/// Parameters for the Theorem 4.1 construction.
#[derive(Debug, Clone, Copy)]
pub struct RsParams {
    /// The hub-multiplicity threshold `D` (the proof sets
    /// `D = RS(n)^{1/6}`; in practice small constants 2–6 work well at
    /// feasible sizes).
    pub threshold: u64,
    /// RNG seed (drives both the random set `S` and the coloring).
    pub seed: u64,
}

impl RsParams {
    /// Default parameters: `D = max(2, ⌈n^{1/6}⌉)`, mirroring the proof's
    /// `D = RS(n)^{1/6}` with the Behrend-side reading `RS(n) ≈ n^{o(1)}`
    /// replaced by a concrete mild growth.
    pub fn for_size(n: usize, seed: u64) -> Self {
        let d = ((n.max(2) as f64).powf(1.0 / 6.0).ceil() as u64).max(2);
        RsParams { threshold: d, seed }
    }
}

/// Size breakdown of the construction, matching the proof's accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct RsBreakdown {
    /// `|S|` — the shared random hub set.
    pub global_hubs: usize,
    /// `Σ_v |Q_v|` — far pairs the random set missed.
    pub fallback_q: usize,
    /// `Σ_v |R_v|` — pairs whose hub set had a color collision.
    pub fallback_r: usize,
    /// `Σ_v |F_v|` — matching-cover hubs before taking neighborhoods.
    pub cover_f: usize,
    /// Number of `(a, b, h)` buckets that were non-empty.
    pub buckets: usize,
    /// Number of pairs handled by the matching machinery (case 3).
    pub matched_pairs: usize,
}

/// Runs the Theorem 4.1 construction on `g`.
///
/// Intended for unweighted graphs and graphs with `{0, 1}` weights (the
/// degree-reduced form); the proof's case analysis relies on
/// `d(u, v) > D ⇒ |H_uv| > D`, which holds in both.
///
/// # Example
///
/// ```
/// use hl_graph::generators;
/// use hl_core::rs_based::{rs_labeling, RsParams};
/// use hl_core::cover::verify_exact;
///
/// # fn main() -> Result<(), hl_graph::GraphError> {
/// let g = generators::union_of_matchings(40, 3, 1);
/// let (labeling, breakdown) = rs_labeling(&g, RsParams { threshold: 3, seed: 7 })?;
/// assert!(verify_exact(&g, &labeling)?.is_exact());
/// assert!(breakdown.global_hubs > 0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates [`GraphError`] from APSP, or reports invalid parameters when
/// `threshold == 0` or the graph has an edge weight `> 1` (use
/// [`hl_graph::transform::subdivide_weights`] first).
pub fn rs_labeling(g: &Graph, params: RsParams) -> Result<(FlatLabeling, RsBreakdown), GraphError> {
    if params.threshold == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "threshold D must be >= 1".into(),
        });
    }
    if g.edges().any(|(_, _, w)| w > 1) {
        return Err(GraphError::InvalidParameters {
            reason: "rs_labeling requires {0,1} edge weights; subdivide first".into(),
        });
    }
    let n = g.num_nodes();
    let d_thr = params.threshold;
    let m = DistanceMatrix::compute(g)?;
    let mut rng = hl_graph::rng::Xorshift64::seed_from_u64(params.seed);

    // Step 2: random global set S.
    let target = ((n as f64 / d_thr as f64) * (d_thr as f64).ln().max(1.0)).ceil() as usize;
    let target = target.clamp(1, n);
    let mut all: Vec<NodeId> = (0..n as NodeId).collect();
    rng.shuffle(&mut all);
    let mut global: Vec<NodeId> = all.into_iter().take(target).collect();
    global.sort_unstable();

    // Step 3: coloring with D^3 colors.
    let num_colors = d_thr.saturating_mul(d_thr).saturating_mul(d_thr).max(1);
    let colors: Vec<u64> = (0..n).map(|_| rng.gen_u64_below(num_colors)).collect();

    let mut breakdown = RsBreakdown {
        global_hubs: global.len(),
        ..RsBreakdown::default()
    };
    let mut extra: Vec<Vec<(NodeId, Distance)>> = vec![Vec::new(); n];
    let mut f_sets: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    // Buckets (a, b, h) -> pair list for the matching stage.
    let mut buckets: HashMap<(u32, u32, NodeId), Vec<(NodeId, NodeId)>> = HashMap::new();

    for u in 0..n as NodeId {
        for v in (u + 1)..n as NodeId {
            let duv = m.distance(u, v);
            if duv == INFINITY {
                continue;
            }
            if duv > d_thr {
                // |H_uv| >= d + 1 > D: case 1 (S or fallback Q).
                if !hit_by_global(&m, &global, u, v, duv) {
                    extra[u as usize].push((v, duv));
                    breakdown.fallback_q += 1;
                }
                continue;
            }
            // Near pair: compute H_uv explicitly.
            let hubs = hl_graph::apsp::valid_hubs(&m, u, v);
            if hubs.len() as u64 >= d_thr {
                // Case 1 again, via S.
                if !hit_by_global(&m, &global, u, v, duv) {
                    extra[u as usize].push((v, duv));
                    breakdown.fallback_q += 1;
                }
                continue;
            }
            // Case 2: color collision inside H_uv -> fallback R.
            if has_color_collision(&hubs, &colors) {
                extra[u as usize].push((v, duv));
                breakdown.fallback_r += 1;
                continue;
            }
            // Distance-0 pairs of *distinct* vertices (possible with
            // weight-0 edges after degree reduction) fall outside the
            // bucket machinery (a + b >= 1); store the partner directly.
            if duv == 0 {
                extra[u as usize].push((v, 0));
                breakdown.fallback_q += 1;
                continue;
            }
            // Case 3: route each valid hub through its (a, b, h) bucket.
            breakdown.matched_pairs += 1;
            for &h in &hubs {
                let a = m.distance(u, h);
                let b = m.distance(h, v);
                debug_assert!(a + b == duv && a + b >= 1 && a + b <= d_thr);
                buckets
                    .entry((a as u32, b as u32, h))
                    .or_default()
                    .push((u, v));
            }
        }
    }

    // Step 4: per-bucket maximal matching; matched endpoints take h into F.
    breakdown.buckets = buckets.len();
    let mut bucket_keys: Vec<_> = buckets.keys().copied().collect();
    bucket_keys.sort_unstable(); // determinism independent of hash order
    let mut used_left = vec![false; n];
    let mut used_right = vec![false; n];
    for key in bucket_keys {
        let pairs = &buckets[&key];
        let h = key.2;
        let mut touched: Vec<NodeId> = Vec::new();
        for &(u, v) in pairs {
            if !used_left[u as usize] && !used_right[v as usize] {
                used_left[u as usize] = true;
                used_right[v as usize] = true;
                touched.push(u);
                touched.push(v);
                f_sets[u as usize].push(h);
                f_sets[v as usize].push(h);
            }
        }
        for t in touched {
            used_left[t as usize] = false;
            used_right[t as usize] = false;
        }
    }

    // Step 5: assemble H_v = {v} ∪ S ∪ Q_v ∪ R_v ∪ N(F_v).
    let mut labels: Vec<Vec<(NodeId, Distance)>> = vec![Vec::new(); n];
    for v in 0..n as NodeId {
        let lv = &mut labels[v as usize];
        lv.push((v, 0));
        for &h in &global {
            let d = m.distance(v, h);
            if d != INFINITY {
                lv.push((h, d));
            }
        }
        for &(h, d) in &extra[v as usize] {
            lv.push((h, d));
        }
        // v itself always participates in F_v (the proof's "w.l.o.g.
        // u ∈ F_u") so the induction along the shortest path can start.
        f_sets[v as usize].push(v);
        breakdown.cover_f += f_sets[v as usize].len();
        for &h in &f_sets[v as usize] {
            // Closed neighborhood N(h).
            let dh = m.distance(v, h);
            if dh != INFINITY {
                lv.push((h, dh));
            }
            for (y, _) in g.neighbors(h) {
                let dy = m.distance(v, y);
                if dy != INFINITY {
                    lv.push((y, dy));
                }
            }
        }
    }
    // Fallback hubs (v stored in S_u) rely on the partner's self-hub, which
    // is present for every vertex.
    let labeling = FlatLabeling::from_pair_lists(labels)?;
    Ok((labeling, breakdown))
}

fn hit_by_global(
    m: &DistanceMatrix,
    global: &[NodeId],
    u: NodeId,
    v: NodeId,
    duv: Distance,
) -> bool {
    global.iter().any(|&h| {
        let a = m.distance(u, h);
        let b = m.distance(h, v);
        a != INFINITY && b != INFINITY && a + b == duv
    })
}

fn has_color_collision(hubs: &[NodeId], colors: &[u64]) -> bool {
    // |hubs| <= D is small; quadratic check is cheapest.
    for (i, &x) in hubs.iter().enumerate() {
        for &y in &hubs[i + 1..] {
            if colors[x as usize] == colors[y as usize] {
                return true;
            }
        }
    }
    false
}

/// Projects a labeling of a transformed graph back to the original vertex
/// set: the hubset of `v` becomes `{ origin(h) : h ∈ S'_{rep(v)} }` with
/// unchanged distances, completing the Theorem 1.4 pipeline
/// (degree-reduce → label → project).
///
/// `representative[v]` maps original → transformed,
/// `origin[x]` maps transformed → original. Distances are preserved by the
/// weight-0 chains, and a hub on a shortest path projects to a vertex on
/// the corresponding original path, so the projection remains an exact
/// cover.
///
/// # Errors
///
/// Whatever [`FlatLabeling::from_pair_lists`] reports; the distances come
/// out of an arena lane, so none is too wide for it.
pub fn project_labeling(
    labeling: &FlatLabeling,
    representative: &[NodeId],
    origin: &[NodeId],
) -> Result<FlatLabeling, GraphError> {
    let labels = representative
        .iter()
        .map(|&rep| {
            labeling
                .pairs_of(rep)
                .map(|(h, d)| (origin[h as usize], d))
                .collect()
        })
        .collect();
    Ok(FlatLabeling::from_pair_lists(labels)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::verify_exact;
    use hl_graph::generators;
    use hl_graph::transform::reduce_degree;

    #[test]
    fn exact_on_grid() {
        let g = generators::grid(6, 6);
        let (hl, bd) = rs_labeling(
            &g,
            RsParams {
                threshold: 3,
                seed: 1,
            },
        )
        .unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
        assert!(bd.global_hubs > 0);
    }

    #[test]
    fn exact_on_bounded_degree_random_graph() {
        let g = generators::union_of_matchings(60, 3, 4);
        let (hl, _) = rs_labeling(
            &g,
            RsParams {
                threshold: 3,
                seed: 2,
            },
        )
        .unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn exact_on_tree_and_cycle_various_thresholds() {
        for d in [1u64, 2, 4, 8] {
            let g = generators::random_tree(50, 6);
            let (hl, _) = rs_labeling(
                &g,
                RsParams {
                    threshold: d,
                    seed: d,
                },
            )
            .unwrap();
            assert!(verify_exact(&g, &hl).unwrap().is_exact(), "tree, D={d}");
            let c = generators::cycle(41);
            let (hl, _) = rs_labeling(
                &c,
                RsParams {
                    threshold: d,
                    seed: d,
                },
            )
            .unwrap();
            assert!(verify_exact(&c, &hl).unwrap().is_exact(), "cycle, D={d}");
        }
    }

    #[test]
    fn exact_on_disconnected() {
        let g = hl_graph::builder::graph_from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]).unwrap();
        let (hl, _) = rs_labeling(
            &g,
            RsParams {
                threshold: 2,
                seed: 3,
            },
        )
        .unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn rejects_weighted_graphs() {
        let g = generators::weighted_grid(3, 3, 1);
        assert!(rs_labeling(
            &g,
            RsParams {
                threshold: 2,
                seed: 0
            }
        )
        .is_err());
    }

    #[test]
    fn rejects_zero_threshold() {
        let g = generators::path(4);
        assert!(rs_labeling(
            &g,
            RsParams {
                threshold: 0,
                seed: 0
            }
        )
        .is_err());
    }

    #[test]
    fn deterministic_by_seed() {
        let g = generators::connected_gnm(40, 20, 9);
        let p = RsParams {
            threshold: 3,
            seed: 5,
        };
        assert_eq!(rs_labeling(&g, p).unwrap().0, rs_labeling(&g, p).unwrap().0);
    }

    #[test]
    fn breakdown_terms_reported() {
        let g = generators::connected_gnm(60, 30, 12);
        let (_, bd) = rs_labeling(
            &g,
            RsParams {
                threshold: 3,
                seed: 7,
            },
        )
        .unwrap();
        assert!(bd.buckets > 0);
        assert!(bd.matched_pairs > 0);
        assert!(bd.cover_f >= 60, "every vertex contributes itself to F");
    }

    #[test]
    fn theorem_1_4_pipeline_skewed_degrees() {
        // Constant average degree but a huge hub: reduce, label, project.
        let g = generators::skewed_sparse(70, 40, 8);
        let red = reduce_degree(&g, 3).unwrap();
        let (hl_red, _) = rs_labeling(
            &red.graph,
            RsParams {
                threshold: 3,
                seed: 4,
            },
        )
        .unwrap();
        assert!(verify_exact(&red.graph, &hl_red).unwrap().is_exact());
        let hl = project_labeling(&hl_red, &red.representative, &red.origin).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn default_params_reasonable() {
        let p = RsParams::for_size(64, 0);
        assert!(p.threshold >= 2);
    }
}
