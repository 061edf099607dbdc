//! The random-threshold hub labeling for sparse graphs, in the style of
//! Alstrup–Dahlgaard–Knudsen–Porat (ESA 2016) as summarized in Section 1.1
//! of the paper:
//!
//! * pick a distance threshold `D`;
//! * choose a random global hubset `S` of size `≈ (n/D)·ln D`, shared by
//!   every vertex — it covers (with high probability) all pairs at distance
//!   `≥ D`;
//! * store all vertices at distance `< D` explicitly as near-hubs;
//! * patch the few far pairs the random set missed with direct fallback
//!   hubs (keeping the construction unconditionally exact).
//!
//! With `D = Θ(log n)` this yields the `O(n/log n · log log n)` average hub
//! size the paper quotes as the state-of-the-art upper bound for sparse
//! graphs before Theorem 1.4.

use hl_graph::apsp::DistanceMatrix;
use hl_graph::{Distance, Graph, GraphError, NodeId, INFINITY};

use crate::flat::FlatLabeling;

/// Parameters of the random-threshold construction.
#[derive(Debug, Clone, Copy)]
pub struct RandomThresholdParams {
    /// The near/far threshold `D` (must be `>= 1`).
    pub threshold: Distance,
    /// RNG seed for the global hubset.
    pub seed: u64,
}

impl RandomThresholdParams {
    /// The paper's default choice `D = max(2, ln n)` for an `n`-vertex graph.
    pub fn for_size(n: usize, seed: u64) -> Self {
        let d = ((n.max(2) as f64).ln().ceil() as u64).max(2);
        RandomThresholdParams { threshold: d, seed }
    }
}

/// Size breakdown of a [`random_threshold_labeling`] run, for the
/// experiment tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomThresholdBreakdown {
    /// Size of the shared far-hub set `S`.
    pub global_hubs: usize,
    /// `Σ_v` explicit near hubs (distance `< D`).
    pub near_hubs: usize,
    /// Number of far pairs the random set missed (patched directly).
    pub fallback_pairs: usize,
}

/// Builds the labeling; returns it with the size breakdown.
///
/// # Errors
///
/// Propagates [`GraphError`] from the APSP computation, or reports invalid
/// parameters when `threshold == 0`.
pub fn random_threshold_labeling(
    g: &Graph,
    params: RandomThresholdParams,
) -> Result<(FlatLabeling, RandomThresholdBreakdown), GraphError> {
    if params.threshold == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "threshold D must be >= 1".into(),
        });
    }
    let n = g.num_nodes();
    let d_thr = params.threshold;
    let m = DistanceMatrix::compute(g)?;

    // Global random hubset S of size ceil((n / D) * ln D), at least 1.
    let mut rng = hl_graph::rng::Xorshift64::seed_from_u64(params.seed);
    let target = ((n as f64 / d_thr as f64) * (d_thr as f64).ln()).ceil() as usize;
    let target = target.clamp(1, n);
    let mut all: Vec<NodeId> = (0..n as NodeId).collect();
    rng.shuffle(&mut all);
    let mut global: Vec<NodeId> = all.into_iter().take(target).collect();
    global.sort_unstable();

    let mut breakdown = RandomThresholdBreakdown {
        global_hubs: global.len(),
        ..RandomThresholdBreakdown::default()
    };

    let mut pairs: Vec<Vec<(NodeId, Distance)>> = vec![Vec::new(); n];
    for u in 0..n as NodeId {
        // Shared far hubs.
        for &h in &global {
            let d = m.distance(u, h);
            if d != INFINITY {
                pairs[u as usize].push((h, d));
            }
        }
        // Explicit near ball, including the vertex itself.
        for v in 0..n as NodeId {
            let d = m.distance(u, v);
            if d != INFINITY && d < d_thr {
                pairs[u as usize].push((v, d));
                breakdown.near_hubs += 1;
            }
        }
    }

    // Patch far pairs not covered by S: for d(u, v) >= D, check whether some
    // h in S lies on a shortest path; otherwise store v directly in S_u
    // (v's self-hub completes the pair).
    for u in 0..n as NodeId {
        for v in (u + 1)..n as NodeId {
            let duv = m.distance(u, v);
            if duv == INFINITY || duv < d_thr {
                continue;
            }
            let covered = global.iter().any(|&h| {
                let a = m.distance(u, h);
                let b = m.distance(h, v);
                a != INFINITY && b != INFINITY && a + b == duv
            });
            if !covered {
                pairs[u as usize].push((v, duv));
                breakdown.fallback_pairs += 1;
            }
        }
    }

    let labeling = FlatLabeling::from_pair_lists(pairs)?;
    Ok((labeling, breakdown))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::verify_exact;
    use hl_graph::generators;

    #[test]
    fn exact_on_sparse_random_graph() {
        let g = generators::connected_gnm(80, 40, 3);
        let params = RandomThresholdParams::for_size(80, 1);
        let (hl, _) = random_threshold_labeling(&g, params).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn exact_on_long_path() {
        // Far pairs dominate on a path; fallback patching must keep it exact.
        let g = generators::path(100);
        let (hl, bd) = random_threshold_labeling(
            &g,
            RandomThresholdParams {
                threshold: 5,
                seed: 2,
            },
        )
        .unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
        assert!(bd.global_hubs >= 1);
    }

    #[test]
    fn exact_on_tree_and_cycle() {
        for g in [generators::random_tree(70, 9), generators::cycle(60)] {
            let params = RandomThresholdParams::for_size(g.num_nodes(), 7);
            let (hl, _) = random_threshold_labeling(&g, params).unwrap();
            assert!(verify_exact(&g, &hl).unwrap().is_exact());
        }
    }

    #[test]
    fn threshold_one_is_all_far() {
        // D = 1: near hubs are only the vertices themselves (d < 1).
        let g = generators::path(20);
        let (hl, bd) = random_threshold_labeling(
            &g,
            RandomThresholdParams {
                threshold: 1,
                seed: 5,
            },
        )
        .unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
        assert_eq!(bd.near_hubs, 20, "only self-hubs are near at D = 1");
    }

    #[test]
    fn rejects_zero_threshold() {
        let g = generators::path(3);
        assert!(random_threshold_labeling(
            &g,
            RandomThresholdParams {
                threshold: 0,
                seed: 0
            }
        )
        .is_err());
    }

    #[test]
    fn deterministic_by_seed() {
        let g = generators::connected_gnm(40, 20, 11);
        let p = RandomThresholdParams {
            threshold: 4,
            seed: 42,
        };
        let (a, _) = random_threshold_labeling(&g, p).unwrap();
        let (b, _) = random_threshold_labeling(&g, p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn larger_threshold_fewer_global_hubs() {
        let g = generators::connected_gnm(100, 50, 13);
        let (_, bd_small) = random_threshold_labeling(
            &g,
            RandomThresholdParams {
                threshold: 2,
                seed: 1,
            },
        )
        .unwrap();
        let (_, bd_large) = random_threshold_labeling(
            &g,
            RandomThresholdParams {
                threshold: 16,
                seed: 1,
            },
        )
        .unwrap();
        assert!(bd_large.global_hubs < bd_small.global_hubs);
    }

    #[test]
    fn default_params_scale() {
        let p = RandomThresholdParams::for_size(1000, 0);
        assert!(p.threshold >= 6 && p.threshold <= 8, "ln(1000) ≈ 6.9");
    }
}
