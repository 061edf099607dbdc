//! Randomized property tests: every construction must be an exact cover on
//! arbitrary sparse graphs, and the structural invariants of the paper must
//! hold on any labeling.
//!
//! Seeded [`Xorshift64`] case generation replaces the original `proptest`
//! strategies so the suite builds offline.

use hl_core::cover::{verify_exact, verify_hub_distances};
use hl_core::greedy::greedy_cover;
use hl_core::monotone::{check_closure_size_relation, MonotoneClosure};
use hl_core::pll::PrunedLandmarkLabeling;
use hl_core::random_threshold::{random_threshold_labeling, RandomThresholdParams};
use hl_core::rs_based::{rs_labeling, RsParams};
use hl_core::tree::centroid_labeling;
use hl_graph::properties::hop_diameter_exact;
use hl_graph::rng::Xorshift64;
use hl_graph::{generators, NodeId};

const CASES: u64 = 24;

fn sparse_graph(rng: &mut Xorshift64) -> hl_graph::Graph {
    let n = rng.gen_range_usize(5, 35);
    let max_extra = n * (n - 1) / 2 - (n - 1);
    let extra = rng.gen_index(25).min(max_extra);
    generators::connected_gnm(n, extra, rng.next_u64())
}

#[test]
fn pll_exact_on_random_graphs() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(case);
        let g = sparse_graph(&mut rng);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }
}

#[test]
fn pll_random_order_exact() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(1000 + case);
        let g = sparse_graph(&mut rng);
        let hl = PrunedLandmarkLabeling::by_random_order(&g, rng.next_u64()).into_labeling();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }
}

#[test]
fn greedy_exact_on_random_graphs() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(3000 + case);
        let g = sparse_graph(&mut rng);
        let hl = greedy_cover(&g).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }
}

#[test]
fn random_threshold_exact() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(4000 + case);
        let g = sparse_graph(&mut rng);
        let d = rng.gen_range_u64(1, 8);
        let (hl, _) = random_threshold_labeling(
            &g,
            RandomThresholdParams {
                threshold: d,
                seed: rng.next_u64(),
            },
        )
        .unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }
}

#[test]
fn rs_labeling_exact() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(5000 + case);
        let g = sparse_graph(&mut rng);
        let d = rng.gen_range_u64(1, 6);
        let (hl, _) = rs_labeling(
            &g,
            RsParams {
                threshold: d,
                seed: rng.next_u64(),
            },
        )
        .unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }
}

#[test]
fn centroid_exact_on_trees() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(6000 + case);
        let n = rng.gen_range_usize(2, 120);
        let g = generators::random_tree(n, rng.next_u64());
        let hl = centroid_labeling(&g).unwrap();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
        // ceil(log2(n)) + 1 hubs at most.
        let bound = (n as f64).log2().ceil() as usize + 1;
        assert!(
            hl.max_hubs() <= bound,
            "max {} > bound {}",
            hl.max_hubs(),
            bound
        );
    }
}

#[test]
fn all_hub_distances_admissible() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(7000 + case);
        let g = sparse_graph(&mut rng);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let sources: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        assert!(verify_hub_distances(&g, &hl, &sources));
    }
}

#[test]
fn monotone_closure_relation_any_labeling() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(8000 + case);
        let g = sparse_graph(&mut rng);
        let hl = greedy_cover(&g).unwrap();
        let mc = MonotoneClosure::compute(&g, &hl);
        let diam = hop_diameter_exact(&g);
        assert_eq!(check_closure_size_relation(&g, &hl, &mc, diam), None);
    }
}

#[test]
fn queries_never_underestimate() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(9000 + case);
        let g = sparse_graph(&mut rng);
        let d = rng.gen_range_u64(1, 5);
        // Even a *partial* labeling (here: the exact rs labeling, but the
        // property is generic) may only overestimate, never underestimate,
        // because stored distances are true distances.
        let (hl, _) = rs_labeling(
            &g,
            RsParams {
                threshold: d,
                seed: rng.next_u64(),
            },
        )
        .unwrap();
        let m = hl_graph::apsp::DistanceMatrix::compute(&g).unwrap();
        for u in 0..g.num_nodes() as NodeId {
            for v in 0..g.num_nodes() as NodeId {
                assert!(hl.query(u, v) >= m.distance(u, v));
            }
        }
    }
}
