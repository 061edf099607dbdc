//! Theorem-level integration tests: each test executes one of the paper's
//! statements as a finite, checkable claim on concrete instances.

use hub_labeling::core::monotone::MonotoneClosure;
use hub_labeling::core::pll::PrunedLandmarkLabeling;
use hub_labeling::core::rs_based::{rs_labeling, RsParams};
use hub_labeling::labeling::hub_scheme::HubPllScheme;
use hub_labeling::lowerbound::accounting::{audit_g, audit_h, h_triples};
use hub_labeling::lowerbound::midpoint::{check_all_pairs, check_g_matches_h};
use hub_labeling::lowerbound::removal::{decode_midpoint_presence, RemovedMiddle};
use hub_labeling::lowerbound::{GGraph, GadgetParams, HGraph};
use hub_labeling::sumindex::naive;
use hub_labeling::sumindex::protocol::GraphProtocol;
use hub_labeling::sumindex::repr::Repr;
use hub_labeling::sumindex::SumIndexInstance;

/// Theorem 2.1 claims (i)+(ii): node count within the stated envelope and
/// max degree exactly 3.
#[test]
fn theorem21_claims_i_and_ii() {
    for (b, ell) in [(1u32, 1u32), (2, 1), (1, 2), (2, 2)] {
        let p = GadgetParams::new(b, ell).unwrap();
        let g = GGraph::build(p);
        assert_eq!(g.graph().max_degree(), 3);
        // |V(G)| = 2^{bℓ} · 2^{Θ(b + log ℓ)}: sanity envelope — the count is
        // dominated by total edge weight ≈ 2ℓ s^{ℓ+1} A.
        let s = p.side();
        let upper = 4 * s * p.h_num_nodes() + (3 * ell as u64 + 1) * s * s * p.h_num_edges();
        assert!((g.graph().num_nodes() as u64) <= upper, "G({b},{ell})");
        assert!(
            (g.graph().num_nodes() as u64) >= p.h_num_nodes(),
            "G({b},{ell})"
        );
    }
}

/// Theorem 2.1 claim (iii), executable form: the triplet audit charges all
/// triples for any exact labeling, on H and on G.
#[test]
fn theorem21_claim_iii_counting() {
    let p = GadgetParams::new(2, 2).unwrap();
    let h = HGraph::build(p);
    for labeling in [
        PrunedLandmarkLabeling::by_degree(h.graph()).into_labeling(),
        PrunedLandmarkLabeling::by_random_order(h.graph(), 7).into_labeling(),
    ] {
        let report = audit_h(&h, &labeling);
        assert!(report.all_charged());
        // The counting bound: sum of |S*| over endpoints alone is already
        // >= number of triples.
        assert!(report.star_total_at_endpoints >= report.triples);
    }
    let p = GadgetParams::new(1, 2).unwrap();
    let h = HGraph::build(p);
    let g = GGraph::from_hgraph(&h);
    let labeling = PrunedLandmarkLabeling::by_degree(g.graph()).into_labeling();
    assert!(audit_g(&h, &g, &labeling).all_charged());
}

/// Lemma 2.2 in full, plus the `dist_G = dist_H` bridge.
#[test]
fn lemma22_and_distance_bridge() {
    for (b, ell) in [(1u32, 1u32), (2, 1), (1, 2), (2, 2)] {
        let h = HGraph::build(GadgetParams::new(b, ell).unwrap());
        assert!(check_all_pairs(&h).is_empty(), "H({b},{ell})");
    }
    let h = HGraph::build(GadgetParams::new(2, 1).unwrap());
    let g = GGraph::from_hgraph(&h);
    assert_eq!(check_g_matches_h(&h, &g), Ok(()));
}

/// Theorem 1.1 shape: average hub size on the gadget family grows linearly
/// with the layer size `s^ℓ` (up to the 2^{-ℓ} factor), in stark contrast
/// to trees of comparable size.
#[test]
fn theorem11_hub_growth_shape() {
    let mut gadget_avgs = Vec::new();
    for (b, ell) in [(2u32, 2u32), (3, 2)] {
        let p = GadgetParams::new(b, ell).unwrap();
        let h = HGraph::build(p);
        let hl = PrunedLandmarkLabeling::by_degree(h.graph()).into_labeling();
        assert!(hl.average_hubs() >= p.h_avg_hub_lower_bound());
        gadget_avgs.push((p.level_size(), hl.average_hubs()));
    }
    // Quadrupling the layer size (s 4 -> 8 at ℓ=2) should multiply the
    // average hub size by well over 2.
    assert!(gadget_avgs[1].1 > 2.0 * gadget_avgs[0].1, "{gadget_avgs:?}");
    // Contrast: a tree of the same size as H(3,2) has tiny labels.
    let tree = hub_labeling::graph::generators::random_tree(320, 1);
    let tree_hl = PrunedLandmarkLabeling::by_betweenness(&tree, 32, 2)
        .expect("betweenness order")
        .into_labeling();
    assert!(tree_hl.average_hubs() * 4.0 < gadget_avgs[1].1);
}

/// Theorem 1.4: the RS-based construction is exact and its monotone
/// closure accounting stays consistent on bounded-degree sparse graphs.
#[test]
fn theorem14_rs_construction_on_bounded_degree() {
    let g = hub_labeling::graph::generators::union_of_matchings(80, 3, 17);
    let (hl, bd) = rs_labeling(
        &g,
        RsParams {
            threshold: 3,
            seed: 6,
        },
    )
    .unwrap();
    assert!(hub_labeling::core::cover::verify_exact(&g, &hl)
        .unwrap()
        .is_exact());
    assert!(bd.global_hubs > 0);
    let mc = MonotoneClosure::compute(&g, &hl);
    assert!(mc.total_size() >= hl.num_entries());
}

/// Observation 3.1: midpoint presence decodes from one distance, under
/// arbitrary removal patterns.
#[test]
fn observation31_decoding() {
    let h = HGraph::build(GadgetParams::new(2, 2).unwrap());
    let params = h.params();
    type KeepFn<'a> = &'a dyn Fn(&[u64]) -> bool;
    let patterns: [KeepFn; 3] = [
        &|y: &[u64]| y[0].is_multiple_of(2),
        &|y: &[u64]| y[0] + y[1] != 3,
        &|_: &[u64]| true,
    ];
    for keep in patterns {
        let pruned = RemovedMiddle::build(&h, keep);
        for (x, z, mid) in h.even_pairs() {
            let d = hub_labeling::graph::dijkstra::dijkstra_distance_between(
                pruned.graph(),
                h.node_id(0, &x),
                h.node_id(4, &z),
            );
            assert_eq!(decode_midpoint_presence(&params, &x, &z, d), keep(&mid));
        }
    }
}

/// Theorem 1.6 end to end: the labeling-based protocol is correct on every
/// input pair of several instances, and both protocols agree.
#[test]
fn theorem16_protocol_correct() {
    let params = GadgetParams::new(2, 2).unwrap();
    let m = Repr::new(params).modulus() as usize;
    for seed in [0u64, 1, 2] {
        let instance = SumIndexInstance::random(m, seed);
        let protocol = GraphProtocol::on_h_prime(params, &instance, &HubPllScheme).unwrap();
        for a in 0..m {
            for b in 0..m {
                let graph_answer = protocol.run(a as u64, b as u64);
                let naive_answer = naive::referee(
                    m,
                    &naive::alice_message(&instance, a),
                    &naive::bob_message(&instance, b),
                );
                assert_eq!(graph_answer, instance.answer(a, b));
                assert_eq!(naive_answer, instance.answer(a, b));
            }
        }
    }
}

/// The triples of the counting argument are injective in both coordinates
/// (the uniqueness that makes each charge distinct).
#[test]
fn triples_injectivity() {
    let h = HGraph::build(GadgetParams::new(2, 2).unwrap());
    let ts = h_triples(&h);
    let by_sm: std::collections::HashSet<_> = ts.iter().map(|&(u, m, _)| (u, m)).collect();
    let by_mz: std::collections::HashSet<_> = ts.iter().map(|&(_, m, z)| (m, z)).collect();
    assert_eq!(by_sm.len(), ts.len());
    assert_eq!(by_mz.len(), ts.len());
}

/// Capstone: the paper's upper bound meets its lower bound. The
/// Theorem 4.1 construction runs on the Theorem 2.1 gadget `G_{b,ℓ}`
/// (unweighted, max degree 3 — exactly Theorem 4.1's setting), stays
/// exact, and the Theorem 2.1 counting audit charges every triple against
/// it — the two halves of the paper verifying each other.
#[test]
fn theorem41_construction_on_theorem21_gadget() {
    let p = GadgetParams::new(1, 2).unwrap();
    let h = HGraph::build(p);
    let g = GGraph::from_hgraph(&h);
    assert_eq!(g.graph().max_degree(), 3);
    let (labeling, breakdown) = rs_labeling(
        g.graph(),
        RsParams {
            threshold: 3,
            seed: 12,
        },
    )
    .unwrap();
    assert!(
        hub_labeling::core::cover::verify_exact(g.graph(), &labeling)
            .unwrap()
            .is_exact()
    );
    assert!(breakdown.global_hubs > 0);
    let report = audit_g(&h, &g, &labeling);
    assert!(report.all_charged(), "{report:?}");
    // The gadget forces the counting bound on this labeling too.
    assert!(report.star_total_at_endpoints >= report.star_lower_bound);
}
