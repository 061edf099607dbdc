//! Large-instance stress tests, `#[ignore]`d by default. Run with
//! `cargo test --release -- --ignored` (several minutes total).

use hub_labeling::core::cover::{verify_from_sources, verify_hub_distances};
use hub_labeling::core::pll::PrunedLandmarkLabeling;
use hub_labeling::graph::{generators, NodeId};
use hub_labeling::lowerbound::sampling::{audit_sampled, check_sampled_pairs};
use hub_labeling::lowerbound::{GadgetParams, HGraph};
use hub_labeling::oracles::ContractionHierarchy;

#[test]
fn pll_on_sparse_graph_smoke() {
    // Non-ignored miniature of `pll_on_ten_thousand_vertex_sparse_graph`
    // so CI exercises the build-verify pipeline on every run; the full
    // 10k-vertex version stays behind `--ignored`.
    let g = generators::connected_gnm(1_200, 600, 42);
    let labeling = PrunedLandmarkLabeling::by_betweenness(&g, 16, 1)
        .expect("betweenness order")
        .into_labeling();
    let sources: Vec<NodeId> = (0..1_200).step_by(101).map(|v| v as NodeId).collect();
    let report = verify_from_sources(&g, &labeling, &sources);
    assert!(report.is_exact(), "{:?}", report.violations.first());
    assert!(verify_hub_distances(&g, &labeling, &sources));
}

#[test]
#[ignore = "stress: ~1 minute in release"]
fn pll_on_ten_thousand_vertex_sparse_graph() {
    let g = generators::connected_gnm(10_000, 5_000, 42);
    let labeling = PrunedLandmarkLabeling::by_betweenness(&g, 32, 1)
        .expect("betweenness order")
        .into_labeling();
    let sources: Vec<NodeId> = (0..10_000).step_by(211).map(|v| v as NodeId).collect();
    let report = verify_from_sources(&g, &labeling, &sources);
    assert!(report.is_exact(), "{:?}", report.violations.first());
    assert!(verify_hub_distances(&g, &labeling, &sources));
}

#[test]
#[ignore = "stress: large gadget, sampled verification"]
fn gadget_h33_full_pipeline() {
    let p = GadgetParams::new(3, 3).unwrap();
    let h = HGraph::build(p);
    assert_eq!(h.graph().num_nodes() as u64, p.h_num_nodes());
    assert!(check_sampled_pairs(&h, 256, 7).is_empty());
    let labeling = PrunedLandmarkLabeling::by_degree(h.graph()).into_labeling();
    let report = audit_sampled(&h, &labeling, 128, 8);
    assert!(report.all_charged());
    assert!(labeling.average_hubs() >= p.h_avg_hub_lower_bound());
    // The near-linear ratio persists at this scale.
    let ratio = labeling.average_hubs() / h.graph().num_nodes() as f64;
    assert!(ratio > 0.15, "ratio {ratio}");
}

#[test]
#[ignore = "stress: CH on a 10k-vertex weighted grid"]
fn contraction_hierarchy_scales() {
    let g = generators::weighted_grid(100, 100, 5);
    let ch = ContractionHierarchy::build(&g);
    let truth = hub_labeling::graph::dijkstra::dijkstra_distances(&g, 0);
    for t in (0..10_000u32).step_by(509) {
        assert_eq!(ch.query(0, t), truth[t as usize]);
    }
}

#[test]
#[ignore = "stress: G'(4,2) protocol, ~6M-vertex degree-3 graph"]
fn gprime_protocol_at_b4() {
    use hub_labeling::sumindex::protocol::GraphProtocol;
    use hub_labeling::sumindex::repr::Repr;
    use hub_labeling::sumindex::SumIndexInstance;
    let params = GadgetParams::new(4, 2).unwrap();
    let m = Repr::new(params).modulus() as usize;
    let instance = SumIndexInstance::random(m, 3);
    let protocol = GraphProtocol::on_g_prime(params, &instance).unwrap();
    assert!(protocol.max_degree() <= 3);
    // Sampled input sweep (full m² = 4096 pairs also fine, but keep it short).
    for a in 0..m as u64 {
        let b = (a * 13 + 5) % m as u64;
        assert_eq!(protocol.run(a, b), instance.answer(a as usize, b as usize));
    }
}
