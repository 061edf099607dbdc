//! Failure injection: every verifier in the workspace must *catch* the
//! corruption we inject, not just pass on good data. A verifier that never
//! fails is worthless.

use hub_labeling::graph::rng::Xorshift64;

use hub_labeling::core::cover::{verify_exact, verify_hub_distances};
use hub_labeling::core::pll::PrunedLandmarkLabeling;
use hub_labeling::core::FlatLabeling;
use hub_labeling::graph::{generators, NodeId};
use hub_labeling::lowerbound::accounting::audit_h;
use hub_labeling::lowerbound::{GadgetParams, HGraph};
use hub_labeling::rs::induced::{is_induced_matching, is_induced_matching_partition};
use hub_labeling::rs::RsGraph;

/// The labeling as one owned pair list per vertex — the form the
/// injections below edit before rebuilding the arena.
fn pair_lists(labeling: &FlatLabeling) -> Vec<Vec<(NodeId, u64)>> {
    (0..labeling.num_nodes() as NodeId)
        .map(|v| labeling.pairs_of(v).collect())
        .collect()
}

/// Returns a copy of `labeling` with one hub distance perturbed.
fn corrupt_distance(labeling: &FlatLabeling, seed: u64) -> (FlatLabeling, NodeId) {
    let mut rng = Xorshift64::seed_from_u64(seed);
    let mut labels = pair_lists(labeling);
    loop {
        let v = rng.gen_index(labels.len());
        if labels[v].is_empty() {
            continue;
        }
        let k = rng.gen_index(labels[v].len());
        labels[v][k].1 += 1 + rng.gen_u64_below(5);
        return (FlatLabeling::from_pair_lists(labels).unwrap(), v as NodeId);
    }
}

/// Returns a copy with one entire label emptied.
fn drop_label(labeling: &FlatLabeling, victim: NodeId) -> FlatLabeling {
    let mut labels = pair_lists(labeling);
    labels[victim as usize].clear();
    FlatLabeling::from_pair_lists(labels).unwrap()
}

#[test]
fn verifier_catches_perturbed_distances() {
    let g = generators::connected_gnm(50, 25, 7);
    let good = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
    assert!(verify_exact(&g, &good).unwrap().is_exact());
    for seed in 0..8 {
        let (bad, v) = corrupt_distance(&good, seed);
        let hub_check = verify_hub_distances(&g, &bad, &[v]);
        let cover_check = verify_exact(&g, &bad).unwrap();
        assert!(
            !hub_check || !cover_check.is_exact(),
            "seed {seed}: corruption at vertex {v} went undetected"
        );
    }
}

#[test]
fn verifier_catches_dropped_labels() {
    let g = generators::grid(6, 6);
    let good = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
    for victim in [0u32, 17, 35] {
        let bad = drop_label(&good, victim);
        let report = verify_exact(&g, &bad).unwrap();
        assert!(
            !report.is_exact(),
            "dropping label {victim} must break the cover"
        );
        // Every violation involves the victim.
        assert!(report
            .violations
            .iter()
            .all(|&(u, v, _, _)| u == victim || v == victim));
    }
}

#[test]
fn audit_catches_uncovering_of_midpoints() {
    // Strip all middle-layer hubs from the labeling of H(2,1): the triple
    // audit must notice at least one uncharged triple.
    let p = GadgetParams::new(2, 1).unwrap();
    let h = HGraph::build(p);
    let good = PrunedLandmarkLabeling::by_degree(h.graph()).into_labeling();
    assert!(audit_h(&h, &good).all_charged());
    let level_size = p.level_size();
    let mut labels = pair_lists(&good);
    for pairs in &mut labels {
        // strip level-ℓ hubs (ℓ = 1)
        pairs.retain(|&(hub, _)| hub as u64 / level_size != 1);
    }
    let stripped = FlatLabeling::from_pair_lists(labels).unwrap();
    let report = audit_h(&h, &stripped);
    assert!(
        !report.all_charged(),
        "removing all middle hubs must leave triples uncharged: {report:?}"
    );
}

#[test]
fn induced_checker_catches_planted_cross_edges() {
    // Take a valid RS graph and plant a cross edge inside one matching:
    // the partition check must fail.
    let rs = RsGraph::behrend(150);
    assert!(is_induced_matching_partition(rs.graph(), rs.matchings()));
    let m0 = &rs.matchings()[0];
    if m0.len() >= 2 {
        let mut builder = hub_labeling::graph::GraphBuilder::new(rs.graph().num_nodes());
        for (u, v, w) in rs.graph().edges() {
            builder.add_edge(u, v, w).unwrap();
        }
        // Cross edge between the first two matching edges.
        builder.add_edge(m0[0].0, m0[1].1, 1).unwrap();
        let sabotaged = builder.build();
        assert!(
            !is_induced_matching(&sabotaged, m0),
            "planted cross edge must break inducedness"
        );
    }
}

#[test]
fn graph_io_rejects_truncation() {
    let g = generators::connected_gnm(20, 10, 1);
    let text = hub_labeling::graph::io::to_string(&g);
    // Drop the last line: edge count mismatch must be detected.
    let truncated: String = {
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        lines.join("\n")
    };
    assert!(hub_labeling::graph::io::from_str(&truncated).is_err());
}

#[test]
fn protocol_referee_detects_wrong_word_on_one_side() {
    // If Alice and Bob disagree on S (protocol violation), answers break
    // for at least one input pair — the setup is genuinely word-dependent.
    use hub_labeling::sumindex::protocol::GraphProtocol;
    use hub_labeling::sumindex::repr::Repr;
    use hub_labeling::sumindex::SumIndexInstance;
    // ℓ = 3 so the word actually shapes Bob-side distances; at ℓ = 2 the
    // gadget is too shallow for a swapped Bob label to corrupt anything.
    let params = GadgetParams::new(2, 3).unwrap();
    let m = Repr::new(params).modulus() as usize;
    // Complementary words: every bit differs, so the two worlds disagree
    // regardless of which positions a random draw would have flipped.
    let word_a = SumIndexInstance::new(vec![false; m]);
    let word_b = SumIndexInstance::new(vec![true; m]);
    assert_ne!(word_a, word_b);
    let proto_a = GraphProtocol::new(params, &word_a).unwrap();
    let proto_b = GraphProtocol::new(params, &word_b).unwrap();
    let mut mismatch = false;
    for a in 0..m as u64 {
        for b in 0..m as u64 {
            // Alice from world A, Bob from world B.
            let answer = proto_a.referee(&proto_a.alice_message(a), &proto_b.bob_message(b));
            mismatch |= answer != word_a.answer(a as usize, b as usize);
        }
    }
    assert!(mismatch, "cross-world messages should corrupt some answer");
}
