//! Cross-crate integration tests: each test exercises a full pipeline the
//! way a downstream user would (graph → construction → encoding → query →
//! verification).

use hub_labeling::core::cover::{verify_exact, verify_from_sources};
use hub_labeling::core::pll::PrunedLandmarkLabeling;
use hub_labeling::core::random_threshold::{random_threshold_labeling, RandomThresholdParams};
use hub_labeling::core::rs_based::{project_labeling, rs_labeling, RsParams};
use hub_labeling::core::tree::centroid_labeling;
use hub_labeling::graph::transform::{reduce_degree, subdivide_weights};
use hub_labeling::graph::{generators, NodeId};
use hub_labeling::labeling::full_vector::FullVectorScheme;
use hub_labeling::labeling::hub_scheme::{
    decode_distance, encode_labeling, HubPllScheme, PrecomputedHubScheme,
};
use hub_labeling::labeling::scheme::verify_scheme;
use hub_labeling::labeling::tree_scheme::TreeScheme;
use hub_labeling::labeling::DistanceLabelingScheme;

#[test]
fn all_constructions_agree_on_all_queries() {
    // Four independent exact constructions must answer identically.
    let g = generators::connected_gnm(60, 35, 99);
    let pll = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
    let (rt, _) = random_threshold_labeling(&g, RandomThresholdParams::for_size(60, 4)).unwrap();
    let (rs, _) = rs_labeling(
        &g,
        RsParams {
            threshold: 3,
            seed: 4,
        },
    )
    .unwrap();
    let greedy = hub_labeling::core::greedy::greedy_cover(&g).unwrap();
    for u in 0..60u32 {
        for v in 0..60u32 {
            let d = pll.query(u, v);
            assert_eq!(rt.query(u, v), d);
            assert_eq!(rs.query(u, v), d);
            assert_eq!(greedy.query(u, v), d);
        }
    }
}

#[test]
fn bit_encoding_roundtrips_every_construction() {
    let g = generators::grid(7, 7);
    for labeling in [
        PrunedLandmarkLabeling::by_degree(&g).into_labeling(),
        rs_labeling(
            &g,
            RsParams {
                threshold: 3,
                seed: 1,
            },
        )
        .unwrap()
        .0,
    ] {
        let encoded = encode_labeling(&labeling);
        for u in 0..49u32 {
            for v in 0..49u32 {
                assert_eq!(
                    decode_distance(&encoded[u as usize], &encoded[v as usize]),
                    labeling.query(u, v)
                );
            }
        }
    }
}

#[test]
fn schemes_all_exact_on_a_tree() {
    let g = generators::random_tree(64, 31);
    assert_eq!(verify_scheme(&HubPllScheme, &g).unwrap(), 0);
    assert_eq!(verify_scheme(&TreeScheme, &g).unwrap(), 0);
    assert_eq!(verify_scheme(&FullVectorScheme, &g).unwrap(), 0);
    let centroid = centroid_labeling(&g).unwrap();
    assert_eq!(
        verify_scheme(&PrecomputedHubScheme::new(centroid), &g).unwrap(),
        0
    );
}

#[test]
fn tree_scheme_much_smaller_than_full_vector() {
    let g = generators::random_tree(256, 8);
    let tree_bits: usize = TreeScheme
        .encode(&g)
        .unwrap()
        .iter()
        .map(|l| l.num_bits())
        .sum();
    let full_bits: usize = FullVectorScheme
        .encode(&g)
        .unwrap()
        .iter()
        .map(|l| l.num_bits())
        .sum();
    assert!(
        tree_bits * 4 < full_bits,
        "centroid labels ({tree_bits}) should be far below full vectors ({full_bits})"
    );
}

#[test]
fn theorem_14_pipeline_on_weighted_input() {
    // Weighted sparse graph: subdivide to unit weights, degree-reduce, run
    // the Theorem 4.1 construction, project back — and stay exact.
    let g = generators::weighted_grid(6, 6, 5);
    let sub = subdivide_weights(&g).unwrap();
    let red = reduce_degree(&sub.graph, 3).unwrap();
    let (hl_red, _) = rs_labeling(
        &red.graph,
        RsParams {
            threshold: 3,
            seed: 2,
        },
    )
    .unwrap();
    assert!(verify_exact(&red.graph, &hl_red).unwrap().is_exact());
    // Project to the subdivided graph's original vertices.
    let hl_sub = project_labeling(&hl_red, &red.representative, &red.origin).unwrap();
    // Distances on original vertex ids of the subdivision = weighted dists.
    let truth = hub_labeling::graph::apsp::DistanceMatrix::compute(&g).unwrap();
    for u in 0..g.num_nodes() as NodeId {
        for v in 0..g.num_nodes() as NodeId {
            assert_eq!(hl_sub.query(u, v), truth.distance(u, v), "pair {u},{v}");
        }
    }
}

#[test]
fn sampled_verification_scales_to_larger_instances() {
    let g = generators::connected_gnm(1_500, 800, 12);
    let labeling = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
    let sources: Vec<NodeId> = (0..1_500).step_by(97).map(|v| v as NodeId).collect();
    let report = verify_from_sources(&g, &labeling, &sources);
    assert!(report.is_exact());
    assert!(report.pairs_checked >= 15 * 1_500);
}

#[test]
fn rs_graph_feeds_induced_partition_checker() {
    // The RS crate's graphs satisfy the hl-rs induced checker AND the
    // greedy partitioner never needs more matchings than the explicit one.
    let rs = hub_labeling::rs::RsGraph::behrend(250);
    assert!(hub_labeling::rs::induced::is_induced_matching_partition(
        rs.graph(),
        rs.matchings()
    ));
    let greedy = hub_labeling::rs::induced::greedy_induced_partition(rs.graph());
    assert!(!greedy.is_empty());
    assert!(hub_labeling::rs::induced::is_induced_matching_partition(
        rs.graph(),
        &greedy
    ));
}
