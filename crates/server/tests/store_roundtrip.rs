//! v1 store round-trips across graph families, and corruption safety on
//! disk, through the mount path every product caller takes
//! ([`AnyStore::parse`]/[`AnyStore::open`]): a damaged store file must
//! produce a typed error, never a wrong distance.

use hl_core::pll::PrunedLandmarkLabeling;
use hl_core::FlatLabeling;
use hl_graph::dijkstra::dijkstra_distances;
use hl_graph::rng::Xorshift64;
use hl_graph::{generators, Graph, NodeId};
use hl_lowerbound::{GadgetParams, HGraph};
use hl_server::{AnyStore, LabelStore, StoreError};

/// Degree-order PLL labels of `g` and their serialized v1 image.
fn encoded(g: &Graph) -> (FlatLabeling, Vec<u8>) {
    let hl = PrunedLandmarkLabeling::by_degree(g).into_labeling();
    let mut buf = Vec::new();
    LabelStore::from_flat(&hl).write_to(&mut buf).unwrap();
    (hl, buf)
}

/// Asserts the mounted image answers every pair exactly like Dijkstra.
fn assert_serves_ground_truth(name: &str, g: &Graph, buf: &[u8]) {
    let back = AnyStore::parse(buf).unwrap();
    let n = g.num_nodes() as NodeId;
    for u in 0..n {
        let truth = dijkstra_distances(g, u);
        for v in 0..n {
            assert_eq!(
                back.served().query(u, v),
                truth[v as usize],
                "{name}: d({u},{v}) from store disagrees with Dijkstra"
            );
        }
    }
}

fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("grid-7x8", generators::grid(7, 8)),
        ("tree-60", generators::random_tree(60, 11)),
        ("gnm-50", generators::connected_gnm(50, 40, 7)),
        (
            "hgraph-2-3",
            HGraph::build(GadgetParams::new(2, 3).unwrap())
                .graph()
                .clone(),
        ),
    ]
}

#[test]
fn roundtrip_reproduces_labeling_exactly() {
    for (name, g) in families() {
        let (hl, buf) = encoded(&g);
        let decoded = AnyStore::parse(&buf).unwrap().into_flat().unwrap();
        assert_eq!(decoded, hl, "{name}: decode(encode(labeling)) != labeling");
    }
}

#[test]
fn served_distances_match_ground_truth() {
    // Dijkstra is the ground truth: it agrees with BFS on unit weights and
    // stays correct on the weighted H_{b,l} gadget.
    for (name, g) in families() {
        assert_serves_ground_truth(name, &g, &encoded(&g).1);
    }
}

#[test]
fn file_roundtrip_via_disk() {
    let g = generators::grid(6, 6);
    let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
    let store = LabelStore::from_flat(&hl);
    let mut path = std::env::temp_dir();
    path.push(format!("hl-store-test-{}.hlbs", std::process::id()));
    store.save(&path).unwrap();
    let back = AnyStore::open(&path).unwrap();
    assert_eq!(back.version(), 1);
    assert_eq!(back.file_len(), store.file_len() as u64);
    assert_eq!(back.section_bytes(), store.section_bytes());
    assert_eq!(back.label_bits(), store.total_bits());
    assert_eq!(back.into_flat().unwrap(), hl);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn every_truncation_errors_never_misanswers() {
    let (_, buf) = encoded(&generators::random_tree(40, 3));
    // Every proper prefix must fail to parse: a reader can never be handed
    // a truncated file and serve from it.
    for cut in 0..buf.len() {
        assert!(
            AnyStore::parse(&buf[..cut]).is_err(),
            "prefix of {cut}/{} bytes parsed successfully",
            buf.len()
        );
    }
}

#[test]
fn random_single_byte_corruption_is_caught() {
    let (flat, clean) = encoded(&generators::grid(5, 5));

    let mut rng = Xorshift64::seed_from_u64(0xC0FFEE);
    for _ in 0..200 {
        let mut buf = clean.clone();
        let at = rng.gen_index(buf.len());
        let bit = 1u8 << rng.gen_index(8);
        buf[at] ^= bit;
        match AnyStore::parse(&buf) {
            Err(_) => {} // typed error: the corruption was caught
            Ok(back) => {
                // Flips confined to the checksum-covered body are always
                // caught; a flip inside the stored *checksum field* itself
                // can only make the check fail, never pass a corrupt body.
                // So a successful parse means the flip landed somewhere
                // that must still decode to the identical labeling.
                assert_eq!(
                    back.into_flat().unwrap(),
                    flat,
                    "corrupt store at byte {at} (bit {bit:#04x}) parsed AND decoded differently"
                );
            }
        }
    }
}

#[test]
fn corrupt_offset_table_is_typed_not_panic() {
    let (_, mut buf) = encoded(&generators::grid(4, 4));
    // Body starts at 32: scramble the first offset entry and re-stamp the
    // checksum so corruption must be caught by structural validation.
    buf[32] = 0xFF;
    let body_checksum = hl_server::store::fnv1a64(&buf[32..]);
    buf[24..32].copy_from_slice(&body_checksum.to_le_bytes());
    assert!(matches!(AnyStore::parse(&buf), Err(StoreError::Corrupt(_))));
}

#[test]
fn weighted_graph_distances_survive_roundtrip() {
    let g = generators::weighted_grid(6, 5, 19);
    assert_serves_ground_truth("weighted-grid-6x5", &g, &encoded(&g).1);
}
