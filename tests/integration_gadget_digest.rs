//! The weighted build path's output, byte for byte. The paper's gadget
//! `H_{2,4}` (Dijkstra waves, 1,046,720 entries), as `experiments gadget
//! h:2,4` prints it and `hubserve build` reads, builds and saves it, must
//! be one store at one thread and at two, and that store's sha256 the one
//! pinned here. A change meant to move these labels updates the digest
//! and says why.

use std::process::Command;

use hub_labeling::build::{build_with_strategy, BuildConfig};
use hub_labeling::core::order::DegreeOrder;
use hub_labeling::graph::io::{read_edge_list, write_edge_list};
use hub_labeling::lowerbound::{GadgetParams, HGraph};
use hub_labeling::server::FlatStore;

const H24_SHA256: &str = "ef6e1477a5ae3d647f3473cfe48ee09cfec87aff2cd209c1a09cbdb69a774129";

#[test]
fn the_h24_store_is_one_pinned_file_at_one_and_two_threads() {
    let h = HGraph::build(GadgetParams::new(2, 4).expect("h:2,4 is feasible"));
    let mut edge_list = Vec::new();
    write_edge_list(h.graph(), &mut edge_list).unwrap();
    let g = read_edge_list(edge_list.as_slice()).unwrap();
    let [one, two] = [1, 2].map(|threads| {
        let built = build_with_strategy(&g, &DegreeOrder, BuildConfig::with_threads(threads));
        let labeling = built.expect("h:2,4 builds").labeling;
        let path =
            std::env::temp_dir().join(format!("hl-h24-{}-t{threads}.hlbs", std::process::id()));
        FlatStore::from_flat(labeling).save(&path).unwrap();
        path
    });
    assert!(
        std::fs::read(&one).unwrap() == std::fs::read(&two).unwrap(),
        "the h:2,4 store differs between 1 and 2 threads"
    );
    // std has no sha256; the digest is sha256sum's, as a shell prints it.
    let out = Command::new("sha256sum")
        .arg(&one)
        .output()
        .expect("sha256sum");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let digest = stdout.split_whitespace().next().unwrap_or_default();
    assert_eq!(digest, H24_SHA256, "the h:2,4 store's sha256");
    for path in [one, two] {
        let _ = std::fs::remove_file(path);
    }
}
