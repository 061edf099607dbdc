//! The paper's accounting run on what a daemon serves: the lower-bound
//! gadgets go through the parallel builder, a v2 store file, the mount
//! path and the wire, and Theorem 2.1(iii)'s triple audit reads the labels
//! a client fetched — not the ones the builder held.

use std::sync::Arc;

use hub_labeling::build::{build_with_strategy, BuildConfig};
use hub_labeling::core::cover::verify_exact;
use hub_labeling::core::order::DegreeOrder;
use hub_labeling::core::FlatLabeling;
use hub_labeling::graph::{Graph, NodeId};
use hub_labeling::lowerbound::accounting::{audit_g, audit_h, AccountingReport};
use hub_labeling::lowerbound::{GGraph, GadgetParams, HGraph};
use hub_labeling::net::{ClientConfig, MuxClient, NetServer, ServerConfig};
use hub_labeling::server::{AnyStore, FlatStore, QueryEngine};

/// Builds `graph` with two threads, saves it as a v2 store, mounts the
/// file, serves it on a loopback port and returns the arena as built next
/// to the one reassembled from `LabelBatch` responses.
fn built_and_fetched(name: &str, graph: &Graph) -> (FlatLabeling, FlatLabeling) {
    let built = build_with_strategy(graph, &DegreeOrder, BuildConfig::with_threads(2))
        .expect("parallel build")
        .labeling;
    let mut path = std::env::temp_dir();
    path.push(format!(
        "hl-served-audit-{}-{name}.hlbs",
        std::process::id()
    ));
    FlatStore::from_flat(built.clone())
        .save(&path)
        .expect("save");
    let mounted = AnyStore::open(&path).expect("mount");
    std::fs::remove_file(&path).expect("remove store");
    assert_eq!((mounted.version(), mounted.flavor()), (2, "v2"));

    let served = mounted.into_flat().expect("served arena");
    let engine = Arc::new(QueryEngine::new(served, 1).expect("engine"));
    let config = ServerConfig {
        allow_remote_reload: false,
        ..ServerConfig::default()
    };
    let server = NetServer::bind(engine, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.serve().expect("serve"));

    let client = MuxClient::connect(addr, ClientConfig::default()).expect("connect");
    assert_eq!(client.num_nodes(), graph.num_nodes() as u64);
    let vertices: Vec<NodeId> = (0..graph.num_nodes() as NodeId).collect();
    let mut lists = Vec::with_capacity(vertices.len());
    for chunk in vertices.chunks(128) {
        lists.extend(client.label_batch(chunk).expect("label batch"));
    }
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
    (built, FlatLabeling::from_pair_lists(lists).unwrap())
}

fn assert_audited(name: &str, graph: &Graph, fetched: &FlatLabeling, report: AccountingReport) {
    assert!(report.triples > 0, "{name}: no triples audited");
    assert_eq!(
        report.charged, report.triples,
        "{name}: a midpoint triple went uncharged on the fetched labels: {report:?}"
    );
    assert!(report.bound_met(), "{name}: {report:?}");
    assert_eq!(report.total_hubs, fetched.num_entries());
    let cover = verify_exact(graph, fetched).expect("ground truth");
    assert!(cover.is_exact(), "{name}: {:?}", cover.violations);
}

#[test]
fn theorem_21_audit_holds_on_labels_fetched_from_a_daemon() {
    // H(3,2): weighted, 320 vertices, 64·16 = 1024 midpoint triples.
    let h = HGraph::build(GadgetParams::new(3, 2).expect("params"));
    assert_eq!(h.graph().num_nodes(), 320);
    assert!(!h.graph().is_unit_weighted());
    let (built, fetched) = built_and_fetched("h32", h.graph());
    assert_audited("H(3,2)", h.graph(), &fetched, audit_h(&h, &fetched));
    assert_eq!(
        fetched, built,
        "H(3,2): fetched arena differs from the built one"
    );

    // G(1,2): the degree-3 expansion, 740 vertices, triples mapped to cores.
    let h = HGraph::build(GadgetParams::new(1, 2).expect("params"));
    let g = GGraph::from_hgraph(&h);
    assert_eq!(g.graph().num_nodes(), 740);
    assert!(g.graph().max_degree() <= 3);
    let (built, fetched) = built_and_fetched("g12", g.graph());
    assert_audited("G(1,2)", g.graph(), &fetched, audit_g(&h, &g, &fetched));
    assert_eq!(
        fetched, built,
        "G(1,2): fetched arena differs from the built one"
    );
}
