//! The shard tier on the paper's own family. `H_{b,ℓ}`'s labels average
//! about 0.2 n entries, so they are the labels a frame cap meets first:
//! the router must route h:4,2 exactly under a 64 KiB cap, turn one label
//! past a 4 KiB cap into a typed error that costs no connection, and keep
//! reading a live shard while another never answers.

use std::io::{copy, sink};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hl_shard::{partition, shard_of, ShardError, ShardRouter};
use hub_labeling::core::pll::PrunedLandmarkLabeling;
use hub_labeling::core::FlatLabeling;
use hub_labeling::graph::dijkstra::shortest_path_distances;
use hub_labeling::graph::rng::Xorshift64;
use hub_labeling::graph::{Distance, Graph, NodeId};
use hub_labeling::lowerbound::{GadgetParams, HGraph};
use hub_labeling::net::wire::{read_frame, write_frame, ServerHello};
use hub_labeling::net::{
    ClientConfig, ErrorCode, NetError, NetServer, ServerConfig, StopHandle, PROTOCOL_V2,
};
use hub_labeling::server::QueryEngine;

/// `H_{b,ℓ}` and its PLL labeling by degree. h:4,2 has 1,280 vertices
/// and up to 529 hubs a label; h:2,4 has 2,304 and up to 1,109.
fn gadget(b: u32, ell: u32) -> (Graph, FlatLabeling) {
    let h = HGraph::build(GadgetParams::new(b, ell).expect("params"));
    let g = h.graph().clone();
    let labeling = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
    (g, labeling)
}

/// The bytes a daemon frames to answer `Label { v }` under protocol v2:
/// the id, the opcode, the count and 12 bytes per entry.
fn label_frame_len(labeling: &FlatLabeling, v: NodeId) -> usize {
    8 + 1 + 4 + 12 * labeling.hubs_of(v).len()
}

/// One in-process daemon per shard labeling, in shard order.
struct Fleet {
    addrs: Vec<String>,
    stops: Vec<StopHandle>,
    threads: Vec<JoinHandle<()>>,
}

impl Fleet {
    fn launch(shards: Vec<FlatLabeling>, tweak: impl Fn(&mut ServerConfig)) -> Fleet {
        let mut fleet = Fleet {
            addrs: Vec::new(),
            stops: Vec::new(),
            threads: Vec::new(),
        };
        for labeling in shards {
            let engine = Arc::new(QueryEngine::new(labeling, 1).expect("engine"));
            let mut config = ServerConfig {
                allow_remote_shutdown: false,
                allow_remote_reload: false,
                ..ServerConfig::default()
            };
            tweak(&mut config);
            let server = NetServer::bind(engine, "127.0.0.1:0", config).expect("bind");
            fleet.addrs.push(server.local_addr().to_string());
            fleet.stops.push(server.stop_handle());
            fleet
                .threads
                .push(thread::spawn(move || server.serve().expect("serve")));
        }
        fleet
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stops.iter().for_each(StopHandle::stop);
        for t in self.threads.drain(..) {
            t.join().expect("daemon thread");
        }
    }
}

fn capped(max_frame_len: u32) -> ClientConfig {
    ClientConfig {
        max_frame_len,
        ..ClientConfig::default()
    }
}

/// Seeded pairs from 40 sources, about half of them cross-shard, checked
/// against Dijkstra (the gadget is weighted).
#[test]
fn the_papers_gadget_routes_exactly_under_a_64_kib_frame_cap() {
    let (g, labeling) = gadget(4, 2);
    assert_eq!(g.num_nodes(), 1280);
    let cap = 64 << 10;
    let fleet = Fleet::launch(partition(&labeling, 2).expect("partition"), |c| {
        c.max_frame_len = cap
    });
    let mut router = ShardRouter::connect(&fleet.addrs, &capped(cap)).expect("connect");

    let n = g.num_nodes() as u64;
    let mut rng = Xorshift64::seed_from_u64(41);
    let (mut pairs, mut truth) = (Vec::new(), Vec::new());
    for _ in 0..40 {
        let u = rng.gen_u64_below(n) as NodeId;
        let dist = shortest_path_distances(&g, u);
        for _ in 0..25 {
            let v = rng.gen_u64_below(n) as NodeId;
            pairs.push((u, v));
            truth.push(dist[v as usize]);
        }
    }
    let cross = pairs
        .iter()
        .filter(|&&(u, v)| shard_of(u, 2) != shard_of(v, 2))
        .count();
    assert!(cross > 300 && cross < 700, "{cross} of 1000 cross-shard");
    assert_eq!(router.query_many(&pairs).expect("routed batch"), truth);
    for (&(u, v), &d) in pairs.iter().zip(&truth).step_by(50) {
        assert_eq!(router.query(u, v).expect("routed pair"), d, "({u}, {v})");
    }
    assert_eq!(router.in_flight(), vec![0, 0]);
}

/// One label past a 4 KiB cap is the daemon's typed refusal for that
/// request, on both paths, with nothing left in flight; the connections
/// serve on.
#[test]
fn a_label_past_the_frame_cap_is_a_typed_error_and_the_fleet_serves_on() {
    let (g, labeling) = gadget(4, 2);
    let cap = 4 << 10;
    let fleet = Fleet::launch(partition(&labeling, 2).expect("partition"), |c| {
        c.max_frame_len = cap
    });
    let mut router = ShardRouter::connect(&fleet.addrs, &capped(cap)).expect("connect");

    let fits = |v: NodeId| label_frame_len(&labeling, v) <= cap as usize;
    let n = g.num_nodes() as NodeId;
    let big = (0..n).find(|&v| !fits(v)).expect("a label past 4 KiB");
    let small = |shard| (0..n).find(|&v| fits(v) && shard_of(v, 2) == shard);
    let other = small(1 - shard_of(big, 2)).expect("a small label on the other shard");
    let refused = |got: Result<Vec<Distance>, ShardError>| match got {
        Err(ShardError::Net(NetError::Remote {
            code: ErrorCode::FrameTooLarge,
            ..
        })) => {}
        other => panic!("want Remote {{ FrameTooLarge }}, got {other:?}"),
    };
    refused(router.query(big, other).map(|d| vec![d]));
    assert_eq!(router.in_flight(), vec![0, 0]);
    refused(router.query_many(&[(0, 1), (big, other)]));
    assert_eq!(router.in_flight(), vec![0, 0]);

    let (u, v) = (small(0).expect("small on 0"), small(1).expect("small on 1"));
    let want = shortest_path_distances(&g, u)[v as usize];
    assert_eq!(router.query(u, v).expect("a small routed pair"), want);
    assert_eq!(router.query_many(&[(u, v)]).expect("small batch"), [want]);
}

/// A shard that completes the v2 handshake, then reads everything the
/// router sends and never answers.
fn stalled_shard(num_nodes: u64) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind mock");
    let addr = listener.local_addr().expect("mock addr").to_string();
    let mock = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let hello = ServerHello {
            protocol_version: PROTOCOL_V2,
            store_version: 2,
            num_nodes,
        };
        write_frame(&mut stream, &hello.encode()).expect("server hello");
        read_frame(&mut stream, 64).expect("client hello");
        // Until the router hangs up.
        let _ = copy(&mut stream, &mut sink());
    });
    (addr, mock)
}

/// Shard 0 never answers; shard 1 is a real daemon with a 200 ms
/// `write_timeout`, asked for every label it owns of h:2,4, longest
/// first: about 6.6 MB of answers. Unread, that many pass the loopback
/// socket buffers, and the daemon drops a connection whose writes stay
/// refused past its `write_timeout`. The call ends in shard 0's typed
/// timeout within `request_timeout` + 1 s, and shard 1 then answers on
/// the same router with nothing left in flight.
#[test]
fn a_stalled_shard_costs_a_live_shard_nothing() {
    let (g, labeling) = gadget(2, 4);
    let mut shards = partition(&labeling, 2).expect("partition");
    let live = Fleet::launch(vec![shards.remove(1)], |c| {
        c.write_timeout = Duration::from_millis(200)
    });
    let (stalled, mock) = stalled_shard(g.num_nodes() as u64);
    let config = ClientConfig {
        request_timeout: Duration::from_secs(2),
        ..ClientConfig::default()
    };
    let addrs = [stalled, live.addrs[0].clone()];
    let mut router = ShardRouter::connect(&addrs, &config).expect("connect");

    // Longest first, so the earliest fetches carry the most bytes.
    let n = g.num_nodes() as NodeId;
    let mut pairs: Vec<(NodeId, NodeId)> = (1..n).step_by(2).map(|v| (0, v)).collect();
    pairs.sort_by_key(|&(_, v)| std::cmp::Reverse(labeling.hubs_of(v).len()));
    let answer_bytes: usize = pairs
        .iter()
        .map(|&(_, v)| label_frame_len(&labeling, v))
        .sum();
    assert!(answer_bytes > 6 << 20, "{answer_bytes} bytes");

    let started = Instant::now();
    match router.query_many(&pairs) {
        Err(ShardError::Net(NetError::RequestTimeout { .. })) => {}
        other => panic!("want shard 0's RequestTimeout, got {other:?}"),
    }
    let bound = config.request_timeout + Duration::from_secs(1);
    assert!(started.elapsed() < bound, "{:?}", started.elapsed());

    let want = shortest_path_distances(&g, 1)[3];
    assert_eq!(router.query(1, 3).expect("shard 1 serves on"), want);
    assert_eq!(router.in_flight(), vec![0, 0]);
    drop(router);
    mock.join().expect("mock shard");
}
