//! The sharded serving tier, end to end: partition a labeling four
//! ways, serve each shard from its own in-process HLNP daemon, and
//! verify the router answers *every* pair — owned and cross-shard —
//! identically to BFS ground truth on the original graph.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hl_core::pll::PrunedLandmarkLabeling;
use hl_core::FlatLabeling;
use hl_graph::{bfs, generators, Graph, NodeId};
use hl_net::{ClientConfig, NetServer, ServerConfig, StopHandle};
use hl_server::QueryEngine;
use hl_shard::{partition, shard_of, ShardError, ShardRouter};

struct Fleet {
    addrs: Vec<String>,
    stops: Vec<StopHandle>,
    /// `None` once [`Fleet::kill`] has joined that daemon.
    threads: Vec<Option<JoinHandle<()>>>,
}

impl Fleet {
    /// One in-process daemon per shard labeling, each on an ephemeral
    /// loopback port, in shard order.
    fn launch(shards: Vec<FlatLabeling>) -> Fleet {
        let mut fleet = Fleet {
            addrs: Vec::new(),
            stops: Vec::new(),
            threads: Vec::new(),
        };
        for labeling in shards {
            let engine = Arc::new(QueryEngine::new(labeling, 1).expect("engine"));
            let config = ServerConfig {
                read_timeout: Duration::from_secs(5),
                allow_remote_shutdown: false,
                allow_remote_reload: false,
                ..ServerConfig::default()
            };
            let server = NetServer::bind(engine, "127.0.0.1:0", config).expect("bind");
            fleet.addrs.push(server.local_addr().to_string());
            fleet.stops.push(server.stop_handle());
            let daemon = std::thread::spawn(move || server.serve().expect("serve"));
            fleet.threads.push(Some(daemon));
        }
        fleet
    }

    /// Stops daemon `shard` and waits for it to exit, closing its sockets.
    fn kill(&mut self, shard: usize) {
        self.stops[shard].stop();
        if let Some(daemon) = self.threads[shard].take() {
            daemon.join().expect("daemon thread");
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for stop in &self.stops {
            stop.stop();
        }
        for t in self.threads.drain(..).flatten() {
            t.join().expect("daemon thread");
        }
    }
}

fn flatten(g: &Graph) -> FlatLabeling {
    PrunedLandmarkLabeling::by_degree(g).into_labeling()
}

/// Partitions `g`'s labeling `k` ways, serves it, and checks every pair
/// against BFS. Returns (cross-shard pairs checked, total pairs).
fn verify_fleet_against_bfs(g: &Graph, k: usize) -> (usize, usize) {
    let n = g.num_nodes();
    let shards = partition(&flatten(g), k).expect("partition");
    let fleet = Fleet::launch(shards);
    let mut router =
        ShardRouter::connect(&fleet.addrs, &ClientConfig::default()).expect("connect fleet");
    assert_eq!(router.num_shards(), k);
    assert_eq!(router.num_nodes(), n as u64);

    let mut pairs = Vec::with_capacity(n * n);
    let mut truth = Vec::with_capacity(n * n);
    for u in 0..n as NodeId {
        let dist = bfs::bfs_distances(g, u);
        for v in 0..n as NodeId {
            pairs.push((u, v));
            truth.push(dist[v as usize]);
        }
    }
    let got = router.query_many(&pairs).expect("routed batch");
    assert_eq!(got.len(), truth.len());
    for (i, (&(u, v), (&d, &t))) in pairs.iter().zip(got.iter().zip(&truth)).enumerate() {
        assert_eq!(d, t, "pair #{i}: routed d({u},{v}) = {d}, BFS says {t}");
    }

    // The single-query path takes a different route (per-pair frames);
    // spot-check it on a diagonal stripe including cross-shard pairs.
    for u in 0..n as NodeId {
        let v = (u as usize * 7 + 3) as NodeId % n as NodeId;
        let d = router.query(u, v).expect("routed single");
        assert_eq!(d, truth[u as usize * n + v as usize]);
    }

    let cross = pairs
        .iter()
        .filter(|&&(u, v)| shard_of(u, k) != shard_of(v, k))
        .count();
    (cross, pairs.len())
}

#[test]
fn four_shard_fleet_is_bfs_identical_on_gnm() {
    let g = generators::connected_gnm(72, 90, 23);
    let (cross, total) = verify_fleet_against_bfs(&g, 4);
    assert!(cross > 0, "no cross-shard pairs exercised");
    assert!(cross < total, "no same-shard pairs exercised");
}

#[test]
fn four_shard_fleet_is_bfs_identical_on_grid() {
    let g = generators::grid(8, 9);
    let (cross, total) = verify_fleet_against_bfs(&g, 4);
    assert!(cross > 0 && cross < total);
}

#[test]
fn two_shard_fleet_handles_singletons_and_range_errors() {
    let g = generators::grid(5, 5);
    let shards = partition(&flatten(&g), 2).expect("partition");
    let fleet = Fleet::launch(shards);
    let mut router = ShardRouter::connect(&fleet.addrs, &ClientConfig::default()).expect("connect");

    // (0, 24): 0 % 2 == 24 % 2 — owned. (0, 13): cross.
    assert_eq!(router.query(0, 24).expect("owned pair"), 8);
    let d = router.query(0, 13).expect("cross pair");
    assert_eq!(d, bfs::bfs_distance_between(&g, 0, 13));

    match router.query(0, 99) {
        Err(ShardError::NodeOutOfRange { v: 99, .. }) => {}
        other => panic!("expected NodeOutOfRange, got {other:?}"),
    }
    match router.query_many(&[(0, 1), (99, 0)]) {
        Err(ShardError::NodeOutOfRange { v: 99, .. }) => {}
        other => panic!("expected NodeOutOfRange, got {other:?}"),
    }
    // Empty batch is a no-op, not an error.
    assert!(router.query_many(&[]).expect("empty batch").is_empty());
}

#[test]
fn router_reuses_one_connection_per_shard() {
    // Regression test: the router must hold its multiplexed connections
    // for its whole life. An earlier design dialed per label fetch,
    // which shows up in the daemons' metrics as connections_opened
    // growing with the query count.
    let g = generators::grid(6, 6);
    let n = g.num_nodes();
    let shards = partition(&flatten(&g), 2).expect("partition");
    let fleet = Fleet::launch(shards);
    let mut router = ShardRouter::connect(&fleet.addrs, &ClientConfig::default()).expect("connect");

    // A mixed workload: batches (owned + cross) and singles (cross).
    let mut pairs = Vec::new();
    for u in 0..n as NodeId {
        for v in 0..n as NodeId {
            pairs.push((u, v));
        }
    }
    router.query_many(&pairs).expect("batch");
    for u in 0..8 {
        router.query(u, u + 7).expect("single");
    }

    // The metrics probe rides the same multiplexed connections, so each
    // daemon has seen exactly one connection ever: the router's.
    let snaps = router.fleet_metrics().expect("metrics");
    assert_eq!(snaps.len(), 2);
    for (s, snap) in snaps.iter().enumerate() {
        assert_eq!(
            snap.connections_opened, 1,
            "shard {s} saw {} connections; the router must reuse one",
            snap.connections_opened
        );
        assert_eq!(
            snap.connections_rejected, 0,
            "shard {s} rejected connections"
        );
    }
}

#[test]
fn router_rejects_an_incoherent_fleet() {
    // Two daemons serving *different-width* labelings cannot be one
    // partitioned store; the router must refuse at connect time.
    let small = flatten(&generators::grid(4, 4));
    let big = flatten(&generators::grid(5, 5));
    let fleet = Fleet::launch(vec![small, big]);
    match ShardRouter::connect(&fleet.addrs, &ClientConfig::default()) {
        Err(ShardError::ShardMismatch {
            shard: 1,
            expected: 16,
            got: 25,
        }) => {}
        other => panic!(
            "expected ShardMismatch, got {:?}",
            other.map(|r| r.num_nodes())
        ),
    }
}

#[test]
fn dead_shard_is_a_typed_error_within_the_deadline_and_the_live_shard_keeps_answering() {
    let g = generators::grid(5, 5);
    let shards = partition(&flatten(&g), 2).expect("partition");
    let mut fleet = Fleet::launch(shards);
    let config = ClientConfig {
        request_timeout: Duration::from_secs(2),
        ..ClientConfig::default()
    };
    let mut router = ShardRouter::connect(&fleet.addrs, &config).expect("connect");
    // (0, 13) is cross-shard, (1, 3) lives on shard 1, the rest on shard 0.
    let mixed = [(0, 24), (0, 13), (2, 4), (1, 3)];
    assert_eq!(router.query_many(&mixed).expect("healthy fleet").len(), 4);

    fleet.kill(1);

    // Never a distance, never a partial Vec, never a hang: a typed
    // network error, well inside the router's own deadline.
    let bound = config.request_timeout + Duration::from_secs(1);
    let started = Instant::now();
    match router.query(0, 13) {
        Err(ShardError::Net(_)) => {}
        other => panic!("cross-shard pair over a dead shard: {other:?}"),
    }
    assert!(started.elapsed() < bound, "{:?}", started.elapsed());
    let started = Instant::now();
    match router.query_many(&mixed) {
        Err(ShardError::Net(_)) => {}
        other => panic!("mixed batch over a dead shard: {other:?}"),
    }
    assert!(started.elapsed() < bound, "{:?}", started.elapsed());

    // Pairs the live shard owns outright still answer, BFS-exact, on
    // both paths.
    let live = [(0, 24), (2, 4), (6, 18)];
    let truth: Vec<_> = live
        .iter()
        .map(|&(u, v)| bfs::bfs_distance_between(&g, u, v))
        .collect();
    assert_eq!(router.query_many(&live).expect("live shard batch"), truth);
    for (&(u, v), &d) in live.iter().zip(&truth) {
        assert_eq!(router.query(u, v).expect("live shard single"), d);
    }
    // The failed calls abandoned what they had in flight: no slot is
    // left held on either shard's connection.
    assert_eq!(router.in_flight(), vec![0, 0]);
}
