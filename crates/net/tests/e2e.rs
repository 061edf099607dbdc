//! End-to-end: spawn `hubserve serve` as a real subprocess, talk to it
//! with [`NetClient`] over loopback, verify every answer against an
//! in-process [`QueryEngine`] over the same labeling, then shut the
//! daemon down cleanly and assert exit code 0.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use hl_core::pll::PrunedLandmarkLabeling;
use hl_graph::rng::Xorshift64;
use hl_graph::{generators, NodeId};
use hl_net::{ClientConfig, NetClient, NetError, MAX_PROTOCOL_VERSION};
use hl_server::QueryEngine;

fn tempfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hlnet-e2e-{}-{name}", std::process::id()));
    p
}

/// Builds a store for `g` via `hubserve build`, then starts
/// `hubserve serve --addr 127.0.0.1:0` and parses the announced address.
fn spawn_daemon(g: &hl_graph::Graph, tag: &str) -> (Child, String, std::path::PathBuf) {
    let (child, addr, store, _banner) = spawn_daemon_with(g, tag, &[]);
    (child, addr, store)
}

/// [`spawn_daemon`] with extra `serve` flags; also returns the `serving …`
/// banner line the daemon printed before its address.
fn spawn_daemon_with(
    g: &hl_graph::Graph,
    tag: &str,
    serve_flags: &[&str],
) -> (Child, String, std::path::PathBuf, String) {
    let graph = tempfile(&format!("{tag}-g.txt"));
    let store = tempfile(&format!("{tag}-s.hlbs"));
    let file = std::fs::File::create(&graph).unwrap();
    hl_graph::io::write_edge_list(g, std::io::BufWriter::new(file)).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_hubserve"))
        .args(["build", graph.to_str().unwrap(), store.to_str().unwrap()])
        .output()
        .expect("spawn hubserve build");
    assert!(
        out.status.success(),
        "build failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&graph);
    let (child, addr, banner) = serve(&store, serve_flags);
    (child, addr, store, banner)
}

/// Starts `hubserve serve <store> --addr 127.0.0.1:0` with extra flags;
/// returns the daemon, its announced address and its `serving …` banner.
fn serve(store: &std::path::Path, serve_flags: &[&str]) -> (Child, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hubserve"))
        .args(["serve", store.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .args(serve_flags)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hubserve serve");

    // The daemon announces its ephemeral port on stdout before serving.
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut lines = BufReader::new(stdout).lines();
    let mut banner = String::new();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon exited before announcing its address")
            .expect("daemon stdout read");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.trim().to_string();
        }
        if line.starts_with("serving ") {
            banner = line;
        }
    };
    // Keep draining stdout so the daemon never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr, banner)
}

fn client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(5),
        request_timeout: Duration::from_secs(10),
        ..ClientConfig::default()
    }
}

#[test]
fn daemon_answers_match_in_process_engine_then_shuts_down_cleanly() {
    let g = generators::connected_gnm(400, 900, 17);
    let n = g.num_nodes();
    let (mut child, addr, store) = spawn_daemon(&g, "match");

    // The reference: the same labeling the daemon built, queried locally.
    let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
    let engine = QueryEngine::new(hl, 2).expect("reference engine");
    let engine = Arc::new(engine);

    let mut client = NetClient::connect(&addr, client_config()).expect("connect");
    assert_eq!(client.num_nodes(), n as u64);
    // The hello advertises the server's *ceiling* (v2); this blocking
    // client still speaks v1 underneath.
    assert_eq!(
        client.server_hello().map(|h| h.protocol_version),
        Some(MAX_PROTOCOL_VERSION)
    );
    client.ping().expect("ping");

    // Single queries.
    let mut rng = Xorshift64::seed_from_u64(5);
    for _ in 0..64 {
        let (u, v) = (rng.gen_index(n) as NodeId, rng.gen_index(n) as NodeId);
        let remote = client.query(u, v).expect("remote query");
        let local = engine.query(u, v).expect("local query");
        assert_eq!(remote, local, "distance({u},{v}) disagrees");
    }

    // One batch, and the same batch pipelined.
    let pairs: Vec<(NodeId, NodeId)> = (0..512)
        .map(|_| (rng.gen_index(n) as NodeId, rng.gen_index(n) as NodeId))
        .collect();
    let local = engine.query_batch(&pairs).expect("local batch");
    let remote = client.query_batch(&pairs).expect("remote batch");
    assert_eq!(remote, local);
    let piped = client
        .query_batch_pipelined(&pairs, 64, 4)
        .expect("pipelined batch");
    assert_eq!(piped, local);

    // The daemon's metrics saw the traffic.
    let snapshot = client.metrics().expect("metrics");
    assert!(snapshot.connections_opened >= 1);
    assert!(snapshot.net_requests > 0);
    assert!(snapshot.single_queries + snapshot.batch_queries > 0);

    // Graceful shutdown: acknowledged, then the process exits 0.
    client.shutdown().expect("shutdown");
    let status = wait_with_deadline(&mut child, Duration::from_secs(30));
    assert_eq!(status.code(), Some(0), "daemon must exit cleanly");

    let _ = std::fs::remove_file(store);
}

#[test]
fn daemon_rejects_out_of_range_nodes_with_typed_error() {
    let g = generators::grid(6, 6);
    let n = g.num_nodes() as NodeId;
    let (mut child, addr, store) = spawn_daemon(&g, "range");

    let mut client = NetClient::connect(&addr, client_config()).expect("connect");
    match client.query(0, n + 10) {
        Err(NetError::Remote { code, .. }) => {
            assert_eq!(code, hl_net::ErrorCode::NodeOutOfRange)
        }
        other => panic!("expected a NodeOutOfRange error frame, got {other:?}"),
    }
    // The connection survives a rejected query.
    assert_eq!(
        client.query(0, 35).expect("in-range query after error"),
        10 // opposite corners of a 6x6 grid
    );

    client.shutdown().expect("shutdown");
    let status = wait_with_deadline(&mut child, Duration::from_secs(30));
    assert_eq!(status.code(), Some(0));

    let _ = std::fs::remove_file(store);
}

/// `--workers N` means N: the banner says it and the process has exactly N
/// request threads beside its main thread — no second pool behind them.
#[cfg(target_os = "linux")]
#[test]
fn workers_flag_sizes_the_only_pool() {
    let g = generators::grid(6, 6);
    let (mut child, addr, store, banner) = spawn_daemon_with(&g, "workers", &["--workers", "3"]);
    assert!(banner.contains(", 3 workers,"), "banner: {banner}");

    // An answered query proves the pool is up; threads name themselves as
    // they start, so give the stragglers a moment before reading names.
    let mut client = NetClient::connect(&addr, client_config()).expect("connect");
    assert_eq!(client.query(0, 35).expect("query"), 10);
    let want = [
        "hlnet-worker-0",
        "hlnet-worker-1",
        "hlnet-worker-2",
        "hubserve",
    ];
    let tasks = format!("/proc/{}/task", child.id());
    let started = std::time::Instant::now();
    let threads = loop {
        let mut names: Vec<String> = std::fs::read_dir(&tasks)
            .expect("daemon task list")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|comm| comm.trim().to_string())
            .collect();
        names.sort();
        if names == want || started.elapsed() > Duration::from_secs(5) {
            break names;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(threads, want, "threads of `hubserve serve --workers 3`");

    client.shutdown().expect("shutdown");
    let status = wait_with_deadline(&mut child, Duration::from_secs(30));
    assert_eq!(status.code(), Some(0));
    let _ = std::fs::remove_file(store);
}

/// A mount holds the served layout and little else. A daemon serving a
/// store whose flat arena is over 4 MiB peaks (VmHWM, read once it
/// listens) at most its banner's arena bytes, plus 16 B a vertex (the
/// ranking and its inverse) and 1 MiB (the chunk buffer, the offsets
/// read, a label's run), above a daemon serving a 4-vertex store. A
/// mount that decodes the whole flat arena and then lays it out keeps
/// the arena's lanes alive beside the table and peaks above that.
#[cfg(target_os = "linux")]
#[test]
fn a_daemon_mount_peaks_at_the_served_bytes() {
    let hwm = |flags: &[&str], tag: &str| {
        let store = tempfile(&format!("peak-{tag}.hlbs"));
        let out = Command::new(env!("CARGO_BIN_EXE_hubserve"))
            .arg("build")
            .args(flags)
            .args(["--seed", "1", store.to_str().unwrap()])
            .output()
            .expect("spawn hubserve build");
        assert!(out.status.success(), "build {tag}: {out:?}");
        let (mut child, _, banner) = serve(&store, &["--workers", "1"]);
        let status = std::fs::read_to_string(format!("/proc/{}/status", child.id()));
        let _ = child.kill();
        let _ = child.wait();
        let _ = std::fs::remove_file(&store);
        let field = |name: &str| -> u64 {
            let line = status
                .as_ref()
                .expect("daemon status")
                .lines()
                .find(|l| l.starts_with(name));
            let kb: Option<u64> = line.and_then(|l| l.split_whitespace().nth(1)?.parse().ok());
            kb.expect("a VmHWM line in kB") * 1024
        };
        // "serving <n> nodes, <e> label entries (store v2, <b> arena bytes, …"
        let word = |i: usize| -> u64 {
            banner
                .split([' ', ',', '('])
                .filter(|w| !w.is_empty())
                .nth(i)
                .and_then(|w| w.parse().ok())
                .expect("a banner figure")
        };
        (field("VmHWM:"), word(1), word(8))
    };
    let (tiny, ..) = hwm(&["--gen", "path", "--nodes", "4"], "tiny");
    let (big, n, arena) = hwm(
        &["--gen", "rmat", "--nodes", "32768", "--edges", "262144"],
        "big",
    );
    assert!(
        arena + 8 * n >= 4 << 20,
        "the big store's flat arena is under 4 MiB"
    );
    let allowed = arena + 16 * n + (1 << 20);
    assert!(
        big - tiny <= allowed,
        "the mount peaked {} B above a tiny store's, {} B more than its {arena} arena \
         bytes, 16 B a vertex and 1 MiB allow",
        big - tiny,
        (big - tiny) - allowed
    );
}

/// `Child::wait` with a hang guard so a stuck daemon fails the test
/// instead of wedging the suite.
fn wait_with_deadline(child: &mut Child, deadline: Duration) -> std::process::ExitStatus {
    let start = std::time::Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if start.elapsed() > deadline {
            let _ = child.kill();
            panic!("daemon did not exit within {deadline:?} after shutdown");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
