//! Multiplexing end to end: hundreds of concurrent in-flight requests
//! on one protocol-v2 connection, out-of-order completion correlated by
//! request id, per-request deadlines that do not head-of-line block,
//! v1/v2 interop on one port, and reload-under-mux-load with zero wrong
//! answers.
//!
//! Raw [`TcpStream`]s drive the wire-level cases so the frames are
//! exactly what each test says; [`MuxClient`] drives the client-side
//! semantics (deadline isolation, late-response dropping) against both
//! live and scripted mock servers.

use std::collections::HashSet;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hl_core::pll::PrunedLandmarkLabeling;
use hl_graph::{bfs, generators, Graph, NodeId};
use hl_net::wire::{encode_mux, read_frame, split_mux, write_frame, ClientHello, ServerHello};
use hl_net::{
    ClientConfig, ErrorCode, MuxClient, NetClient, NetError, NetServer, Request, Response,
    ServerConfig, StopHandle, MAX_PROTOCOL_VERSION, PROTOCOL_V2,
};
use hl_server::QueryEngine;

const TEST_MAX_FRAME: u32 = 1 << 20;

struct TestServer {
    addr: SocketAddr,
    stop: StopHandle,
    thread: Option<JoinHandle<()>>,
}

impl TestServer {
    fn start(g: &Graph, tweak: impl FnOnce(&mut ServerConfig)) -> Self {
        Self::with_workers(g, 2, tweak)
    }

    fn with_workers(g: &Graph, workers: usize, tweak: impl FnOnce(&mut ServerConfig)) -> Self {
        let hl = PrunedLandmarkLabeling::by_degree(g).into_labeling();
        let engine = Arc::new(QueryEngine::new(hl, workers).expect("engine"));
        let mut config = ServerConfig {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            frame_timeout: Duration::from_secs(2),
            allow_remote_shutdown: false,
            allow_remote_reload: false,
            ..ServerConfig::default()
        };
        tweak(&mut config);
        let server = NetServer::bind(engine, "127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr();
        let stop = server.stop_handle();
        let thread = std::thread::spawn(move || server.serve().expect("serve"));
        TestServer {
            addr,
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.stop.stop();
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread");
        }
    }
}

/// A raw socket past a v2 handshake, asserting the advertised ceiling.
fn v2_socket(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let payload = read_frame(&mut stream, TEST_MAX_FRAME).expect("server hello");
    let hello = ServerHello::decode(&payload).expect("decode hello");
    assert_eq!(
        hello.protocol_version, MAX_PROTOCOL_VERSION,
        "server must advertise its v2 ceiling"
    );
    let client_hello = ClientHello {
        protocol_version: PROTOCOL_V2,
    };
    write_frame(&mut stream, &client_hello.encode()).expect("client hello");
    stream
}

fn send_mux(stream: &mut TcpStream, id: u64, req: &Request) {
    write_frame(stream, &encode_mux(id, &req.encode())).expect("send mux frame");
}

fn read_mux(stream: &mut TcpStream) -> (u64, Response) {
    let payload = read_frame(stream, TEST_MAX_FRAME).expect("response frame");
    let (id, inner) = split_mux(&payload).expect("mux split");
    (id, Response::decode(inner).expect("decode response"))
}

/// The acceptance bar: one v2 connection, 300 requests written before a
/// single response is read — all in flight at once — answered complete,
/// id-correlated, and BFS-correct regardless of completion order.
#[test]
fn v2_connection_sustains_300_inflight_and_answers_correctly() {
    let g = generators::grid(6, 6);
    let n = g.num_nodes();
    let truth: Vec<Vec<u64>> = (0..n as NodeId)
        .map(|u| bfs::bfs_distances(&g, u))
        .collect();
    let server = TestServer::start(&g, |_| {});
    let mut stream = v2_socket(server.addr);

    const INFLIGHT: usize = 300;
    let mut sent: Vec<(u64, NodeId, NodeId)> = Vec::with_capacity(INFLIGHT);
    for i in 0..INFLIGHT {
        let id = i as u64 + 1;
        let u = (i % n) as NodeId;
        let v = ((i * 7 + 3) % n) as NodeId;
        send_mux(&mut stream, id, &Request::Query { u, v });
        sent.push((id, u, v));
    }

    let mut answered: HashSet<u64> = HashSet::with_capacity(INFLIGHT);
    for _ in 0..INFLIGHT {
        let (id, resp) = read_mux(&mut stream);
        assert!(answered.insert(id), "request id {id} answered twice");
        let &(_, u, v) = sent
            .iter()
            .find(|&&(sid, _, _)| sid == id)
            .unwrap_or_else(|| panic!("response for an id never sent: {id}"));
        match resp {
            Response::Distance(d) => {
                assert_eq!(d, truth[u as usize][v as usize], "d({u},{v}) wrong");
            }
            other => panic!("expected Distance for id {id}, got {other:?}"),
        }
    }
    assert_eq!(answered.len(), INFLIGHT, "some request went unanswered");
}

/// The daemon hands a turn's point requests to a worker as one job, yet
/// answers and counts them one by one: 256 `Query` frames in one write,
/// some naming a vertex out of range and one undecodable, are each
/// answered exactly once — BFS-exact, `NodeOutOfRange` or `Malformed` —
/// and the metrics count queries and error frames per request.
#[test]
fn a_turn_of_point_queries_is_answered_and_counted_per_request() {
    let g = generators::grid(6, 6);
    let n = g.num_nodes();
    let truth: Vec<Vec<u64>> = (0..n as NodeId)
        .map(|u| bfs::bfs_distances(&g, u))
        .collect();
    let server = TestServer::start(&g, |_| {});
    let mut stream = v2_socket(server.addr);

    const FRAMES: u64 = 256;
    const UNDECODABLE: u64 = 100;
    let mut want: Vec<Option<(NodeId, NodeId)>> = Vec::new();
    let mut burst = Vec::new();
    for id in 1..=FRAMES {
        let i = id as usize;
        let (u, v) = ((i % n) as NodeId, ((i * 7 + 3) % n) as NodeId);
        let (u, v) = if id % 17 == 5 {
            (u, n as NodeId + v)
        } else {
            (u, v)
        };
        let payload = if id == UNDECODABLE {
            encode_mux(id, &[0xFF])
        } else {
            encode_mux(id, &Request::Query { u, v }.encode())
        };
        burst.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        burst.extend_from_slice(&payload);
        want.push((id != UNDECODABLE).then_some((u, v)));
    }
    stream.write_all(&burst).expect("one write of every frame");

    let (mut exact, mut out_of_range, mut malformed) = (0, 0, 0);
    let mut answered = HashSet::new();
    for _ in 0..FRAMES {
        let (id, resp) = read_mux(&mut stream);
        assert!(answered.insert(id), "request id {id} answered twice");
        let asked = want
            .get((id as usize).wrapping_sub(1))
            .unwrap_or_else(|| panic!("response for an id never sent: {id}"));
        match (asked, resp) {
            (Some((u, v)), Response::Distance(d)) => {
                assert_eq!(d, truth[*u as usize][*v as usize], "d({u},{v}) wrong");
                exact += 1;
            }
            (
                Some((_, v)),
                Response::Error {
                    code: ErrorCode::NodeOutOfRange,
                    ..
                },
            ) if *v as usize >= n => out_of_range += 1,
            (
                None,
                Response::Error {
                    code: ErrorCode::Malformed,
                    ..
                },
            ) => malformed += 1,
            (asked, other) => panic!("id {id} asked {asked:?}, got {other:?}"),
        }
    }
    assert_eq!(exact + out_of_range + malformed, FRAMES);
    assert_eq!((out_of_range, malformed), (15, 1));

    send_mux(&mut stream, FRAMES + 1, &Request::Metrics);
    let snap = match read_mux(&mut stream) {
        (id, Response::Metrics(snap)) if id == FRAMES + 1 => snap,
        other => panic!("expected the metrics answer, got {other:?}"),
    };
    assert_eq!(snap.single_queries, exact, "one count per answered query");
    assert_eq!(
        snap.cache_hits + snap.cache_misses,
        exact,
        "every query probes the point cache"
    );
    assert_eq!(
        snap.net_errors,
        out_of_range + malformed,
        "one count per error frame"
    );
    assert_eq!(snap.net_requests, FRAMES + 1);
}

/// MuxClient semantics: submit everything, then collect in *reverse*
/// submission order — each wait only blocks on its own id.
#[test]
fn mux_client_collects_in_any_order() {
    let g = generators::grid(6, 6);
    let n = g.num_nodes();
    let truth: Vec<Vec<u64>> = (0..n as NodeId)
        .map(|u| bfs::bfs_distances(&g, u))
        .collect();
    let server = TestServer::start(&g, |_| {});
    let client = MuxClient::connect(server.addr, ClientConfig::default()).expect("connect");
    assert_eq!(client.num_nodes(), n as u64);

    let mut submitted: Vec<(u64, NodeId, NodeId)> = Vec::new();
    for i in 0..256usize {
        let u = (i % n) as NodeId;
        let v = ((i * 11 + 5) % n) as NodeId;
        let id = client.submit(&Request::Query { u, v }).expect("submit");
        submitted.push((id, u, v));
    }
    for &(id, u, v) in submitted.iter().rev() {
        match client.wait(id, Duration::from_secs(10)).expect("wait") {
            Response::Distance(d) => assert_eq!(d, truth[u as usize][v as usize]),
            other => panic!("expected Distance, got {other:?}"),
        }
    }
    assert_eq!(client.in_flight(), 0);
}

/// Responses nobody waits for are not read: they wait in the socket and
/// the daemon's write queue. 4 × 1024 queries submitted before a single
/// wait, against a daemon with the default in-flight cap, then reaped
/// newest first: every id answers, exactly or `Busy`, inside its deadline.
#[test]
fn unread_responses_wait_in_the_socket_until_someone_waits() {
    let g = generators::grid(6, 6);
    let n = g.num_nodes();
    let truth: Vec<Vec<u64>> = (0..n as NodeId)
        .map(|u| bfs::bfs_distances(&g, u))
        .collect();
    let server = TestServer::start(&g, |_| {});
    let client = MuxClient::connect(server.addr, ClientConfig::default()).expect("connect");

    let submitted: Vec<(u64, NodeId, NodeId)> = (0..4 * 1024usize)
        .map(|i| {
            let (u, v) = ((i % n) as NodeId, ((i * 13 + 7) % n) as NodeId);
            let id = client.submit(&Request::Query { u, v }).expect("submit");
            (id, u, v)
        })
        .collect();
    for &(id, u, v) in submitted.iter().rev() {
        match client.wait(id, Duration::from_secs(10)).expect("wait") {
            Response::Distance(d) => assert_eq!(d, truth[u as usize][v as usize]),
            Response::Error {
                code: ErrorCode::Busy,
                ..
            } => {}
            other => panic!("expected Distance or Busy for id {id}, got {other:?}"),
        }
    }
    assert_eq!(client.in_flight(), 0);
}

/// The limit of that backlog: once the socket buffers are full the
/// daemon's writes are refused, and after its `write_timeout` it drops
/// the connection. A caller that submits 16 MiB of `LabelBatch` answers
/// (far more than loopback socket buffers hold) and then pauses past a
/// 200 ms `write_timeout` loses the connection: each wait either gets an
/// answer that had already reached its socket, exact, or fails
/// `ConnectionDead`, at least one fails, and so does the next request.
#[test]
fn a_caller_that_pauses_past_the_write_timeout_loses_the_connection() {
    let g = generators::grid(24, 24);
    let server = TestServer::start(&g, |c| c.write_timeout = Duration::from_millis(200));
    let client = MuxClient::connect(server.addr, ClientConfig::default()).expect("connect");
    let vs: Vec<NodeId> = (0..256).collect();
    let want = Response::LabelBatch(client.label_batch(&vs).expect("one prompt batch"));
    let per_answer = want.encode().len();
    let answers = (16 << 20) / per_answer + 1;
    assert!(answers < 1024, "stay under the in-flight cap");

    let mut ids = Vec::new();
    for _ in 0..answers {
        match client.submit(&Request::LabelBatch(vs.clone())) {
            Ok(id) => ids.push(id),
            // The daemon may already have given up on the connection.
            Err(_) => break,
        }
    }
    std::thread::sleep(Duration::from_secs(2));
    let mut dead = 0;
    for id in ids {
        match client.wait(id, Duration::from_secs(10)) {
            Ok(got) => assert_eq!(got, want, "request {id}"),
            Err(NetError::ConnectionDead(_)) => dead += 1,
            Err(e) => panic!("request {id}: want an answer or ConnectionDead, got {e:?}"),
        }
    }
    assert!(
        dead > 0,
        "a daemon refused writes for 2 s must drop the connection"
    );
    assert!(matches!(client.ping(), Err(NetError::ConnectionDead(_))));
}

/// An answer over the daemon's frame cap is refused, not written: a
/// `LabelBatch` of every vertex of a 24 × 24 grid against a 4 KiB cap on
/// both ends is `Remote { FrameTooLarge }`, and the same connection then
/// answers a `Ping` and a `Label`. A daemon that wrote the answer would
/// break the client's cap and cost it the connection (`ConnectionDead`).
#[test]
fn an_answer_over_the_frame_cap_is_a_typed_error_and_the_connection_serves_on() {
    let g = generators::grid(24, 24);
    let server = TestServer::start(&g, |c| c.max_frame_len = 4096);
    let config = ClientConfig {
        max_frame_len: 4096,
        ..ClientConfig::default()
    };
    let client = MuxClient::connect(server.addr, config).expect("connect");
    let vs: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    match client.label_batch(&vs) {
        Err(NetError::Remote {
            code: ErrorCode::FrameTooLarge,
            ..
        }) => {}
        other => panic!("want Remote {{ FrameTooLarge }}, got {other:?}"),
    }
    client.ping().expect("the connection serves on");
    assert!(!client.label(0).expect("a label under the cap").is_empty());
    assert_eq!(client.in_flight(), 0);
}

/// Workers ring the loop once per turn and lose no wake: 200 sequential
/// round trips through a one-worker daemon finish well inside 2 s. A
/// completion whose wake were lost would wait out the loop's 50 ms poll
/// tick, and 200 of those take about 10 s.
#[test]
fn sequential_round_trips_never_wait_out_a_poll_tick() {
    let g = generators::grid(6, 6);
    let n = g.num_nodes();
    let truth: Vec<Vec<u64>> = (0..n as NodeId)
        .map(|u| bfs::bfs_distances(&g, u))
        .collect();
    let server = TestServer::with_workers(&g, 1, |_| {});
    let client = MuxClient::connect(server.addr, ClientConfig::default()).expect("connect");
    let started = std::time::Instant::now();
    for i in 0..200usize {
        let (u, v) = ((i % n) as NodeId, ((i * 7 + 1) % n) as NodeId);
        assert_eq!(
            client.query(u, v).expect("query"),
            truth[u as usize][v as usize]
        );
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "200 round trips took {took:?}"
    );
}

/// Negotiation keeps both protocols on one port: a lock-step v1
/// NetClient and a multiplexing v2 MuxClient serve correct answers from
/// the same daemon at the same time.
#[test]
fn v1_and_v2_clients_interoperate_on_one_port() {
    let g = generators::grid(5, 5);
    let n = g.num_nodes();
    let truth: Vec<Vec<u64>> = (0..n as NodeId)
        .map(|u| bfs::bfs_distances(&g, u))
        .collect();
    let server = TestServer::start(&g, |_| {});

    let mut v1 = NetClient::connect(server.addr, ClientConfig::default()).expect("v1 connect");
    let v2 = MuxClient::connect(server.addr, ClientConfig::default()).expect("v2 connect");
    assert_eq!(
        v1.server_hello().map(|h| h.protocol_version),
        Some(MAX_PROTOCOL_VERSION)
    );
    assert_eq!(v2.server_hello().protocol_version, MAX_PROTOCOL_VERSION);

    // Interleave the two protocols request by request.
    for u in 0..n as NodeId {
        let v = (u * 3 + 2) % n as NodeId;
        assert_eq!(
            v1.query(u, v).expect("v1 query"),
            truth[u as usize][v as usize]
        );
        assert_eq!(
            v2.query(v, u).expect("v2 query"),
            truth[v as usize][u as usize]
        );
    }
    let pairs: Vec<(NodeId, NodeId)> = (0..n as NodeId).map(|u| (u, n as NodeId - 1 - u)).collect();
    let want: Vec<u64> = pairs
        .iter()
        .map(|&(u, v)| truth[u as usize][v as usize])
        .collect();
    assert_eq!(v1.query_batch(&pairs).expect("v1 batch"), want);
    assert_eq!(v2.query_batch(&pairs).expect("v2 batch"), want);
}

/// A request that times out abandons only its own slot: later responses
/// keep flowing, the late answer is dropped instead of misdelivered,
/// and unknown ids from the server are ignored.
#[test]
fn per_request_deadline_frees_only_that_request() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind mock");
    let addr = listener.local_addr().expect("addr");

    // A scripted server: never answers the first request, answers the
    // second promptly (plus a bogus unknown id), and answers the first
    // *late* — after its waiter gave up — followed by the third.
    let mock = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let hello = ServerHello {
            protocol_version: PROTOCOL_V2,
            store_version: 1,
            num_nodes: 100,
        };
        write_frame(&mut stream, &hello.encode()).expect("send hello");
        let payload = read_frame(&mut stream, TEST_MAX_FRAME).expect("client hello");
        let ch = ClientHello::decode(&payload).expect("decode client hello");
        assert_eq!(ch.protocol_version, PROTOCOL_V2);

        let read_id = |stream: &mut TcpStream| -> u64 {
            let payload = read_frame(stream, TEST_MAX_FRAME).expect("request frame");
            split_mux(&payload).expect("split").0
        };
        let pong = Response::Pong.encode();
        let id_a = read_id(&mut stream);
        let id_b = read_id(&mut stream);
        // Unknown id first: the client must drop it on the floor.
        write_frame(&mut stream, &encode_mux(9999, &pong)).expect("bogus id");
        write_frame(&mut stream, &encode_mux(id_b, &pong)).expect("answer b");
        let id_c = read_id(&mut stream);
        // A's answer arrives only now — after A's waiter timed out.
        write_frame(&mut stream, &encode_mux(id_a, &pong)).expect("late a");
        write_frame(&mut stream, &encode_mux(id_c, &pong)).expect("answer c");
        // Hold the socket open until the client is done with it.
        let _ = read_frame(&mut stream, TEST_MAX_FRAME);
    });

    let client = MuxClient::connect(addr, ClientConfig::default()).expect("connect");
    let a = client.submit(&Request::Ping).expect("submit a");
    let b = client.submit(&Request::Ping).expect("submit b");

    // B answers even though A — submitted first — never will: no
    // head-of-line blocking.
    assert!(matches!(
        client.wait(b, Duration::from_secs(5)).expect("wait b"),
        Response::Pong
    ));
    // A's own deadline expires without disturbing anything else.
    match client.wait(a, Duration::from_millis(100)) {
        Err(NetError::RequestTimeout { request_id, .. }) => assert_eq!(request_id, a),
        other => panic!("expected RequestTimeout for {a}, got {other:?}"),
    }
    // C still round-trips although A's late response and a bogus id
    // arrive before it: both are dropped, not misdelivered.
    let c = client.submit(&Request::Ping).expect("submit c");
    assert!(matches!(
        client.wait(c, Duration::from_secs(5)).expect("wait c"),
        Response::Pong
    ));
    assert_eq!(client.in_flight(), 0);

    drop(client); // shuts the socket down, unblocking the mock
    mock.join().expect("mock server");
}

/// The per-connection in-flight cap answers `Busy` *per id* — typed,
/// correlated, and only for engine-bound work (inline ops are exempt).
#[test]
fn inflight_overflow_answers_busy_for_that_id_only() {
    let g = generators::grid(4, 4);
    let server = TestServer::start(&g, |c| c.max_inflight_per_conn = 0);
    let mut stream = v2_socket(server.addr);

    send_mux(&mut stream, 7, &Request::Query { u: 0, v: 1 });
    let (id, resp) = read_mux(&mut stream);
    assert_eq!(id, 7, "Busy must carry the overflowing request's id");
    match resp {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected Busy, got {other:?}"),
    }

    // Ping is answered inline and never counts against the cap.
    send_mux(&mut stream, 8, &Request::Ping);
    let (id, resp) = read_mux(&mut stream);
    assert_eq!(id, 8);
    assert!(matches!(resp, Response::Pong));
}

/// v2 framing violations answer `Malformed` with the best id available:
/// the echoed id when the payload carried 8 bytes, id 0 when it could
/// not even hold one — and the connection keeps serving either way.
#[test]
fn short_mux_frames_answer_malformed_with_best_effort_id() {
    let g = generators::grid(4, 4);
    let server = TestServer::start(&g, |_| {});
    let mut stream = v2_socket(server.addr);

    // 3 payload bytes: too short for an id at all.
    stream.write_all(&3u32.to_le_bytes()).expect("len");
    stream
        .write_all(&[0xAA, 0xBB, 0xCC])
        .expect("short payload");
    let (id, resp) = read_mux(&mut stream);
    assert_eq!(id, 0, "id-less violation must answer on id 0");
    match resp {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }

    // Exactly 8 bytes: an id with an empty request — echo that id.
    stream.write_all(&8u32.to_le_bytes()).expect("len");
    stream.write_all(&0x55u64.to_le_bytes()).expect("bare id");
    let (id, resp) = read_mux(&mut stream);
    assert_eq!(id, 0x55, "parsable id must be echoed on the error");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ),
        "got {resp:?}"
    );

    // The frame boundaries were intact, so the connection survives.
    send_mux(&mut stream, 9, &Request::Ping);
    let (id, resp) = read_mux(&mut stream);
    assert_eq!(id, 9);
    assert!(matches!(resp, Response::Pong));
}

/// Reload under multiplexed load: four threads hammer queries on one
/// shared MuxClient while the store is swapped repeatedly. Both staged
/// stores hold the *same* labeling, so every single answer — whichever
/// epoch served it — must equal BFS truth: zero wrong, zero failed.
#[test]
fn reload_mid_mux_swaps_epochs_with_zero_wrong_answers() {
    use hl_server::FlatStore;

    let g = generators::grid(6, 6);
    let n = g.num_nodes();
    let truth: Arc<Vec<Vec<u64>>> = Arc::new(
        (0..n as NodeId)
            .map(|u| bfs::bfs_distances(&g, u))
            .collect(),
    );
    let flat = PrunedLandmarkLabeling::by_degree(&g).into_labeling();

    let mut paths = Vec::new();
    for tag in ["a", "b"] {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hlnet-mux-reload-{}-{tag}.hlbs",
            std::process::id()
        ));
        FlatStore::from_flat(flat.clone())
            .save(&p)
            .expect("save store");
        paths.push(p);
    }

    let server = TestServer::start(&g, |c| c.allow_remote_reload = true);
    let client =
        Arc::new(MuxClient::connect(server.addr, ClientConfig::default()).expect("connect"));

    let workers: Vec<_> = (0..4)
        .map(|w| {
            let client = Arc::clone(&client);
            let truth = Arc::clone(&truth);
            std::thread::spawn(move || {
                for i in 0..200usize {
                    let u = ((i * 13 + w * 7) % n) as NodeId;
                    let v = ((i * 5 + w * 3 + 1) % n) as NodeId;
                    let d = client.query(u, v).expect("query under reload");
                    assert_eq!(
                        d, truth[u as usize][v as usize],
                        "d({u},{v}) wrong mid-reload"
                    );
                }
            })
        })
        .collect();

    let mut last_epoch = 0;
    for round in 0..10 {
        let path = paths[round % 2].to_str().expect("utf-8 path");
        let (epoch, num_nodes) = client.reload(path).expect("reload under load");
        assert_eq!(num_nodes, n as u64);
        assert!(epoch > last_epoch, "epoch must advance on every swap");
        last_epoch = epoch;
        std::thread::sleep(Duration::from_millis(5));
    }
    for w in workers {
        w.join().expect("load thread");
    }
    assert_eq!(last_epoch, 10);

    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

/// Draining finishes what was accepted: a 100k-pair batch is in flight
/// on a v2 connection when the daemon is told to stop — by a `Shutdown`
/// frame on the same connection, then by [`StopHandle::stop`] — and its
/// answer still arrives before the server hangs up.
#[test]
fn drain_answers_the_batch_in_flight_before_closing() {
    use std::io::Read;

    let g = generators::grid(6, 6);
    let n = g.num_nodes() as NodeId;
    let pairs: Vec<(NodeId, NodeId)> = (0..100_000).map(|i| (i % n, (i * 7 + 3) % n)).collect();
    let want: Vec<u64> = {
        let truth: Vec<Vec<u64>> = (0..n).map(|u| bfs::bfs_distances(&g, u)).collect();
        pairs
            .iter()
            .map(|&(u, v)| truth[u as usize][v as usize])
            .collect()
    };

    for by_frame in [true, false] {
        let server = TestServer::start(&g, |c| c.allow_remote_shutdown = by_frame);
        let mut stream = v2_socket(server.addr);
        send_mux(&mut stream, 1, &Request::QueryBatch(pairs.clone()));
        let mut owed = vec![1u64];
        if by_frame {
            send_mux(&mut stream, 2, &Request::Shutdown);
            owed.push(2);
        } else {
            // The pong proves the batch ahead of it was handed to the pool.
            send_mux(&mut stream, 2, &Request::Ping);
            while read_mux(&mut stream).0 != 2 {
                owed.clear(); // the batch finished first: nothing left to prove
            }
            server.stop.stop();
        }
        while !owed.is_empty() {
            let (id, resp) = read_mux(&mut stream);
            owed.retain(|&o| o != id);
            match (id, resp) {
                (1, Response::DistanceBatch(got)) => assert_eq!(got, want),
                (2, Response::ShutdownAck) => {}
                other => panic!("unexpected frame while draining: {other:?}"),
            }
        }
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).expect("EOF"), 0);
    }
}
