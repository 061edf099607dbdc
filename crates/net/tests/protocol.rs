//! Protocol robustness against an in-process [`NetServer`]: truncated
//! frames, version mismatches, and oversized frames must each get a
//! typed error frame back — the server never panics and never hangs
//! past its timeouts.
//!
//! Raw [`TcpStream`]s (not [`NetClient`]) drive the hostile cases, so
//! the bytes on the wire are exactly what each test says they are.
//! Every test socket carries a read timeout: a hung server fails the
//! test instead of wedging the suite.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hl_core::pll::PrunedLandmarkLabeling;
use hl_graph::generators;
use hl_net::wire::{read_frame, write_frame, ClientHello, ServerHello};
use hl_net::{ErrorCode, NetServer, Request, Response, ServerConfig, StopHandle};
use hl_server::QueryEngine;

const TEST_MAX_FRAME: u32 = 4096;

struct TestServer {
    addr: SocketAddr,
    stop: StopHandle,
    thread: Option<JoinHandle<()>>,
}

impl TestServer {
    fn start() -> Self {
        let g = generators::grid(5, 5);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let engine = Arc::new(QueryEngine::new(hl, 1).expect("engine"));
        let config = ServerConfig {
            max_connections: 4,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            frame_timeout: Duration::from_millis(500),
            max_frame_len: TEST_MAX_FRAME,
            allow_remote_shutdown: false,
            allow_remote_reload: false,
            ..ServerConfig::default()
        };
        let server = NetServer::bind(engine, "127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr();
        let stop = server.stop_handle();
        let thread = std::thread::spawn(move || {
            server.serve().expect("serve");
        });
        TestServer {
            addr,
            stop,
            thread: Some(thread),
        }
    }

    /// A raw socket that has consumed the server hello but sent nothing.
    fn raw_socket(&self) -> (TcpStream, ServerHello) {
        let mut stream = TcpStream::connect(self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .set_write_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let payload = read_frame(&mut stream, TEST_MAX_FRAME).expect("server hello");
        let hello = ServerHello::decode(&payload).expect("decode server hello");
        (stream, hello)
    }

    /// A raw socket past a correct *v1* handshake, ready for request
    /// frames. The hello advertises the server's ceiling (v2); these
    /// tests pin the lock-step v1 protocol deliberately.
    fn handshaken_socket(&self) -> TcpStream {
        let (mut stream, _hello) = self.raw_socket();
        let client_hello = ClientHello {
            protocol_version: hl_net::PROTOCOL_VERSION,
        };
        write_frame(&mut stream, &client_hello.encode()).expect("client hello");
        stream
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

fn expect_error(stream: &mut TcpStream, code: ErrorCode) -> String {
    let payload = read_frame(stream, TEST_MAX_FRAME).expect("error frame");
    match Response::decode(&payload).expect("decode response") {
        Response::Error { code: got, message } => {
            assert_eq!(got, code, "wrong error code: {message}");
            message
        }
        other => panic!("expected an Error frame with {code:?}, got {other:?}"),
    }
}

#[test]
fn version_mismatch_gets_typed_error_then_close() {
    let server = TestServer::start();
    let (mut stream, hello) = server.raw_socket();
    assert!(hello.num_nodes > 0);

    let bad_hello = ClientHello {
        protocol_version: hello.protocol_version + 1,
    };
    write_frame(&mut stream, &bad_hello.encode()).expect("send bad hello");
    let message = expect_error(&mut stream, ErrorCode::VersionMismatch);
    assert!(message.contains("protocol"), "uninformative: {message}");

    // The server closes after a failed handshake: next read sees EOF.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).expect("EOF"), 0);
}

#[test]
fn truncated_request_body_gets_malformed_and_connection_survives() {
    let server = TestServer::start();
    let mut stream = server.handshaken_socket();

    // A Query frame is opcode + 8 bytes of vertex ids; send only 3.
    let truncated = [0x11u8, 0x00, 0x00, 0x00];
    write_frame(&mut stream, &truncated).expect("send truncated query");
    expect_error(&mut stream, ErrorCode::Malformed);

    // The frame boundary was intact, so the connection still serves.
    write_frame(&mut stream, &Request::Query { u: 0, v: 24 }.encode()).expect("send good query");
    let payload = read_frame(&mut stream, TEST_MAX_FRAME).expect("response");
    match Response::decode(&payload).expect("decode") {
        Response::Distance(d) => assert_eq!(d, 8), // corners of a 5x5 grid
        other => panic!("expected Distance, got {other:?}"),
    }
}

#[test]
fn batch_length_lie_gets_malformed_not_a_hang() {
    let server = TestServer::start();
    let mut stream = server.handshaken_socket();

    // QueryBatch claiming 1000 pairs but carrying none: the decoder must
    // reject the count against the actual body, not wait for more bytes.
    let mut lie = vec![0x12u8];
    lie.extend_from_slice(&1000u32.to_le_bytes());
    write_frame(&mut stream, &lie).expect("send lying batch");
    expect_error(&mut stream, ErrorCode::Malformed);
}

#[test]
fn batch_count_u32_max_is_rejected_without_huge_allocation() {
    let server = TestServer::start();
    let mut stream = server.handshaken_socket();

    // The extreme crafted length: a count of u32::MAX implies a ~32 GiB
    // batch. The decoder must bounce it off the remaining-bytes check
    // before reserving anything — a trusting `with_capacity(count)`
    // here is the exact shape the untrusted-length-alloc lint forbids.
    let mut lie = vec![0x12u8];
    lie.extend_from_slice(&u32::MAX.to_le_bytes());
    write_frame(&mut stream, &lie).expect("send u32::MAX batch");
    expect_error(&mut stream, ErrorCode::Malformed);
}

#[test]
fn oversized_frame_is_rejected_unread_with_typed_error() {
    let server = TestServer::start();
    let mut stream = server.handshaken_socket();

    // Announce a frame far over the server's cap. The server must answer
    // from the length prefix alone — we never send the body.
    let huge = (TEST_MAX_FRAME + 1).to_le_bytes();
    stream.write_all(&huge).expect("send oversized prefix");
    stream.flush().unwrap();
    let message = expect_error(&mut stream, ErrorCode::FrameTooLarge);
    assert!(
        message.contains(&TEST_MAX_FRAME.to_string()),
        "cap missing from message: {message}"
    );

    // Framing is unrecoverable after an oversized announcement: EOF next.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).expect("EOF"), 0);
}

#[test]
fn zero_length_frame_is_rejected() {
    let server = TestServer::start();
    let mut stream = server.handshaken_socket();
    stream
        .write_all(&0u32.to_le_bytes())
        .expect("send zero len");
    stream.flush().unwrap();
    expect_error(&mut stream, ErrorCode::Malformed);
}

#[test]
fn half_a_frame_then_silence_times_out_instead_of_hanging() {
    let server = TestServer::start();
    let mut stream = server.handshaken_socket();

    // Promise 100 bytes, deliver 2, then go quiet. The server's read
    // timeout (2s here) must end the connection; we observe EOF well
    // before our own 5s socket timeout would fire.
    stream.write_all(&100u32.to_le_bytes()).expect("prefix");
    stream.write_all(&[0x11, 0x00]).expect("partial body");
    stream.flush().unwrap();

    let started = std::time::Instant::now();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("server must close");
    assert!(rest.is_empty(), "no error frame for a socket-level timeout");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "server held a dead connection open too long"
    );
}

#[test]
fn slow_loris_client_is_cut_off_by_the_frame_budget() {
    // Regression: with only per-read socket timeouts, a client dribbling
    // one byte per `read_timeout - ε` resets the clock on every byte and
    // holds its connection slot forever. The whole-frame budget
    // (`frame_timeout`, 500 ms in this harness) must cut the connection
    // regardless of how lively the trickle looks per-read.
    let server = TestServer::start();
    let mut stream = server.handshaken_socket();

    // Announce a 64-byte frame, then trickle its body at 8 bytes/second —
    // well under the 2 s per-read idle timeout, but the frame as a whole
    // can never finish inside the 500 ms budget.
    let started = std::time::Instant::now();
    stream.write_all(&64u32.to_le_bytes()).expect("prefix");
    let cut_off = loop {
        if stream
            .write_all(&[0x11])
            .and_then(|_| stream.flush())
            .is_err()
        {
            break true; // server closed; the write side noticed
        }
        if started.elapsed() > Duration::from_secs(4) {
            break false; // still accepting bytes long past the budget
        }
        std::thread::sleep(Duration::from_millis(125));
    };
    // Either the trickle write failed (reset) or the read side sees EOF.
    if !cut_off {
        panic!(
            "server accepted a trickled frame for {:?}",
            started.elapsed()
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "cut-off took {:?}, far past the 500 ms frame budget",
        started.elapsed()
    );
}

#[test]
fn rapid_connect_disconnect_churn_leaves_accept_loop_alive() {
    // Regression, found by hlnp-fuzz: clients that vanish while still in
    // the accept queue surface as transient accept() errors
    // (ConnectionAborted on Linux), and the accept loop used to treat
    // any such error as fatal — one crashed client could kill the
    // daemon. The loop must shrug these off and keep serving.
    let server = TestServer::start();
    for _ in 0..200 {
        // Connect and drop immediately, without ever reading the hello.
        let _ = TcpStream::connect(server.addr);
    }
    // Handlers for the churned sockets may still be winding down, so the
    // first few attempts can be turned away Busy (or closed mid-write) —
    // that is the connection cap working, not the defect under test. The
    // defect is the accept loop dying, which no amount of retrying fixes.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let answered = (|| -> Result<bool, hl_net::WireError> {
            let mut stream = server.handshaken_socket();
            write_frame(&mut stream, &Request::Query { u: 0, v: 24 }.encode())?;
            let payload = read_frame(&mut stream, TEST_MAX_FRAME)?;
            match Response::decode(&payload)? {
                Response::Distance(d) => {
                    assert_eq!(d, 8);
                    Ok(true)
                }
                Response::Error { .. } => Ok(false), // Busy: cap still full
                other => panic!("expected Distance or Busy, got {other:?}"),
            }
        })()
        .unwrap_or(false);
        if answered {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never recovered from connect/disconnect churn"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn remote_shutdown_can_be_disabled() {
    // Regression, found by hlnp-fuzz: the Shutdown opcode is one byte on
    // an unauthenticated protocol, so with remote shutdown always-on,
    // any client — or any corrupted frame decoding as OP_SHUTDOWN — can
    // stop the daemon. With `allow_remote_shutdown: false` the request
    // must get a typed Unsupported error and the connection must keep
    // serving; the daemon stays up.
    let server = TestServer::start(); // harness config disables it
    let mut stream = server.handshaken_socket();

    write_frame(&mut stream, &Request::Shutdown.encode()).expect("send shutdown");
    let message = expect_error(&mut stream, ErrorCode::Unsupported);
    assert!(message.contains("disabled"), "uninformative: {message}");

    // Same connection still answers queries...
    write_frame(&mut stream, &Request::Query { u: 0, v: 24 }.encode()).expect("send query");
    let payload = read_frame(&mut stream, TEST_MAX_FRAME).expect("response");
    match Response::decode(&payload).expect("decode") {
        Response::Distance(d) => assert_eq!(d, 8),
        other => panic!("expected Distance, got {other:?}"),
    }

    // ...and so do fresh ones: the accept loop did not die.
    let mut fresh = server.handshaken_socket();
    write_frame(&mut fresh, &Request::Query { u: 0, v: 24 }.encode()).expect("send query");
    let payload = read_frame(&mut fresh, TEST_MAX_FRAME).expect("response");
    assert!(matches!(
        Response::decode(&payload).expect("decode"),
        Response::Distance(8)
    ));
}

#[test]
fn remote_shutdown_when_allowed_acks_and_stops() {
    let g = generators::grid(4, 4);
    let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
    let engine = Arc::new(QueryEngine::new(hl, 1).expect("engine"));
    let config = ServerConfig {
        max_connections: 4,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        frame_timeout: Duration::from_millis(500),
        max_frame_len: TEST_MAX_FRAME,
        allow_remote_shutdown: true,
        ..ServerConfig::default()
    };
    let server = NetServer::bind(engine, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.serve().expect("serve"));

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let payload = read_frame(&mut stream, TEST_MAX_FRAME).expect("server hello");
    ServerHello::decode(&payload).expect("decode hello");
    let client_hello = ClientHello {
        protocol_version: hl_net::PROTOCOL_VERSION,
    };
    write_frame(&mut stream, &client_hello.encode()).expect("client hello");
    write_frame(&mut stream, &Request::Shutdown.encode()).expect("send shutdown");
    let payload = read_frame(&mut stream, TEST_MAX_FRAME).expect("ack frame");
    assert!(matches!(
        Response::decode(&payload).expect("decode"),
        Response::ShutdownAck
    ));
    // serve() returns: the daemon honored the request.
    thread.join().expect("server thread");
}

#[test]
fn over_cap_connection_is_greeted_and_turned_away_busy() {
    let g = generators::grid(4, 4);
    let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
    let engine = Arc::new(QueryEngine::new(hl, 1).expect("engine"));
    let config = ServerConfig {
        max_connections: 0, // everyone is over the cap
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        frame_timeout: Duration::from_millis(500),
        max_frame_len: TEST_MAX_FRAME,
        allow_remote_shutdown: false,
        allow_remote_reload: false,
        ..ServerConfig::default()
    };
    let server = NetServer::bind(engine, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let stop = server.stop_handle();
    let thread = std::thread::spawn(move || server.serve().expect("serve"));

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let payload = read_frame(&mut stream, TEST_MAX_FRAME).expect("hello before rejection");
    ServerHello::decode(&payload).expect("valid hello even when busy");
    expect_error(&mut stream, ErrorCode::Busy);

    stop.stop();
    thread.join().expect("server thread");
}

#[test]
fn remote_reload_can_be_disabled() {
    // Reload shares Shutdown's trust calculus: one opcode on an
    // unauthenticated protocol that replaces every answer the daemon
    // gives. With `allow_remote_reload: false` (the harness config) the
    // request must get a typed Unsupported error and the connection must
    // keep serving from the store it already has.
    let server = TestServer::start();
    let mut stream = server.handshaken_socket();

    let req = Request::Reload {
        path: "/definitely/not/consulted.hlbs".into(),
    };
    write_frame(&mut stream, &req.encode()).expect("send reload");
    let message = expect_error(&mut stream, ErrorCode::Unsupported);
    assert!(message.contains("disabled"), "uninformative: {message}");

    write_frame(&mut stream, &Request::Query { u: 0, v: 24 }.encode()).expect("send query");
    let payload = read_frame(&mut stream, TEST_MAX_FRAME).expect("response");
    assert!(matches!(
        Response::decode(&payload).expect("decode"),
        Response::Distance(8)
    ));
}

#[test]
fn reload_swaps_store_updates_hello_and_survives_bad_paths() {
    use hl_net::{ClientConfig, NetClient, NetError};
    use hl_server::FlatStore;

    let g1 = generators::grid(5, 5);
    let hl1 = PrunedLandmarkLabeling::by_degree(&g1).into_labeling();
    let engine = Arc::new(QueryEngine::new(hl1, 1).expect("engine"));
    let config = ServerConfig {
        max_connections: 4,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        frame_timeout: Duration::from_millis(500),
        max_frame_len: TEST_MAX_FRAME,
        allow_remote_shutdown: false,
        allow_remote_reload: true,
        ..ServerConfig::default()
    };
    let server = NetServer::bind(engine, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let stop = server.stop_handle();
    let thread = std::thread::spawn(move || server.serve().expect("serve"));

    // A v2 store of a *different* graph, staged on disk for the daemon.
    let g2 = generators::grid(6, 6);
    let f2 = PrunedLandmarkLabeling::by_degree(&g2).into_labeling();
    let mut path = std::env::temp_dir();
    path.push(format!("hlnet-proto-reload-{}.hlbs", std::process::id()));
    FlatStore::from_flat(f2.clone()).save(&path).expect("save");

    let mut client = NetClient::connect(addr, ClientConfig::default()).expect("connect");
    assert_eq!(client.server_hello().map(|h| h.store_version), Some(1));
    assert_eq!(client.query(0, 24).expect("pre-reload query"), 8);

    // A bad path must fail loudly and leave the old epoch serving.
    match client.reload("/definitely/missing.hlbs") {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Internal),
        other => panic!("expected an Internal error frame, got {other:?}"),
    }
    assert_eq!(client.query(0, 24).expect("query after failed reload"), 8);
    assert_eq!(client.metrics().expect("metrics").decode_errors, 1);

    // A good path swaps the store: 36 vertices, new distances.
    let (epoch, num_nodes) = client
        .reload(path.to_str().expect("utf-8 path"))
        .expect("reload");
    assert_eq!(epoch, 1);
    assert_eq!(num_nodes, 36);
    assert_eq!(client.query(0, 35).expect("post-reload query"), 10);

    // A fresh handshake advertises the v2 store and the new node count.
    let fresh = NetClient::connect(addr, ClientConfig::default()).expect("reconnect");
    let hello = fresh.server_hello().expect("hello").clone();
    assert_eq!(hello.store_version, 2);
    assert_eq!(hello.num_nodes, 36);

    let _ = std::fs::remove_file(&path);
    stop.stop();
    thread.join().expect("server thread");
}

#[test]
fn label_fetches_match_the_served_labeling() {
    use hl_net::{ClientConfig, NetClient, NetError};

    let g = generators::grid(5, 5);
    let flat = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
    let server = TestServer::start(); // serves the same 5x5 labeling

    let mut client = NetClient::connect(server.addr, ClientConfig::default()).expect("connect");

    // Single label: exactly the arena's (hub, dist) run for the vertex.
    for v in [0u32, 12, 24] {
        let pairs = client.label(v).expect("label");
        let want: Vec<(u32, u64)> = flat.pairs_of(v).collect();
        assert_eq!(pairs, want, "label({v}) disagrees with the arena");
    }

    // Batch, in request order.
    let vs: Vec<u32> = (0..25).collect();
    let want: Vec<Vec<(u32, u64)>> = vs.iter().map(|&v| flat.pairs_of(v).collect()).collect();
    assert_eq!(client.label_batch(&vs).expect("label batch"), want);

    // Out-of-range vertices get the typed error, atomically for batches.
    match client.label(25) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::NodeOutOfRange),
        other => panic!("expected NodeOutOfRange, got {other:?}"),
    }
    match client.label_batch(&[0, 1, 999]) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::NodeOutOfRange),
        other => panic!("expected NodeOutOfRange, got {other:?}"),
    }
    // And the connection keeps serving afterwards.
    assert!(!client.label(0).expect("label after error").is_empty());
}

#[test]
fn stop_handle_drains_idle_connections() {
    let server = TestServer::start();
    // An idle handshaken connection is parked in a blocking read.
    let mut idle = server.handshaken_socket();
    // Give the handler a moment to reach its read loop.
    std::thread::sleep(Duration::from_millis(50));

    server.stop.stop();
    assert!(server.stop.is_stopping());

    // Drop joins the server thread; it must come back promptly because
    // shutdown half-closes the idle connection's read side.
    drop(server);

    let mut rest = Vec::new();
    let _ = idle.read_to_end(&mut rest); // EOF or reset, either is fine
}
