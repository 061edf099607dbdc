//! Client resilience against misbehaving servers: mid-batch disconnects,
//! short batches, and trickled responses must each surface a *typed*
//! error promptly — never a truncated `Ok`, never an unbounded hang.
//!
//! Each test runs a minimal hand-rolled mock server (not [`NetServer`])
//! so the misbehavior is exactly what the test says it is.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use hl_net::wire::{
    read_frame, write_frame, ClientHello, Request, Response, ServerHello, DEFAULT_MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use hl_net::{ClientConfig, NetClient, NetError};

/// Spawns a mock server that applies `handle` to every accepted
/// connection, forever. The thread is detached; it dies with the test
/// process.
fn spawn_mock<F>(handle: F) -> SocketAddr
where
    F: Fn(TcpStream) + Send + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind mock");
    let addr = listener.local_addr().expect("mock addr");
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            handle(stream);
        }
    });
    addr
}

/// Completes the server side of the HLNP handshake on `stream`.
fn handshake(stream: &mut TcpStream) -> bool {
    let hello = ServerHello {
        protocol_version: PROTOCOL_VERSION,
        store_version: 1,
        num_nodes: 100,
    };
    if write_frame(stream, &hello.encode()).is_err() {
        return false;
    }
    match read_frame(stream, DEFAULT_MAX_FRAME_LEN) {
        Ok(payload) => ClientHello::decode(&payload).is_ok(),
        Err(_) => false,
    }
}

fn fast_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_millis(400),
        max_retries: 1,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
        ..ClientConfig::default()
    }
}

/// The error chain must bottom out in a socket-level failure: a socket
/// error, a connection the driver found dead, or a wait that ran out. A
/// client that reports anything else (or returns `Ok`) mis-handled the
/// fault.
fn is_socket_error(e: &NetError) -> bool {
    match e {
        NetError::Io(_) | NetError::ConnectionDead(_) | NetError::RequestTimeout { .. } => true,
        NetError::RetriesExhausted { last, .. } => is_socket_error(last),
        _ => false,
    }
}

#[test]
fn mid_batch_disconnect_is_a_typed_error_not_truncated_ok() {
    // The server answers the first chunk of a pipelined batch, then
    // closes. After k of n responses the client holds real data — it
    // must throw it away and report the failure, not return a short Ok.
    let addr = spawn_mock(|mut stream| {
        if !handshake(&mut stream) {
            return;
        }
        if let Ok(payload) = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
            if let Ok(Request::QueryBatch(pairs)) = Request::decode(&payload) {
                let ds = vec![7u64; pairs.len()];
                let _ = write_frame(&mut stream, &Response::DistanceBatch(ds).encode());
            }
        }
        // Drop: half-close after one answered chunk.
    });

    let mut client = NetClient::connect(addr, fast_config()).expect("connect");
    let pairs: Vec<(u32, u32)> = (0..40u32).map(|i| (i, i + 1)).collect();
    let started = Instant::now();
    let result = client.query_batch_pipelined(&pairs, 10, 2);
    match result {
        Ok(ds) => panic!(
            "disconnect after 1 of 4 chunks returned Ok of {} answers",
            ds.len()
        ),
        Err(e) => assert!(is_socket_error(&e), "want a socket-level error, got {e}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "error took {:?}; must not ride out long timeouts",
        started.elapsed()
    );
}

#[test]
fn short_distance_batch_is_rejected_not_padded() {
    // A well-formed DistanceBatch frame carrying fewer answers than the
    // request had pairs: structurally valid, semantically a lie.
    let addr = spawn_mock(|mut stream| {
        if !handshake(&mut stream) {
            return;
        }
        while let Ok(payload) = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN) {
            if let Ok(Request::QueryBatch(pairs)) = Request::decode(&payload) {
                let short = vec![7u64; pairs.len().saturating_sub(1)];
                if write_frame(&mut stream, &Response::DistanceBatch(short).encode()).is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    });

    let mut client = NetClient::connect(addr, fast_config()).expect("connect");
    let pairs: Vec<(u32, u32)> = (0..8u32).map(|i| (i, i + 1)).collect();
    match client.query_batch(&pairs) {
        Ok(_) => panic!("short batch must not be Ok"),
        Err(NetError::UnexpectedResponse { .. }) => {}
        Err(other) => panic!("want UnexpectedResponse, got {other}"),
    }
}

#[test]
fn trickled_response_is_cut_off_by_the_whole_frame_budget() {
    // Regression: the client's request timeout used to re-arm on every
    // received byte, so a server dribbling a response one byte per
    // sub-timeout interval could pin a "400 ms timeout" call for tens of
    // seconds. The whole-frame budget must bound it near the timeout.
    let addr = spawn_mock(|mut stream| {
        if !handshake(&mut stream) {
            return;
        }
        if read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN).is_err() {
            return;
        }
        // Announce a 64-byte response, then trickle one byte per 100 ms —
        // each byte well inside a naive per-read timeout, the whole frame
        // nowhere near done within any reasonable budget.
        if stream.write_all(&64u32.to_le_bytes()).is_err() {
            return;
        }
        for _ in 0..100 {
            std::thread::sleep(Duration::from_millis(100));
            if stream
                .write_all(&[0x91])
                .and_then(|_| stream.flush())
                .is_err()
            {
                return; // client hung up: done
            }
        }
    });

    let mut client = NetClient::connect(
        addr,
        ClientConfig {
            max_retries: 0,
            ..fast_config()
        },
    )
    .expect("connect");
    let started = Instant::now();
    match client.query(1, 2) {
        Ok(d) => panic!("trickled frame must not produce a distance ({d})"),
        Err(e) => assert!(is_socket_error(&e), "want a socket-level error, got {e}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "client followed the trickle for {:?}; the 400 ms request \
         timeout must bound the whole response frame",
        started.elapsed()
    );
}
