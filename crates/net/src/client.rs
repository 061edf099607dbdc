//! Blocking HLNP client: connect/request timeouts, bounded retry with
//! jittered exponential backoff, and batch pipelining.
//!
//! The client is a shell: every socket read and write, the framing and
//! the lock-step order of answers belong to the [`MuxClient`] it holds,
//! opened at protocol v1; this file adds the redial and the retry.
//!
//! Retry policy: only the failures a fresh connection might fix
//! ([`NetError::is_retryable`]: a socket error, a dead connection, a
//! wait that ran out, a `Busy` answer) are retried, on a *fresh*
//! connection, at most `max_retries` times, sleeping
//! `backoff_base * 2^attempt` (capped) plus deterministic jitter from
//! [`hl_graph::rng::Xorshift64`] between attempts — seeded jitter keeps
//! load tests reproducible while still decorrelating real fleets started
//! with distinct seeds. Typed server errors and answers of the wrong kind
//! are returned immediately: retrying an out-of-range vertex cannot
//! succeed.
//!
//! All request methods are safe to retry because every HLNP request is
//! idempotent — queries are pure reads and `Shutdown` is
//! at-least-once — but `shutdown` still skips retries: a dead socket
//! after sending usually *is* the shutdown taking effect.

use std::collections::VecDeque;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use hl_graph::rng::Xorshift64;
use hl_graph::{Distance, NodeId};
use hl_server::MetricsSnapshot;

use crate::error::NetError;
use crate::mux::{resolve, MuxClient};
use crate::wire::{Request, Response, ServerHello, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION};

/// Tunables for one client.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect budget per attempt.
    pub connect_timeout: Duration,
    /// Budget of one wait: for the server hello, or for one answer.
    pub request_timeout: Duration,
    /// Reconnect attempts after the first failure (0 disables retry).
    pub max_retries: u32,
    /// First backoff sleep; doubles per attempt.
    pub backoff_base: Duration,
    /// Ceiling on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Seed for backoff jitter (deterministic per client).
    pub seed: u64,
    /// Per-frame payload cap (must be at least the server's).
    pub max_frame_len: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(10),
            max_retries: 2,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            seed: 0x68_6c_6e_65_74, // "hlnet"
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }
}

/// A blocking client for one HLNP daemon, speaking protocol v1
/// (lock-step: responses arrive in request order). It is a shell over a
/// [`MuxClient`] opened at v1, which does every socket read and write.
pub struct NetClient {
    addr: SocketAddr,
    config: ClientConfig,
    rng: Xorshift64,
    /// The live, handshaken connection; `None` between a failure and the
    /// next request's redial.
    conn: Option<MuxClient>,
}

impl NetClient {
    /// Resolves `addr`, connects, and completes the handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> Result<Self, NetError> {
        let addr = resolve(addr)?;
        let conn = MuxClient::open(addr, config.clone(), PROTOCOL_VERSION)?;
        Ok(NetClient {
            addr,
            rng: Xorshift64::seed_from_u64(config.seed),
            config,
            conn: Some(conn),
        })
    }

    /// The server hello from the most recent handshake, if connected.
    pub fn server_hello(&self) -> Option<&ServerHello> {
        self.conn.as_ref().map(MuxClient::server_hello)
    }

    /// Number of vertices the served labeling covers (0 if disconnected,
    /// which cannot happen right after a successful `connect`).
    pub fn num_nodes(&self) -> u64 {
        self.server_hello().map_or(0, |hello| hello.num_nodes)
    }

    /// Drops the connection (the next request redials).
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    /// Backoff for retry `attempt` (0-based): `base * 2^attempt` capped,
    /// plus up to 50% deterministic jitter.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let (base, cap) = (
            nanos(self.config.backoff_base),
            nanos(self.config.backoff_cap),
        );
        let exp = base
            .saturating_mul(2u64.saturating_pow(attempt))
            .min(cap.max(1));
        let jitter = self.rng.gen_u64_below(exp / 2 + 1);
        Duration::from_nanos(exp.saturating_add(jitter))
    }

    /// Runs `exchange` on the live connection, redialing first if the
    /// last exchange failed. A failure may leave answers owed on the
    /// connection, so it drops the connection.
    fn on_conn<T>(
        &mut self,
        exchange: impl FnOnce(&MuxClient) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let conn = match &self.conn {
            Some(conn) => conn,
            None => self.conn.insert(MuxClient::open(
                self.addr,
                self.config.clone(),
                PROTOCOL_VERSION,
            )?),
        };
        let result = exchange(conn);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    /// Runs `attempt` until it succeeds, fails with a non-retryable
    /// error, or has failed `max_retries + 1` times, sleeping a jittered
    /// backoff between tries. Each retry redials (see [`Self::on_conn`]).
    fn with_retry<T>(
        &mut self,
        mut attempt: impl FnMut(&mut Self) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let attempts = self.config.max_retries.saturating_add(1);
        let mut failed = 0;
        loop {
            match attempt(self) {
                Ok(out) => return Ok(out),
                Err(e) if e.is_retryable() && failed + 1 < attempts => {
                    let pause = self.backoff(failed);
                    std::thread::sleep(pause);
                    failed += 1;
                }
                Err(e) if failed > 0 => {
                    return Err(NetError::RetriesExhausted {
                        attempts: failed + 1,
                        last: Box::new(e),
                    })
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends `request`, retrying socket failures with jittered backoff.
    fn request(&mut self, request: &Request) -> Result<Response, NetError> {
        self.with_retry(|client| client.on_conn(|conn| conn.call(request)))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        self.request(&Request::Ping)?.into_pong()
    }

    /// One distance query.
    pub fn query(&mut self, u: NodeId, v: NodeId) -> Result<Distance, NetError> {
        self.request(&Request::Query { u, v })?.into_distance()
    }

    /// A batch of distance queries, answered in request order.
    pub fn query_batch(&mut self, pairs: &[(NodeId, NodeId)]) -> Result<Vec<Distance>, NetError> {
        self.request(&Request::QueryBatch(pairs.to_vec()))?
            .into_distance_batch(pairs.len())
    }

    /// Answers a large workload by splitting it into `chunk`-pair batch
    /// frames and keeping up to `window` of them in flight on the wire,
    /// so the socket round-trip overlaps the server's work. Results come
    /// back in input order. Retried as a unit on socket failure.
    pub fn query_batch_pipelined(
        &mut self,
        pairs: &[(NodeId, NodeId)],
        chunk: usize,
        window: usize,
    ) -> Result<Vec<Distance>, NetError> {
        let (chunk, window) = (chunk.max(1), window.max(1));
        let timeout = self.config.request_timeout;
        self.with_retry(|client| {
            client.on_conn(|conn| {
                let mut out = Vec::with_capacity(pairs.len());
                let mut chunks = pairs.chunks(chunk);
                let mut owed = VecDeque::with_capacity(window);
                loop {
                    // Refill the window, and put the refill on the wire
                    // now: the answer waited on next may be filed already.
                    while owed.len() < window {
                        let Some(batch) = chunks.next() else { break };
                        let id = conn.submit(&Request::QueryBatch(batch.to_vec()))?;
                        owed.push_back((id, batch.len()));
                    }
                    conn.flush()?;
                    let Some((id, sent)) = owed.pop_front() else {
                        return Ok(out);
                    };
                    out.extend(conn.wait(id, timeout)?.into_distance_batch(sent)?);
                }
            })
        })
    }

    /// Asks the daemon to mount the store at `path` (a path on the
    /// *server's* filesystem). Returns the new epoch serial and node
    /// count. Safe to retry: mounting the same store twice is idempotent
    /// (the epoch serial just advances again).
    pub fn reload(&mut self, path: &str) -> Result<(u64, u64), NetError> {
        let req = Request::Reload {
            path: path.to_string(),
        };
        self.request(&req)?.into_reload_ack()
    }

    /// Fetches the hub label of one vertex as sorted `(hub, dist)` pairs.
    pub fn label(&mut self, v: NodeId) -> Result<Vec<(NodeId, Distance)>, NetError> {
        self.request(&Request::Label { v })?.into_label()
    }

    /// Fetches the labels of many vertices, in request order.
    pub fn label_batch(&mut self, vs: &[NodeId]) -> Result<Vec<Vec<(NodeId, Distance)>>, NetError> {
        self.request(&Request::LabelBatch(vs.to_vec()))?
            .into_label_batch(vs.len())
    }

    /// Fetches the server's metrics snapshot.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, NetError> {
        self.request(&Request::Metrics)?.into_metrics()
    }

    /// Asks the daemon to drain and exit. Never retried: a dead
    /// connection after sending usually means it worked.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        self.on_conn(|conn| conn.call(&Request::Shutdown))?
            .into_shutdown_ack()?;
        self.conn = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::io::{self, Read};
    use std::net::{TcpListener, TcpStream};
    use std::thread::{self, JoinHandle};
    use std::time::Instant;

    use super::*;
    use crate::wire::{
        frame, read_frame, write_frame, ClientHello, MAX_PROTOCOL_VERSION, PROTOCOL_V2,
    };

    #[test]
    fn backoff_grows_and_caps() {
        let mut client = NetClient {
            addr: "127.0.0.1:1".parse().unwrap(),
            config: ClientConfig {
                backoff_base: Duration::from_millis(10),
                backoff_cap: Duration::from_millis(100),
                ..ClientConfig::default()
            },
            rng: Xorshift64::seed_from_u64(7),
            conn: None,
        };
        let b0 = client.backoff(0);
        assert!(b0 >= Duration::from_millis(10) && b0 <= Duration::from_millis(15));
        let b3 = client.backoff(3);
        assert!(b3 >= Duration::from_millis(80));
        // Far past the cap: bounded by cap + 50% jitter.
        let b9 = client.backoff(9);
        assert!(b9 <= Duration::from_millis(150));
        // 2^33 ns · 2^31 passes u64::MAX: it saturates to the cap, where
        // a shift would wrap to a 0 ns sleep.
        client.config.backoff_base = Duration::from_nanos(1 << 33);
        let far = client.backoff(31);
        assert!(
            far >= Duration::from_millis(100) && far <= Duration::from_millis(150),
            "{far:?}"
        );
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mk = |seed| NetClient {
            addr: "127.0.0.1:1".parse().unwrap(),
            config: ClientConfig::default(),
            rng: Xorshift64::seed_from_u64(seed),
            conn: None,
        };
        let (mut a, mut b, mut c) = (mk(1), mk(1), mk(2));
        let seq_a: Vec<Duration> = (0..4).map(|i| a.backoff(i)).collect();
        let seq_b: Vec<Duration> = (0..4).map(|i| b.backoff(i)).collect();
        let seq_c: Vec<Duration> = (0..4).map(|i| c.backoff(i)).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c, "different seeds must jitter differently");
    }

    #[test]
    fn connect_to_dead_port_is_io_error() {
        // Port 1 on loopback is essentially never listening.
        let err = NetClient::connect(
            "127.0.0.1:1",
            ClientConfig {
                connect_timeout: Duration::from_millis(200),
                max_retries: 0,
                ..ClientConfig::default()
            },
        );
        assert!(matches!(err, Err(NetError::Io(_))));
    }

    /// Every byte read from `stream`, kept as it was read.
    struct Tee {
        stream: TcpStream,
        seen: Vec<u8>,
    }

    impl Read for Tee {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.stream.read(buf)?;
            self.seen.extend_from_slice(&buf[..n]);
            Ok(n)
        }
    }

    /// A daemon stand-in: greets with v2's ceiling, answers each v1
    /// request in turn (a distance is `u + v`), and hands back every byte
    /// the client wrote once the client hangs up.
    fn recording_mock() -> (SocketAddr, JoinHandle<Vec<u8>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind mock");
        let addr = listener.local_addr().expect("mock addr");
        let mock = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut tee = Tee {
                stream,
                seen: Vec::new(),
            };
            let hello = ServerHello {
                protocol_version: MAX_PROTOCOL_VERSION,
                store_version: 2,
                num_nodes: 100,
            };
            write_frame(&mut tee.stream, &hello.encode()).expect("server hello");
            read_frame(&mut tee, DEFAULT_MAX_FRAME_LEN).expect("client hello");
            let sum = |(u, v): (NodeId, NodeId)| Distance::from(u + v);
            while let Ok(payload) = read_frame(&mut tee, DEFAULT_MAX_FRAME_LEN) {
                let answer = match Request::decode(&payload).expect("a v1 request") {
                    Request::Ping => Response::Pong,
                    Request::Query { u, v } => Response::Distance(sum((u, v))),
                    Request::QueryBatch(pairs) => {
                        Response::DistanceBatch(pairs.into_iter().map(sum).collect())
                    }
                    other => panic!("the mock does not answer {other:?}"),
                };
                write_frame(&mut tee.stream, &answer.encode()).expect("answer");
            }
            tee.seen
        });
        (addr, mock)
    }

    /// The bytes `NetClient` writes: the client hello, then each request
    /// as one frame with no request id, pipelined chunks in order.
    #[test]
    fn the_v1_request_stream_is_each_request_framed_with_no_id() {
        let (addr, mock) = recording_mock();
        let mut client = NetClient::connect(addr, ClientConfig::default()).expect("connect");
        let pairs: Vec<(NodeId, NodeId)> = (0..10).map(|i| (i, 2 * i)).collect();
        let sums: Vec<Distance> = (0..10u32).map(|i| Distance::from(3 * i)).collect();
        client.ping().expect("ping");
        assert_eq!(client.query(3, 4).expect("query"), 7);
        assert_eq!(client.query_batch(&pairs).expect("batch"), sums);
        let piped = client.query_batch_pipelined(&pairs, 3, 2);
        assert_eq!(piped.expect("pipelined"), sums);
        drop(client);
        let hello = ClientHello {
            protocol_version: PROTOCOL_VERSION,
        };
        let mut want = frame(None, &hello.encode());
        let singles = [
            Request::Ping,
            Request::Query { u: 3, v: 4 },
            Request::QueryBatch(pairs.clone()),
        ];
        let chunks = pairs.chunks(3).map(|c| Request::QueryBatch(c.to_vec()));
        for request in singles.into_iter().chain(chunks) {
            want.extend(frame(None, &request.encode()));
        }
        assert_eq!(mock.join().expect("mock"), want);
    }

    /// A mock that greets every connection with a v2 hello, one byte per
    /// `pace`, and then holds the connection until the client leaves.
    fn dribbling_hello(pace: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind mock");
        let addr = listener.local_addr().expect("mock addr");
        thread::spawn(move || {
            for mut stream in listener.incoming().flatten() {
                thread::spawn(move || {
                    let hello = ServerHello {
                        protocol_version: PROTOCOL_V2,
                        store_version: 2,
                        num_nodes: 100,
                    };
                    for byte in frame(None, &hello.encode()) {
                        thread::sleep(pace);
                        if io::Write::write_all(&mut stream, &[byte]).is_err() {
                            return;
                        }
                    }
                    read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN).ok();
                });
            }
        });
        addr
    }

    /// Both clients bound the whole server hello by one request timeout,
    /// however its bytes trickle in: a hello dribbled one byte per 100 ms
    /// is cut off, typed, and one dribbled within the budget is taken.
    #[test]
    fn both_clients_bound_a_dribbled_hello_by_the_request_timeout() {
        let config = ClientConfig {
            request_timeout: Duration::from_millis(400),
            max_retries: 0,
            ..ClientConfig::default()
        };
        let slow = dribbling_hello(Duration::from_millis(100));
        let bound = config.request_timeout + Duration::from_secs(1);
        let timed_out =
            |e: NetError| matches!(e, NetError::Io(ref io) if io.kind() == io::ErrorKind::TimedOut);
        let started = Instant::now();
        let v1 = NetClient::connect(slow, config.clone()).map(|_| ());
        assert!(v1.is_err_and(timed_out), "NetClient::connect must time out");
        assert!(started.elapsed() < bound, "v1 took {:?}", started.elapsed());
        let started = Instant::now();
        let v2 = MuxClient::connect(slow, config.clone()).map(|_| ());
        assert!(v2.is_err_and(timed_out), "MuxClient::connect must time out");
        assert!(started.elapsed() < bound, "v2 took {:?}", started.elapsed());

        // 25 bytes at 4 ms each: about 100 ms, inside the 400 ms budget.
        let fast = dribbling_hello(Duration::from_millis(4));
        let v1 = NetClient::connect(fast, config.clone()).expect("v1 takes the hello");
        assert_eq!(v1.num_nodes(), 100);
        let v2 = MuxClient::connect(fast, config).expect("v2 takes the hello");
        assert_eq!(v2.num_nodes(), 100);
    }
}
