//! Blocking HLNP client: connect/request timeouts, bounded retry with
//! jittered exponential backoff, and batch pipelining.
//!
//! Retry policy: only socket-level failures ([`NetError::is_retryable`])
//! are retried, on a *fresh* connection, at most `max_retries` times,
//! sleeping `backoff_base * 2^attempt` (capped) plus deterministic
//! jitter from [`hl_graph::rng::Xorshift64`] between attempts — seeded
//! jitter keeps load tests reproducible while still decorrelating real
//! fleets started with distinct seeds. Protocol violations and typed
//! server errors are returned immediately: retrying a malformed frame
//! or an out-of-range vertex cannot succeed.
//!
//! All request methods are safe to retry because every HLNP request is
//! idempotent — queries are pure reads and `Shutdown` is
//! at-least-once — but `shutdown` still skips retries: a dead socket
//! after sending usually *is* the shutdown taking effect.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use hl_graph::rng::Xorshift64;
use hl_graph::{Distance, NodeId};
use hl_server::MetricsSnapshot;

use crate::error::NetError;
use crate::wire::{
    read_frame_deadline, write_frame_deadline, ClientHello, Request, Response, ServerHello,
    DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};

/// Tunables for one client.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect budget per attempt.
    pub connect_timeout: Duration,
    /// Read/write budget per request round-trip.
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

/// Resolves `addr` to the first socket address it names.
pub(crate) fn resolve<A: ToSocketAddrs>(addr: A) -> Result<SocketAddr, NetError> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| NetError::Handshake("address resolved to nothing".into()))
}

/// The client handshake, for both clients: connect within the connect
/// budget, read the server's hello, and choose protocol `version`.
///
/// The hello advertises the *highest* version the server speaks; the
/// client may pick any version up to it, so a server whose ceiling is
/// below `version` is a typed [`NetError::Handshake`], not a frame mess.
pub(crate) fn dial(
    addr: &SocketAddr,
    config: &ClientConfig,
    version: u16,
) -> Result<(TcpStream, ServerHello), NetError> {
    let mut stream = TcpStream::connect_timeout(addr, config.connect_timeout)?;
    let _ = stream.set_nodelay(true);
    let timeout = config.request_timeout;
    let payload = read_frame_deadline(&mut stream, config.max_frame_len, timeout, timeout)?;
    let hello = ServerHello::decode(&payload)?;
    if hello.protocol_version < version {
        return Err(NetError::Handshake(format!(
            "server's highest protocol is {}, this client needs v{version}",
            hello.protocol_version
        )));
    }
    let chosen = ClientHello {
        protocol_version: version,
    };
    write_frame_deadline(&mut stream, &chosen.encode(), timeout)?;
    Ok((stream, hello))
}

/// A blocking client for one HLNP daemon, speaking protocol v1
/// (lock-step: responses arrive in request order).
pub struct NetClient {
    addr: SocketAddr,
    config: ClientConfig,
    rng: Xorshift64,
    /// The live, handshaken connection; `None` between a failure and the
    /// next request's redial.
    conn: Option<(TcpStream, ServerHello)>,
}

impl NetClient {
    /// Resolves `addr`, connects, and completes the handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> Result<Self, NetError> {
        let addr = resolve(addr)?;
        let conn = dial(&addr, &config, PROTOCOL_VERSION)?;
        Ok(NetClient {
            addr,
            rng: Xorshift64::seed_from_u64(config.seed),
            config,
            conn: Some(conn),
        })
    }

    /// The server hello from the most recent handshake, if connected.
    pub fn server_hello(&self) -> Option<&ServerHello> {
        self.conn.as_ref().map(|(_, hello)| hello)
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
        let base = self.config.backoff_base.as_nanos() as u64;
        let cap = self.config.backoff_cap.as_nanos() as u64;
        let exp = base.saturating_shl(attempt.min(32)).min(cap.max(1));
        let jitter = self.rng.gen_u64_below(exp / 2 + 1);
        Duration::from_nanos(exp.saturating_add(jitter))
    }

    /// Runs `exchange` on the live stream, redialing first if the last
    /// exchange failed. A failure leaves the stream position unknown, so
    /// it drops the connection.
    fn on_stream<T>(
        &mut self,
        exchange: impl FnOnce(&mut TcpStream, &ClientConfig) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let (stream, _) = match &mut self.conn {
            Some(conn) => conn,
            None => self
                .conn
                .insert(dial(&self.addr, &self.config, PROTOCOL_VERSION)?),
        };
        let result = exchange(stream, &self.config);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    /// Runs `attempt` until it succeeds, fails with a non-retryable
    /// error, or has failed `max_retries + 1` times, sleeping a jittered
    /// backoff between tries. Each retry redials (see [`Self::on_stream`]).
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

    /// One request/response round trip on the current connection.
    fn round_trip(&mut self, request: &Request) -> Result<Response, NetError> {
        self.on_stream(|stream, config| {
            let timeout = config.request_timeout;
            write_frame_deadline(stream, &request.encode(), timeout)?;
            // The idle budget covers the server's compute time; once the
            // response starts flowing, the whole frame races `timeout`
            // again — a server that trickles bytes cannot pin us past
            // 2 × request_timeout.
            let payload = read_frame_deadline(stream, config.max_frame_len, timeout, timeout)?;
            Ok(Response::decode(&payload)?)
        })
    }

    /// Sends `request`, retrying socket failures with jittered backoff.
    fn request(&mut self, request: &Request) -> Result<Response, NetError> {
        self.with_retry(|client| client.round_trip(request))
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
        self.with_retry(|client| client.try_pipelined(pairs, chunk, window))
    }

    fn try_pipelined(
        &mut self,
        pairs: &[(NodeId, NodeId)],
        chunk: usize,
        window: usize,
    ) -> Result<Vec<Distance>, NetError> {
        self.on_stream(|stream, config| {
            let timeout = config.request_timeout;
            let mut out = Vec::with_capacity(pairs.len());
            let chunks: Vec<&[(NodeId, NodeId)]> = pairs.chunks(chunk).collect();
            let mut sent = 0usize;
            let mut received = 0usize;
            while received < chunks.len() {
                while sent < chunks.len() && sent - received < window {
                    let req = Request::QueryBatch(chunks[sent].to_vec());
                    write_frame_deadline(stream, &req.encode(), timeout)?;
                    sent += 1;
                }
                let payload = read_frame_deadline(stream, config.max_frame_len, timeout, timeout)?;
                let ds = Response::decode(&payload)?.into_distance_batch(chunks[received].len())?;
                out.extend_from_slice(&ds);
                received += 1;
            }
            Ok(out)
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

    /// Asks the daemon to drain and exit. Never retried: a socket error
    /// after the request was written usually means it worked.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        self.round_trip(&Request::Shutdown)?.into_shutdown_ack()?;
        self.conn = None;
        Ok(())
    }
}

/// `u64::checked_shl` that saturates instead of wrapping to zero.
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> u64 {
        if rhs >= 64 {
            u64::MAX
        } else {
            self.checked_shl(rhs).unwrap_or(u64::MAX)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
