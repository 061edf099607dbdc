//! The serving daemon: an event-driven readiness loop over nonblocking
//! sockets, answering HLNP frames from a shared [`QueryEngine`].
//!
//! One thread runs `poll(2)` (via the zero-dependency [`hl_sys`] shim)
//! over the listener, a self-wake pipe, and every live connection. Each
//! connection carries its own read buffer with an incremental
//! partial-frame state machine and a write queue drained as the socket
//! allows, so 10k idle-ish clients cost file descriptors, not stacks. A
//! worker pool of the engine's width ([`QueryEngine::num_workers`]) — the
//! daemon's only standing threads besides the loop — executes engine
//! requests and completes them *out of order*; protocol-v2 connections
//! correlate completions by request id, protocol-v1 connections are
//! dispatched strictly one at a time so their in-order lock-step
//! contract survives.
//!
//! Design constraints, in order:
//!
//! - **Never panic, never hang past a timeout.** Frames are
//!   length-capped before buffering; malformed input gets a typed error
//!   frame; the loop ticks every `POLL_TICK` (50 ms) to enforce the idle,
//!   whole-frame and write-stall budgets regardless of socket state.
//! - **Bounded resources.** At most `max_connections` connections are
//!   served at once (excess is greeted and turned away
//!   [`ErrorCode::Busy`]); at most `max_inflight_per_conn` requests per
//!   v2 connection are in flight (excess gets a per-id `Busy`); reads
//!   pause when a connection's write queue backs up.
//! - **Graceful shutdown.** A `Shutdown` request (or [`StopHandle`])
//!   flips one atomic flag and writes the wake pipe. The loop stops
//!   accepting, stops reading, flushes every queued response (bounded by
//!   the write budget), then joins the worker pool before
//!   [`NetServer::serve`] returns.
//!
//! Metrics flow into the engine's existing [`hl_server::Metrics`]:
//! connections opened/rejected, request frames handled, error frames
//! sent, and per-query latency via the engine's own histogram.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU16, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use hl_graph::sync::lock_unpoisoned;
use hl_server::{store, AnyStore, EngineError, QueryEngine};
use hl_sys::{poll, PollFd, POLLIN, POLLOUT};

use crate::error::NetError;
use crate::wire::{
    frame, frame_len, split_mux, ClientHello, ErrorCode, Request, Response, ServerHello, WireError,
    DEFAULT_MAX_FRAME_LEN, MAX_PROTOCOL_VERSION, PROTOCOL_V2, PROTOCOL_VERSION,
};

/// The readiness loop's maximum sleep: deadline sweeps (idle, frame and
/// write-stall budgets) run at least this often even with no socket
/// activity at all.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Parsed-but-undispatched request frames a connection may hold before
/// the loop stops reading from it (v1 pipelining backpressure).
const MAX_PENDING_FRAMES: usize = 1024;

/// Queued-but-unwritten response bytes a connection may hold before the
/// loop stops reading from it, so a client that floods requests without
/// draining responses backs up its own TCP window instead of our heap.
const MAX_QUEUED_WRITE_BYTES: usize = 8 << 20;

/// Tunables for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently served connections; further clients are
    /// greeted with [`ErrorCode::Busy`] and closed.
    pub max_connections: usize,
    /// Idle limit: a connection with no bytes arriving, no queued work
    /// and no queued responses for this long is dropped.
    pub read_timeout: Duration,
    /// Stall limit for draining queued responses: a client accepting no
    /// bytes for this long while responses wait is dropped (slow-client
    /// protection).
    pub write_timeout: Duration,
    /// Budget for one whole request frame once its first byte arrives.
    /// `read_timeout` only bounds the *idle* gap before a frame starts;
    /// without a whole-frame budget a slow-loris client dribbling one
    /// byte per `read_timeout - ε` would hold a connection slot forever.
    pub frame_timeout: Duration,
    /// Per-frame payload cap; larger frames are rejected unread.
    pub max_frame_len: u32,
    /// Whether a `Shutdown` request frame stops the daemon. The opcode
    /// is one byte and the protocol is unauthenticated, so any client —
    /// or any corrupted frame that happens to decode as `Shutdown` —
    /// can take the server down when this is on. Keep it on only for
    /// servers whose clients are trusted (benches, tests, localhost
    /// tooling); when off, the request gets [`ErrorCode::Unsupported`]
    /// and the connection keeps serving.
    pub allow_remote_shutdown: bool,
    /// Whether a `Reload` request frame may swap the served store for one
    /// read from a server-local path. Same trust calculus as
    /// [`ServerConfig::allow_remote_shutdown`]: the protocol is
    /// unauthenticated, and a reload both reads an attacker-chosen path
    /// and replaces every answer the daemon gives, so keep it on only for
    /// trusted-client deployments. When off, the request gets
    /// [`ErrorCode::Unsupported`] and the connection keeps serving.
    pub allow_remote_reload: bool,
    /// Store format version advertised in the hello (the version of the
    /// file the engine was loaded from). Updated live when a `Reload`
    /// mounts a store of a different version.
    pub store_version: u16,
    /// Concurrent in-flight requests one protocol-v2 connection may
    /// hold; requests beyond the cap are answered immediately with a
    /// per-id [`ErrorCode::Busy`] so the client can back off. (Protocol
    /// v1 is lock-step: always exactly one in flight.)
    pub max_inflight_per_conn: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            frame_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            allow_remote_shutdown: true,
            allow_remote_reload: true,
            store_version: store::VERSION,
            max_inflight_per_conn: 1024,
        }
    }
}

/// Shared state between the event loop, workers, and stop handles.
struct Inner {
    engine: Arc<QueryEngine>,
    config: ServerConfig,
    stop: AtomicBool,
    local_addr: SocketAddr,
    /// Format version of the store currently mounted, reflected in every
    /// hello. Starts at [`ServerConfig::store_version`] and tracks
    /// successful reloads.
    store_version: AtomicU16,
    /// Write end of the loop's self-wake pipe: one byte makes `poll`
    /// return. Workers write it after a completion, `trigger_stop` after
    /// flipping the flag.
    waker: UnixStream,
}

impl Inner {
    fn wake(&self) {
        // A full wake pipe already guarantees a pending wake; any other
        // failure means teardown.
        let _ = (&self.waker).write(&[1]);
    }

    /// Flips the stop flag (once) and wakes the event loop to see it.
    fn trigger_stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            self.wake();
        }
    }
}

/// Cloneable remote control for a running [`NetServer`].
#[derive(Clone)]
pub struct StopHandle {
    inner: Arc<Inner>,
}

impl StopHandle {
    /// Asks the daemon to drain and exit; returns immediately.
    pub fn stop(&self) {
        self.inner.trigger_stop();
    }

    /// `true` once shutdown has been requested.
    pub fn is_stopping(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }
}

/// One request handed to the worker pool.
struct Job {
    conn: u64,
    id: u64,
    version: u16,
    request: Request,
}

/// One finished request on its way back to the event loop.
struct Completion {
    conn: u64,
    /// Fully framed bytes (length prefix included, id prefix for v2).
    frame: Vec<u8>,
    is_error: bool,
}

/// Connection lifecycle, as the frame dispatcher sees it.
enum ConnState {
    /// Hello queued; the next frame must be the client's hello.
    Handshake,
    /// Handshake done; frames are requests under this protocol version.
    Serving(u16),
    /// Over the connection cap: greeted and turned away, never read.
    Rejecting,
}

/// Everything the loop tracks per connection.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Inbound bytes not yet parsed into frames.
    rbuf: Vec<u8>,
    /// Outbound frames (fully framed bytes), oldest first.
    wqueue: VecDeque<Vec<u8>>,
    /// Progress into `wqueue.front()`.
    wfront_at: usize,
    /// Total bytes across `wqueue` (backpressure accounting).
    wbytes: usize,
    /// Parsed requests not yet dispatched, with their v2 ids (0 for v1).
    pending: VecDeque<(u64, Request)>,
    /// Requests handed to the worker pool and not yet completed.
    inflight: usize,
    /// When the last byte arrived (or the connection was accepted).
    last_read: Instant,
    /// When the current partial frame's first byte arrived, if one is
    /// mid-flight — the whole-frame (slow-loris) budget anchors here.
    frame_started: Option<Instant>,
    /// Since when the write queue has been non-empty without the socket
    /// accepting a single byte.
    write_stalled: Option<Instant>,
    /// Flush what is queued, then close; stop reading immediately.
    close_after_flush: bool,
    /// The peer half-closed (or broke framing): read no further.
    read_closed: bool,
}

impl Conn {
    /// A just-accepted connection, about to be greeted.
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            state: ConnState::Handshake,
            rbuf: Vec::new(),
            wqueue: VecDeque::new(),
            wfront_at: 0,
            wbytes: 0,
            pending: VecDeque::new(),
            inflight: 0,
            last_read: Instant::now(),
            frame_started: None,
            write_stalled: None,
            close_after_flush: false,
            read_closed: false,
        }
    }

    /// Whether the poll set should watch this connection for input.
    fn wants_read(&self) -> bool {
        !self.read_closed
            && !self.close_after_flush
            && self.pending.len() < MAX_PENDING_FRAMES
            && self.wbytes < MAX_QUEUED_WRITE_BYTES
    }

    /// Queues fully framed bytes for writing.
    fn queue_frame(&mut self, frame: Vec<u8>) {
        self.wbytes += frame.len();
        self.wqueue.push_back(frame);
    }

    /// `true` once nothing more can ever happen on this connection.
    fn is_finished(&self) -> bool {
        let flushed = self.wqueue.is_empty();
        (self.close_after_flush && flushed)
            || (self.read_closed && flushed && self.inflight == 0 && self.pending.is_empty())
    }
}

/// What handling readiness on a connection concluded.
#[derive(PartialEq, Eq)]
enum Verdict {
    Keep,
    /// Remove the connection now (socket dead or work complete).
    Close,
}

/// A bound-but-not-yet-serving HLNP daemon.
pub struct NetServer {
    listener: TcpListener,
    /// Read end of the self-wake pipe ([`Inner::wake`] writes the other).
    waker_rx: UnixStream,
    inner: Arc<Inner>,
}

impl NetServer {
    /// Binds a listener (use port 0 for an ephemeral port) over `engine`.
    pub fn bind<A: ToSocketAddrs>(
        engine: Arc<QueryEngine>,
        addr: A,
        config: ServerConfig,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let store_version = AtomicU16::new(config.store_version);
        let (waker_rx, waker) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker.set_nonblocking(true)?;
        let inner = Arc::new(Inner {
            engine,
            config,
            stop: AtomicBool::new(false),
            local_addr,
            store_version,
            waker,
        });
        Ok(NetServer {
            listener,
            waker_rx,
            inner,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// A handle that can stop the daemon from another thread.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Runs the readiness loop on the calling thread until a `Shutdown`
    /// request or [`StopHandle::stop`] arrives, then drains: stops
    /// accepting and reading, flushes queued responses (bounded by the
    /// write budget), and joins the worker pool.
    pub fn serve(self) -> Result<(), NetError> {
        self.listener.set_nonblocking(true)?;
        let inner: &Inner = &self.inner;
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Mutex::new(job_rx);
        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        std::thread::scope(|pool| {
            // Owned by this closure, so every way out of it — a failed
            // spawn included — closes the job channel. That sends each
            // worker home once the queue drains (completions still in
            // flight go to a receiver nobody reads), and the scope joins
            // them before `serve` returns.
            let (job_tx, done_tx) = (job_tx, done_tx);
            for i in 0..inner.engine.num_workers() {
                let (job_rx, done_tx) = (&job_rx, done_tx.clone());
                std::thread::Builder::new()
                    .name(format!("hlnet-worker-{i}"))
                    .spawn_scoped(pool, move || worker_loop(inner, job_rx, &done_tx))?;
            }
            drop(done_tx);
            self.event_loop(&job_tx, &done_rx)
        })
    }

    fn event_loop(
        &self,
        job_tx: &Sender<Job>,
        done_rx: &Receiver<Completion>,
    ) -> Result<(), NetError> {
        let inner = &self.inner;
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_conn_id: u64 = 0;
        let mut pollfds: Vec<PollFd> = Vec::new();
        let mut tokens: Vec<Token> = Vec::new();
        let mut draining = false;
        let mut drain_deadline = Instant::now();

        loop {
            if inner.stop.load(Ordering::SeqCst) && !draining {
                draining = true;
                drain_deadline = Instant::now() + inner.config.write_timeout;
                for c in conns.values_mut() {
                    // Half-close semantics: in-flight work finishes and
                    // queued responses flush, but nothing new is read.
                    c.read_closed = true;
                    c.close_after_flush = true;
                }
            }
            if draining {
                conns.retain(|_, c| !(c.wqueue.is_empty() && c.inflight == 0));
                if conns.is_empty() || Instant::now() >= drain_deadline {
                    return Ok(());
                }
            }

            pollfds.clear();
            tokens.clear();
            if !draining {
                pollfds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
                tokens.push(Token::Listener);
            }
            pollfds.push(PollFd::new(self.waker_rx.as_raw_fd(), POLLIN));
            tokens.push(Token::Waker);
            for (&cid, c) in conns.iter() {
                let mut events = 0i16;
                if c.wants_read() {
                    events |= POLLIN;
                }
                if !c.wqueue.is_empty() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    pollfds.push(PollFd::new(c.stream.as_raw_fd(), events));
                    tokens.push(Token::Conn(cid));
                }
            }
            poll(&mut pollfds, Some(POLL_TICK))?;

            for (fd, token) in pollfds.iter().zip(tokens.iter()) {
                match *token {
                    Token::Listener => {
                        if fd.readable() {
                            self.accept_ready(&mut conns, &mut next_conn_id)?;
                        }
                    }
                    Token::Waker => {
                        if fd.readable() {
                            drain_waker(&self.waker_rx);
                        }
                    }
                    Token::Conn(cid) => {
                        if fd.invalid() {
                            conns.remove(&cid);
                            continue;
                        }
                        let Some(c) = conns.get_mut(&cid) else {
                            continue;
                        };
                        let mut verdict = Verdict::Keep;
                        if fd.readable() && verdict == Verdict::Keep {
                            verdict = conn_readable(inner, c, cid, job_tx);
                        }
                        if verdict == Verdict::Keep {
                            verdict = conn_write(c);
                        }
                        if verdict == Verdict::Close {
                            conns.remove(&cid);
                        }
                    }
                }
            }

            // Completions from the worker pool: queue the frame, free the
            // in-flight slot, dispatch whatever that unblocked.
            while let Ok(done) = done_rx.try_recv() {
                let Some(c) = conns.get_mut(&done.conn) else {
                    continue; // connection died while the job ran
                };
                if done.is_error {
                    inner
                        .engine
                        .metrics()
                        .net_errors
                        .fetch_add(1, Ordering::Relaxed);
                }
                c.inflight = c.inflight.saturating_sub(1);
                c.queue_frame(done.frame);
                pump(inner, c, done.conn, job_tx);
                if conn_write(c) == Verdict::Close {
                    conns.remove(&done.conn);
                }
            }

            // Deadline sweep: every budget is enforced from the tick, so
            // a peer the kernel never reports on still cannot overstay.
            let now = Instant::now();
            conns.retain(|_, c| {
                if c.is_finished() {
                    return false;
                }
                if let Some(t0) = c.frame_started {
                    if now.duration_since(t0) > inner.config.frame_timeout {
                        return false; // slow-loris: silent close, like v1
                    }
                }
                if let Some(t0) = c.write_stalled {
                    if now.duration_since(t0) > inner.config.write_timeout {
                        return false; // peer not draining responses
                    }
                }
                let idle = c.inflight == 0
                    && c.pending.is_empty()
                    && c.wqueue.is_empty()
                    && c.frame_started.is_none();
                if idle && now.duration_since(c.last_read) > inner.config.read_timeout {
                    return false; // silent idle drop, like v1
                }
                true
            });
        }
    }

    /// Accepts every connection the kernel has queued, greeting each and
    /// turning away those over the cap.
    fn accept_ready(
        &self,
        conns: &mut HashMap<u64, Conn>,
        next_conn_id: &mut u64,
    ) -> Result<(), NetError> {
        let inner = &self.inner;
        loop {
            let (stream, _peer) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // A queued client that resets before we accept surfaces
                // here as ConnectionAborted (or Reset on some platforms).
                // That is the *client's* failure: one hostile or crashed
                // peer must not take down the accept loop for everyone.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted | io::ErrorKind::ConnectionReset
                    ) =>
                {
                    continue
                }
                Err(e) => {
                    if inner.stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    // File-descriptor exhaustion (EMFILE/ENFILE) is load,
                    // not a broken listener: stop accepting this tick so
                    // the fds already serving connections can drain.
                    if matches!(e.raw_os_error(), Some(23) | Some(24)) {
                        return Ok(());
                    }
                    return Err(NetError::Io(e));
                }
            };
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue; // socket already dead
            }
            let metrics = inner.engine.metrics();
            let serving = conns
                .values()
                .filter(|c| !matches!(c.state, ConnState::Rejecting))
                .count();
            let cid = *next_conn_id;
            *next_conn_id += 1;
            let mut c = Conn::new(stream);
            c.queue_frame(frame(None, &server_hello(inner).encode()));
            if serving >= inner.config.max_connections {
                c.state = ConnState::Rejecting;
                metrics.connections_rejected.fetch_add(1, Ordering::Relaxed);
                let message = format!(
                    "server at its {}-connection cap; retry with backoff",
                    inner.config.max_connections
                );
                reply_error_and_close(inner, &mut c, ErrorCode::Busy, message);
            } else {
                metrics.connections_opened.fetch_add(1, Ordering::Relaxed);
            }
            // The greeting usually fits the socket buffer whole; write it
            // now so a ready client can answer within this same tick.
            if conn_write(&mut c) == Verdict::Keep {
                conns.insert(cid, c);
            }
        }
    }
}

/// The poll-set entry kinds, parallel to the `PollFd` vector.
#[derive(Clone, Copy)]
enum Token {
    Listener,
    Waker,
    Conn(u64),
}

/// Empties the self-wake pipe so the next poll blocks again.
fn drain_waker(waker_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    loop {
        match (&*waker_rx).read(&mut buf) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return, // WouldBlock: drained
        }
    }
}

fn server_hello(inner: &Inner) -> ServerHello {
    ServerHello {
        protocol_version: MAX_PROTOCOL_VERSION,
        store_version: inner.store_version.load(Ordering::SeqCst),
        num_nodes: inner.engine.num_nodes() as u64,
    }
}

/// Frames `resp` for a connection speaking `version`: protocol v2 carries
/// the request id, v1 has none. The only place the two framings part ways
/// on the way out.
fn response_frame(version: u16, id: u64, resp: &Response) -> Vec<u8> {
    frame((version >= PROTOCOL_V2).then_some(id), &resp.encode())
}

/// Queues `resp` on `c` under `version` framing, counting error frames.
fn queue_response(inner: &Inner, c: &mut Conn, version: u16, id: u64, resp: &Response) {
    if matches!(resp, Response::Error { .. }) {
        inner
            .engine
            .metrics()
            .net_errors
            .fetch_add(1, Ordering::Relaxed);
    }
    c.queue_frame(response_frame(version, id, resp));
}

/// Answers request `id` with a typed error; the connection keeps serving.
fn reply_error(
    inner: &Inner,
    c: &mut Conn,
    version: u16,
    id: u64,
    code: ErrorCode,
    message: String,
) {
    queue_response(inner, c, version, id, &Response::Error { code, message });
}

/// Answers with a typed error and ends the connection once it flushes;
/// nothing further is read. For failures no request id can be blamed for
/// (broken framing, a bad handshake, the connection cap), so the answer
/// goes under id 0 in the framing negotiated so far — v1 until a
/// handshake completes, since the peer has agreed to nothing else.
fn reply_error_and_close(inner: &Inner, c: &mut Conn, code: ErrorCode, message: String) {
    let version = match c.state {
        ConnState::Serving(v) => v,
        _ => PROTOCOL_VERSION,
    };
    reply_error(inner, c, version, 0, code, message);
    c.read_closed = true;
    c.close_after_flush = true;
}

/// Reads everything the socket has, parses complete frames, dispatches.
fn conn_readable(inner: &Inner, c: &mut Conn, cid: u64, job_tx: &Sender<Job>) -> Verdict {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if !c.wants_read() {
            break;
        }
        match c.stream.read(&mut buf) {
            Ok(0) => {
                c.read_closed = true;
                break;
            }
            Ok(n) => {
                c.rbuf.extend_from_slice(&buf[..n]);
                c.last_read = Instant::now();
                if n < buf.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Verdict::Close, // reset: silent close, like v1
        }
    }
    parse_frames(inner, c);
    pump(inner, c, cid, job_tx);
    if c.is_finished() {
        return Verdict::Close;
    }
    Verdict::Keep
}

/// Splits `c.rbuf` into complete frames and routes each through the
/// connection's state machine. Framing violations (oversized or empty
/// frames) get a typed error and end the connection once it flushes;
/// per-frame decode errors answer typed and keep serving.
fn parse_frames(inner: &Inner, c: &mut Conn) {
    let mut at = 0usize;
    loop {
        let avail = c.rbuf.len().saturating_sub(at);
        if avail < 4 {
            break;
        }
        let prefix = [c.rbuf[at], c.rbuf[at + 1], c.rbuf[at + 2], c.rbuf[at + 3]];
        match frame_len(prefix, inner.config.max_frame_len) {
            Err(e) => {
                let code = match e {
                    WireError::FrameTooLarge { .. } => ErrorCode::FrameTooLarge,
                    _ => ErrorCode::Malformed,
                };
                reply_error_and_close(inner, c, code, e.to_string());
            }
            Ok(len) if avail < 4 + len => break,
            Ok(len) => {
                let payload = c.rbuf[at + 4..at + 4 + len].to_vec();
                at += 4 + len;
                accept_frame(inner, c, &payload);
            }
        }
        if c.close_after_flush {
            // Broken framing, or a handshake failure mid-buffer: discard
            // the rest. A plain peer EOF sets only `read_closed`, and the
            // frames the peer sent before half-closing are still owed
            // their answers.
            c.rbuf.clear();
            c.frame_started = None;
            return;
        }
    }
    if at > 0 {
        c.rbuf.drain(..at);
    }
    c.frame_started = if c.rbuf.is_empty() {
        None
    } else {
        c.frame_started.or_else(|| Some(Instant::now()))
    };
}

/// Routes one complete frame payload through the connection state.
fn accept_frame(inner: &Inner, c: &mut Conn, payload: &[u8]) {
    match c.state {
        ConnState::Rejecting => {} // never read, never dispatched
        ConnState::Handshake => match ClientHello::decode(payload) {
            Ok(hello) if (1..=MAX_PROTOCOL_VERSION).contains(&hello.protocol_version) => {
                c.state = ConnState::Serving(hello.protocol_version);
            }
            Ok(hello) => {
                let message = format!(
                    "server speaks protocol versions 1..={MAX_PROTOCOL_VERSION}, \
                     client spoke {}",
                    hello.protocol_version
                );
                reply_error_and_close(inner, c, ErrorCode::VersionMismatch, message);
            }
            Err(e) => {
                let message = format!("expected client hello: {e}");
                reply_error_and_close(inner, c, ErrorCode::Malformed, message);
            }
        },
        ConnState::Serving(version) => {
            inner
                .engine
                .metrics()
                .net_requests
                .fetch_add(1, Ordering::Relaxed);
            let (id, inner_payload) = if version >= PROTOCOL_V2 {
                match split_mux(payload) {
                    Ok(split) => split,
                    Err(e) => {
                        // Echo the id when the payload carried one; a
                        // payload too short even for that answers id 0.
                        let id = payload
                            .get(..8)
                            .map(|b| {
                                u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
                            })
                            .unwrap_or(0);
                        reply_error(inner, c, version, id, ErrorCode::Malformed, e.to_string());
                        return;
                    }
                }
            } else {
                (0u64, payload)
            };
            match Request::decode(inner_payload) {
                Ok(request) => c.pending.push_back((id, request)),
                // The frame boundary is intact, so the connection can keep
                // serving after reporting the bad frame.
                Err(e) => reply_error(inner, c, version, id, ErrorCode::Malformed, e.to_string()),
            }
        }
    }
}

/// Dispatches as many pending requests as the protocol allows: v1 is
/// strictly one at a time (lock-step order), v2 up to the in-flight cap
/// with overflow answered `Busy` per id.
fn pump(inner: &Inner, c: &mut Conn, cid: u64, job_tx: &Sender<Job>) {
    let ConnState::Serving(version) = c.state else {
        return;
    };
    while let Some(&(id, _)) = c.pending.front() {
        if version < PROTOCOL_V2 && c.inflight > 0 {
            break; // lock-step: the previous request must answer first
        }
        let Some((_, request)) = c.pending.pop_front() else {
            break;
        };
        match request {
            Request::Ping => queue_response(inner, c, version, id, &Response::Pong),
            Request::Metrics => {
                let snap = Response::Metrics(inner.engine.snapshot());
                queue_response(inner, c, version, id, &snap);
            }
            Request::Shutdown if inner.config.allow_remote_shutdown => {
                queue_response(inner, c, version, id, &Response::ShutdownAck);
                inner.trigger_stop();
            }
            Request::Shutdown => {
                let message = "remote shutdown is disabled on this server".to_string();
                reply_error(inner, c, version, id, ErrorCode::Unsupported, message);
            }
            Request::Reload { .. } if !inner.config.allow_remote_reload => {
                let message = "remote reload is disabled on this server".to_string();
                reply_error(inner, c, version, id, ErrorCode::Unsupported, message);
            }
            heavy => {
                // Engine-bound work goes to the pool. v2 connections may
                // stack these to the cap; overflow answers Busy so the
                // pool's queue stays bounded per connection.
                if version >= PROTOCOL_V2 && c.inflight >= inner.config.max_inflight_per_conn {
                    let message = format!(
                        "connection at its {}-request in-flight cap; retry with backoff",
                        inner.config.max_inflight_per_conn
                    );
                    reply_error(inner, c, version, id, ErrorCode::Busy, message);
                    continue;
                }
                c.inflight += 1;
                let job = Job {
                    conn: cid,
                    id,
                    version,
                    request: heavy,
                };
                if job_tx.send(job).is_err() {
                    // The pool is gone (teardown): answer typed rather
                    // than leaving the id unanswered forever.
                    c.inflight = c.inflight.saturating_sub(1);
                    let message = "server is draining".to_string();
                    reply_error(inner, c, version, id, ErrorCode::ShuttingDown, message);
                }
            }
        }
    }
}

/// Drains the write queue as far as the socket allows.
fn conn_write(c: &mut Conn) -> Verdict {
    while let Some(front) = c.wqueue.front() {
        match c.stream.write(&front[c.wfront_at..]) {
            Ok(0) => return Verdict::Close, // peer stopped accepting bytes
            Ok(n) => {
                c.wfront_at += n;
                c.wbytes = c.wbytes.saturating_sub(n);
                c.write_stalled = None;
                if c.wfront_at >= front.len() {
                    c.wqueue.pop_front();
                    c.wfront_at = 0;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if c.write_stalled.is_none() {
                    c.write_stalled = Some(Instant::now());
                }
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Verdict::Close, // reset mid-response
        }
    }
    if c.wqueue.is_empty() {
        c.write_stalled = None;
    }
    if c.is_finished() {
        Verdict::Close
    } else {
        Verdict::Keep
    }
}

/// One worker: executes engine-bound requests and posts framed
/// completions back to the loop, waking it through the pipe.
fn worker_loop(inner: &Inner, job_rx: &Mutex<Receiver<Job>>, done_tx: &Sender<Completion>) {
    loop {
        // Holding the lock across `recv` parks exactly one idle worker on
        // the channel; the rest queue on the mutex. Hand-off is fair
        // enough for a pool this small and keeps the channel single-consumer.
        let job = { lock_unpoisoned(job_rx).recv() };
        let Ok(job) = job else {
            return; // channel closed: the server is done
        };
        let response = execute(inner, job.request);
        let completion = Completion {
            conn: job.conn,
            frame: response_frame(job.version, job.id, &response),
            is_error: matches!(response, Response::Error { .. }),
        };
        if done_tx.send(completion).is_err() {
            return; // loop is gone: nothing left to complete into
        }
        inner.wake();
    }
}

/// Executes one engine-bound request (the `pump` fast paths — ping,
/// metrics, shutdown, gating — never reach here).
fn execute(inner: &Inner, request: Request) -> Response {
    let engine = &inner.engine;
    let answered = match request {
        Request::Query { u, v } => engine.query(u, v).map(Response::Distance),
        Request::QueryBatch(pairs) => engine.query_batch(&pairs).map(Response::DistanceBatch),
        Request::Label { v } => label(engine, v).map(Response::Label),
        // Fails atomically on the first out-of-range vertex, so a partial
        // batch is never returned.
        Request::LabelBatch(vs) => vs
            .iter()
            .map(|&v| label(engine, v))
            .collect::<Result<_, _>>()
            .map(Response::LabelBatch),
        Request::Reload { path } => Ok(handle_reload(inner, &path)),
        // Already answered inline by `pump`; kept total for safety.
        Request::Ping => Ok(Response::Pong),
        Request::Metrics => Ok(Response::Metrics(engine.snapshot())),
        Request::Shutdown => Ok(Response::ShutdownAck),
    };
    answered.unwrap_or_else(|e| {
        let code = match e {
            EngineError::NodeOutOfRange { .. } => ErrorCode::NodeOutOfRange,
            _ => ErrorCode::Internal,
        };
        Response::Error {
            code,
            message: e.to_string(),
        }
    })
}

/// One vertex's label as the `(hub, distance)` pairs the wire ships.
fn label(engine: &QueryEngine, v: u32) -> Result<Vec<(u32, hl_graph::Distance)>, EngineError> {
    let (hubs, dists) = engine.label_of(v)?;
    Ok(hubs.into_iter().zip(dists).collect())
}

/// Mounts the store at `path` into the engine. The new store is opened
/// and fully validated *before* the swap, so a missing or corrupt file
/// reports an error and leaves the current epoch serving untouched.
fn handle_reload(inner: &Inner, path: &str) -> Response {
    let mounted = AnyStore::open(path).and_then(|store| {
        let version = store.version();
        Ok((version, store.into_served()?))
    });
    match mounted {
        Ok((version, labeling)) => {
            let num_nodes = labeling.num_nodes() as u64;
            let epoch = inner.engine.reload(labeling);
            inner.store_version.store(version, Ordering::SeqCst);
            Response::ReloadAck { epoch, num_nodes }
        }
        Err(e) => {
            // The one store failure a serving daemon can observe.
            let metrics = inner.engine.metrics();
            metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
            Response::Error {
                code: ErrorCode::Internal,
                message: format!("reload of {path:?} failed: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A buffer-filling read followed by `Ok(0)` reaches `parse_frames`
    /// with `read_closed` already set: every complete frame in the buffer
    /// was sent before the half-close and must still be parsed.
    #[test]
    fn parse_frames_keeps_what_the_peer_sent_before_half_closing() {
        let engine = QueryEngine::new(hl_core::HubLabeling::empty(1), 1).expect("engine");
        let server = NetServer::bind(Arc::new(engine), "127.0.0.1:0", ServerConfig::default())
            .expect("bind");
        let _peer = TcpStream::connect(server.local_addr()).expect("connect");
        let (stream, _) = server.listener.accept().expect("accept");
        let mut c = Conn::new(stream);
        c.state = ConnState::Serving(PROTOCOL_VERSION);
        let ping = frame(None, &Request::Ping.encode());
        for _ in 0..3 {
            c.rbuf.extend_from_slice(&ping);
        }
        c.rbuf.extend_from_slice(&ping[..2]);
        c.read_closed = true;

        parse_frames(&server.inner, &mut c);

        assert_eq!(c.pending.len(), 3);
        assert_eq!(c.rbuf, &ping[..2]);
    }
}
