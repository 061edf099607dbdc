//! The serving daemon: an event-driven readiness loop over nonblocking
//! sockets, answering HLNP frames from a shared [`QueryEngine`].
//!
//! This file is the *shell*: it owns the file descriptors, the worker
//! pool and the one clock read per turn, and decides nothing about the
//! protocol. One thread runs `poll(2)` (via the zero-dependency
//! [`hl_sys`] shim) over the listener, a self-wake pipe, and every live
//! connection, so 10k idle-ish clients cost file descriptors, not stacks.
//! Per turn it reads a chunk at a time into each ready connection's
//! state machine (`conn.rs`), hands the requests the machine lets
//! out to a worker pool of the engine's width
//! ([`QueryEngine::num_workers`]) — the daemon's only standing threads
//! besides the loop — feeds the pool's completions back, writes each
//! connection's queued bytes once, and drops the connections the machine
//! calls finished or expired. What a connection may do — what is read,
//! dispatched, owed an answer, refused, timed out — is `conn.rs`'s
//! decision alone.
//!
//! Design constraints, in order:
//!
//! - **Never panic, never hang past a timeout.** Frames are
//!   length-capped before buffering; malformed input gets a typed error
//!   frame; the loop ticks every `POLL_TICK` (50 ms) so the idle,
//!   whole-frame and write-stall budgets are checked regardless of
//!   socket state.
//! - **Bounded resources.** At most `max_connections` connections are
//!   served at once (excess is greeted and turned away
//!   [`ErrorCode::Busy`]); at most `max_inflight_per_conn` requests per
//!   v2 connection are in flight (excess gets a per-id `Busy`); reads
//!   pause, checked after every chunk, when a connection's parsed frames
//!   or unwritten responses back up.
//! - **Graceful shutdown.** A `Shutdown` request (or [`StopHandle`])
//!   flips one atomic flag and writes the wake pipe. The loop stops
//!   accepting and reading, drops frames it had parsed but not yet
//!   handed to the pool, answers and flushes every request already in
//!   flight (bounded by the write budget), then joins the worker pool
//!   before [`NetServer::serve`] returns.
//!
//! Metrics flow into the engine's existing [`hl_server::Metrics`]:
//! connections opened/rejected, request frames handled, error frames
//! sent, and per-query latency via the engine's own histogram.

use std::collections::HashMap;
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

use crate::conn::{response_frame, Conn, READ_CHUNK};
use crate::error::NetError;
use crate::wire::{ErrorCode, Request, Response, DEFAULT_MAX_FRAME_LEN};

/// The readiness loop's maximum sleep: every connection's deadlines are
/// checked at least this often even with no socket activity at all.
const POLL_TICK: Duration = Duration::from_millis(50);

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
        // A full wake pipe already guarantees a wake; any other failure
        // means teardown.
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
    /// accepting and reading, answers and flushes what is already in
    /// flight (bounded by the write budget), and joins the worker pool.
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
        let (config, engine) = (&inner.config, &*inner.engine);
        let mut conns: HashMap<u64, (TcpStream, Conn)> = HashMap::new();
        let mut next_conn_id: u64 = 0;
        let mut pollfds: Vec<PollFd> = Vec::new();
        let mut tokens: Vec<Token> = Vec::new();
        // Set once the stop flag has been seen: when the drain gives up.
        let mut drain_deadline: Option<Instant> = None;

        loop {
            pollfds.clear();
            tokens.clear();
            if drain_deadline.is_none() {
                pollfds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
                tokens.push(Token::Listener);
            }
            pollfds.push(PollFd::new(self.waker_rx.as_raw_fd(), POLLIN));
            tokens.push(Token::Waker);
            for (&cid, (stream, c)) in conns.iter() {
                let mut events = 0i16;
                if c.wants_read() {
                    events |= POLLIN;
                }
                if !c.writable().is_empty() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    pollfds.push(PollFd::new(stream.as_raw_fd(), events));
                    tokens.push(Token::Conn(cid));
                }
            }
            poll(&mut pollfds, Some(POLL_TICK))?;
            // The turn's one clock read: every machine sees the same now.
            let now = Instant::now();

            for (fd, token) in pollfds.iter().zip(tokens.iter()) {
                match *token {
                    Token::Listener if fd.readable() => {
                        self.accept_ready(&mut conns, &mut next_conn_id, now)?;
                    }
                    Token::Waker if fd.readable() => drain_waker(&self.waker_rx),
                    Token::Conn(cid) if fd.invalid() => {
                        conns.remove(&cid);
                    }
                    Token::Conn(cid) if fd.readable() => {
                        let alive = conns
                            .get_mut(&cid)
                            .is_none_or(|(stream, c)| read_chunks(inner, stream, c, now));
                        if !alive {
                            conns.remove(&cid); // reset: silent close
                        }
                    }
                    _ => {}
                }
            }

            // A connection that died while its job ran is owed nothing.
            while let Ok(done) = done_rx.try_recv() {
                if let Some((_, c)) = conns.get_mut(&done.conn) {
                    c.on_completion(engine, &done.frame, done.is_error);
                }
            }

            if drain_deadline.is_none() && inner.stop.load(Ordering::SeqCst) {
                drain_deadline = Some(now + config.write_timeout);
                for (_, c) in conns.values_mut() {
                    c.begin_drain();
                }
            }

            // Every connection, every turn: hand out what the machine
            // lets out, write what it has queued once, and drop it when
            // it says it is done or overdue — so a peer the kernel never
            // reports on still cannot overstay.
            conns.retain(|&cid, (stream, c)| {
                while let Some((id, version, request)) = c.next_job(config, engine) {
                    let job = Job {
                        conn: cid,
                        id,
                        version,
                        request,
                    };
                    if let Err(mpsc::SendError(job)) = job_tx.send(job) {
                        // The pool is gone (teardown): answer typed rather
                        // than leaving the id unanswered forever.
                        let code = ErrorCode::ShuttingDown;
                        let message = "server is draining".to_string();
                        let refusal = Response::Error { code, message };
                        c.on_completion(
                            engine,
                            &response_frame(job.version, job.id, &refusal),
                            true,
                        );
                    }
                }
                if c.stop_requested() {
                    inner.trigger_stop();
                }
                write_once(stream, c, now) && !c.is_finished() && !c.expired(config, now)
            });

            if drain_deadline.is_some_and(|deadline| conns.is_empty() || now >= deadline) {
                return Ok(());
            }
        }
    }

    /// Accepts every connection the kernel has queued; the machine greets
    /// each and turns away those over the cap.
    fn accept_ready(
        &self,
        conns: &mut HashMap<u64, (TcpStream, Conn)>,
        next_conn_id: &mut u64,
        now: Instant,
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
            // The greeting is written in this same turn's write pass, so
            // a ready client can answer within the tick.
            let store_version = inner.store_version.load(Ordering::SeqCst);
            let c = Conn::accept(
                &inner.config,
                &inner.engine,
                store_version,
                conns.len(),
                now,
            );
            conns.insert(*next_conn_id, (stream, c));
            *next_conn_id += 1;
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

/// Reads one chunk at a time for as long as the machine wants input and
/// the socket has some. `false` when the socket is dead.
fn read_chunks(inner: &Inner, stream: &mut TcpStream, c: &mut Conn, now: Instant) -> bool {
    let mut buf = [0u8; READ_CHUNK];
    while c.wants_read() {
        match stream.read(&mut buf) {
            Ok(0) => {
                c.on_eof();
                break;
            }
            Ok(n) => {
                c.on_bytes(&inner.config, &inner.engine, &buf[..n], now);
                if n < buf.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Offers the machine's queued bytes to the socket once. `false` when
/// the socket is dead (the peer stopped accepting bytes, or reset).
fn write_once(stream: &mut TcpStream, c: &mut Conn, now: Instant) -> bool {
    while !c.writable().is_empty() {
        match stream.write(c.writable()) {
            Ok(0) => return false,
            Ok(n) => {
                c.wrote(n);
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                c.write_blocked(now);
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
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
        let response = execute(&inner.engine, &inner.store_version, job.request);
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

/// Executes one engine-bound request (what [`Conn::next_job`] answers
/// inline — ping, metrics, shutdown, gating — never reaches here).
/// `store_version` is the live hello field a successful `Reload` updates.
pub(crate) fn execute(
    engine: &QueryEngine,
    store_version: &AtomicU16,
    request: Request,
) -> Response {
    let answered = match request {
        Request::Query { u, v } => engine.query(u, v).map(Response::Distance),
        Request::QueryBatch(pairs) => engine.query_batch(&pairs).map(Response::DistanceBatch),
        Request::Label { v } => engine.label_of(v).map(Response::Label),
        // Fails atomically on the first out-of-range vertex, so a partial
        // batch is never returned.
        Request::LabelBatch(vs) => vs
            .iter()
            .map(|&v| engine.label_of(v))
            .collect::<Result<_, _>>()
            .map(Response::LabelBatch),
        Request::Reload { path } => Ok(handle_reload(engine, store_version, &path)),
        // Already answered inline by the machine; kept total for safety.
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

/// Mounts the store at `path` into the engine. The new store is opened
/// and fully validated *before* the swap, so a missing or corrupt file
/// reports an error and leaves the current epoch serving untouched.
fn handle_reload(engine: &QueryEngine, store_version: &AtomicU16, path: &str) -> Response {
    let mounted = AnyStore::open(path).and_then(|store| {
        let version = store.version();
        Ok((version, store.into_flat()?))
    });
    match mounted {
        Ok((version, labeling)) => {
            let num_nodes = labeling.num_nodes() as u64;
            let epoch = engine.reload(labeling);
            store_version.store(version, Ordering::SeqCst);
            Response::ReloadAck { epoch, num_nodes }
        }
        Err(e) => {
            // The one store failure a serving daemon can observe.
            let metrics = engine.metrics();
            metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
            Response::Error {
                code: ErrorCode::Internal,
                message: format!("reload of {path:?} failed: {e}"),
            }
        }
    }
}
