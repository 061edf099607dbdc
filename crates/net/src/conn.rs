//! What one connection may do: the daemon's per-connection policy as a
//! plain state machine with no socket, no channel and no clock read.
//!
//! The readiness loop in [`crate::server`] owns the file descriptors and
//! the one clock read per turn; everything it learns it reports here —
//! [`Conn::on_bytes`], [`Conn::on_eof`], [`Conn::on_completion`],
//! [`Conn::wrote`], [`Conn::write_blocked`], [`Conn::begin_drain`] — and
//! everything it does it is told here: [`Conn::wants_read`],
//! [`Conn::next_job`], [`Conn::writable`], [`Conn::expired`],
//! [`Conn::is_finished`]. Every per-connection limit (pending frames,
//! queued write bytes, in-flight requests, the frame cap, the idle,
//! whole-frame and write-stall budgets, the connection cap's greeting) is
//! a decision of this file and of no other, so each is tested at and one
//! past its boundary on a virtual clock, and the whole machine is
//! enumerated over split points, EOF positions, completion orders and
//! drain timing in the tests below.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::Instant;

use hl_server::QueryEngine;

use crate::server::ServerConfig;
use crate::wire::{
    frame, frame_len, split_mux, ClientHello, ErrorCode, Request, Response, ServerHello, WireError,
    MAX_PROTOCOL_VERSION, PROTOCOL_V2, PROTOCOL_VERSION,
};

/// The most bytes one [`Conn::on_bytes`] call carries: the loop's read
/// buffer. Read-side caps are enforced *per chunk* — the loop re-asks
/// [`Conn::wants_read`] after each one, not once per readiness event — so
/// a connection overshoots [`MAX_PENDING_FRAMES`] by at most the frames
/// one chunk holds and buffers at most one chunk past one capped frame
/// ([`Conn::within_limits`]).
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Parsed-but-undispatched request frames a connection may hold before
/// it stops reading (v1 pipelining backpressure).
const MAX_PENDING_FRAMES: usize = 1024;

/// Queued-but-unwritten response bytes a connection may hold before it
/// stops reading, so a client that floods requests without draining
/// responses backs up its own TCP window instead of our heap.
const MAX_QUEUED_WRITE_BYTES: usize = 8 << 20;

/// The smallest frame on the wire: a length prefix and an opcode.
const MIN_FRAME_BYTES: usize = 5;

/// Where the handshake stands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Greeting queued; the next frame must be the client's hello.
    Handshake,
    /// Handshake done; frames are requests under this protocol version.
    Serving(u16),
}

/// Whether, and why, the connection is winding down. The two reasons
/// differ in what the peer is still owed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ending {
    /// Reading and serving.
    Open,
    /// No more input — the peer half-closed, or the daemon is draining —
    /// but every request accepted so far is still owed its answer; the
    /// connection ends once those are flushed.
    Settling,
    /// The peer broke framing or the handshake, or was turned away at the
    /// connection cap: what it was owed is void, and the connection ends
    /// once the error saying why is flushed.
    Void,
}

/// Frames `resp` for a connection speaking `version`: protocol v2 carries
/// the request id, v1 has none. The only place the two framings part ways
/// on the way out.
pub(crate) fn response_frame(version: u16, id: u64, resp: &Response) -> Vec<u8> {
    frame((version >= PROTOCOL_V2).then_some(id), &resp.encode())
}

fn error(code: ErrorCode, message: String) -> Response {
    Response::Error { code, message }
}

/// One connection's protocol state.
#[derive(Clone)]
pub(crate) struct Conn {
    phase: Phase,
    ending: Ending,
    /// Inbound bytes not yet parsed: at most one partial frame.
    rbuf: Vec<u8>,
    /// Outbound frames back to back; `wbuf[wat..]` is still unwritten.
    wbuf: Vec<u8>,
    wat: usize,
    /// Parsed frames not yet dispatched, with their v2 ids (0 for v1). A
    /// frame that did not decode waits its turn here too, so protocol-v1
    /// answers leave in request order whatever they say.
    pending: VecDeque<(u64, Result<Request, String>)>,
    /// Requests handed out by `next_job` and not yet completed.
    inflight: usize,
    /// When the last byte arrived (or the connection was accepted).
    last_read: Instant,
    /// When the current partial frame's first byte arrived — the
    /// whole-frame (slow-loris) budget anchors here.
    frame_started: Option<Instant>,
    /// Since when unwritten bytes have waited without the socket taking
    /// one.
    write_stalled: Option<Instant>,
    /// A permitted `Shutdown` request was answered here.
    stop_requested: bool,
}

impl Conn {
    /// Greets a just-accepted connection — or, when `serving` connections
    /// already fill the cap, greets it, says `Busy` and voids it.
    pub(crate) fn accept(
        config: &ServerConfig,
        engine: &QueryEngine,
        store_version: u16,
        serving: usize,
        now: Instant,
    ) -> Conn {
        let hello = ServerHello {
            protocol_version: MAX_PROTOCOL_VERSION,
            store_version,
            num_nodes: engine.num_nodes() as u64,
        };
        let mut c = Conn {
            phase: Phase::Handshake,
            ending: Ending::Open,
            rbuf: Vec::new(),
            wbuf: frame(None, &hello.encode()),
            wat: 0,
            pending: VecDeque::new(),
            inflight: 0,
            last_read: now,
            frame_started: None,
            write_stalled: None,
            stop_requested: false,
        };
        let metrics = engine.metrics();
        if serving >= config.max_connections {
            metrics.connections_rejected.fetch_add(1, Ordering::Relaxed);
            let message = format!(
                "server at its {}-connection cap; retry with backoff",
                config.max_connections
            );
            c.fail(engine, ErrorCode::Busy, message);
        } else {
            metrics.connections_opened.fetch_add(1, Ordering::Relaxed);
        }
        c
    }

    /// Whether the loop should read from this connection.
    pub(crate) fn wants_read(&self) -> bool {
        self.ending == Ending::Open
            && self.pending.len() < MAX_PENDING_FRAMES
            && self.writable().len() < MAX_QUEUED_WRITE_BYTES
    }

    /// The bounds that hold when `wants_read` is asked after every chunk:
    /// the pending cap plus one chunk's frames, one capped frame plus one
    /// chunk of read buffer, and the in-flight cap (lock-step v1: one).
    pub(crate) fn within_limits(&self, config: &ServerConfig) -> bool {
        let inflight_cap = match self.phase {
            Phase::Serving(PROTOCOL_V2..) => config.max_inflight_per_conn,
            _ => 1,
        };
        self.pending.len() < MAX_PENDING_FRAMES + READ_CHUNK / MIN_FRAME_BYTES
            && self.rbuf.len() < 4 + config.max_frame_len as usize + READ_CHUNK
            && self.inflight <= inflight_cap
    }

    /// Takes one chunk (at most [`READ_CHUNK`] bytes) the socket
    /// delivered at `now`: splits off every complete frame and routes it
    /// through the handshake or into the pending queue. A framing
    /// violation (oversized or empty frame) or a bad hello answers typed
    /// and voids the connection; a frame that merely does not decode is
    /// answered `Malformed` in its turn and the connection keeps serving.
    pub(crate) fn on_bytes(
        &mut self,
        config: &ServerConfig,
        engine: &QueryEngine,
        chunk: &[u8],
        now: Instant,
    ) {
        if self.ending != Ending::Open {
            return;
        }
        self.last_read = now;
        let mut buf = std::mem::take(&mut self.rbuf);
        buf.extend_from_slice(chunk);
        let mut at = 0usize;
        while self.ending == Ending::Open && buf.len() - at >= 4 {
            let prefix = [buf[at], buf[at + 1], buf[at + 2], buf[at + 3]];
            match frame_len(prefix, config.max_frame_len) {
                Err(e) => {
                    let code = match e {
                        WireError::FrameTooLarge { .. } => ErrorCode::FrameTooLarge,
                        _ => ErrorCode::Malformed,
                    };
                    self.fail(engine, code, e.to_string());
                }
                Ok(len) if buf.len() - at < 4 + len => break,
                Ok(len) => {
                    self.on_frame(engine, &buf[at + 4..at + 4 + len]);
                    at += 4 + len;
                }
            }
        }
        if self.ending == Ending::Open {
            buf.drain(..at);
            self.frame_started = if buf.is_empty() {
                None
            } else {
                self.frame_started.or(Some(now))
            };
            self.rbuf = buf;
        }
    }

    /// Routes one complete frame payload.
    fn on_frame(&mut self, engine: &QueryEngine, payload: &[u8]) {
        let version = match self.phase {
            Phase::Serving(version) => version,
            Phase::Handshake => {
                match ClientHello::decode(payload) {
                    Ok(hello) if (1..=MAX_PROTOCOL_VERSION).contains(&hello.protocol_version) => {
                        self.phase = Phase::Serving(hello.protocol_version);
                    }
                    Ok(hello) => {
                        let message = format!(
                            "server speaks protocol versions 1..={MAX_PROTOCOL_VERSION}, \
                             client spoke {}",
                            hello.protocol_version
                        );
                        self.fail(engine, ErrorCode::VersionMismatch, message);
                    }
                    Err(e) => {
                        let message = format!("expected client hello: {e}");
                        self.fail(engine, ErrorCode::Malformed, message);
                    }
                }
                return;
            }
        };
        let metrics = engine.metrics();
        metrics.net_requests.fetch_add(1, Ordering::Relaxed);
        // The frame boundary is intact either way, so an undecodable
        // frame costs its sender one `Malformed`, not the connection.
        let (id, request) = if version >= PROTOCOL_V2 {
            match split_mux(payload) {
                Ok((id, body)) => (id, Request::decode(body)),
                // Echo the id when the payload carried one; a payload too
                // short even for that answers id 0.
                Err(e) => {
                    let id = payload
                        .first_chunk::<8>()
                        .map_or(0, |b| u64::from_le_bytes(*b));
                    (id, Err(e))
                }
            }
        } else {
            (0, Request::decode(payload))
        };
        self.pending
            .push_back((id, request.map_err(|e| e.to_string())));
    }

    /// The peer half-closed: what it sent before is still owed answers.
    pub(crate) fn on_eof(&mut self) {
        if self.ending == Ending::Open {
            self.ending = Ending::Settling;
        }
    }

    /// The daemon is draining: nothing more is read and frames not yet
    /// handed out are dropped, but every request already in flight is
    /// still answered and flushed before the connection ends.
    pub(crate) fn begin_drain(&mut self) {
        if self.ending != Ending::Void {
            self.ending = Ending::Settling;
            self.pending.clear();
        }
    }

    /// Works through the pending queue as far as the protocol allows and
    /// returns the next request the engine must run, as `(id, version,
    /// request)`. Everything else is answered right here: `Ping`,
    /// `Metrics` and the gated `Shutdown`/`Reload` inline, an undecodable
    /// frame `Malformed`, and — on protocol v2, which may stack requests
    /// up to the in-flight cap — overflow `Busy` per id. Protocol v1 is
    /// lock-step: nothing is handed out or answered while one request is
    /// in flight.
    pub(crate) fn next_job(
        &mut self,
        config: &ServerConfig,
        engine: &QueryEngine,
    ) -> Option<(u64, u16, Request)> {
        let Phase::Serving(version) = self.phase else {
            return None;
        };
        loop {
            if version < PROTOCOL_V2 && self.inflight > 0 {
                return None;
            }
            let (id, request) = self.pending.pop_front()?;
            let answer = match request {
                Err(message) => error(ErrorCode::Malformed, message),
                Ok(Request::Ping) => Response::Pong,
                Ok(Request::Metrics) => Response::Metrics(engine.snapshot()),
                Ok(Request::Shutdown) if config.allow_remote_shutdown => {
                    self.stop_requested = true;
                    Response::ShutdownAck
                }
                Ok(Request::Shutdown) => error(
                    ErrorCode::Unsupported,
                    "remote shutdown is disabled on this server".to_string(),
                ),
                Ok(Request::Reload { .. }) if !config.allow_remote_reload => error(
                    ErrorCode::Unsupported,
                    "remote reload is disabled on this server".to_string(),
                ),
                Ok(_)
                    if version >= PROTOCOL_V2 && self.inflight >= config.max_inflight_per_conn =>
                {
                    let message = format!(
                        "connection at its {}-request in-flight cap; retry with backoff",
                        config.max_inflight_per_conn
                    );
                    error(ErrorCode::Busy, message)
                }
                Ok(heavy) => {
                    self.inflight += 1;
                    return Some((id, version, heavy));
                }
            };
            self.answer(engine, version, id, &answer);
        }
    }

    /// `true` once a permitted `Shutdown` request has been acknowledged
    /// on this connection: the loop should stop the daemon.
    pub(crate) fn stop_requested(&self) -> bool {
        self.stop_requested
    }

    /// A request handed out by `next_job` finished; `framed` is its
    /// answer, fully framed. A voided connection is owed nothing.
    pub(crate) fn on_completion(&mut self, engine: &QueryEngine, framed: &[u8], is_error: bool) {
        self.inflight = self.inflight.saturating_sub(1);
        if self.ending == Ending::Void {
            return;
        }
        if is_error {
            let metrics = engine.metrics();
            metrics.net_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.wbuf.extend_from_slice(framed);
    }

    /// The bytes waiting to be written, oldest first.
    pub(crate) fn writable(&self) -> &[u8] {
        &self.wbuf[self.wat..]
    }

    /// The socket took the first `n` bytes of `writable()`: any progress
    /// stops the write-stall clock.
    pub(crate) fn wrote(&mut self, n: usize) {
        self.wat = (self.wat + n).min(self.wbuf.len());
        if n > 0 {
            self.write_stalled = None;
        }
        if self.wat == self.wbuf.len() {
            self.wbuf.clear();
            self.wat = 0;
        } else if self.wat >= self.wbuf.len() / 2 {
            self.wbuf.drain(..self.wat);
            self.wat = 0;
        }
    }

    /// The socket refused every byte of `writable()` at `now`: the
    /// write-stall clock starts unless it is already running.
    pub(crate) fn write_blocked(&mut self, now: Instant) {
        self.write_stalled.get_or_insert(now);
    }

    /// Whether a deadline has passed at `now`: a frame open longer than
    /// `frame_timeout` (slow-loris), unwritten bytes refused for longer
    /// than `write_timeout`, or — only when nothing is pending, in
    /// flight, queued or mid-frame — no byte for longer than
    /// `read_timeout`. The loop drops an expired connection silently.
    pub(crate) fn expired(&self, config: &ServerConfig, now: Instant) -> bool {
        let past = |t0: Instant, budget| now.duration_since(t0) > budget;
        let idle = self.inflight == 0
            && self.pending.is_empty()
            && self.writable().is_empty()
            && self.frame_started.is_none();
        self.frame_started
            .is_some_and(|t0| past(t0, config.frame_timeout))
            || self
                .write_stalled
                .is_some_and(|t0| past(t0, config.write_timeout))
            || (idle && past(self.last_read, config.read_timeout))
    }

    /// `true` once nothing more can ever happen on this connection.
    pub(crate) fn is_finished(&self) -> bool {
        let flushed = self.writable().is_empty();
        match self.ending {
            Ending::Open => false,
            Ending::Settling => flushed && self.inflight == 0 && self.pending.is_empty(),
            Ending::Void => flushed,
        }
    }

    /// Appends `resp` under `version` framing, counting error frames.
    fn answer(&mut self, engine: &QueryEngine, version: u16, id: u64, resp: &Response) {
        if matches!(resp, Response::Error { .. }) {
            let metrics = engine.metrics();
            metrics.net_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.wbuf
            .extend_from_slice(&response_frame(version, id, resp));
    }

    /// Answers with a typed error and voids the connection: nothing
    /// further is read, nothing pending is dispatched, nothing in flight
    /// is delivered. For failures no request id can be blamed for (broken
    /// framing, a bad handshake, the connection cap), so the answer goes
    /// under id 0 in the framing negotiated so far — v1 until a handshake
    /// completes, since the peer has agreed to nothing else.
    fn fail(&mut self, engine: &QueryEngine, code: ErrorCode, message: String) {
        let version = match self.phase {
            Phase::Serving(version) => version,
            Phase::Handshake => PROTOCOL_VERSION,
        };
        self.answer(engine, version, 0, &error(code, message));
        self.ending = Ending::Void;
        self.pending.clear();
        self.frame_started = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::PureConn;
    use crate::wire::DEFAULT_MAX_FRAME_LEN;
    use hl_core::pll::PrunedLandmarkLabeling;
    use std::sync::atomic::AtomicU16;
    use std::time::Duration;

    const NS: Duration = Duration::from_nanos(1);

    fn engine() -> QueryEngine {
        let g = hl_graph::generators::path(4);
        QueryEngine::new(PrunedLandmarkLabeling::by_degree(&g).into_labeling(), 1).unwrap()
    }

    fn config() -> ServerConfig {
        ServerConfig {
            max_connections: 2,
            read_timeout: Duration::from_millis(800),
            write_timeout: Duration::from_millis(1000),
            frame_timeout: Duration::from_millis(300),
            allow_remote_shutdown: false,
            allow_remote_reload: false,
            ..ServerConfig::default()
        }
    }

    fn hello(version: u16) -> Vec<u8> {
        let protocol_version = version;
        frame(None, &ClientHello { protocol_version }.encode())
    }

    /// `r` framed as a client speaking `version` sends it.
    fn req(version: u16, id: u64, r: &Request) -> Vec<u8> {
        frame((version >= PROTOCOL_V2).then_some(id), &r.encode())
    }

    /// The peer reads everything queued.
    fn flush(c: &mut Conn) -> Vec<u8> {
        let out = c.writable().to_vec();
        c.wrote(out.len());
        out
    }

    /// A connection past a `version` handshake, greeting already read.
    fn serving(cfg: &ServerConfig, eng: &QueryEngine, version: u16, t0: Instant) -> Conn {
        let mut c = Conn::accept(cfg, eng, 1, 0, t0);
        c.on_bytes(cfg, eng, &hello(version), t0);
        flush(&mut c);
        c
    }

    /// Splits `bytes` into whole frames and decodes each as a `version`
    /// response; panics on a partial or undecodable frame.
    fn responses(version: u16, mut bytes: &[u8]) -> Vec<(u64, Response)> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let len = frame_len(*bytes.first_chunk().unwrap(), DEFAULT_MAX_FRAME_LEN).unwrap();
            let (payload, rest) = bytes[4..].split_at(len);
            let (id, body) = match version >= PROTOCOL_V2 {
                true => split_mux(payload).unwrap(),
                false => (0, payload),
            };
            out.push((id, Response::decode(body).unwrap()));
            bytes = rest;
        }
        out
    }

    fn code_of(resp: &Response) -> Option<ErrorCode> {
        match resp {
            Response::Error { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// Bugfix (a): the caps are enforced per chunk. 200k back-to-back v2
    /// `Query` frames arrive 16 KiB at a time from a peer that reads
    /// nothing; reading must pause with at most one chunk's frames past
    /// the pending cap, and resume once completions drain the backlog.
    #[test]
    fn reading_pauses_within_one_chunk_of_the_cap_and_resumes() {
        let (eng, t0) = (engine(), Instant::now());
        // Every frame is handed out: the pending cap alone is under test.
        let cfg = ServerConfig {
            max_inflight_per_conn: usize::MAX,
            ..config()
        };
        let mut c = serving(&cfg, &eng, PROTOCOL_V2, t0);
        let query = req(PROTOCOL_V2, 7, &Request::Query { u: 0, v: 3 });
        let per_chunk = READ_CHUNK / query.len() + 1;
        let flood = query.repeat(200_000);
        let canned = response_frame(PROTOCOL_V2, 0, &Response::Distance(3));
        let (mut pauses, mut handed_out) = (0, 0usize);
        let mut chunks = flood.chunks(READ_CHUNK);
        let mut exhausted = false;
        while !exhausted {
            while c.wants_read() && !exhausted {
                match chunks.next() {
                    Some(chunk) => c.on_bytes(&cfg, &eng, chunk, t0),
                    None => exhausted = true,
                }
                assert!(c.pending.len() < MAX_PENDING_FRAMES + per_chunk);
                assert!(c.rbuf.len() <= cfg.max_frame_len as usize + READ_CHUNK);
                assert!(c.within_limits(&cfg));
            }
            pauses += usize::from(!exhausted);
            // The pool drains what it is given; the peer still reads nothing.
            while c.next_job(&cfg, &eng).is_some() {
                handed_out += 1;
            }
            for _ in 0..c.inflight {
                c.on_completion(&eng, &canned, false);
            }
            assert!(c.wants_read(), "a drained connection reads again");
        }
        assert!(pauses > 50, "reading paused only {pauses} times");
        assert_eq!(handed_out, 200_000);
    }

    /// Bugfix (b): draining keeps what was accepted. Three requests are
    /// in flight when the daemon starts draining; all three answers are
    /// written, and the connection finishes only after the last byte.
    #[test]
    fn drain_still_owes_what_is_in_flight() {
        let (cfg, eng, t0) = (config(), engine(), Instant::now());
        let mut c = serving(&cfg, &eng, PROTOCOL_V2, t0);
        for id in 1..=4 {
            c.on_bytes(
                &cfg,
                &eng,
                &req(
                    PROTOCOL_V2,
                    id,
                    &Request::Query {
                        u: 0,
                        v: id as u32 - 1,
                    },
                ),
                t0,
            );
        }
        let jobs: Vec<_> = (0..3).map(|_| c.next_job(&cfg, &eng).unwrap()).collect();
        c.begin_drain();
        assert!(!c.wants_read() && !c.is_finished());
        assert!(
            c.next_job(&cfg, &eng).is_none(),
            "the frame not handed out is dropped"
        );
        for (id, version, request) in jobs {
            assert!(!c.is_finished());
            let resp = crate::server::execute(&eng, &AtomicU16::new(1), request);
            c.on_completion(&eng, &response_frame(version, id, &resp), false);
        }
        let owed = c.writable().to_vec();
        c.wrote(owed.len() - 1);
        assert!(!c.is_finished(), "one byte is still unwritten");
        c.wrote(1);
        assert!(c.is_finished());
        let want: Vec<_> = (1..=3).map(|id| (id, Response::Distance(id - 1))).collect();
        assert_eq!(responses(PROTOCOL_V2, &owed), want);
    }

    /// The other reason to stop reading: a framing violation voids what
    /// the peer was owed. Answers still in flight are dropped, bytes after
    /// the violation are ignored, and the connection ends with the error.
    #[test]
    fn a_framing_error_voids_what_is_in_flight() {
        let (cfg, eng, t0) = (config(), engine(), Instant::now());
        let mut c = serving(&cfg, &eng, PROTOCOL_V2, t0);
        let mut bytes = req(PROTOCOL_V2, 1, &Request::Query { u: 0, v: 1 });
        bytes.extend_from_slice(&req(PROTOCOL_V2, 2, &Request::Query { u: 0, v: 2 }));
        c.on_bytes(&cfg, &eng, &bytes, t0);
        assert!(c.next_job(&cfg, &eng).is_some());
        bytes = 0u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&req(PROTOCOL_V2, 3, &Request::Ping));
        c.on_bytes(&cfg, &eng, &bytes, t0);
        assert!(c.next_job(&cfg, &eng).is_none(), "pending work is void");
        c.on_bytes(&cfg, &eng, &req(PROTOCOL_V2, 4, &Request::Ping), t0);
        c.on_completion(
            &eng,
            &response_frame(PROTOCOL_V2, 1, &Response::Distance(1)),
            false,
        );
        assert!(!c.wants_read() && !c.is_finished());
        let out = responses(PROTOCOL_V2, &flush(&mut c));
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(
            (out[0].0, code_of(&out[0].1)),
            (0, Some(ErrorCode::Malformed))
        );
        assert!(c.is_finished() && c.expired(&cfg, t0 + cfg.read_timeout + NS));
    }

    /// The pure twin of PR 15's socket-bound regression test: frames a
    /// peer sent before half-closing are answered, the partial frame
    /// after them is not, and the connection then finishes.
    #[test]
    fn frames_sent_before_a_half_close_are_still_answered() {
        let (cfg, eng, t0) = (config(), engine(), Instant::now());
        let mut c = serving(&cfg, &eng, PROTOCOL_VERSION, t0);
        let ping = req(PROTOCOL_VERSION, 0, &Request::Ping);
        let bytes = [&ping[..], &ping, &ping, &ping[..2]].concat();
        c.on_bytes(&cfg, &eng, &bytes, t0);
        c.on_eof();
        assert!(c.next_job(&cfg, &eng).is_none() && !c.is_finished());
        assert_eq!(responses(PROTOCOL_VERSION, &flush(&mut c)).len(), 3);
        assert!(c.is_finished());
    }

    /// Frame cap: a frame of exactly `max_frame_len` is taken (here it
    /// does not decode, which costs one `Malformed` and nothing else);
    /// one byte more is refused from its prefix alone and voids the
    /// connection. A zero-length frame is `Malformed` and voids it too.
    #[test]
    fn frame_cap_at_and_one_past() {
        let (eng, t0) = (engine(), Instant::now());
        let cfg = ServerConfig {
            max_frame_len: 64,
            ..config()
        };
        let mut c = serving(&cfg, &eng, PROTOCOL_VERSION, t0);
        c.on_bytes(&cfg, &eng, &frame(None, &[0xFF; 64]), t0);
        assert!(c.next_job(&cfg, &eng).is_none());
        let out = responses(PROTOCOL_VERSION, &flush(&mut c));
        assert_eq!(code_of(&out[0].1), Some(ErrorCode::Malformed));
        assert!(c.wants_read(), "an undecodable frame keeps the connection");

        for (prefix, code) in [(65u32, ErrorCode::FrameTooLarge), (0, ErrorCode::Malformed)] {
            let mut c = serving(&cfg, &eng, PROTOCOL_VERSION, t0);
            c.on_bytes(&cfg, &eng, &prefix.to_le_bytes(), t0);
            let out = responses(PROTOCOL_VERSION, &flush(&mut c));
            assert_eq!(code_of(&out[0].1), Some(code));
            assert!(c.is_finished() && c.rbuf.is_empty());
        }
    }

    /// `MAX_PENDING_FRAMES`: a lock-step connection with one request in
    /// flight reads until exactly that many frames wait behind it.
    #[test]
    fn pending_cap_at_and_one_past() {
        let (cfg, eng, t0) = (config(), engine(), Instant::now());
        let mut c = serving(&cfg, &eng, PROTOCOL_VERSION, t0);
        c.on_bytes(
            &cfg,
            &eng,
            &req(PROTOCOL_VERSION, 0, &Request::Query { u: 0, v: 1 }),
            t0,
        );
        assert!(c.next_job(&cfg, &eng).is_some());
        let pings = req(PROTOCOL_VERSION, 0, &Request::Ping).repeat(MAX_PENDING_FRAMES - 1);
        c.on_bytes(&cfg, &eng, &pings, t0);
        assert!(c.next_job(&cfg, &eng).is_none(), "lock-step");
        assert_eq!(
            (c.pending.len(), c.wants_read()),
            (MAX_PENDING_FRAMES - 1, true)
        );
        c.on_bytes(&cfg, &eng, &req(PROTOCOL_VERSION, 0, &Request::Ping), t0);
        assert_eq!(
            (c.pending.len(), c.wants_read()),
            (MAX_PENDING_FRAMES, false)
        );
        c.on_completion(&eng, &response_frame(1, 0, &Response::Distance(1)), false);
        assert!(c.next_job(&cfg, &eng).is_none() && c.wants_read());
        assert_eq!(responses(1, &flush(&mut c)).len(), 1 + MAX_PENDING_FRAMES);
    }

    /// `MAX_QUEUED_WRITE_BYTES`: reading pauses when exactly that many
    /// response bytes wait for a peer that is not taking them.
    #[test]
    fn queued_write_cap_at_and_one_past() {
        let (cfg, eng, t0) = (config(), engine(), Instant::now());
        let mut c = serving(&cfg, &eng, PROTOCOL_V2, t0);
        c.on_completion(&eng, &vec![0; MAX_QUEUED_WRITE_BYTES - 1], false);
        assert!(c.wants_read());
        c.on_completion(&eng, &[0], false);
        assert!(!c.wants_read());
        c.wrote(1);
        assert!(c.wants_read());
    }

    /// `max_inflight_per_conn`: the request past the cap is answered
    /// `Busy` under its own id, `Ping` is answered at the cap, and the
    /// connection keeps serving — a freed slot takes the next request.
    #[test]
    fn inflight_cap_at_and_one_past() {
        let (eng, t0) = (engine(), Instant::now());
        let cfg = ServerConfig {
            max_inflight_per_conn: 2,
            ..config()
        };
        let mut c = serving(&cfg, &eng, PROTOCOL_V2, t0);
        for id in 1..=3 {
            c.on_bytes(
                &cfg,
                &eng,
                &req(PROTOCOL_V2, id, &Request::Query { u: 0, v: 1 }),
                t0,
            );
        }
        c.on_bytes(&cfg, &eng, &req(PROTOCOL_V2, 4, &Request::Ping), t0);
        let ids: Vec<u64> = std::iter::from_fn(|| c.next_job(&cfg, &eng).map(|j| j.0)).collect();
        assert_eq!(ids, [1, 2]);
        let out = responses(PROTOCOL_V2, &flush(&mut c));
        assert_eq!(out.len(), 2, "{out:?}");
        assert_eq!((out[0].0, code_of(&out[0].1)), (3, Some(ErrorCode::Busy)));
        assert_eq!(out[1], (4, Response::Pong));
        assert!(c.wants_read() && c.within_limits(&cfg));
        c.on_completion(&eng, &response_frame(2, 1, &Response::Distance(1)), false);
        c.on_bytes(
            &cfg,
            &eng,
            &req(PROTOCOL_V2, 5, &Request::Query { u: 0, v: 1 }),
            t0,
        );
        assert_eq!(c.next_job(&cfg, &eng).map(|j| j.0), Some(5));
    }

    /// `frame_timeout`: the budget runs from a frame's first byte, later
    /// bytes do not extend it, and completing the frame stops the clock.
    #[test]
    fn frame_deadline_at_and_one_past() {
        let (cfg, eng, t0) = (config(), engine(), Instant::now());
        let ping = req(PROTOCOL_VERSION, 0, &Request::Ping);
        let mut c = serving(&cfg, &eng, PROTOCOL_VERSION, t0);
        let t1 = t0 + Duration::from_millis(5);
        c.on_bytes(&cfg, &eng, &ping[..1], t1);
        c.on_bytes(&cfg, &eng, &ping[1..3], t1 + cfg.frame_timeout / 2);
        assert!(!c.expired(&cfg, t1 + cfg.frame_timeout));
        assert!(c.expired(&cfg, t1 + cfg.frame_timeout + NS));
        c.on_bytes(&cfg, &eng, &ping[3..], t1 + cfg.frame_timeout);
        assert!(c.next_job(&cfg, &eng).is_none());
        flush(&mut c);
        assert!(!c.expired(&cfg, t1 + cfg.frame_timeout + NS));
    }

    /// `write_timeout`: the stall clock starts at the first blocked
    /// write, a second blocked write does not restart it, and any
    /// progress resets it.
    #[test]
    fn write_stall_deadline_at_and_one_past() {
        let (cfg, eng, t0) = (config(), engine(), Instant::now());
        let mut c = Conn::accept(&cfg, &eng, 1, 0, t0);
        let t1 = t0 + Duration::from_millis(7);
        assert!(
            !c.expired(&cfg, t0 + cfg.write_timeout + NS),
            "never blocked"
        );
        c.write_blocked(t1);
        c.write_blocked(t1 + cfg.write_timeout / 2);
        assert!(!c.expired(&cfg, t1 + cfg.write_timeout));
        assert!(c.expired(&cfg, t1 + cfg.write_timeout + NS));
        c.wrote(1);
        assert!(!c.expired(&cfg, t1 + cfg.write_timeout + NS));
        let t2 = t1 + cfg.write_timeout;
        c.write_blocked(t2);
        assert!(!c.expired(&cfg, t2 + cfg.write_timeout));
        assert!(c.expired(&cfg, t2 + cfg.write_timeout + NS));
    }

    /// `read_timeout`: idle means nothing pending, in flight, queued or
    /// mid-frame — each of those alone keeps a silent connection alive.
    #[test]
    fn idle_deadline_at_and_one_past() {
        let (eng, t0) = (engine(), Instant::now());
        let cfg = ServerConfig {
            frame_timeout: Duration::from_secs(5),
            ..config()
        };
        let late = t0 + cfg.read_timeout + NS;
        let query = req(PROTOCOL_VERSION, 0, &Request::Query { u: 0, v: 1 });

        let mut c = Conn::accept(&cfg, &eng, 1, 0, t0);
        assert!(!c.expired(&cfg, late), "the greeting is still queued");
        flush(&mut c);
        assert!(!c.expired(&cfg, t0 + cfg.read_timeout));
        assert!(c.expired(&cfg, late));
        c.on_bytes(&cfg, &eng, &hello(PROTOCOL_VERSION), t0 + NS);
        assert!(!c.expired(&cfg, late), "a byte restarts the idle clock");
        assert!(c.expired(&cfg, late + NS));

        c.on_bytes(&cfg, &eng, &query[..5], t0 + NS);
        assert!(!c.expired(&cfg, late + NS), "mid-frame");
        c.on_bytes(&cfg, &eng, &[&query[5..], &query].concat(), t0 + NS);
        assert!(!c.expired(&cfg, late + NS), "pending");
        assert!(c.next_job(&cfg, &eng).is_some());
        assert!(!c.expired(&cfg, late + NS), "in flight, and one pending");
        c.on_completion(&eng, &response_frame(1, 0, &Response::Distance(1)), false);
        assert!(c.next_job(&cfg, &eng).is_some());
        flush(&mut c);
        assert!(!c.expired(&cfg, late + NS), "in flight");
        c.on_completion(&eng, &response_frame(1, 0, &Response::Distance(1)), false);
        assert!(!c.expired(&cfg, late + NS), "queued");
        flush(&mut c);
        assert!(c.expired(&cfg, late + NS));
    }

    /// The connection cap: the connection that would be one too many is
    /// greeted, told `Busy` in v1 framing, never read, and closed.
    #[test]
    fn connection_cap_at_and_one_past() {
        let (cfg, eng, t0) = (config(), engine(), Instant::now());
        let mut last = Conn::accept(&cfg, &eng, 1, cfg.max_connections - 1, t0);
        assert!(last.wants_read());
        assert_eq!(flush(&mut last).len(), frame(None, &[0; 17]).len());
        assert!(!last.is_finished());

        let mut over = Conn::accept(&cfg, &eng, 1, cfg.max_connections, t0);
        assert!(!over.wants_read() && !over.is_finished());
        let out = flush(&mut over);
        let hello_len = frame(None, &[0; 17]).len();
        ServerHello::decode(&out[4..hello_len]).unwrap();
        let busy = responses(PROTOCOL_VERSION, &out[hello_len..]);
        assert_eq!(code_of(&busy[0].1), Some(ErrorCode::Busy));
        assert!(over.is_finished());
        let snap = eng.snapshot();
        assert_eq!((snap.connections_opened, snap.connections_rejected), (1, 1));
    }

    /// The handshake matrix, each hello at every split point: 1 serves v1
    /// framing, 2 serves v2 framing, 3 draws `VersionMismatch`, garbage
    /// draws `Malformed` — and both rejections close the connection.
    #[test]
    fn handshake_matrix_at_every_split_point() {
        let (cfg, eng, t0) = (config(), engine(), Instant::now());
        let garbage = frame(None, &[0xFF, 1, 2, 3]);
        let cases = [
            (hello(1), req(1, 0, &Request::Ping), Ok(0)),
            (hello(2), req(2, 9, &Request::Ping), Ok(9)),
            (
                hello(3),
                req(1, 0, &Request::Ping),
                Err(ErrorCode::VersionMismatch),
            ),
            (
                garbage,
                req(1, 0, &Request::Ping),
                Err(ErrorCode::Malformed),
            ),
        ];
        for (hello, ping, want) in cases {
            let stream = [&hello[..], &ping].concat();
            for split in 0..=stream.len() {
                let mut c = Conn::accept(&cfg, &eng, 1, 0, t0);
                flush(&mut c);
                c.on_bytes(&cfg, &eng, &stream[..split], t0);
                c.on_bytes(&cfg, &eng, &stream[split..], t0);
                assert!(c.next_job(&cfg, &eng).is_none());
                let version = if want == Ok(9) {
                    PROTOCOL_V2
                } else {
                    PROTOCOL_VERSION
                };
                let out = responses(version, &flush(&mut c));
                assert_eq!(out.len(), 1, "split {split}: {out:?}");
                match want {
                    Ok(id) => assert_eq!(
                        (out[0].clone(), c.wants_read()),
                        ((id, Response::Pong), true)
                    ),
                    Err(code) => {
                        assert_eq!((out[0].0, code_of(&out[0].1)), (0, Some(code)));
                        assert!(c.is_finished(), "split {split}");
                    }
                }
            }
        }
    }

    /// A permitted `Shutdown` is acknowledged and reported to the loop;
    /// the drain that follows still owes the request in flight ahead of it.
    #[test]
    fn shutdown_is_acknowledged_and_reported() {
        let (eng, t0) = (engine(), Instant::now());
        let cfg = ServerConfig {
            allow_remote_shutdown: true,
            ..config()
        };
        let mut c = serving(&cfg, &eng, PROTOCOL_V2, t0);
        c.on_bytes(
            &cfg,
            &eng,
            &req(PROTOCOL_V2, 1, &Request::Query { u: 0, v: 3 }),
            t0,
        );
        c.on_bytes(&cfg, &eng, &req(PROTOCOL_V2, 2, &Request::Shutdown), t0);
        assert!(!c.stop_requested());
        assert_eq!(c.next_job(&cfg, &eng).map(|j| j.0), Some(1));
        assert!(c.next_job(&cfg, &eng).is_none() && c.stop_requested());
        c.begin_drain();
        assert_eq!(responses(2, &flush(&mut c)), [(2, Response::ShutdownAck)]);
        assert!(!c.is_finished());
        c.on_completion(&eng, &response_frame(2, 1, &Response::Distance(3)), false);
        assert_eq!(responses(2, &flush(&mut c)), [(1, Response::Distance(3))]);
        assert!(c.is_finished());
    }

    /// PR 16's golden request frames, one of each opcode, ids 1..=8.
    fn golden_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Query { u: 3, v: 258 },
            Request::QueryBatch(vec![(1, 2), (u32::MAX, 0)]),
            Request::Metrics,
            Request::Shutdown,
            Request::Reload {
                path: "/s.hlbs".to_string(),
            },
            Request::Label { v: 2 },
            Request::LabelBatch(vec![3, 1 << 16]),
        ]
    }

    /// What `request` must be answered with, up to a metrics snapshot's
    /// moving counters.
    fn expected(cfg: &ServerConfig, eng: &QueryEngine, request: &Request) -> Response {
        let mut probe = serving(cfg, eng, PROTOCOL_VERSION, Instant::now());
        probe.on_bytes(cfg, eng, &req(1, 0, request), Instant::now());
        match probe.next_job(cfg, eng) {
            Some((_, _, heavy)) => crate::server::execute(eng, &AtomicU16::new(1), heavy),
            None => responses(1, &flush(&mut probe)).remove(0).1,
        }
    }

    fn same_answer(got: &Response, want: &Response) -> bool {
        match (got, want) {
            (Response::Metrics(_), Response::Metrics(_)) => true,
            _ => got == want,
        }
    }

    /// One enumerated world: a golden stream under `version`, where its
    /// frames end, and what each must be answered with.
    struct World {
        cfg: ServerConfig,
        version: u16,
        stream: Vec<u8>,
        /// `ends[k]`: the offset just past frame `k` (frame 0: the hello).
        ends: Vec<usize>,
        want: Vec<Response>,
        schedules: usize,
    }

    impl World {
        fn new(version: u16) -> World {
            let (cfg, eng) = (config(), engine());
            let mut stream = hello(version);
            let mut ends = vec![stream.len()];
            let mut want = Vec::new();
            for (k, request) in golden_requests().iter().enumerate() {
                stream.extend_from_slice(&req(version, k as u64 + 1, request));
                ends.push(stream.len());
                want.push(expected(&cfg, &eng, request));
            }
            World {
                cfg,
                version,
                stream,
                ends,
                want,
                schedules: 0,
            }
        }

        /// Checks what the peer has read of a quiescent connection that
        /// was sent `sent` bytes: whole frames, each the right answer to
        /// its request — all of them, in request order on v1, when the
        /// connection was never drained; a subset (v1: a prefix) when it
        /// was, since a drain drops what it had not handed out.
        fn verify(&mut self, sim: &PureConn<'_>, sent: usize, drained: bool) {
            self.schedules += 1;
            sim.check().unwrap();
            let complete = self.ends.iter().filter(|&&end| end <= sent).count();
            let out = &sim.output[frame(None, &[0; 17]).len()..];
            let got = responses(self.version, out);
            assert!(got.len() <= complete.saturating_sub(1));
            assert!(
                drained || got.len() + 1 == complete.max(1),
                "{sent}: {got:?}"
            );
            let mut ids: Vec<u64> = got.iter().map(|&(id, _)| id).collect();
            if self.version < PROTOCOL_V2 {
                ids = (1..=got.len() as u64).collect();
            }
            for (id, (_, resp)) in ids.iter().zip(&got) {
                assert!(
                    same_answer(resp, &self.want[*id as usize - 1]),
                    "{id}: {resp:?}"
                );
            }
            // The golden stream never voids the connection, so whatever
            // the pool completed was owed and must have been delivered.
            let heavy = |id: &&u64| [2, 3, 7, 8].contains(*id);
            assert_eq!(ids.iter().filter(heavy).count(), sim.completed.len());
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), got.len(), "an id was answered twice");
        }
    }

    /// Byte-level sweep: every split point × every EOF position (and no
    /// EOF at all), completions first-in first-out.
    fn sweep_bytes(w: &mut World) {
        let (cfg, eng, stream) = (w.cfg.clone(), engine(), w.stream.clone());
        for split in 0..=stream.len() {
            let mut first = PureConn::accept(&cfg, &eng, 0, Instant::now());
            first.send(&stream[..split]);
            for end in split..=stream.len() {
                for eof in [true, false] {
                    if !eof && end < stream.len() {
                        continue; // the same machine state as a shorter stream
                    }
                    let mut sim = first.clone();
                    sim.send(&stream[split..end]);
                    if eof {
                        sim.conn.on_eof();
                    }
                    sim.settle().unwrap();
                    w.verify(&sim, end, false);
                    assert_eq!(sim.conn.is_finished(), eof, "split {split}, end {end}");
                    assert_eq!(sim.conn.wants_read(), !eof);
                }
            }
        }
    }

    /// Step-level sweep from `sim`: every interleaving of the second
    /// chunk, a half-close, each running request completing (any order,
    /// up to four in flight) and `begin_drain()` — which may come at
    /// every step, and always comes in the end.
    fn sweep_steps(
        w: &mut World,
        sim: &PureConn<'_>,
        sent: usize,
        rest: Option<&[u8]>,
        drained: bool,
    ) {
        let step = |w: &mut World, mut next: PureConn<'_>, sent, rest, drained| {
            next.read(usize::MAX);
            next.check().unwrap();
            sweep_steps(w, &next, sent, rest, drained);
        };
        if sim.running.is_empty() && (drained || rest.is_none()) {
            w.verify(sim, sent, drained);
            assert_eq!(sim.conn.is_finished(), drained || !sim.conn.wants_read());
        }
        for i in 0..sim.running.len() {
            let mut next = sim.clone();
            next.complete(i);
            step(w, next, sent, rest, drained);
        }
        if !sim.conn.wants_read() && !drained {
            return; // half-closed: only the drain below is left to try
        }
        if !drained {
            let mut next = sim.clone();
            next.conn.begin_drain();
            step(w, next, sent, rest, true);
        }
        if sim.conn.wants_read() {
            let mut next = sim.clone();
            match rest {
                Some(chunk) => {
                    next.send(chunk);
                    step(w, next, sent + chunk.len(), None, drained);
                }
                None => {
                    next.conn.on_eof();
                    step(w, next, sent, None, drained);
                }
            }
        }
    }

    /// The machine enumerated, not fuzzed (ROADMAP item 4): the golden
    /// frames of both protocol versions × every split point × every EOF
    /// position, then × every completion order × a drain at every step.
    /// On every schedule each request handed out is answered exactly
    /// once — or dropped by a drain that came first — v1 answers keep
    /// request order, what arrived before a half-close is answered, and
    /// no limit is exceeded.
    #[test]
    fn every_schedule_of_the_golden_frames() {
        let mut total = 0;
        for version in [PROTOCOL_VERSION, PROTOCOL_V2] {
            let mut w = World::new(version);
            sweep_bytes(&mut w);
            let (cfg, eng, stream) = (w.cfg.clone(), engine(), w.stream.clone());
            for &split in &w.ends.clone() {
                let mut sim = PureConn::accept(&cfg, &eng, 0, Instant::now());
                sim.send(&stream[..split]);
                sim.read(usize::MAX);
                sweep_steps(&mut w, &sim, split, Some(&stream[split..]), false);
            }
            total += w.schedules;
        }
        println!("enumerated {total} schedules");
        assert!(
            total > 20_000,
            "the enumeration shrank to {total} schedules"
        );
    }
}
