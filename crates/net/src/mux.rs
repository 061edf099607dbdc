//! Multiplexed HLNP v2 client: many concurrent requests on one
//! connection, correlated by request id.
//!
//! [`MuxClient`] speaks protocol v2, where every frame payload is
//! prefixed with a caller-chosen `request_id: u64` and the server may
//! answer out of order. The client starts no thread: a caller blocked
//! in [`MuxClient::wait`] reads the socket itself. One waiter at a time
//! holds the read token; it reads once, files every whole response it
//! got into the slot of the request that asked for it, hands the token
//! back and wakes the waiters parked behind it. The result:
//!
//! - **Concurrency without connections.** Hundreds of requests ride one
//!   TCP stream; a slow query does not block the answers behind it.
//! - **Per-request deadlines.** [`MuxClient::wait`] bounds one request;
//!   a request that times out abandons only its own slot, and its late
//!   response (if any) is dropped on arrival instead of being
//!   misdelivered to a future request. A deadline that expires in the
//!   middle of a response frame leaves the bytes read so far buffered
//!   for the next reader, so framing never breaks.
//! - **Shared fate on transport death.** If the socket or framing
//!   breaks, the caller that sees it marks the connection dead with the
//!   rendered error and every in-flight and future request fails with
//!   [`NetError::ConnectionDead`]; responses that had already arrived
//!   still deliver.
//!
//! **When requests leave.** [`MuxClient::submit`] only appends the framed
//! request to an outbox; the outbox goes to the socket in one write
//! when a [`MuxClient::wait`] finds its own slot still empty (before it
//! reads or parks), when [`MuxClient::flush`] is called, or when a
//! submit brings it to 16 KiB. A window of submits therefore costs one
//! write, and a lock-step `call` still writes at once, on its wait. A
//! thread that submits to several clients and then blocks on one of
//! them, such as the shard router, must `flush` the others first, or
//! their requests sit in their outboxes until it waits on them. A write
//! that fails or times out may have sent part of several frames, so it
//! kills the connection like a broken read does.
//!
//! Responses nobody waits for yet are not read: they wait in the socket
//! buffers and then in the daemon's write queue until a caller waits.
//! The daemon bounds that backlog: at most `max_inflight_per_conn`
//! requests per connection are in flight (the rest are answered `Busy`),
//! and once 8 MiB of responses are queued it stops reading requests. It
//! does not hold the backlog forever, though. Once the socket buffers
//! are full the daemon's writes are refused, and a connection whose
//! writes stay refused for longer than the daemon's `write_timeout`
//! (10 s by default) is dropped; every request in flight on it then
//! fails [`NetError::ConnectionDead`]. So a caller with more than the
//! socket buffers' worth of responses pending must wait within that
//! time. A thread that drives several clients, such as the shard
//! router, reads only the one it waits on, so each of its waits must
//! end well inside the other daemons' `write_timeout`.
//!
//! The split API ([`MuxClient::submit`] then [`MuxClient::wait`]) is the
//! point: callers fan out submissions and collect completions in any
//! order. The blocking convenience methods (`query`, `label_batch`, …)
//! mirror [`crate::NetClient`] one-for-one for drop-in use — they are
//! just `submit` + `wait` and interleave freely with other threads'
//! requests on the same client.
//!
//! Request ids are a process-local monotonic counter starting at 1 (0 is
//! the server's "could not even parse an id" sentinel), so ids never
//! repeat within a connection and a duplicate-id race cannot exist by
//! construction.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hl_graph::sync::lock_unpoisoned;
use hl_graph::{Distance, NodeId};
use hl_server::MetricsSnapshot;

use crate::client::{dial, resolve, ClientConfig};
use crate::error::NetError;
use crate::wire::{
    frame, frame_len, split_mux, write_all_deadline, DeadlineWrite, Request, Response, ServerHello,
    PROTOCOL_V2,
};

/// Size of the inbox buffer; it grows to fit a longer frame.
const READ_BUF: usize = 16 * 1024;
/// A buffer grown past this for a long frame shrinks back to
/// [`READ_BUF`] once no partial frame is left in it. Smaller growth is
/// kept: shrinking and regrowing for each of the shard router's ~60 KiB
/// `LabelBatch` frames cost about 4% of its `query_many` rate on a
/// 2-vCPU host.
const KEEP_BUF: usize = 256 * 1024;
/// A submit that brings the outbox to this many bytes writes it.
const OUTBOX_FLUSH: usize = 16 * 1024;

/// Whether a socket timeout armed at `armed` must be re-armed for a
/// budget of `want`. Re-arming is a syscall, so the armed timeout is
/// kept while it neither overruns the budget by more than 1 ms nor is
/// under half of it: a read that times out early costs only one more
/// turn of the waiter's loop, and a write that does fails at worst half
/// its budget early.
fn must_rearm(armed: Duration, want: Duration) -> bool {
    armed > want + Duration::from_millis(1) || armed < want / 2
}

/// The correlation table, guarded by [`MuxClient::state`].
struct MuxState {
    /// One entry per in-flight request: `None` until its response lands.
    /// A waiter that gives up removes its entry, which is exactly what
    /// makes the late response droppable instead of deliverable.
    slots: HashMap<u64, Option<Response>>,
    /// Set once by the caller that sees the transport die (a broken read
    /// or a failed outbox write); the rendered error every subsequent
    /// failure reports.
    dead: Option<String>,
    /// The read token: `true` while one waiter reads the socket. Only
    /// its holder locks [`MuxClient::inbox`].
    reading: bool,
    /// Waiters parked on [`MuxClient::cv`] behind the token holder. At
    /// zero nobody is notified, so a single-threaded caller never pays
    /// for a wake.
    parked: usize,
}

/// The socket's read half and the bytes read past the last whole frame.
struct Inbox {
    stream: TcpStream,
    /// `buf[..filled]` is the start of a frame not yet whole; the buffer
    /// always has room for the rest of it, and is at most [`KEEP_BUF`]
    /// long whenever `filled` is zero.
    buf: Vec<u8>,
    filled: usize,
    max_frame_len: u32,
    /// The read timeout the socket is armed with.
    armed: Duration,
}

impl Inbox {
    /// Reads the socket once, waiting at most `timeout` (floor 1 ms) plus
    /// 1 ms, and appends every whole frame now buffered to `filed`. A
    /// timeout files nothing and is no error; a partial frame stays
    /// buffered for the next call. `Err` is the rendered reason the
    /// connection is dead: EOF, a socket error, or a frame that breaks v2
    /// framing (frames before it are filed).
    fn read_once(
        &mut self,
        timeout: Duration,
        filed: &mut Vec<(u64, Response)>,
    ) -> Result<(), String> {
        let want = timeout.max(Duration::from_millis(1));
        if must_rearm(self.armed, want) {
            self.stream
                .set_read_timeout(Some(want))
                .map_err(|e| format!("arming the response read: {e}"))?;
            self.armed = want;
        }
        match self.stream.read(&mut self.buf[self.filled..]) {
            Ok(0) => return Err("reading response frame: peer closed".to_string()),
            Ok(n) => self.filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                return Ok(())
            }
            Err(e) => return Err(format!("reading response frame: {e}")),
        }
        let mut at = 0;
        let need = loop {
            let rest = &self.buf[at..self.filled];
            let Some(&prefix) = rest.first_chunk::<4>() else {
                break 0;
            };
            // The length is tested before the body is buffered.
            let len = frame_len(prefix, self.max_frame_len)
                .map_err(|e| format!("reading response frame: {e}"))?;
            let Some(payload) = rest.get(4..4 + len) else {
                break 4 + len;
            };
            filed.push(decode_response(payload)?);
            at += 4 + len;
        };
        self.buf.copy_within(at..self.filled, 0);
        self.filled -= at;
        if need > self.buf.len() {
            self.buf.resize(need, 0);
        } else if self.filled == 0 && self.buf.len() > KEEP_BUF {
            self.buf.truncate(READ_BUF);
            self.buf.shrink_to(READ_BUF);
        }
        Ok(())
    }
}

/// The socket's write half and the frames submitted but not yet written.
struct Outbox {
    sink: Sink,
    /// Whole frames back to back, oldest first.
    buf: Vec<u8>,
}

impl Outbox {
    /// Writes every queued frame in one [`write_all_deadline`] within
    /// `budget`. `Err` is the rendered reason the connection is dead: the
    /// write failed or timed out and may have sent part of a frame, so
    /// the socket is shut down and the queue dropped.
    fn flush(&mut self, budget: Duration) -> Result<(), String> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let wrote = write_all_deadline(&mut self.sink, &self.buf, budget);
        self.buf.clear();
        self.buf.shrink_to(KEEP_BUF);
        wrote.map_err(|e| {
            // Wakes a waiter blocked reading, which then sees EOF.
            #[expect(
                clippy::let_underscore_must_use,
                reason = "the connection is dead either way; the write error is the reason"
            )]
            let _ = self.sink.stream.shutdown(Shutdown::Both);
            format!("writing requests: {e}")
        })
    }
}

/// The write half (a `try_clone` twin of the inbox's stream) and the
/// send timeout it is armed with. It never reads: the inbox owns reading
/// and the read timeout.
struct Sink {
    stream: TcpStream,
    armed: Duration,
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

impl DeadlineWrite for Sink {
    fn limit_write_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        if must_rearm(self.armed, timeout) {
            self.stream.set_write_timeout(Some(timeout))?;
            self.armed = timeout;
        }
        Ok(())
    }
}

/// One v2 response payload as `(request id, response)`.
fn decode_response(payload: &[u8]) -> Result<(u64, Response), String> {
    // A server that broke v2 framing has made its ids untrustworthy, so
    // no response on this stream is trustworthy either.
    let (id, inner) =
        split_mux(payload).map_err(|e| format!("response frame missing request id: {e}"))?;
    let response =
        Response::decode(inner).map_err(|e| format!("decoding response for request {id}: {e}"))?;
    Ok((id, response))
}

/// A multiplexing client for one HLNP v2 daemon connection.
///
/// All methods take `&self`: clone nothing, share one instance across
/// threads (or keep it single-threaded and pipeline by interleaving
/// `submit`s before `wait`s).
pub struct MuxClient {
    state: Mutex<MuxState>,
    /// Parks waiters while another waiter holds the read token.
    cv: Condvar,
    inbox: Mutex<Inbox>,
    /// The write half and the submitted frames not yet written.
    writer: Mutex<Outbox>,
    hello: ServerHello,
    addr: SocketAddr,
    config: ClientConfig,
    next_id: AtomicU64,
}

impl MuxClient {
    /// Resolves `addr`, connects, and negotiates protocol v2. Fails with
    /// [`NetError::Handshake`] against a server whose advertised ceiling
    /// is below v2 (use [`crate::NetClient`] for those).
    pub fn connect<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> Result<Self, NetError> {
        let addr = resolve(addr)?;
        let (stream, hello) = dial(&addr, &config, PROTOCOL_V2)?;
        let writer = stream.try_clone()?;
        Ok(MuxClient {
            state: Mutex::new(MuxState {
                slots: HashMap::new(),
                dead: None,
                reading: false,
                parked: 0,
            }),
            cv: Condvar::new(),
            inbox: Mutex::new(Inbox {
                stream,
                buf: vec![0; READ_BUF],
                filled: 0,
                max_frame_len: config.max_frame_len,
                armed: Duration::ZERO,
            }),
            writer: Mutex::new(Outbox {
                sink: Sink {
                    stream: writer,
                    armed: Duration::ZERO,
                },
                buf: Vec::new(),
            }),
            hello,
            addr,
            config,
            next_id: AtomicU64::new(1),
        })
    }

    /// The server hello from the handshake.
    pub fn server_hello(&self) -> &ServerHello {
        &self.hello
    }

    /// The address this client dialed.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of vertices the served labeling covered at handshake time.
    pub fn num_nodes(&self) -> u64 {
        self.hello.num_nodes
    }

    /// Requests currently awaiting a response.
    pub fn in_flight(&self) -> usize {
        lock_unpoisoned(&self.state).slots.len()
    }

    /// Queues `request` and returns its id without waiting; pair with
    /// [`MuxClient::wait`]. The framed request is appended to the outbox,
    /// which goes to the socket in one write when a waiter finds its slot
    /// empty, on [`MuxClient::flush`], or when this submit brings it to
    /// 16 KiB. Submissions from any number of threads interleave on the
    /// wire a whole frame at a time.
    ///
    /// A write this submit makes that fails kills the connection: it and
    /// every request in flight fail [`NetError::ConnectionDead`]. The
    /// response is read only once some caller waits; until then it sits
    /// in the socket or the daemon's write queue. Wait within the
    /// daemon's `write_timeout` of the socket buffers filling, or the
    /// daemon drops the connection (see the module docs).
    pub fn submit(&self, request: &Request) -> Result<u64, NetError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut state = lock_unpoisoned(&self.state);
            if let Some(reason) = &state.dead {
                return Err(NetError::ConnectionDead(reason.clone()));
            }
            state.slots.insert(id, None);
        }
        let framed = frame(Some(id), &request.encode());
        let wrote = {
            let mut outbox = lock_unpoisoned(&self.writer);
            outbox.buf.extend_from_slice(&framed);
            if outbox.buf.len() >= OUTBOX_FLUSH {
                outbox.flush(self.config.request_timeout)
            } else {
                Ok(())
            }
        };
        if let Err(reason) = wrote {
            // The slot will never fill: reclaim it rather than leak it.
            lock_unpoisoned(&self.state).slots.remove(&id);
            return Err(self.kill(reason));
        }
        Ok(id)
    }

    /// Writes every submitted request not yet written, in one write. A
    /// thread that submits to several clients calls this on each before
    /// it blocks waiting on one of them. A failed write kills the
    /// connection, as in [`MuxClient::submit`].
    pub fn flush(&self) -> Result<(), NetError> {
        let wrote = lock_unpoisoned(&self.writer).flush(self.config.request_timeout);
        wrote.map_err(|reason| self.kill(reason))
    }

    /// Marks the connection dead (the first reason sticks) and wakes the
    /// parked waiters to see it; returns the error every request gets.
    fn kill(&self, reason: String) -> NetError {
        let mut state = lock_unpoisoned(&self.state);
        let reason = state.dead.get_or_insert(reason).clone();
        if state.parked > 0 {
            self.cv.notify_all();
        }
        NetError::ConnectionDead(reason)
    }

    /// Blocks until request `id` answers or `deadline` passes. On
    /// timeout the slot is abandoned — its late response (if one ever
    /// comes) is dropped on arrival — and only this request fails;
    /// everything else in flight keeps waiting undisturbed.
    ///
    /// While its slot is empty the caller first writes the outbox, so
    /// its own request (and any other submitted before) is on the wire;
    /// then it reads the socket itself if no other waiter is reading,
    /// filing whatever responses arrive for anyone, and otherwise parks
    /// until the reader hands over.
    pub fn wait(&self, id: u64, deadline: Duration) -> Result<Response, NetError> {
        let started = Instant::now();
        let mut filed = Vec::new();
        let mut flushed = false;
        let mut state = lock_unpoisoned(&self.state);
        loop {
            match state.slots.get(&id) {
                Some(Some(_)) => {
                    // Filled: take it. (Entry API would borrow-conflict
                    // with the check above; the double lookup is cheap.)
                    let Some(Some(resp)) = state.slots.remove(&id) else {
                        return Err(NetError::ConnectionDead(
                            "response slot vanished mid-delivery".to_string(),
                        ));
                    };
                    return Ok(resp);
                }
                Some(None) => {
                    if let Some(reason) = &state.dead {
                        let reason = reason.clone();
                        state.slots.remove(&id);
                        return Err(NetError::ConnectionDead(reason));
                    }
                }
                None => {
                    // Unknown id: never submitted, or already waited on.
                    return Err(NetError::RequestTimeout {
                        request_id: id,
                        waited: started.elapsed(),
                    });
                }
            }
            if !flushed {
                // Before reading or parking: a request still in the
                // outbox would never be answered.
                flushed = true;
                drop(state);
                let wrote = lock_unpoisoned(&self.writer).flush(self.config.request_timeout);
                if let Err(reason) = wrote {
                    self.kill(reason);
                }
                state = lock_unpoisoned(&self.state);
                continue;
            }
            let elapsed = started.elapsed();
            let Some(remaining) = deadline.checked_sub(elapsed) else {
                state.slots.remove(&id);
                return Err(NetError::RequestTimeout {
                    request_id: id,
                    waited: elapsed,
                });
            };
            if state.reading {
                state.parked += 1;
                state = wait_timeout_unpoisoned(&self.cv, state, remaining);
                state.parked -= 1;
                continue;
            }
            // Take the read token, read once with no state guard held,
            // then file, hand the token back and wake whoever parked.
            state.reading = true;
            drop(state);
            let read = lock_unpoisoned(&self.inbox).read_once(remaining, &mut filed);
            state = lock_unpoisoned(&self.state);
            state.reading = false;
            for (rid, response) in filed.drain(..) {
                if let Some(slot) = state.slots.get_mut(&rid) {
                    *slot = Some(response);
                }
                // else: no waiter for this id — a timed-out request's
                // late response, or a server duplicate. Dropping it here
                // is what keeps misdelivery impossible.
            }
            if let Err(reason) = read {
                state.dead.get_or_insert(reason);
            }
            if state.parked > 0 {
                self.cv.notify_all();
            }
        }
    }

    /// `submit` + `wait` under the client's request timeout.
    pub fn call(&self, request: &Request) -> Result<Response, NetError> {
        let id = self.submit(request)?;
        self.wait(id, self.config.request_timeout)
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), NetError> {
        self.call(&Request::Ping)?.into_pong()
    }

    /// One distance query.
    pub fn query(&self, u: NodeId, v: NodeId) -> Result<Distance, NetError> {
        self.call(&Request::Query { u, v })?.into_distance()
    }

    /// A batch of distance queries, answered in request order within the
    /// batch (the batch itself completes whenever the server gets to it).
    pub fn query_batch(&self, pairs: &[(NodeId, NodeId)]) -> Result<Vec<Distance>, NetError> {
        self.call(&Request::QueryBatch(pairs.to_vec()))?
            .into_distance_batch(pairs.len())
    }

    /// Fetches the hub label of one vertex as sorted `(hub, dist)` pairs.
    pub fn label(&self, v: NodeId) -> Result<Vec<(NodeId, Distance)>, NetError> {
        self.call(&Request::Label { v })?.into_label()
    }

    /// Fetches the labels of many vertices, in request order.
    pub fn label_batch(&self, vs: &[NodeId]) -> Result<Vec<Vec<(NodeId, Distance)>>, NetError> {
        self.call(&Request::LabelBatch(vs.to_vec()))?
            .into_label_batch(vs.len())
    }

    /// Fetches the server's metrics snapshot.
    pub fn metrics(&self) -> Result<MetricsSnapshot, NetError> {
        self.call(&Request::Metrics)?.into_metrics()
    }

    /// Asks the daemon to mount the store at `path` (a path on the
    /// *server's* filesystem); returns the new epoch serial and node
    /// count. In-flight queries racing the swap are answered from
    /// whichever epoch they snapshot — both are complete labelings.
    pub fn reload(&self, path: &str) -> Result<(u64, u64), NetError> {
        let req = Request::Reload {
            path: path.to_string(),
        };
        self.call(&req)?.into_reload_ack()
    }

    /// Asks the daemon to drain and exit.
    pub fn shutdown(&self) -> Result<(), NetError> {
        self.call(&Request::Shutdown)?.into_shutdown_ack()
    }
}

/// `Condvar::wait_timeout` that shrugs off poisoning like
/// [`lock_unpoisoned`] does: no thread holds this lock across code that
/// can panic, so a poisoned guard's data is still consistent.
fn wait_timeout_unpoisoned<'a>(
    cv: &Condvar,
    guard: MutexGuard<'a, MuxState>,
    dur: Duration,
) -> MutexGuard<'a, MuxState> {
    match cv.wait_timeout(guard, dur) {
        Ok((guard, _)) => guard,
        Err(poisoned) => poisoned.into_inner().0,
    }
}

#[cfg(test)]
mod tests {
    //! The read-token hand-off and the outbox against a scripted daemon:
    //! each mock writes exactly the bytes its test names, paced by
    //! channels, and the tests watch the token through `MuxState` and the
    //! queued frames through `Outbox` instead of sleeping.

    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::thread::{self, JoinHandle};

    use super::*;
    use crate::wire::{read_frame, write_frame, ClientHello, DEFAULT_MAX_FRAME_LEN};

    const LONG: Duration = Duration::from_secs(10);

    /// Accepts one connection, completes the v2 handshake on it, and runs
    /// `script` on the stream.
    fn spawn_mock<F>(script: F) -> (SocketAddr, JoinHandle<()>)
    where
        F: FnOnce(TcpStream) + Send + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind mock");
        let addr = listener.local_addr().expect("mock addr");
        let mock = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            handshake(&mut stream);
            script(stream);
        });
        (addr, mock)
    }

    fn handshake(stream: &mut TcpStream) {
        let hello = ServerHello {
            protocol_version: PROTOCOL_V2,
            store_version: 2,
            num_nodes: 100,
        };
        write_frame(stream, &hello.encode()).expect("server hello");
        let payload = read_frame(stream, DEFAULT_MAX_FRAME_LEN).expect("client hello");
        let hello = ClientHello::decode(&payload).expect("decode client hello");
        assert_eq!(hello.protocol_version, PROTOCOL_V2);
    }

    /// The answer every mock gives `Query { u, v }`: distinct per pair.
    fn distance(u: NodeId, v: NodeId) -> Distance {
        Distance::from(u) * 1000 + Distance::from(v)
    }

    /// Reads one `Query` frame and returns its id and whole framed answer.
    fn next_answer(stream: &mut TcpStream) -> (u64, Vec<u8>) {
        let payload = read_frame(stream, DEFAULT_MAX_FRAME_LEN).expect("request frame");
        let (id, inner) = split_mux(&payload).expect("request id");
        let Ok(Request::Query { u, v }) = Request::decode(inner) else {
            panic!("mock expected a Query");
        };
        (
            id,
            frame(Some(id), &Response::Distance(distance(u, v)).encode()),
        )
    }

    fn connect(addr: SocketAddr) -> MuxClient {
        MuxClient::connect(addr, ClientConfig::default()).expect("connect")
    }

    /// Spins (yielding, never sleeping) until the client's state satisfies
    /// `what`; ten seconds without it fails the test.
    fn spin_until(client: &MuxClient, what: impl Fn(&MuxState) -> bool) {
        let started = Instant::now();
        while !what(&lock_unpoisoned(&client.state)) {
            assert!(started.elapsed() < LONG, "client state never got there");
            thread::yield_now();
        }
    }

    #[test]
    fn two_waiters_answered_in_reverse_order_both_get_exact_answers() {
        let (go, next) = mpsc::channel::<()>();
        let (addr, mock) = spawn_mock(move |mut stream| {
            let (_, first) = next_answer(&mut stream);
            let (_, second) = next_answer(&mut stream);
            for answer in [second, first] {
                next.recv().expect("go");
                stream.write_all(&answer).expect("answer");
            }
            // Hold the connection until the test is done with it.
            next.recv().ok();
        });
        let client = connect(addr);
        let a = client.submit(&Request::Query { u: 1, v: 2 }).expect("a");
        let b = client.submit(&Request::Query { u: 3, v: 4 }).expect("b");
        thread::scope(|s| {
            let wait_a = s.spawn(|| client.wait(a, LONG));
            spin_until(&client, |st| st.reading);
            let wait_b = s.spawn(|| client.wait(b, LONG));
            spin_until(&client, |st| st.parked == 1);
            // B is parked behind A's read: A files B's answer and wakes it.
            go.send(()).expect("answer b");
            let got_b = wait_b.join().expect("waiter b").expect("b answers");
            assert_eq!(got_b, Response::Distance(distance(3, 4)));
            go.send(()).expect("answer a");
            let got_a = wait_a.join().expect("waiter a").expect("a answers");
            assert_eq!(got_a, Response::Distance(distance(1, 2)));
        });
        assert_eq!(client.in_flight(), 0);
        drop(go);
        mock.join().expect("mock");
    }

    #[test]
    fn a_parked_waiter_takes_over_reading_when_the_readers_deadline_expires() {
        let (go, next) = mpsc::channel::<()>();
        let (addr, mock) = spawn_mock(move |mut stream| {
            let (_, _never) = next_answer(&mut stream);
            let (_, answer) = next_answer(&mut stream);
            next.recv().expect("go");
            stream.write_all(&answer).expect("answer");
            next.recv().ok();
        });
        let client = connect(addr);
        let r = client.submit(&Request::Query { u: 5, v: 6 }).expect("r");
        let p = client.submit(&Request::Query { u: 7, v: 8 }).expect("p");
        thread::scope(|s| {
            let reader = s.spawn(|| client.wait(r, Duration::from_millis(500)));
            spin_until(&client, |st| st.reading);
            let parked = s.spawn(|| client.wait(p, LONG));
            spin_until(&client, |st| st.parked == 1);
            match reader.join().expect("reader") {
                Err(NetError::RequestTimeout { request_id, .. }) => assert_eq!(request_id, r),
                other => panic!("the reader's deadline must expire, got {other:?}"),
            }
            // The parked waiter was woken and now holds the token itself.
            spin_until(&client, |st| st.reading && st.parked == 0);
            go.send(()).expect("answer p");
            let got = parked.join().expect("waiter p").expect("p answers");
            assert_eq!(got, Response::Distance(distance(7, 8)));
        });
        assert_eq!(client.in_flight(), 0);
        drop(go);
        mock.join().expect("mock");
    }

    #[test]
    fn a_deadline_expiring_mid_frame_leaves_the_frame_whole_for_the_next_wait() {
        // Cut inside the length prefix, then inside the request id.
        for cut in [2, 9] {
            let (go, next) = mpsc::channel::<()>();
            let (half_sent, half) = mpsc::channel::<()>();
            let (addr, mock) = spawn_mock(move |mut stream| {
                let (_, _never) = next_answer(&mut stream);
                let (_, answer) = next_answer(&mut stream);
                stream.write_all(&answer[..cut]).expect("first half");
                half_sent.send(()).expect("half sent");
                next.recv().expect("go");
                stream.write_all(&answer[cut..]).expect("second half");
                next.recv().ok();
            });
            let client = connect(addr);
            let x = client.submit(&Request::Query { u: 9, v: 1 }).expect("x");
            let y = client.submit(&Request::Query { u: 2, v: 3 }).expect("y");
            client.flush().expect("flush");
            half.recv().expect("half");
            match client.wait(x, Duration::from_millis(50)) {
                Err(NetError::RequestTimeout { request_id, .. }) => assert_eq!(request_id, x),
                other => panic!("x must time out, got {other:?}"),
            }
            assert_eq!(
                lock_unpoisoned(&client.inbox).filled,
                cut,
                "half a frame kept"
            );
            go.send(()).expect("second half");
            let got = client.wait(y, LONG).expect("y answers whole");
            assert_eq!(got, Response::Distance(distance(2, 3)));
            assert_eq!(lock_unpoisoned(&client.inbox).filled, 0);
            drop(go);
            mock.join().expect("mock");
        }
    }

    #[test]
    fn a_short_deadline_after_a_long_one_still_bounds_the_read() {
        let (addr, mock) = spawn_mock(move |mut stream| {
            let (_, answer) = next_answer(&mut stream);
            stream.write_all(&answer).expect("answer");
            let (_, _never) = next_answer(&mut stream);
            // Hold the connection until the client is dropped.
            read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN).ok();
        });
        let client = connect(addr);
        assert_eq!(client.query(3, 4).expect("armed long"), distance(3, 4));
        let short = client
            .submit(&Request::Query { u: 5, v: 6 })
            .expect("short");
        let started = Instant::now();
        match client.wait(short, Duration::from_millis(100)) {
            Err(NetError::RequestTimeout { request_id, .. }) => assert_eq!(request_id, short),
            other => panic!("the short wait must time out, got {other:?}"),
        }
        let took = started.elapsed();
        assert!(took < Duration::from_secs(2), "a 100 ms wait took {took:?}");
        drop(client);
        mock.join().expect("mock");
    }

    #[test]
    fn a_long_frame_grows_the_inbox_and_its_room_is_given_back() {
        let long = Response::LabelBatch(vec![vec![(1, 2); 32 * 1024]]);
        let expected = long.clone();
        let (go, next) = mpsc::channel::<()>();
        let (half_sent, half) = mpsc::channel::<usize>();
        let (addr, mock) = spawn_mock(move |mut stream| {
            let (_, _never) = next_answer(&mut stream);
            let (id, _) = next_answer(&mut stream);
            let answer = frame(Some(id), &long.encode());
            let cut = answer.len() / 2;
            stream.write_all(&answer[..cut]).expect("first half");
            half_sent.send(answer.len()).expect("half sent");
            next.recv().expect("go");
            stream.write_all(&answer[cut..]).expect("second half");
            next.recv().ok();
        });
        let client = connect(addr);
        let x = client.submit(&Request::Query { u: 1, v: 1 }).expect("x");
        let y = client.submit(&Request::Query { u: 2, v: 2 }).expect("y");
        client.flush().expect("flush");
        let whole = half.recv().expect("half");
        assert!(
            whole > KEEP_BUF,
            "the frame must outgrow what the inbox keeps"
        );
        assert!(client.wait(x, Duration::from_millis(50)).is_err());
        assert_eq!(
            lock_unpoisoned(&client.inbox).buf.len(),
            whole,
            "the inbox grows to hold the whole frame"
        );
        go.send(()).expect("second half");
        assert_eq!(client.wait(y, LONG).expect("y answers"), expected);
        {
            let inbox = lock_unpoisoned(&client.inbox);
            assert_eq!((inbox.filled, inbox.buf.len()), (0, READ_BUF));
            assert!(
                inbox.buf.capacity() < whole,
                "the long frame's room is freed"
            );
        }
        drop(go);
        mock.join().expect("mock");
    }

    #[test]
    fn eof_mid_frame_kills_every_pending_request_but_delivers_what_was_filed() {
        let (addr, mock) = spawn_mock(move |mut stream| {
            let (_, filed) = next_answer(&mut stream);
            let (_, cut) = next_answer(&mut stream);
            let (_, _never) = next_answer(&mut stream);
            stream.write_all(&filed).expect("whole answer");
            stream
                .write_all(&cut[..cut.len() / 2])
                .expect("half an answer");
            // Dropping the stream closes it mid-frame.
        });
        let client = connect(addr);
        let a = client.submit(&Request::Query { u: 4, v: 4 }).expect("a");
        let b = client.submit(&Request::Query { u: 5, v: 5 }).expect("b");
        let c = client.submit(&Request::Query { u: 6, v: 6 }).expect("c");
        client.flush().expect("flush");
        mock.join().expect("mock");
        for id in [b, c] {
            match client.wait(id, LONG) {
                Err(NetError::ConnectionDead(_)) => {}
                other => panic!("request {id} must fail ConnectionDead, got {other:?}"),
            }
        }
        let got = client.wait(a, LONG).expect("a was filed before the EOF");
        assert_eq!(got, Response::Distance(distance(4, 4)));
        assert!(matches!(
            client.submit(&Request::Ping),
            Err(NetError::ConnectionDead(_))
        ));
        assert_eq!(client.in_flight(), 0);
    }

    /// How many whole frames `buf` holds; panics on a partial one.
    fn frames_in(mut buf: &[u8]) -> usize {
        let mut count = 0;
        while let Some(&prefix) = buf.first_chunk::<4>() {
            let len = frame_len(prefix, DEFAULT_MAX_FRAME_LEN).expect("frame length");
            buf = buf.get(4 + len..).expect("whole frames only");
            count += 1;
        }
        count
    }

    /// Reads `count` `Query` frames and writes their answers back.
    fn answer_all(stream: &mut TcpStream, count: usize) {
        for _ in 0..count {
            let (_, answer) = next_answer(stream);
            stream.write_all(&answer).expect("answer");
        }
    }

    fn queued(client: &MuxClient) -> Vec<u8> {
        lock_unpoisoned(&client.writer).buf.clone()
    }

    #[test]
    fn submits_stay_in_the_outbox_until_a_wait_writes_them_at_once() {
        const K: usize = 5;
        let (go, next) = mpsc::channel::<()>();
        let (saw, seen) = mpsc::channel::<io::ErrorKind>();
        let (addr, mock) = spawn_mock(move |mut stream| {
            next.recv().expect("go");
            stream.set_nonblocking(true).expect("nonblocking");
            let peek = stream
                .peek(&mut [0; 1])
                .map_or_else(|e| e.kind(), |_| io::ErrorKind::Other);
            saw.send(peek).expect("report");
            stream.set_nonblocking(false).expect("blocking");
            answer_all(&mut stream, K);
            next.recv().ok();
        });
        let client = connect(addr);
        let pairs: Vec<(NodeId, NodeId)> = (0..K as NodeId).map(|i| (i, i + 10)).collect();
        let ids: Vec<u64> = pairs
            .iter()
            .map(|&(u, v)| client.submit(&Request::Query { u, v }).expect("submit"))
            .collect();
        assert_eq!(frames_in(&queued(&client)), K);
        go.send(()).expect("go");
        assert_eq!(
            seen.recv().expect("peek"),
            io::ErrorKind::WouldBlock,
            "no submit may reach the socket before a wait"
        );
        for (&id, &(u, v)) in ids.iter().zip(&pairs) {
            let got = client.wait(id, LONG).expect("answer");
            assert_eq!(got, Response::Distance(distance(u, v)));
        }
        assert!(queued(&client).is_empty());
        assert_eq!(client.in_flight(), 0);
        drop(go);
        mock.join().expect("mock");
    }

    #[test]
    fn a_submit_that_fills_the_outbox_writes_it() {
        let one = frame(Some(1), &Request::Query { u: 1, v: 2 }.encode()).len();
        let fill = OUTBOX_FLUSH.div_ceil(one);
        let (got_all, all) = mpsc::channel::<()>();
        let (addr, mock) = spawn_mock(move |mut stream| {
            for _ in 0..fill {
                next_answer(&mut stream);
            }
            got_all.send(()).expect("report");
            // Hold the connection until the client is dropped.
            read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN).ok();
        });
        let client = connect(addr);
        for k in 1..fill {
            client
                .submit(&Request::Query { u: 1, v: 2 })
                .expect("submit");
            assert_eq!(queued(&client).len(), k * one, "submit {k} only queues");
        }
        client
            .submit(&Request::Query { u: 1, v: 2 })
            .expect("submit");
        assert!(queued(&client).is_empty(), "the filling submit writes");
        all.recv_timeout(LONG)
            .expect("every frame reached the mock without a wait");
        drop(client);
        mock.join().expect("mock");
    }

    #[test]
    fn a_waiter_flushes_its_submit_before_it_parks_behind_the_reader() {
        let (addr, mock) = spawn_mock(move |mut stream| {
            let (_, first) = next_answer(&mut stream);
            let (_, second) = next_answer(&mut stream);
            // The parked waiter's answer first, then the reader's.
            stream.write_all(&second).expect("answer p");
            stream.write_all(&first).expect("answer r");
            read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN).ok();
        });
        let client = connect(addr);
        let r = client.submit(&Request::Query { u: 5, v: 6 }).expect("r");
        thread::scope(|s| {
            let reader = s.spawn(|| client.wait(r, Duration::from_secs(5)));
            spin_until(&client, |st| st.reading);
            // Submitted while the token is held: only this waiter's own
            // flush can put the frame on the wire before the reader's
            // deadline.
            let p = client.submit(&Request::Query { u: 7, v: 8 }).expect("p");
            let got = client.wait(p, LONG).expect("p answers");
            assert_eq!(got, Response::Distance(distance(7, 8)));
            match reader.join().expect("reader") {
                Ok(got) => assert_eq!(got, Response::Distance(distance(5, 6))),
                Err(e) => panic!("the reader must be answered inside its deadline, got {e:?}"),
            }
        });
        assert_eq!(client.in_flight(), 0);
        drop(client);
        mock.join().expect("mock");
    }

    #[test]
    fn a_failed_flush_kills_the_connection_typed() {
        // The mock closes right after the handshake.
        let (addr, mock) = spawn_mock(drop);
        let client = connect(addr);
        mock.join().expect("mock");
        let one = frame(Some(1), &Request::Query { u: 1, v: 2 }.encode()).len();
        let mut ids = Vec::new();
        let failed = loop {
            assert!(ids.len() < 1 << 20, "no submit ever failed");
            match client.submit(&Request::Query { u: 1, v: 2 }) {
                Ok(id) => ids.push(id),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(failed, NetError::ConnectionDead(_)),
            "the failing submit: {failed:?}"
        );
        assert!(
            (ids.len() + 1) * one >= OUTBOX_FLUSH,
            "only a write can fail, and the first comes at 16 KiB"
        );
        let started = Instant::now();
        let (together, alone) = ids.split_at(4);
        let client = &client;
        thread::scope(|s| {
            let waiters: Vec<_> = together
                .iter()
                .map(|&id| s.spawn(move || (id, client.wait(id, LONG))))
                .collect();
            for waiter in waiters {
                match waiter.join().expect("waiter") {
                    (_, Err(NetError::ConnectionDead(_))) => {}
                    (id, other) => panic!("request {id} must fail ConnectionDead, got {other:?}"),
                }
            }
        });
        for &id in alone {
            match client.wait(id, LONG) {
                Err(NetError::ConnectionDead(_)) => {}
                other => panic!("request {id} must fail ConnectionDead, got {other:?}"),
            }
        }
        let took = started.elapsed();
        assert!(took < Duration::from_secs(2), "the waits took {took:?}");
        assert!(matches!(
            client.submit(&Request::Ping),
            Err(NetError::ConnectionDead(_))
        ));
        assert_eq!(client.in_flight(), 0);
    }
}
