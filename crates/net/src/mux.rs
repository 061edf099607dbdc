//! Multiplexed HLNP v2 client: many concurrent requests on one
//! connection, correlated by request id.
//!
//! [`MuxClient`] drives `client_conn.rs`, the socket-free machine that
//! owns request ids, response slots, the outbox, framing and the dead
//! state; this file adds the socket, the locks and the clock. It starts
//! no thread: a caller blocked in [`MuxClient::wait`] reads the socket
//! itself. One waiter at a time holds the read token; it reads once with
//! no lock held on the machine, hands the bytes over (the machine files
//! every whole response by id), gives the token back and wakes the
//! waiters parked behind it. A deadline bounds one wait, and a wait that
//! times out abandons only its own request. A broken read or write kills
//! the machine: every request in flight fails
//! [`NetError::ConnectionDead`], and answers already filed still deliver.
//!
//! **When requests leave.** [`MuxClient::submit`] only frames the request
//! onto the outbox, which goes to the socket in one write when a
//! [`MuxClient::wait`] finds its slot empty (before it reads or parks), on
//! [`MuxClient::flush`], or when a submit brings it to 16 KiB. A thread
//! that submits to several clients and then blocks on one of them, such
//! as the shard router, must `flush` the others first.
//!
//! **Unread responses** wait in the socket buffers, then in the daemon's
//! write queue, which the daemon bounds: at most `max_inflight_per_conn`
//! requests in flight, and no reading past 8 MiB queued. Once the socket
//! buffers are full, a connection whose writes stay refused past the
//! daemon's `write_timeout` (10 s by default) is dropped, failing
//! everything in flight. So a caller with more than the socket buffers'
//! worth of responses pending must wait within that time.
//!
//! The blocking convenience methods (`query`, `label_batch`, …) mirror
//! [`crate::NetClient`] one-for-one; they are `submit` + `wait` and
//! interleave freely with other threads' requests on the same client.

use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use hl_graph::sync::lock_unpoisoned;
use hl_graph::{Distance, NodeId};
use hl_server::MetricsSnapshot;

use crate::client::{dial, resolve, ClientConfig};
use crate::client_conn::{ClientConn, Held};
use crate::error::NetError;
use crate::wire::{write_all_deadline, DeadlineWrite, Request, Response, ServerHello, PROTOCOL_V2};

/// The buffer the read token lends: one read takes at most this much,
/// about one whole label of the paper's h:2,5 gadget (5,461 hubs).
const READ_BUF: usize = 64 * 1024;

/// Whether a socket timeout armed at `armed` must be re-armed for a
/// budget of `want`. Re-arming is a syscall, so the armed timeout is
/// kept while it neither overruns the budget by more than 1 ms nor is
/// under half of it: a read that times out early costs only one more
/// turn of the waiter's loop, and a write that does fails at worst half
/// its budget early.
fn must_rearm(armed: Duration, want: Duration) -> bool {
    armed > want + Duration::from_millis(1) || armed < want / 2
}

/// What [`MuxClient::state`] guards.
struct State {
    conn: ClientConn,
    /// The read token, which is the buffer its holder reads into: `None`
    /// while one waiter holds it and reads the socket.
    token: Option<Vec<u8>>,
    /// Waiters parked on [`MuxClient::cv`] behind the token holder. At
    /// zero nobody is notified, so a single-threaded caller never pays
    /// for a wake.
    parked: usize,
}

/// One half of the socket (the read half, or its `try_clone` twin the
/// write half) and the timeout that half is armed with.
struct Half {
    stream: TcpStream,
    armed: Duration,
}

impl Half {
    fn new(stream: TcpStream) -> Half {
        let armed = Duration::ZERO;
        Half { stream, armed }
    }

    /// Reads the socket once into `buf`, waiting at most `timeout` (floor
    /// 1 ms) plus 1 ms. `Ok(0)` is a timeout, which is no error. `Err` is
    /// the rendered reason the connection is dead: EOF or a socket error.
    fn read_once(&mut self, buf: &mut [u8], timeout: Duration) -> Result<usize, String> {
        let want = timeout.max(Duration::from_millis(1));
        if must_rearm(self.armed, want) {
            self.stream
                .set_read_timeout(Some(want))
                .map_err(|e| format!("arming the response read: {e}"))?;
            self.armed = want;
        }
        match self.stream.read(buf) {
            Ok(0) => Err("reading response frame: peer closed".to_string()),
            Ok(n) => Ok(n),
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => Ok(0),
            Err(e) => Err(format!("reading response frame: {e}")),
        }
    }

    /// Writes `frames` in one [`write_all_deadline`] within `budget`.
    /// `Err` is the rendered reason the connection is dead: the write
    /// failed or timed out and may have sent part of a frame, so the
    /// socket is shut down, which wakes a waiter blocked reading.
    fn write_out(&mut self, frames: &[u8], budget: Duration) -> Result<(), String> {
        write_all_deadline(self, frames, budget).map_err(|e| {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "the connection is dead either way; the write error is the reason"
            )]
            let _ = self.stream.shutdown(Shutdown::Both);
            format!("writing requests: {e}")
        })
    }
}

impl Write for Half {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

impl DeadlineWrite for Half {
    fn limit_write_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        if must_rearm(self.armed, timeout) {
            self.stream.set_write_timeout(Some(timeout))?;
            self.armed = timeout;
        }
        Ok(())
    }
}

/// A multiplexing client for one HLNP v2 daemon connection.
///
/// All methods take `&self`: clone nothing, share one instance across
/// threads (or keep it single-threaded and pipeline by interleaving
/// `submit`s before `wait`s).
pub struct MuxClient {
    state: Mutex<State>,
    /// Parks waiters while another waiter holds the read token.
    cv: Condvar,
    /// The read half; only the read token's holder locks it.
    reader: Mutex<Half>,
    writer: Mutex<Half>,
    hello: ServerHello,
    addr: SocketAddr,
    config: ClientConfig,
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
            state: Mutex::new(State {
                conn: ClientConn::new(config.max_frame_len),
                token: Some(vec![0; READ_BUF]),
                parked: 0,
            }),
            cv: Condvar::new(),
            reader: Mutex::new(Half::new(stream)),
            writer: Mutex::new(Half::new(writer)),
            hello,
            addr,
            config,
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

    /// Requests currently awaiting a response: submitted, and neither
    /// waited on to the end nor abandoned.
    pub fn in_flight(&self) -> usize {
        lock_unpoisoned(&self.state).conn.in_flight()
    }

    /// Queues `request` and returns its id without waiting; pair with
    /// [`MuxClient::wait`] or [`MuxClient::abandon`]. The framed request
    /// leaves as the module docs say; a write this submit makes that fails
    /// kills the connection, and this and every request in flight fail
    /// [`NetError::ConnectionDead`].
    pub fn submit(&self, request: &Request) -> Result<u64, NetError> {
        let (id, frames) = {
            let mut state = lock_unpoisoned(&self.state);
            let (id, full) = state.conn.submit(request)?;
            (id, full.then(|| state.conn.take_outbox()))
        };
        if let Some(Err(reason)) = frames.map(|frames| self.send(&frames)) {
            let mut state = lock_unpoisoned(&self.state);
            // The slot will never fill: reclaim it rather than leak it.
            state.conn.abandon(id);
            return Err(self.kill(&mut state, reason));
        }
        Ok(id)
    }

    /// Writes every submitted request not yet written, in one write. A
    /// thread that submits to several clients calls this on each before
    /// it blocks waiting on one of them. A failed write kills the
    /// connection, as in [`MuxClient::submit`].
    pub fn flush(&self) -> Result<(), NetError> {
        let frames = lock_unpoisoned(&self.state).conn.take_outbox();
        self.send(&frames)
            .map_err(|reason| self.kill(&mut lock_unpoisoned(&self.state), reason))
    }

    /// Gives up on request `id` without waiting: its slot is freed, and
    /// its response, if one still comes, is dropped on arrival. A caller
    /// that will not wait on a request it submitted abandons it, or its
    /// slot stays in flight until the connection closes.
    pub fn abandon(&self, id: u64) {
        lock_unpoisoned(&self.state).conn.abandon(id);
    }

    /// Writes `frames`, whole frames taken from the outbox, in one write.
    /// `Err` is the rendered reason the connection is dead.
    fn send(&self, frames: &[u8]) -> Result<(), String> {
        if frames.is_empty() {
            return Ok(());
        }
        lock_unpoisoned(&self.writer).write_out(frames, self.config.request_timeout)
    }

    /// Kills the machine (the first reason sticks) and wakes the parked
    /// waiters to see it; returns the error every request gets.
    fn kill(&self, state: &mut State, reason: String) -> NetError {
        let dead = state.conn.kill(reason);
        if state.parked > 0 {
            self.cv.notify_all();
        }
        dead
    }

    /// Blocks until request `id` answers or `deadline` passes. On
    /// timeout the request is abandoned — its late response (if one ever
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
        let mut state = lock_unpoisoned(&self.state);
        loop {
            match state.conn.take(id) {
                Held::Answer(response) => return Ok(response),
                Held::Dead(reason) => return Err(NetError::ConnectionDead(reason)),
                // Never submitted, already waited on, or abandoned.
                Held::Unknown => {
                    return Err(NetError::RequestTimeout {
                        request_id: id,
                        waited: started.elapsed(),
                    })
                }
                Held::Waiting => {}
            }
            // Before reading or parking: a request still in the outbox
            // would never be answered. A failed write kills the machine,
            // and the next look at the slot reports it.
            let frames = state.conn.take_outbox();
            if !frames.is_empty() {
                drop(state);
                let sent = self.send(&frames);
                state = lock_unpoisoned(&self.state);
                if let Err(reason) = sent {
                    self.kill(&mut state, reason);
                }
                continue;
            }
            let elapsed = started.elapsed();
            let Some(remaining) = deadline.checked_sub(elapsed) else {
                state.conn.abandon(id);
                return Err(NetError::RequestTimeout {
                    request_id: id,
                    waited: elapsed,
                });
            };
            let Some(mut buf) = state.token.take() else {
                state.parked += 1;
                // Poisoning is shrugged off as `lock_unpoisoned` does.
                let woken = self.cv.wait_timeout(state, remaining);
                state = woken.unwrap_or_else(PoisonError::into_inner).0;
                state.parked -= 1;
                continue;
            };
            // Holding the token: read once with no state guard held, then
            // file, hand the token back and wake whoever parked.
            drop(state);
            let read = lock_unpoisoned(&self.reader).read_once(&mut buf, remaining);
            state = lock_unpoisoned(&self.state);
            match read {
                Ok(n) => state.conn.received(&buf[..n]),
                Err(reason) => {
                    state.conn.kill(reason);
                }
            }
            state.token = Some(buf);
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

#[cfg(test)]
mod tests {
    //! The driver against a scripted daemon: the read-token hand-off, the
    //! read deadline and the outbox writes. Each mock writes exactly the
    //! bytes its test names, paced by channels, and the tests watch the
    //! token and the outbox through `State` instead of sleeping. What the
    //! machine files, keeps and kills is tested in `client_conn.rs`.

    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::thread::{self, JoinHandle};

    use super::*;
    use crate::client_conn::OUTBOX_FLUSH;
    use crate::wire::{
        frame, frame_len, read_frame, split_mux, write_frame, ClientHello, DEFAULT_MAX_FRAME_LEN,
    };

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
    fn spin_until(client: &MuxClient, what: impl Fn(&State) -> bool) {
        let started = Instant::now();
        while !what(&lock_unpoisoned(&client.state)) {
            assert!(started.elapsed() < LONG, "client state never got there");
            thread::yield_now();
        }
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
            spin_until(&client, |st| st.token.is_none());
            let parked = s.spawn(|| client.wait(p, LONG));
            spin_until(&client, |st| st.parked == 1);
            match reader.join().expect("reader") {
                Err(NetError::RequestTimeout { request_id, .. }) => assert_eq!(request_id, r),
                other => panic!("the reader's deadline must expire, got {other:?}"),
            }
            // The parked waiter was woken and now holds the token itself.
            spin_until(&client, |st| st.token.is_none() && st.parked == 0);
            go.send(()).expect("answer p");
            let got = parked.join().expect("waiter p").expect("p answers");
            assert_eq!(got, Response::Distance(distance(7, 8)));
        });
        assert_eq!(client.in_flight(), 0);
        drop(go);
        mock.join().expect("mock");
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
        lock_unpoisoned(&client.state).conn.outbox.clone()
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
            spin_until(&client, |st| st.token.is_none());
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
