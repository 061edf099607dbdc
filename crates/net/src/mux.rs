//! Multiplexed HLNP v2 client: many concurrent requests on one
//! connection, correlated by request id.
//!
//! [`MuxClient`] speaks protocol v2, where every frame payload is
//! prefixed with a caller-chosen `request_id: u64` and the server may
//! answer out of order. One dedicated reader thread drains the socket
//! and routes each response to the waiter that submitted its id;
//! writers share the socket behind a mutex. The result:
//!
//! - **Concurrency without connections.** Hundreds of requests ride one
//!   TCP stream; a slow query does not block the answers behind it.
//! - **Per-request deadlines.** [`MuxClient::wait`] bounds one request;
//!   a request that times out abandons only its own slot, and its late
//!   response (if any) is dropped on arrival instead of being
//!   misdelivered to a future request.
//! - **Shared fate on transport death.** If the socket or framing
//!   breaks, the reader marks the connection dead with the rendered
//!   error and every in-flight and future request fails with
//!   [`NetError::ConnectionDead`]; responses that had already arrived
//!   still deliver.
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
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hl_graph::sync::lock_unpoisoned;
use hl_graph::{Distance, NodeId};
use hl_server::MetricsSnapshot;

use crate::client::{dial, resolve, ClientConfig};
use crate::error::NetError;
use crate::wire::{
    frame, read_frame, split_mux, write_all_deadline, Request, Response, ServerHello, PROTOCOL_V2,
};

/// What every thread touching the connection shares.
struct Shared {
    state: Mutex<MuxState>,
    cv: Condvar,
}

/// The correlation table, guarded by [`Shared::state`].
struct MuxState {
    /// One entry per in-flight request: `None` until its response lands.
    /// A waiter that gives up removes its entry, which is exactly what
    /// makes the late response droppable instead of deliverable.
    slots: HashMap<u64, Option<Response>>,
    /// Set once by the reader when the transport dies; the rendered
    /// error every subsequent failure reports.
    dead: Option<String>,
}

/// A multiplexing client for one HLNP v2 daemon connection.
///
/// All methods take `&self`: clone nothing, share one instance across
/// threads (or keep it single-threaded and pipeline by interleaving
/// `submit`s before `wait`s).
pub struct MuxClient {
    shared: Arc<Shared>,
    /// The write half (a `try_clone` twin of the reader's stream).
    writer: Mutex<TcpStream>,
    hello: ServerHello,
    addr: SocketAddr,
    config: ClientConfig,
    next_id: AtomicU64,
    reader: Option<JoinHandle<()>>,
}

impl MuxClient {
    /// Resolves `addr`, connects, and negotiates protocol v2. Fails with
    /// [`NetError::Handshake`] against a server whose advertised ceiling
    /// is below v2 (use [`crate::NetClient`] for those).
    pub fn connect<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> Result<Self, NetError> {
        let addr = resolve(addr)?;
        let (stream, hello) = dial(&addr, &config, PROTOCOL_V2)?;
        let writer = stream.try_clone()?;
        // The reader blocks on whole frames with no deadline of its own:
        // per-request deadlines belong to the waiters, and `Drop` frees
        // the thread by shutting the socket down under it.
        stream.set_read_timeout(None)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(MuxState {
                slots: HashMap::new(),
                dead: None,
            }),
            cv: Condvar::new(),
        });
        let reader_shared = Arc::clone(&shared);
        let max_frame_len = config.max_frame_len;
        let reader = std::thread::Builder::new()
            .name("hlnet-mux-reader".to_string())
            .spawn(move || reader_loop(stream, &reader_shared, max_frame_len))?;
        Ok(MuxClient {
            shared,
            writer: Mutex::new(writer),
            hello,
            addr,
            config,
            next_id: AtomicU64::new(1),
            reader: Some(reader),
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
        lock_unpoisoned(&self.shared.state).slots.len()
    }

    /// Sends `request` and returns its id without waiting; pair with
    /// [`MuxClient::wait`]. Submissions from any number of threads
    /// interleave on the wire (each frame is written atomically under
    /// the writer lock, within the write budget).
    pub fn submit(&self, request: &Request) -> Result<u64, NetError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            if let Some(reason) = &state.dead {
                return Err(NetError::ConnectionDead(reason.clone()));
            }
            state.slots.insert(id, None);
        }
        let framed = frame(Some(id), &request.encode());
        let wrote = {
            let mut writer = lock_unpoisoned(&self.writer);
            write_all_deadline(&mut *writer, &framed, self.config.request_timeout)
        };
        if let Err(e) = wrote {
            // Nothing (or half a frame) went out: the slot will never
            // fill, so reclaim it rather than leak it.
            lock_unpoisoned(&self.shared.state).slots.remove(&id);
            return Err(e.into());
        }
        Ok(id)
    }

    /// Blocks until request `id` answers or `deadline` passes. On
    /// timeout the slot is abandoned — its late response (if one ever
    /// comes) is dropped by the reader — and only this request fails;
    /// everything else in flight keeps waiting undisturbed.
    pub fn wait(&self, id: u64, deadline: Duration) -> Result<Response, NetError> {
        let started = Instant::now();
        let mut state = lock_unpoisoned(&self.shared.state);
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
            let elapsed = started.elapsed();
            let Some(remaining) = deadline.checked_sub(elapsed) else {
                state.slots.remove(&id);
                return Err(NetError::RequestTimeout {
                    request_id: id,
                    waited: elapsed,
                });
            };
            state = wait_timeout_unpoisoned(&self.shared.cv, state, remaining);
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

impl Drop for MuxClient {
    fn drop(&mut self) {
        // Yank the socket out from under the blocking reader so it
        // observes EOF and exits; then reap the thread.
        {
            let writer = lock_unpoisoned(&self.writer);
            // lint:allow(swallowed-result): the socket may already be dead, which is exactly the state shutdown wants
            let _ = writer.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
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

/// The reader thread: drains whole frames forever, routing each to its
/// waiter by id. Exits — after marking the connection dead and waking
/// every waiter — on EOF, socket error, or a framing violation.
fn reader_loop(mut stream: TcpStream, shared: &Shared, max_frame_len: u32) {
    let reason = loop {
        let payload = match read_frame(&mut stream, max_frame_len) {
            Ok(p) => p,
            Err(e) => break format!("reading response frame: {e}"),
        };
        let (id, inner) = match split_mux(&payload) {
            Ok(split) => split,
            // The server broke v2 framing: ids are no longer
            // trustworthy, so no response on this stream is either.
            Err(e) => break format!("response frame missing request id: {e}"),
        };
        let response = match Response::decode(inner) {
            Ok(r) => r,
            Err(e) => break format!("decoding response for request {id}: {e}"),
        };
        let mut state = lock_unpoisoned(&shared.state);
        if let Some(slot) = state.slots.get_mut(&id) {
            *slot = Some(response);
        }
        // else: no waiter for this id — a timed-out request's late
        // response, or a server duplicate. Dropping it here is what
        // keeps misdelivery impossible.
        drop(state);
        shared.cv.notify_all();
    };
    let mut state = lock_unpoisoned(&shared.state);
    state.dead = Some(reason);
    drop(state);
    shared.cv.notify_all();
}
