//! The routing client: one logical distance oracle over a fleet of
//! ordinary `hubserve` daemons, each serving one shard store.
//!
//! Routing rules, per query pair `(u, v)`:
//!
//! - **Same shard** (`u % k == v % k`): the owning daemon holds both
//!   labels, so the pair ships as a plain `Query`/`QueryBatch` frame and
//!   the merge-join happens server-side — identical cost to unsharded
//!   serving.
//! - **Cross shard**: no single daemon can join the pair, so the router
//!   fetches `u`'s label from its owner and `v`'s from its owner
//!   (`Label`/`LabelBatch` frames), mounts them in a [`FlatLabeling`] and
//!   joins them with its query — the one merge-join kernel every server
//!   runs. Hub ids are global across shards (see [`crate::partition()`]),
//!   which is what makes the local join sound.
//!
//! The router holds one *multiplexed* HLNP v2 connection per shard
//! ([`hl_net::MuxClient`]), opened at [`ShardRouter::connect`] and
//! reused for every query after — connecting per query would pay a TCP
//! and handshake round trip each time and show up as one opened
//! connection per query in the daemons' metrics. Fan-out rides the
//! multiplexing: a cross-shard pair submits both label fetches before
//! waiting on either, and batch workloads keep a window of chunk frames
//! in flight on *every* shard at once, so the fleet computes in
//! parallel while the router joins. A submit only queues its frame in
//! the client's outbox, so the router flushes every shard it submitted
//! to before it blocks waiting on any one of them. A call that fails
//! abandons every request it still has in flight, on every shard, so no
//! failure leaves a slot held on any connection.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use hl_core::FlatLabeling;
use hl_graph::{Distance, NodeId};
use hl_net::{ClientConfig, MuxClient, NetError, Request};
use hl_server::MetricsSnapshot;

use crate::error::ShardError;
use crate::partition::shard_of;

/// How many vertices ride in one `LabelBatch` frame. Labels are heavy
/// (12 wire bytes per entry) and unbounded per vertex; 32 keeps even
/// thousand-hub labels comfortably under the 1 MiB default frame cap.
const LABEL_CHUNK: usize = 32;
/// How many pairs ride in one `QueryBatch` frame on the same-shard path.
const QUERY_CHUNK: usize = 256;
/// Chunk frames kept in flight *per shard*. Well under the server's
/// default per-connection cap (1024), so the fleet never answers `Busy`
/// to its own router.
const WINDOW: usize = 16;

/// One shard's unit of batch work: a chunk frame to submit and enough
/// context to file its response.
enum Work {
    /// A same-shard `QueryBatch` chunk: the indexes of its pairs in the
    /// batch, which are also the output slots its distances land in.
    Query(Vec<usize>),
    /// A `LabelBatch` chunk of distinct vertices this shard owns.
    Labels(Vec<NodeId>),
}

/// The ids a call has in flight on each shard, oldest first, each beside
/// the slot its response fills. Dropping it abandons whatever is left,
/// which only a failed call leaves, so a failure holds no slot on any
/// shard's connection.
struct InFlight<'a> {
    clients: &'a [MuxClient],
    ids: Vec<VecDeque<(usize, u64)>>,
}

impl<'a> InFlight<'a> {
    fn new(clients: &'a [MuxClient]) -> Self {
        let ids = vec![VecDeque::new(); clients.len()];
        InFlight { clients, ids }
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        for (client, ids) in self.clients.iter().zip(&self.ids) {
            for &(_, id) in ids {
                client.abandon(id);
            }
        }
    }
}

/// A connected fleet of shard daemons behaving as one distance oracle.
pub struct ShardRouter {
    clients: Vec<MuxClient>,
    num_nodes: u64,
    request_timeout: Duration,
}

impl ShardRouter {
    /// Connects one multiplexed connection to each daemon, in shard
    /// order, and verifies the fleet is coherent (every shard serves the
    /// same vertex count). These connections are held for the router's
    /// whole life; no query opens another.
    pub fn connect(addrs: &[String], config: &ClientConfig) -> Result<Self, ShardError> {
        if addrs.is_empty() {
            return Err(ShardError::NoShards);
        }
        let mut clients = Vec::with_capacity(addrs.len());
        let mut num_nodes = 0u64;
        for (shard, addr) in addrs.iter().enumerate() {
            let client = MuxClient::connect(addr.as_str(), config.clone())?;
            let got = client.num_nodes();
            if shard == 0 {
                num_nodes = got;
            } else if got != num_nodes {
                return Err(ShardError::ShardMismatch {
                    shard,
                    expected: num_nodes,
                    got,
                });
            }
            clients.push(client);
        }
        Ok(ShardRouter {
            clients,
            num_nodes,
            request_timeout: config.request_timeout,
        })
    }

    /// Number of shards behind this router.
    pub fn num_shards(&self) -> usize {
        self.clients.len()
    }

    /// Number of vertices the sharded labeling covers.
    pub fn num_nodes(&self) -> u64 {
        self.num_nodes
    }

    /// Requests in flight on each shard's connection, in shard order. All
    /// are zero between calls, whether the calls failed or not.
    pub fn in_flight(&self) -> Vec<usize> {
        self.clients.iter().map(MuxClient::in_flight).collect()
    }

    fn check(&self, v: NodeId) -> Result<(), ShardError> {
        if u64::from(v) < self.num_nodes {
            Ok(())
        } else {
            Err(ShardError::NodeOutOfRange {
                v,
                num_nodes: self.num_nodes,
            })
        }
    }

    /// One exact distance, routed to the owning shard or joined locally.
    /// Cross-shard pairs overlap their two label fetches: both are on
    /// the wire before either response is awaited.
    pub fn query(&mut self, u: NodeId, v: NodeId) -> Result<Distance, ShardError> {
        self.check(u)?;
        self.check(v)?;
        let k = self.clients.len();
        let (su, sv) = (shard_of(u, k), shard_of(v, k));
        if su == sv {
            return Ok(self.clients[su].query(u, v)?);
        }
        let mut inflight = InFlight::new(&self.clients);
        for (at, (s, w)) in [(su, u), (sv, v)].into_iter().enumerate() {
            let id = self.clients[s].submit(&Request::Label { v: w })?;
            inflight.ids[s].push_back((at, id));
            self.clients[s].flush()?;
        }
        let mut labels = vec![Vec::new(); 2];
        for s in [su, sv] {
            if let Some((at, id)) = inflight.ids[s].pop_front() {
                labels[at] = self.clients[s]
                    .wait(id, self.request_timeout)?
                    .into_label()?;
            }
        }
        Ok(fetched_arena(labels)?.query(0, 1))
    }

    /// A batch of exact distances, answered in request order. Same-shard
    /// pairs go out as per-shard query batches; cross-shard pairs are
    /// answered by fetching each distinct referenced label once from its
    /// owning shard and joining locally. All shards crunch their chunks
    /// concurrently — the router keeps up to `WINDOW` (16) frames in flight
    /// on every connection while reaping completions.
    pub fn query_many(&mut self, pairs: &[(NodeId, NodeId)]) -> Result<Vec<Distance>, ShardError> {
        for &(u, v) in pairs {
            self.check(u)?;
            self.check(v)?;
        }
        let k = self.clients.len();
        let mut out = vec![0u64; pairs.len()];

        // Same-shard pairs, grouped by owner as indexes into `pairs`.
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); k];
        // Distinct label fetches per shard for the cross-shard pairs, and
        // each fetched vertex's (shard, position in that shard's list).
        let mut wanted: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        let mut slot: HashMap<NodeId, (usize, usize)> = HashMap::new();
        let mut cross: Vec<usize> = Vec::new();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let (su, sv) = (shard_of(u, k), shard_of(v, k));
            if su == sv {
                owned[su].push(i);
            } else {
                cross.push(i);
                for (s, w) in [(su, u), (sv, v)] {
                    slot.entry(w).or_insert_with(|| {
                        wanted[s].push(w);
                        (s, wanted[s].len() - 1)
                    });
                }
            }
        }

        // Chunk every shard's share into wire-sized work items.
        let work: Vec<Vec<Work>> = owned
            .iter()
            .zip(&wanted)
            .map(|(idxs, vs)| {
                let queries = idxs.chunks(QUERY_CHUNK).map(|c| Work::Query(c.to_vec()));
                let labels = vs.chunks(LABEL_CHUNK).map(|c| Work::Labels(c.to_vec()));
                queries.chain(labels).collect()
            })
            .collect();

        // Submit/reap engine: fill every shard's window, then take one
        // completion per shard per sweep so refills rotate fairly and no
        // shard sits idle while another drains. Each shard is reaped
        // oldest first, so a completion is filed as it lands: distances
        // into their slots, label chunks in order onto the shard's table.
        let mut next: Vec<usize> = vec![0; k];
        let mut inflight = InFlight::new(&self.clients);
        let mut labels: Vec<Vec<Vec<(NodeId, Distance)>>> = vec![Vec::new(); k];
        loop {
            let mut done = true;
            for s in 0..k {
                while inflight.ids[s].len() < WINDOW && next[s] < work[s].len() {
                    let req = match &work[s][next[s]] {
                        Work::Query(idxs) => {
                            Request::QueryBatch(idxs.iter().map(|&i| pairs[i]).collect())
                        }
                        Work::Labels(vs) => Request::LabelBatch(vs.clone()),
                    };
                    let id = self.clients[s].submit(&req)?;
                    inflight.ids[s].push_back((next[s], id));
                    next[s] += 1;
                }
                // Out now: the wait below blocks on one shard at a time.
                self.clients[s].flush()?;
                if next[s] < work[s].len() || !inflight.ids[s].is_empty() {
                    done = false;
                }
            }
            if done {
                break;
            }
            for s in 0..k {
                let Some((at, id)) = inflight.ids[s].pop_front() else {
                    continue;
                };
                let resp = self.clients[s].wait(id, self.request_timeout)?;
                match &work[s][at] {
                    Work::Query(idxs) => {
                        let ds = resp.into_distance_batch(idxs.len())?;
                        for (&i, d) in idxs.iter().zip(ds) {
                            out[i] = d;
                        }
                    }
                    Work::Labels(vs) => labels[s].extend(resp.into_label_batch(vs.len())?),
                }
            }
        }

        // Shard by shard into one arena for the local joins.
        let mut base = vec![0usize; k];
        for s in 1..k {
            base[s] = base[s - 1] + labels[s - 1].len();
        }
        let row = |w: NodeId| {
            let (s, at) = slot[&w];
            (base[s] + at) as NodeId
        };
        let arena = fetched_arena(labels.into_iter().flatten().collect())?;
        for i in cross {
            let (u, v) = pairs[i];
            out[i] = arena.query(row(u), row(v));
        }
        Ok(out)
    }

    /// Metrics snapshots from every shard daemon, in shard order. Rides
    /// the same multiplexed connections as the queries.
    pub fn fleet_metrics(&mut self) -> Result<Vec<MetricsSnapshot>, ShardError> {
        self.clients
            .iter()
            .map(|c| c.metrics().map_err(ShardError::from))
            .collect()
    }

    /// Asks every shard daemon to drain and exit (test/bench teardown).
    pub fn shutdown_fleet(&mut self) -> Result<(), ShardError> {
        for client in &self.clients {
            client.shutdown()?;
        }
        Ok(())
    }
}

/// Fetched labels as the rows of one arena, in order. A distance past the
/// arena's `u32` lane is no label a store can hold, so the daemon that
/// sent it answered out of contract: an unexpected response, not a sum.
/// Query-only: rows are fetch slots but hubs are global ids, often past
/// `num_nodes()`, so any reader relying on `hub < num_nodes()` misreads it.
fn fetched_arena(labels: Vec<Vec<(NodeId, Distance)>>) -> Result<FlatLabeling, ShardError> {
    FlatLabeling::from_pair_lists(labels).map_err(|e| {
        ShardError::Net(NetError::UnexpectedResponse {
            expected: "Label",
            got: e.to_string(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetched_labels_join_in_the_arena_and_a_wide_distance_is_refused() {
        let a = vec![(0, 1), (3, 2), (9, 5)];
        let b = vec![(1, 1), (3, 4), (8, 1), (9, 0)];
        let arena = fetched_arena(vec![a.clone(), b, vec![]]).unwrap();
        assert_eq!(arena.query(0, 1), 5);
        assert_eq!(arena.query(0, 2), hl_graph::INFINITY);
        // u32::MAX still fits the lane; one more is out of contract.
        let max = Distance::from(u32::MAX);
        let arena = fetched_arena(vec![a.clone(), vec![(9, max)]]).unwrap();
        assert_eq!(arena.query(0, 1), max + 5);
        match fetched_arena(vec![a, vec![(9, max + 1)]]) {
            Err(ShardError::Net(NetError::UnexpectedResponse { expected, got })) => {
                assert_eq!(expected, "Label");
                assert!(got.contains("u32"), "{got}");
            }
            other => panic!("want UnexpectedResponse, got {other:?}"),
        }
    }
}
