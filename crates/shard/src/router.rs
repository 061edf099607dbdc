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
//!   fetches `u`'s label from its owner and `v`'s from its owner, mounts
//!   them in a [`FlatLabeling`] and joins them with its query — the one
//!   merge-join kernel every server runs. Hub ids are global across
//!   shards (see [`crate::partition()`]), which makes the local join sound.
//!   Each label rides its own `Label` frame: on the paper's gadget
//!   `H_{b,ℓ}` labels average about 0.2 n entries, so a frame of a fixed
//!   count of labels can pass any cap, while one label past it is a typed
//!   `FrameTooLarge` for that request and the connection serves on.
//!
//! The router holds one *multiplexed* HLNP v2 connection per shard
//! ([`hl_net::MuxClient`]), opened at [`ShardRouter::connect`] and
//! reused for every query after. A cross-shard [`ShardRouter::query`]
//! flushes both label fetches before it waits on either.
//! [`ShardRouter::query_many`] gives every shard with work its own waiter
//! ([`fan_out`]), which keeps a window of frames in flight on that
//! shard's connection and reads its answers as they come: the shards
//! compute at once, and no shard's answers sit unread, which a daemon
//! would punish past its `write_timeout`, while the router waits on
//! another. A call that fails abandons every request it still has in
//! flight, so no failure leaves a slot held on any connection.

use std::collections::{HashMap, VecDeque};
use std::panic::resume_unwind;
use std::time::Duration;

use hl_core::FlatLabeling;
use hl_graph::sync::fan_out;
use hl_graph::{Distance, NodeId};
use hl_net::{ClientConfig, MuxClient, NetError, Request, Response};
use hl_server::MetricsSnapshot;

use crate::error::ShardError;
use crate::partition::shard_of;

/// How many pairs ride in one `QueryBatch` frame on the same-shard path.
const QUERY_CHUNK: usize = 256;
/// Frames kept in flight *per shard*. Well under the server's default
/// per-connection cap (1024), so the fleet never answers `Busy` to its
/// own router.
const WINDOW: usize = 64;

type Label = Vec<(NodeId, Distance)>;

/// The ids a call has in flight on one client, oldest first. Dropping it
/// abandons whatever is left, which only a failed call leaves, so a
/// failure holds no slot on the connection.
struct InFlight<'a>(&'a MuxClient, VecDeque<u64>);

impl InFlight<'_> {
    /// Waits for the oldest request in flight. With none it fails as a
    /// wait on an id never issued (0) does.
    fn wait_oldest(&mut self, timeout: Duration) -> Result<Response, NetError> {
        self.0.wait(self.1.pop_front().unwrap_or(0), timeout)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.1.iter().for_each(|&id| self.0.abandon(id));
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
        let mut fetches = Vec::with_capacity(2);
        for (s, w) in [(su, u), (sv, v)] {
            let id = self.clients[s].submit(&Request::Label { v: w })?;
            fetches.push(InFlight(&self.clients[s], VecDeque::from([id])));
            self.clients[s].flush()?;
        }
        let labels = fetches
            .iter_mut()
            .map(|f| f.wait_oldest(self.request_timeout)?.into_label())
            .collect::<Result<_, _>>()?;
        Ok(fetched_arena(labels)?.query(0, 1))
    }

    /// A batch of exact distances, answered in request order. Same-shard
    /// pairs go out as per-shard query batches; cross-shard pairs are
    /// answered by fetching each distinct referenced label once from its
    /// owning shard and joining locally. Every shard with work gets its
    /// own waiter, which keeps up to `WINDOW` (64) frames in flight on its
    /// connection; the call returns once every waiter is done, with the
    /// first failure in shard order if any failed.
    pub fn query_many(&mut self, pairs: &[(NodeId, NodeId)]) -> Result<Vec<Distance>, ShardError> {
        for &(u, v) in pairs {
            self.check(u)?;
            self.check(v)?;
        }
        let k = self.clients.len();
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

        let busy: Vec<usize> = (0..k)
            .filter(|&s| !owned[s].is_empty() || !wanted[s].is_empty())
            .collect();
        let done = fan_out(&mut vec![(); busy.len()], busy.len(), |(), j| {
            let s = busy[j];
            self.serve_share(s, pairs, &owned[s], &wanted[s])
        })
        .unwrap_or_else(|panic| resume_unwind(panic));
        let mut out = vec![0u64; pairs.len()];
        let mut labels: Vec<Vec<Label>> = vec![Vec::new(); k];
        for (s, got) in busy.into_iter().zip(done) {
            let (distances, fetched) = got?;
            for (&i, d) in owned[s].iter().zip(distances) {
                out[i] = d;
            }
            labels[s] = fetched;
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

    /// Shard `s`'s waiter: the `owned` pairs in `QueryBatch` chunks, then
    /// one `Label` frame per `wanted` vertex, through a window of `WINDOW`
    /// frames, each answer filed as it is waited on, oldest first. Returns
    /// the distances in the order of `owned`, the labels in that of `wanted`.
    fn serve_share(
        &self,
        s: usize,
        pairs: &[(NodeId, NodeId)],
        owned: &[usize],
        wanted: &[NodeId],
    ) -> Result<(Vec<Distance>, Vec<Label>), ShardError> {
        let batches: Vec<&[usize]> = owned.chunks(QUERY_CHUNK).collect();
        let request = |j: usize| match batches.get(j) {
            Some(idxs) => Request::QueryBatch(idxs.iter().map(|&i| pairs[i]).collect()),
            None => Request::Label {
                v: wanted[j - batches.len()],
            },
        };
        let total = batches.len() + wanted.len();
        let (mut distances, mut labels) = (Vec::new(), Vec::new());
        let client = &self.clients[s];
        let mut inflight = InFlight(client, VecDeque::new());
        for j in 0..total {
            while inflight.1.len() < WINDOW && j + inflight.1.len() < total {
                let id = client.submit(&request(j + inflight.1.len()))?;
                inflight.1.push_back(id);
            }
            let response = inflight.wait_oldest(self.request_timeout)?;
            match batches.get(j) {
                Some(idxs) => distances.extend(response.into_distance_batch(idxs.len())?),
                None => labels.push(response.into_label()?),
            }
        }
        Ok((distances, labels))
    }

    /// Metrics snapshots from every shard daemon, in shard order. Rides
    /// the same multiplexed connections as the queries.
    pub fn fleet_metrics(&mut self) -> Result<Vec<MetricsSnapshot>, ShardError> {
        self.clients
            .iter()
            .map(|c| c.metrics().map_err(ShardError::from))
            .collect()
    }
}

/// Fetched labels as the rows of one arena, in order. A distance past the
/// arena's `u32` lane is no label a store can hold, so the daemon that
/// sent it answered out of contract: an unexpected response, not a sum.
/// Query-only: rows are fetch slots but hubs are global ids, often past
/// `num_nodes()`, so any reader relying on `hub < num_nodes()` misreads it.
fn fetched_arena(labels: Vec<Label>) -> Result<FlatLabeling, ShardError> {
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
