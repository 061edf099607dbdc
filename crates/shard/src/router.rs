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
//!   (`Label`/`LabelBatch` frames) and merge-joins them locally. Hub ids
//!   are global across shards (see [`crate::partition()`]), which is what
//!   makes the local join sound.
//!
//! The router holds one *multiplexed* HLNP v2 connection per shard
//! ([`hl_net::MuxClient`]), opened at [`ShardRouter::connect`] and
//! reused for every query after — connecting per query would pay a TCP
//! and handshake round trip each time and show up as one opened
//! connection per query in the daemons' metrics. Fan-out rides the
//! multiplexing: a cross-shard pair submits both label fetches before
//! waiting on either, and batch workloads keep a window of chunk frames
//! in flight on *every* shard at once, so the fleet computes in
//! parallel while the router joins.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use hl_graph::{Distance, NodeId};
use hl_net::{ClientConfig, MuxClient, NetError, Request, Response};
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
    /// A same-shard `QueryBatch` chunk; `idxs` are the output slots the
    /// resulting distances land in, in order.
    Query {
        idxs: Vec<usize>,
        pairs: Vec<(NodeId, NodeId)>,
    },
    /// A `LabelBatch` chunk of distinct vertices this shard owns.
    Labels { vs: Vec<NodeId> },
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
        let id_u = self.clients[su].submit(&Request::Label { v: u })?;
        let id_v = self.clients[sv].submit(&Request::Label { v })?;
        let lu = self.clients[su]
            .wait(id_u, self.request_timeout)?
            .into_label()?;
        let lv = self.clients[sv]
            .wait(id_v, self.request_timeout)?
            .into_label()?;
        Ok(join_pairs(&lu, &lv))
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

        // Same-shard pairs, grouped by owner: the original result
        // indexes and the pairs themselves, kept in lockstep.
        type OwnedGroup = (Vec<usize>, Vec<(NodeId, NodeId)>);
        let mut owned: Vec<OwnedGroup> = vec![Default::default(); k];
        // Distinct label fetches per shard for the cross-shard pairs.
        let mut wanted: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        let mut slot: HashMap<NodeId, usize> = HashMap::new();
        let mut cross: Vec<usize> = Vec::new();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let (su, sv) = (shard_of(u, k), shard_of(v, k));
            if su == sv {
                owned[su].0.push(i);
                owned[su].1.push((u, v));
            } else {
                cross.push(i);
                for (s, w) in [(su, u), (sv, v)] {
                    slot.entry(w).or_insert_with(|| {
                        wanted[s].push(w);
                        wanted[s].len() - 1
                    });
                }
            }
        }

        // Chunk every shard's share into wire-sized work items.
        let mut work: Vec<Vec<Work>> = Vec::with_capacity(k);
        for (s, (idxs, batch)) in owned.iter().enumerate() {
            let mut items = Vec::new();
            for (ic, pc) in idxs.chunks(QUERY_CHUNK).zip(batch.chunks(QUERY_CHUNK)) {
                items.push(Work::Query {
                    idxs: ic.to_vec(),
                    pairs: pc.to_vec(),
                });
            }
            for vc in wanted[s].chunks(LABEL_CHUNK) {
                items.push(Work::Labels { vs: vc.to_vec() });
            }
            work.push(items);
        }

        // Submit/reap engine: fill every shard's window, then take one
        // completion per shard per sweep so refills rotate fairly and no
        // shard sits idle while another drains.
        let mut next: Vec<usize> = vec![0; k];
        let mut inflight: Vec<VecDeque<(usize, u64)>> = vec![VecDeque::new(); k];
        let mut responses: Vec<Vec<Option<Response>>> = work
            .iter()
            .map(|w| (0..w.len()).map(|_| None).collect())
            .collect();
        loop {
            let mut done = true;
            for s in 0..k {
                while inflight[s].len() < WINDOW && next[s] < work[s].len() {
                    let req = match &work[s][next[s]] {
                        Work::Query { pairs, .. } => Request::QueryBatch(pairs.clone()),
                        Work::Labels { vs } => Request::LabelBatch(vs.clone()),
                    };
                    let id = self.clients[s].submit(&req)?;
                    inflight[s].push_back((next[s], id));
                    next[s] += 1;
                }
                if next[s] < work[s].len() || !inflight[s].is_empty() {
                    done = false;
                }
            }
            if done {
                break;
            }
            for s in 0..k {
                if let Some((at, id)) = inflight[s].pop_front() {
                    let resp = self.clients[s].wait(id, self.request_timeout)?;
                    responses[s][at] = Some(resp);
                }
            }
        }

        // File the completions: distances into their slots, label chunks
        // concatenated back into per-shard tables for the local joins.
        let mut labels: Vec<Vec<Vec<(NodeId, Distance)>>> = vec![Vec::new(); k];
        for (s, (items, resps)) in work.into_iter().zip(responses).enumerate() {
            for (item, resp) in items.into_iter().zip(resps) {
                let resp = resp.ok_or_else(|| {
                    NetError::ConnectionDead("batch completion went missing".to_string())
                })?;
                match item {
                    Work::Query { idxs, pairs } => {
                        let ds = resp.into_distance_batch(pairs.len())?;
                        for (i, d) in idxs.into_iter().zip(ds) {
                            out[i] = d;
                        }
                    }
                    Work::Labels { vs } => {
                        labels[s].extend(resp.into_label_batch(vs.len())?);
                    }
                }
            }
        }
        for i in cross {
            let (u, v) = pairs[i];
            let lu = &labels[shard_of(u, k)][slot[&u]];
            let lv = &labels[shard_of(v, k)][slot[&v]];
            out[i] = join_pairs(lu, lv);
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

/// Merge-join over two labels in wire form (sorted `(hub, dist)` pairs).
fn join_pairs(a: &[(NodeId, Distance)], b: &[(NodeId, Distance)]) -> Distance {
    // Small labels dominate, so unzipping to slices would cost more than
    // it saves; walk the pair vectors directly.
    let mut best = hl_graph::INFINITY;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let d = a[i].1.saturating_add(b[j].1);
                if d < best {
                    best = d;
                }
                i += 1;
                j += 1;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_core::label::merge_join;

    #[test]
    fn join_pairs_matches_slice_merge_join() {
        let a = vec![(0u32, 1u64), (3, 2), (9, 5)];
        let b = vec![(1u32, 1u64), (3, 4), (8, 1), (9, 0)];
        let lanes = |l: &[(NodeId, Distance)]| -> (Vec<NodeId>, Vec<u32>) {
            l.iter().map(|&(h, d)| (h, d as u32)).unzip()
        };
        let ((ah, ad), (bh, bd)) = (lanes(&a), lanes(&b));
        assert_eq!(join_pairs(&a, &b), merge_join(&ah, &ad, &bh, &bd));
        assert_eq!(join_pairs(&a, &b), 5);
        assert_eq!(join_pairs(&a, &[]), hl_graph::INFINITY);
    }
}
