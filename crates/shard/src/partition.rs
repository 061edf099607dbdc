//! Vertex-routed label partitioning.
//!
//! The partitioner splits one labeling into `k` *full-width* shard
//! labelings: shard `i` keeps the label run of every vertex it owns
//! (`v % k == i`) and an empty run for every vertex it does not. Keeping
//! the full vertex range in every shard costs `(n + 1 - n/k) * 8` bytes
//! of offsets per shard — trivial next to the label entries — and buys a
//! lot of simplicity in return:
//!
//! - hub ids stay global, so a label fetched from shard `a` merge-joins
//!   directly against one fetched from shard `b` with no translation;
//! - every shard store is a perfectly ordinary HLBS file that
//!   `hubserve serve` mounts unmodified — the shard tier needs no new
//!   daemon, only the [`crate::router::ShardRouter`] in front;
//! - every daemon advertises the same `num_nodes`, which the router uses
//!   as a cheap fleet-consistency check.
//!
//! Routing is `v % k` rather than contiguous ranges because generators
//! and real graphs alike concentrate high-degree (label-heavy) vertices
//! in id neighborhoods; the modulus spreads any such neighborhood across
//! the fleet.

use hl_core::FlatLabeling;
use hl_graph::NodeId;

use crate::error::ShardError;

/// Which shard owns vertex `v` in a `k`-way partition.
///
/// # Panics
///
/// Panics if `k` is zero; callers reach this only through paths that
/// have already validated the shard count ([`partition`] returns
/// [`ShardError::NoShards`] instead).
pub fn shard_of(v: NodeId, k: usize) -> usize {
    assert!(k > 0, "shard count must be at least 1");
    v as usize % k
}

/// Splits `flat` into `k` full-width shard labelings; shard `i` holds
/// exactly the labels of vertices with `v % k == i`.
pub fn partition(flat: &FlatLabeling, k: usize) -> Result<Vec<FlatLabeling>, ShardError> {
    if k == 0 {
        return Err(ShardError::NoShards);
    }
    let n = flat.num_nodes();
    // Size each arena exactly before filling it.
    let mut entries = vec![0usize; k];
    for v in 0..n {
        entries[v % k] += flat.hubs_of(v as NodeId).len();
    }
    let mut shards: Vec<FlatLabeling> = entries
        .iter()
        .map(|&e| FlatLabeling::with_capacity(n, e))
        .collect();
    for v in 0..n {
        let owner = v % k;
        for (i, shard) in shards.iter_mut().enumerate() {
            if i == owner {
                shard.push_label(flat.hubs_of(v as NodeId), flat.dists_of(v as NodeId));
            } else {
                shard.push_label(&[], &[]);
            }
        }
    }
    Ok(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_core::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    fn sample() -> FlatLabeling {
        let g = generators::connected_gnm(50, 70, 11);
        PrunedLandmarkLabeling::by_degree(&g).into_labeling()
    }

    #[test]
    fn partition_covers_every_label_exactly_once() {
        let flat = sample();
        let n = flat.num_nodes();
        for k in [1, 2, 3, 4, 7, 50, 64] {
            let shards = partition(&flat, k).expect("partition");
            assert_eq!(shards.len(), k);
            let mut covered = 0usize;
            for (i, shard) in shards.iter().enumerate() {
                assert_eq!(shard.num_nodes(), n, "shards must stay full-width");
                for v in 0..n as NodeId {
                    if shard_of(v, k) == i {
                        assert_eq!(shard.hubs_of(v), flat.hubs_of(v));
                        assert_eq!(shard.dists_of(v), flat.dists_of(v));
                        covered += shard.hubs_of(v).len();
                    } else {
                        assert!(
                            shard.hubs_of(v).is_empty(),
                            "shard {i} holds a label for foreign vertex {v}"
                        );
                    }
                }
            }
            assert_eq!(
                covered,
                flat.num_entries(),
                "k={k} lost or duplicated entries"
            );
        }
    }

    #[test]
    fn one_shard_is_the_identity() {
        let flat = sample();
        let shards = partition(&flat, 1).expect("partition");
        assert_eq!(shards[0], flat);
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        assert!(matches!(partition(&sample(), 0), Err(ShardError::NoShards)));
    }

    #[test]
    fn same_shard_queries_answer_from_one_store() {
        // Owned pairs must answer correctly from the owner's store alone.
        let flat = sample();
        let shards = partition(&flat, 4).expect("partition");
        let n = flat.num_nodes() as NodeId;
        let mut checked = 0;
        for u in 0..n {
            for v in 0..n {
                if shard_of(u, 4) == shard_of(v, 4) {
                    assert_eq!(shards[shard_of(u, 4)].query(u, v), flat.query(u, v));
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }
}
