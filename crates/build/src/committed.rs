//! The committed label prefix: what every wave in a batch prunes against.
//!
//! Between batches the structure is frozen; during a batch, worker threads
//! share it by immutable reference, so there is no synchronisation on the
//! hot path. After the batch barrier the main thread appends the filtered
//! batch entries with `&mut` access. Per-vertex hub lists are kept sorted
//! by hub id at all times, which makes the structure a [`LabelingView`] —
//! the same merge-join query interface the serving-side [`FlatLabeling`]
//! (`hl_core::FlatLabeling`) exposes.

use hl_core::{FlatLabeling, LabelingView};
use hl_graph::{Distance, NodeId};

/// Growable labeling with per-vertex sorted hub/distance columns.
#[derive(Debug, Clone)]
pub struct CommittedLabels {
    hubs: Vec<Vec<NodeId>>,
    dists: Vec<Vec<Distance>>,
    entries: usize,
}

impl CommittedLabels {
    /// An empty prefix over `n` vertices.
    pub fn new(n: usize) -> Self {
        CommittedLabels {
            hubs: vec![Vec::new(); n],
            dists: vec![Vec::new(); n],
            entries: 0,
        }
    }

    /// Total committed entries, `Σ_v |S_v|`.
    pub fn num_entries(&self) -> usize {
        self.entries
    }

    /// Inserts `(hub, dist)` into vertex `v`'s label, keeping the hub
    /// column sorted. `hub` must not already be present (PLL never
    /// assigns the same hub twice).
    pub fn insert(&mut self, v: NodeId, hub: NodeId, dist: Distance) {
        let hs = &mut self.hubs[v as usize];
        let pos = hs.partition_point(|&h| h < hub);
        hs.insert(pos, hub);
        self.dists[v as usize].insert(pos, dist);
        self.entries += 1;
    }

    /// Freezes the finished labeling into the serving-side CSR arena.
    /// Per-vertex columns are already hub-sorted, so this is a straight
    /// copy — and the output is byte-identical to a sequential PLL run
    /// with the same vertex order.
    pub fn into_flat(self) -> FlatLabeling {
        let mut flat = FlatLabeling::with_capacity(self.hubs.len(), self.entries);
        for (hs, ds) in self.hubs.iter().zip(self.dists.iter()) {
            flat.push_label(hs, ds);
        }
        flat
    }
}

impl LabelingView for CommittedLabels {
    fn num_nodes(&self) -> usize {
        self.hubs.len()
    }

    fn hubs_of(&self, v: NodeId) -> &[NodeId] {
        &self.hubs[v as usize]
    }

    fn dists_of(&self, v: NodeId) -> &[Distance] {
        &self.dists[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_graph::INFINITY;

    #[test]
    fn insert_keeps_hub_columns_sorted() {
        let mut c = CommittedLabels::new(2);
        c.insert(0, 5, 2);
        c.insert(0, 1, 7);
        c.insert(0, 3, 4);
        assert_eq!(c.hubs_of(0), &[1, 3, 5]);
        assert_eq!(c.dists_of(0), &[7, 4, 2]);
        assert_eq!(c.num_entries(), 3);
    }

    #[test]
    fn view_query_answers_through_shared_hub() {
        let mut c = CommittedLabels::new(2);
        c.insert(0, 0, 0);
        c.insert(1, 0, 3);
        assert_eq!(c.query(0, 1), 3);
        assert_eq!(c.query(1, 1), 6); // via hub 0 only
        let mut empty = CommittedLabels::new(2);
        empty.insert(0, 0, 0);
        assert_eq!(empty.query(0, 1), INFINITY);
    }

    #[test]
    fn into_flat_round_trips() {
        let mut c = CommittedLabels::new(3);
        c.insert(0, 0, 0);
        c.insert(1, 0, 1);
        c.insert(1, 1, 0);
        c.insert(2, 0, 2);
        let flat = c.into_flat();
        assert_eq!(flat.num_nodes(), 3);
        assert_eq!(flat.num_entries(), 4);
        assert_eq!(flat.hubs_of(1), &[0, 1]);
        assert_eq!(flat.query(0, 2), 2);
    }
}
