//! [`ServedLabeling`] — the arena a [`crate::engine::QueryEngine`] epoch
//! mounts: either the flat CSR ([`FlatLabeling`]) or the byte-tuned
//! compact form ([`CompactLabeling`]).
//!
//! The flat arena answers queries from borrowed slices; the compact one
//! decodes hub deltas on the fly, so it cannot implement the slice-based
//! [`hl_core::LabelingView`]. This enum is the serving-layer seam: one
//! dispatch at the epoch boundary, monomorphized query loops underneath,
//! and every construction path (`impl Into<ServedLabeling>`) accepts
//! either arena.

use hl_core::{CompactLabeling, FlatLabeling};
use hl_graph::{Distance, NodeId};

/// One of the two query-time arenas, behind a single mountable type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServedLabeling {
    /// The canonical flat CSR arena (12 bytes per entry).
    Flat(FlatLabeling),
    /// The compact arena: delta-coded hubs, narrow distances (4–8 bytes
    /// per entry), decoded on the fly inside the merge-join.
    Compact(CompactLabeling),
}

impl ServedLabeling {
    /// Which arena is mounted, for stats output: `"flat"` or `"compact"`.
    pub fn kind(&self) -> &'static str {
        match self {
            ServedLabeling::Flat(_) => "flat",
            ServedLabeling::Compact(_) => "compact",
        }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        match self {
            ServedLabeling::Flat(l) => l.num_nodes(),
            ServedLabeling::Compact(l) => l.num_nodes(),
        }
    }

    /// Total `(hub, distance)` entries, `Σ_v |S_v|`.
    pub fn num_entries(&self) -> usize {
        match self {
            ServedLabeling::Flat(l) => l.num_entries(),
            ServedLabeling::Compact(l) => l.num_entries(),
        }
    }

    /// Exact heap footprint of the mounted arena, in bytes.
    pub fn heap_bytes(&self) -> usize {
        match self {
            ServedLabeling::Flat(l) => l.heap_bytes(),
            ServedLabeling::Compact(l) => l.heap_bytes(),
        }
    }

    /// Average hubs per vertex, `Σ_v |S_v| / n`.
    pub fn average_hubs(&self) -> f64 {
        match self {
            ServedLabeling::Flat(l) => l.average_hubs(),
            ServedLabeling::Compact(l) => l.average_hubs(),
        }
    }

    /// Largest label size.
    pub fn max_hubs(&self) -> usize {
        match self {
            ServedLabeling::Flat(l) => l.max_hubs(),
            ServedLabeling::Compact(l) => l.max_hubs(),
        }
    }

    /// Answers the distance query `u, v`; [`hl_graph::INFINITY`] when the
    /// labels share no hub (or every common-hub sum saturated).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range (the engine validates first).
    pub fn query(&self, u: NodeId, v: NodeId) -> Distance {
        match self {
            ServedLabeling::Flat(l) => l.query(u, v),
            ServedLabeling::Compact(l) => l.query(u, v),
        }
    }

    /// Like [`ServedLabeling::query`] but also reports the hub realizing
    /// the minimum.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn query_with_witness(&self, u: NodeId, v: NodeId) -> Option<(Distance, NodeId)> {
        match self {
            ServedLabeling::Flat(l) => l.query_with_witness(u, v),
            ServedLabeling::Compact(l) => l.query_with_witness(u, v),
        }
    }

    /// The label of vertex `v` as owned parallel arrays — what the wire
    /// layer ships for router-side merge joins. Decoded for the compact
    /// arena, copied for the flat one.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn label_of(&self, v: NodeId) -> (Vec<NodeId>, Vec<Distance>) {
        match self {
            ServedLabeling::Flat(l) => (l.hubs_of(v).to_vec(), l.dists_of(v).to_vec()),
            ServedLabeling::Compact(l) => l.label_of(v),
        }
    }

    /// The labeling in flat form — by move for [`ServedLabeling::Flat`],
    /// decoded for [`ServedLabeling::Compact`].
    pub fn into_flat(self) -> FlatLabeling {
        match self {
            ServedLabeling::Flat(l) => l,
            ServedLabeling::Compact(l) => l.to_flat(),
        }
    }
}

impl From<FlatLabeling> for ServedLabeling {
    fn from(l: FlatLabeling) -> Self {
        ServedLabeling::Flat(l)
    }
}

impl From<CompactLabeling> for ServedLabeling {
    fn from(l: CompactLabeling) -> Self {
        ServedLabeling::Compact(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_core::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    #[test]
    fn both_arenas_agree_through_the_seam() {
        let g = generators::grid(5, 5);
        let flat = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let compact = CompactLabeling::from_flat(&flat).unwrap();
        let served_f = ServedLabeling::from(flat.clone());
        let served_c = ServedLabeling::from(compact);
        assert_eq!(served_f.kind(), "flat");
        assert_eq!(served_c.kind(), "compact");
        assert_eq!(served_f.num_nodes(), served_c.num_nodes());
        assert_eq!(served_f.num_entries(), served_c.num_entries());
        assert!(served_c.heap_bytes() < served_f.heap_bytes());
        for u in 0..25 {
            for v in 0..25 {
                assert_eq!(served_f.query(u, v), served_c.query(u, v));
                assert_eq!(
                    served_f.query_with_witness(u, v),
                    served_c.query_with_witness(u, v)
                );
            }
            assert_eq!(served_f.label_of(u), served_c.label_of(u));
        }
        // into_flat round-trips both.
        assert_eq!(served_f.into_flat(), flat);
        assert_eq!(served_c.into_flat(), flat);
    }
}
