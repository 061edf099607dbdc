//! Hub-frequency label reordering — a build/convert-time layout pass.
//!
//! In any hub labeling a handful of high-order hubs appear in almost
//! every label (in PLL the first vertices of the order are hubs of nearly
//! all of `V`), yet their ids are whatever the input graph assigned, so
//! the entries that every merge-join touches are scattered across each
//! sorted run. This pass renumbers hubs by **global frequency**: the hub
//! appearing in the most labels becomes id 0, the next id 1, and so on.
//! Because per-vertex runs are stored sorted by hub id, the hot hubs move
//! to the *front* of every label after the remap, so the delta gaps of
//! [`crate::compact::CompactLabeling`] shrink — what the pass is for:
//! smaller v2c files (`hubserve convert --reorder freq`). Every store
//! mounts into the flat arena, whose size the remap does not change.
//!
//! The remap is a bijection on vertex ids applied to the *hub* side of
//! every `(hub, distance)` pair; both endpoints of every query remap
//! consistently, so **all distance answers are preserved exactly**. What
//! changes is the meaning of witness ids ([`crate::label::merge_join_with_witness`]
//! reports remapped ids); callers that need original ids invert through
//! the returned permutation.
//!
//! # Example
//!
//! ```
//! use hl_graph::generators;
//! use hl_core::pll::PrunedLandmarkLabeling;
//! use hl_core::{freq, FlatLabeling};
//!
//! let g = generators::grid(4, 4);
//! let flat: FlatLabeling = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
//! let (hot, rank) = freq::reorder_by_hub_frequency(&flat);
//! assert_eq!(hot.num_entries(), flat.num_entries());
//! for u in 0..16 {
//!     for v in 0..16 {
//!         assert_eq!(hot.query(u, v), flat.query(u, v));
//!     }
//! }
//! // The hottest hub now has id 0.
//! assert_eq!(freq::hub_frequencies(&hot)[0], *freq::hub_frequencies(&flat).iter().max().unwrap());
//! # let _ = rank;
//! ```

use hl_graph::NodeId;

use crate::flat::FlatLabeling;

/// How often each vertex id occurs as a hub across all labels:
/// `freqs[h]` = number of labels containing `h`.
pub fn hub_frequencies(flat: &FlatLabeling) -> Vec<u64> {
    let mut freqs = vec![0u64; flat.num_nodes()];
    for &h in flat.raw_hubs() {
        freqs[h as usize] += 1;
    }
    freqs
}

/// The frequency rank permutation: `rank[old_id] = new_id`, where the
/// most frequent hub gets new id 0. Ties break by old id, so the rank is
/// a bijection and deterministic.
pub fn frequency_rank(freqs: &[u64]) -> Vec<NodeId> {
    let mut by_freq: Vec<NodeId> = (0..freqs.len() as NodeId).collect();
    by_freq.sort_by_key(|&v| (std::cmp::Reverse(freqs[v as usize]), v));
    let mut rank = vec![0 as NodeId; freqs.len()];
    for (new_id, &old_id) in by_freq.iter().enumerate() {
        rank[old_id as usize] = new_id as NodeId;
    }
    rank
}

/// Applies a hub-id permutation (`rank[old_id] = new_id`) to every label
/// and re-sorts each run by the new ids, yielding an arena whose
/// per-vertex runs are sorted in the *new* id space — ready for the
/// merge-join, which only needs both runs sorted by the same key.
///
/// Distances are untouched; since every label remaps through the same
/// bijection, common hubs stay common and every query answer is
/// preserved.
///
/// # Panics
///
/// Panics if `rank.len() != flat.num_nodes()` or `rank` maps a hub out of
/// range; [`frequency_rank`] output is always valid.
pub fn remap_hub_ids(flat: &FlatLabeling, rank: &[NodeId]) -> FlatLabeling {
    assert_eq!(
        rank.len(),
        flat.num_nodes(),
        "rank permutation must cover every vertex id"
    );
    let mut out = FlatLabeling::with_capacity(flat.num_nodes(), flat.num_entries());
    let mut run: Vec<(NodeId, u32)> = Vec::new();
    let mut hubs: Vec<NodeId> = Vec::new();
    let mut dists: Vec<u32> = Vec::new();
    for v in 0..flat.num_nodes() as NodeId {
        run.clear();
        let lanes = flat.hubs_of(v).iter().zip(flat.dists_of(v));
        run.extend(lanes.map(|(&h, &d)| (rank[h as usize], d)));
        run.sort_unstable_by_key(|&(h, _)| h);
        hubs.clear();
        dists.clear();
        hubs.extend(run.iter().map(|&(h, _)| h));
        dists.extend(run.iter().map(|&(_, d)| d));
        out.push_label(&hubs, &dists);
    }
    out
}

/// The full pass: count frequencies, rank, remap. Returns the reordered
/// arena and the permutation (`rank[old_id] = new_id`) so callers can
/// translate witness ids back.
pub fn reorder_by_hub_frequency(flat: &FlatLabeling) -> (FlatLabeling, Vec<NodeId>) {
    let rank = frequency_rank(&hub_frequencies(flat));
    (remap_hub_ids(flat, &rank), rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    fn sample_flat() -> FlatLabeling {
        let g = generators::connected_gnm(60, 90, 0xFEED);
        PrunedLandmarkLabeling::by_degree(&g).into_labeling()
    }

    #[test]
    fn rank_is_a_bijection_sorted_by_frequency() {
        let flat = sample_flat();
        let freqs = hub_frequencies(&flat);
        let rank = frequency_rank(&freqs);
        let mut seen = vec![false; rank.len()];
        for &r in &rank {
            assert!(!seen[r as usize], "rank repeats {r}");
            seen[r as usize] = true;
        }
        // New id order is non-increasing in frequency.
        let mut by_new = vec![0u64; rank.len()];
        for (old, &new) in rank.iter().enumerate() {
            by_new[new as usize] = freqs[old];
        }
        assert!(by_new.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn remap_preserves_every_query() {
        let flat = sample_flat();
        let (hot, rank) = reorder_by_hub_frequency(&flat);
        assert_eq!(hot.num_nodes(), flat.num_nodes());
        assert_eq!(hot.num_entries(), flat.num_entries());
        let n = flat.num_nodes() as NodeId;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(hot.query(u, v), flat.query(u, v), "d({u},{v})");
                // Witness ids live in the new space; translate and compare
                // the distance component, which must agree exactly.
                let a = flat.query_with_witness(u, v);
                let b = hot.query_with_witness(u, v);
                assert_eq!(a.map(|(d, _)| d), b.map(|(d, _)| d));
                if let (Some((_, wa)), Some((_, wb))) = (a, b) {
                    // The remapped witness must be a hub both runs share.
                    assert!(hot.hubs_of(u).contains(&wb));
                    assert!(hot.hubs_of(v).contains(&wb));
                    let _ = wa;
                }
            }
        }
        let _ = rank;
    }

    #[test]
    fn hot_hubs_move_to_front() {
        let flat = sample_flat();
        let (hot, _) = reorder_by_hub_frequency(&flat);
        let freqs = hub_frequencies(&hot);
        // After the remap, frequency is non-increasing in hub id...
        assert!(freqs.windows(2).all(|w| w[0] >= w[1]));
        // ...so the first entry of every non-empty run is at least as hot
        // as the run's average hub.
        for v in 0..hot.num_nodes() as NodeId {
            let hubs = hot.hubs_of(v);
            if let Some(&first) = hubs.first() {
                for &h in hubs {
                    assert!(freqs[first as usize] >= freqs[h as usize]);
                }
            }
        }
    }

    #[test]
    fn remap_tightens_compact_deltas() {
        use crate::compact::CompactLabeling;
        let flat = sample_flat();
        let (hot, _) = reorder_by_hub_frequency(&flat);
        let Ok(plain) = CompactLabeling::from_flat(&flat);
        let Ok(tuned) = CompactLabeling::from_flat(&hot);
        // Same entry count, and the reorder never widens the lanes.
        assert_eq!(tuned.num_entries(), plain.num_entries());
        assert!(tuned.heap_bytes() <= plain.heap_bytes());
    }

    #[test]
    #[should_panic]
    fn remap_rejects_short_permutation() {
        let flat = sample_flat();
        remap_hub_ids(&flat, &[0]);
    }
}
