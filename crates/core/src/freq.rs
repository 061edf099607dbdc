//! Hub-frequency ranking — the order every served arena is in.
//!
//! In any hub labeling a handful of high-order hubs appear in almost
//! every label (in PLL the first vertices of the order are hubs of nearly
//! all of `V`), yet their ids are whatever the input graph assigned, so
//! the entries that every merge-join matches are scattered across each
//! sorted run. This pass renumbers hubs by **global frequency**: the hub
//! appearing in the most labels becomes id 0, the next id 1, and so on,
//! ties broken by old id. Per-vertex runs are sorted by hub id, so after
//! the pass the hubs every label shares form one prefix of every run,
//! and they are the small ids the join's scratch covers
//! ([`crate::label`]: hub ids below 4,096 are scattered and gathered, not
//! merged).
//!
//! Two callers. `hl_server::QueryEngine` ranks every arena it mounts, so
//! every served query joins ranked runs whatever the store's order; it
//! keeps the returned `unrank` (new id → old id) to report labels in the
//! store's ids. `hubserve convert --reorder freq` writes the ranked arena
//! out, because small hub ids also mean small deltas and a narrower v2c
//! hub lane. Ranking a ranked arena changes nothing, so such a store
//! mounts as written.
//!
//! The remap is a bijection on vertex ids applied to the *hub* side of
//! every `(hub, distance)` pair; both endpoints of every query remap
//! consistently, so **all distance answers are preserved exactly**. What
//! changes is the meaning of hub ids, witnesses
//! ([`crate::label::merge_join_with_witness`]) included; `unrank` maps
//! them back.
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
//! let mut hot = flat.clone();
//! let unrank = freq::reorder_by_hub_frequency(&mut hot);
//! assert_eq!(hot.num_entries(), flat.num_entries());
//! for u in 0..16 {
//!     for v in 0..16 {
//!         assert_eq!(hot.query(u, v), flat.query(u, v));
//!     }
//! }
//! // The hottest hub now has id 0, and `unrank` names it in the old ids.
//! let old = freq::hub_frequencies(&flat);
//! assert_eq!(freq::hub_frequencies(&hot)[0], *old.iter().max().unwrap());
//! assert_eq!(old[unrank[0] as usize], freq::hub_frequencies(&hot)[0]);
//! ```

use hl_graph::NodeId;

use crate::flat::{spans, FlatLabeling};

/// How often each vertex id occurs as a hub across all labels:
/// `freqs[h]` = number of labels containing `h`.
pub fn hub_frequencies(flat: &FlatLabeling) -> Vec<u64> {
    let mut freqs = vec![0u64; flat.num_nodes()];
    for &h in flat.raw_hubs() {
        freqs[h as usize] += 1;
    }
    freqs
}

/// Every vertex id, most frequent hub first, ties broken by id — the
/// ranking's `unrank` (`order[new_id] = old_id`). A bijection, and
/// deterministic.
pub fn frequency_order(freqs: &[u64]) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..freqs.len() as NodeId).collect();
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(freqs[v as usize]), v));
    order
}

/// Applies a hub-id permutation (`rank[old_id] = new_id`) to every label
/// in place, re-sorting each run by the new ids through one scratch
/// buffer the size of the longest label — never a second arena. The
/// merge-join only needs both runs sorted by the same key, so every
/// query answer is preserved.
///
/// # Panics
///
/// Panics if `rank.len() != flat.num_nodes()` or `rank` maps a hub out of
/// range; the inverse of [`frequency_order`] is always valid.
pub fn remap_hub_ids(flat: &mut FlatLabeling, rank: &[NodeId]) {
    assert_eq!(
        rank.len(),
        flat.num_nodes(),
        "rank permutation must cover every vertex id"
    );
    let mut run: Vec<(NodeId, u32)> = Vec::with_capacity(flat.max_hubs());
    let (offsets, hubs, dists) = flat.lanes_mut();
    for span in spans(offsets) {
        let (hubs, dists) = (&mut hubs[span.clone()], &mut dists[span]);
        run.clear();
        let lanes = hubs.iter().zip(&*dists);
        run.extend(lanes.map(|(&h, &d)| (rank[h as usize], d)));
        run.sort_unstable_by_key(|&(h, _)| h);
        debug_assert!(run.windows(2).all(|w| w[0].0 < w[1].0));
        for ((h, d), &(rh, rd)) in hubs.iter_mut().zip(dists.iter_mut()).zip(&run) {
            (*h, *d) = (rh, rd);
        }
    }
}

/// The full pass, in place: count frequencies, rank, remap. Returns
/// `unrank` (`unrank[new_id] = old_id`), which translates the ranked
/// arena's hub ids back to the caller's.
pub fn reorder_by_hub_frequency(flat: &mut FlatLabeling) -> Vec<NodeId> {
    let unrank = frequency_order(&hub_frequencies(flat));
    let mut rank = vec![0 as NodeId; unrank.len()];
    for (new_id, &old_id) in unrank.iter().enumerate() {
        rank[old_id as usize] = new_id as NodeId;
    }
    remap_hub_ids(flat, &rank);
    unrank
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
        let order = frequency_order(&freqs);
        let mut seen = vec![false; order.len()];
        for &old in &order {
            assert!(!seen[old as usize], "order repeats {old}");
            seen[old as usize] = true;
        }
        // New id order is non-increasing in frequency, ties by old id.
        assert!(order.windows(2).all(|w| {
            let (a, b) = (freqs[w[0] as usize], freqs[w[1] as usize]);
            a > b || (a == b && w[0] < w[1])
        }));
    }

    /// `flat` ranked, and the `unrank` the pass returned.
    fn ranked(flat: &FlatLabeling) -> (FlatLabeling, Vec<NodeId>) {
        let mut hot = flat.clone();
        let unrank = reorder_by_hub_frequency(&mut hot);
        (hot, unrank)
    }

    #[test]
    fn remap_preserves_every_query() {
        let flat = sample_flat();
        let (hot, unrank) = ranked(&flat);
        assert_eq!(hot.num_nodes(), flat.num_nodes());
        assert_eq!(hot.num_entries(), flat.num_entries());
        let n = flat.num_nodes() as NodeId;
        for u in 0..n {
            // Every label, unranked and re-sorted, is the original one.
            let mut back: Vec<_> = hot
                .pairs_of(u)
                .map(|(h, d)| (unrank[h as usize], d))
                .collect();
            back.sort_unstable();
            assert_eq!(back, flat.pairs_of(u).collect::<Vec<_>>(), "label of {u}");
            for v in 0..n {
                assert_eq!(hot.query(u, v), flat.query(u, v), "d({u},{v})");
                // Witness ids live in the new space; unranked, the witness
                // is a hub both original labels share, at the same sum.
                let a = flat.query_with_witness(u, v);
                let b = hot.query_with_witness(u, v);
                assert_eq!(a.map(|(d, _)| d), b.map(|(d, _)| d));
                if let Some((d, wb)) = b {
                    let w = unrank[wb as usize];
                    let at = |x: NodeId| flat.pairs_of(x).find(|&(h, _)| h == w).map(|(_, d)| d);
                    assert_eq!(at(u).zip(at(v)).map(|(a, b)| a + b), Some(d));
                }
            }
        }
    }

    #[test]
    fn ranking_a_ranked_arena_is_the_identity() {
        let (hot, _) = ranked(&sample_flat());
        let (again, unrank) = ranked(&hot);
        assert_eq!(again, hot);
        assert!(unrank.iter().enumerate().all(|(i, &h)| h as usize == i));
    }

    #[test]
    fn hot_hubs_move_to_front() {
        let flat = sample_flat();
        let (hot, _) = ranked(&flat);
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
        let (hot, _) = ranked(&flat);
        let Ok(plain) = CompactLabeling::from_flat(&flat);
        let Ok(tuned) = CompactLabeling::from_flat(&hot);
        // Same entry count, and the reorder never widens the lanes.
        assert_eq!(tuned.num_entries(), plain.num_entries());
        assert!(tuned.heap_bytes() <= plain.heap_bytes());
    }

    #[test]
    #[should_panic]
    fn remap_rejects_short_permutation() {
        let mut flat = sample_flat();
        remap_hub_ids(&mut flat, &[0]);
    }
}
