//! The merge-join distance query and the borrowed view of a labeling.
//!
//! hl-core owns two representations of a labeling, and they share one
//! query algorithm — the sorted merge-join, each loop written once for
//! both the distance-only and the witness-reporting query:
//!
//! * [`crate::flat::FlatLabeling`] — a single CSR arena, one allocation
//!   for the whole labeling; what every construction returns and every
//!   store, daemon and analysis holds;
//! * [`crate::compact::CompactLabeling`] — the v2c store's lanes:
//!   delta-coded hub ids and narrow distances; it joins (distance only)
//!   through its own loop, because delta-coded ids cannot be galloped over.
//!
//! A single label has no type of its own: borrowed it is the two sorted
//! slices [`LabelingView`] lends (hub ids and `u32` distances), owned it
//! is a `Vec<(NodeId, Distance)>`.
//! [`LabelingView`] is the read-only view verification, statistics, the
//! lower-bound audit and the oracles take; the compact lanes are
//! delta-coded and have no slices to lend.

use hl_graph::{Distance, NodeId, INFINITY};

/// Gallop stride of the merge-join kernels: how far (in entries) each
/// cursor tests ahead on the hub lane per iteration. One 64-byte cache
/// line of u32 hub ids — big enough that length-skewed joins skip whole
/// lines per step, and the stride-ahead read doubles as a prefetch that
/// hides an LLC/DRAM round-trip behind the serial advance chain.
const LOOKAHEAD: usize = 16;

/// Touches one hub entry per cache line of both lanes before the merge
/// starts. The touches are independent loads, so the memory system
/// overlaps all the line fetches; the serial (data-dependent) advance
/// chain of the branchless merge then runs against warm cache instead of
/// paying one DRAM round-trip per line. The OR-fold into [`black_box`]
/// keeps the reads alive without `unsafe` prefetch intrinsics. Generic
/// over the entry width so the compact codec's narrow delta lanes warm
/// the same way (for `u32` ids the stride is [`LOOKAHEAD`]).
///
/// [`black_box`]: std::hint::black_box
#[inline]
pub(crate) fn warm_hub_lanes<H: Copy>(a_hubs: &[H], b_hubs: &[H])
where
    NodeId: From<H>,
{
    let stride = (64 / std::mem::size_of::<H>()).max(1);
    let mut warm = 0u32;
    let mut p = 0usize;
    while p < a_hubs.len() {
        warm |= NodeId::from(a_hubs[p]);
        p += stride;
    }
    let mut q = 0usize;
    while q < b_hubs.len() {
        warm |= NodeId::from(b_hubs[q]);
        q += stride;
    }
    std::hint::black_box(warm);
}

/// Folds the sum `d` over common hub `hub` into a join's running
/// `(best, witness)` pair, so [`merge_join`] and
/// [`merge_join_with_witness`] agree on ties by construction.
/// `WITNESS = false` compiles the witness bookkeeping out.
///
/// Strict `<` keeps the first hub realizing the minimum, as conditional
/// moves — `d` can never displace a tie.
#[inline(always)]
pub(crate) fn offer<const WITNESS: bool>(
    best: &mut Distance,
    witness: &mut NodeId,
    d: Distance,
    hub: NodeId,
) {
    let take = d < *best;
    *best = if take { d } else { *best };
    if WITNESS {
        *witness = if take { hub } else { *witness };
    }
}

/// A finished join's `(best, witness)` pair as the witness-reporting
/// queries return it: `None` when no sum took, i.e. the hub sets are
/// disjoint. Two `u32` lane distances sum to at most `2^33 - 2`, so every
/// common hub offers a finite sum and `best` leaves [`INFINITY`] exactly
/// when one exists.
pub(crate) fn witnessed((best, hub): (Distance, NodeId)) -> Option<(Distance, NodeId)> {
    (best != INFINITY).then_some((best, hub))
}

/// The sorted-merge join over two labels of absolute hub ids — the one
/// loop behind [`merge_join`] and [`merge_join_with_witness`].
///
/// This is *the* hot-path kernel: every slice-backed representation's
/// `query` bottoms out here, so layout experiments (SIMD, prefetch) have
/// one place to go.
///
/// The cursor advance is branchless: on a hub mismatch both cursors move
/// by the boolean comparison results (fine step) and gallop a whole
/// cache line when even the stride-ahead hub is still behind the other
/// side (coarse step) — conditional moves throughout, so the effectively
/// random interleaving of two sorted hub runs never feeds the branch
/// predictor. A branchless advance is a serial data-dependency chain the
/// core cannot speculate past, so the kernel first warms both hub lanes
/// by issuing every cache-line fetch as independent overlapping loads. Only the hub
/// *equality* test remains a real branch — labels share a hot prefix of
/// top-ranked hubs, making it highly predictable.
#[inline]
fn join_absolute<const WITNESS: bool>(
    a_hubs: &[NodeId],
    a_dists: &[u32],
    b_hubs: &[NodeId],
    b_dists: &[u32],
) -> (Distance, NodeId) {
    // Truncate each pair to its common length: the loop condition then
    // proves every index in bounds for *both* slices of a side, so the
    // four per-iteration bounds checks vanish from the hot loop.
    let n = a_hubs.len().min(a_dists.len());
    let m = b_hubs.len().min(b_dists.len());
    let (a_hubs, a_dists) = (&a_hubs[..n], &a_dists[..n]);
    let (b_hubs, b_dists) = (&b_hubs[..m], &b_dists[..m]);
    warm_hub_lanes(a_hubs, b_hubs);
    let mut best = INFINITY;
    let mut witness: NodeId = 0;
    let (mut i, mut j) = (0usize, 0usize);
    while i < n && j < m {
        let (ha, hb) = (a_hubs[i], b_hubs[j]);
        let ia = (i + LOOKAHEAD).min(n - 1);
        let jb = (j + LOOKAHEAD).min(m - 1);
        if ha == hb {
            // The equality test stays a real branch: hub labels built by
            // vertex order share a hot prefix of top-ranked hubs, so this
            // branch is highly predictable and letting the core speculate
            // through it overlaps the next iterations' loads.
            // Two u32 lanes added in u64: the sum cannot overflow.
            let d = Distance::from(a_dists[i]) + Distance::from(b_dists[j]);
            offer::<WITNESS>(&mut best, &mut witness, d, ha);
            i += 1;
            j += 1;
        } else {
            // Branchless advance, fine and coarse. The fine step moves
            // each cursor by the boolean comparison result — the ordering
            // of two mismatched sorted runs is effectively random, so
            // there is nothing for the predictor to miss on. The coarse
            // step gallops: hubs are sorted, so if even the hub a whole
            // stride ahead is still below the other cursor's current hub,
            // every skipped entry is provably matchless (`offer` never
            // sees it) and the cursor jumps the stride (real hub labels
            // are length-skewed — long single-side runs are the common
            // case, and the stride-ahead loads double as prefetch for the
            // serial advance chain).
            let fi = i + (ha < hb) as usize;
            let fj = j + (hb < ha) as usize;
            i = if a_hubs[ia] < hb { ia + 1 } else { fi };
            j = if b_hubs[jb] < ha { jb + 1 } else { fj };
        }
    }
    (best, witness)
}

/// The sorted-merge join over two labels given as parallel slices:
/// `min over common hubs h of d(u, h) + d(h, v)`, summed in [`Distance`],
/// or [`INFINITY`] when the hub sets are disjoint. Both hub slices must
/// be sorted by hub id, with `a_dists[i]` the distance to `a_hubs[i]`
/// (and likewise for `b`).
pub fn merge_join(
    a_hubs: &[NodeId],
    a_dists: &[u32],
    b_hubs: &[NodeId],
    b_dists: &[u32],
) -> Distance {
    join_absolute::<false>(a_hubs, a_dists, b_hubs, b_dists).0
}

/// Like [`merge_join`] but also reports the hub realizing the minimum;
/// `None` when the hub sets are disjoint.
pub fn merge_join_with_witness(
    a_hubs: &[NodeId],
    a_dists: &[u32],
    b_hubs: &[NodeId],
    b_dists: &[u32],
) -> Option<(Distance, NodeId)> {
    witnessed(join_absolute::<true>(a_hubs, a_dists, b_hubs, b_dists))
}

/// A borrowed, read-only view of a complete hub labeling: per-vertex
/// sorted hub/distance slices plus the merge-join query over them.
///
/// Implemented by the arena [`crate::flat::FlatLabeling`] and by whatever
/// else can lend sorted slices (a mounted store, a test double), so code
/// that only *reads* a labeling — verification, statistics, the audit,
/// oracles — runs on what is served without conversion.
pub trait LabelingView {
    /// Number of vertices.
    fn num_nodes(&self) -> usize;

    /// The sorted hub ids of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn hubs_of(&self, v: NodeId) -> &[NodeId];

    /// The distances of vertex `v`, aligned with [`LabelingView::hubs_of`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    fn dists_of(&self, v: NodeId) -> &[u32];

    /// Answers the distance query `u, v` via the merge-join; [`INFINITY`]
    /// when the labels share no hub.
    fn query(&self, u: NodeId, v: NodeId) -> Distance {
        merge_join(
            self.hubs_of(u),
            self.dists_of(u),
            self.hubs_of(v),
            self.dists_of(v),
        )
    }

    /// Like [`LabelingView::query`] but also reports the witnessing hub.
    fn query_with_witness(&self, u: NodeId, v: NodeId) -> Option<(Distance, NodeId)> {
        merge_join_with_witness(
            self.hubs_of(u),
            self.dists_of(u),
            self.hubs_of(v),
            self.dists_of(v),
        )
    }

    /// Total number of hubs over all vertices, `Σ_v |S_v|`.
    fn total_hubs(&self) -> usize {
        (0..self.num_nodes() as NodeId)
            .map(|v| self.hubs_of(v).len())
            .sum()
    }

    /// Average hubs per vertex, `Σ_v |S_v| / n`.
    fn average_hubs(&self) -> f64 {
        if self.num_nodes() == 0 {
            return 0.0;
        }
        self.total_hubs() as f64 / self.num_nodes() as f64
    }

    /// Largest label size.
    fn max_hubs(&self) -> usize {
        (0..self.num_nodes() as NodeId)
            .map(|v| self.hubs_of(v).len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-branchless three-way-`match` formulation of [`merge_join`]:
    /// the reference the tests below hold the shipping kernel to.
    fn merge_join_branchy(
        a_hubs: &[NodeId],
        a_dists: &[u32],
        b_hubs: &[NodeId],
        b_dists: &[u32],
    ) -> Distance {
        let mut best = INFINITY;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a_hubs.len() && j < b_hubs.len() {
            match a_hubs[i].cmp(&b_hubs[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let d = Distance::from(a_dists[i]) + Distance::from(b_dists[j]);
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

    type Pairs<'a> = &'a [(NodeId, u32)];

    /// Joins two labels written as sorted `(hub, distance)` pairs.
    fn join(a: Pairs, b: Pairs) -> Distance {
        let ((ah, ad), (bh, bd)) = (lanes(a), lanes(b));
        merge_join(&ah, &ad, &bh, &bd)
    }

    fn join_with_witness(a: Pairs, b: Pairs) -> Option<(Distance, NodeId)> {
        let ((ah, ad), (bh, bd)) = (lanes(a), lanes(b));
        merge_join_with_witness(&ah, &ad, &bh, &bd)
    }

    fn lanes(pairs: Pairs) -> (Vec<NodeId>, Vec<u32>) {
        pairs.iter().copied().unzip()
    }

    #[test]
    fn join_on_shared_hub() {
        let (a, b) = ([(1, 3), (4, 2)], [(2, 1), (4, 5)]);
        assert_eq!(join(&a, &b), 7);
        assert_eq!(join_with_witness(&a, &b), Some((7, 4)));
    }

    #[test]
    fn join_picks_minimum() {
        let (a, b) = ([(1, 10), (2, 1)], [(1, 1), (2, 3)]);
        assert_eq!(join(&a, &b), 4);
        assert_eq!(join_with_witness(&a, &b).unwrap().1, 2);
    }

    #[test]
    fn join_disjoint_is_infinity() {
        assert_eq!(join(&[(1, 1)], &[(2, 1)]), INFINITY);
        assert_eq!(join_with_witness(&[(1, 1)], &[(2, 1)]), None);
    }

    #[test]
    fn join_empty_labels() {
        assert_eq!(join(&[], &[]), INFINITY);
        assert_eq!(join(&[], &[(0, 0)]), INFINITY);
    }

    #[test]
    fn widest_lane_sum_is_finite() {
        // Two lane-maximal distances sum in u64 to 2^33 - 2, far below
        // the INFINITY sentinel: the join has no overflow to guard.
        let max = u32::MAX;
        assert_eq!(join(&[(0, max)], &[(0, max)]), (1 << 33) - 2);
        assert_eq!(join(&[(0, max)], &[(0, 5)]), Distance::from(max) + 5);
    }

    #[test]
    fn widest_lane_sum_is_witnessed() {
        // A distance above u32::MAX never reaches a lane (it is
        // `FlatLayoutError::DistanceTooWide` in `from_pair_lists`), so the
        // largest sum a join can see is finite and carries its witness.
        let max = u32::MAX;
        assert_eq!(
            join_with_witness(&[(3, max)], &[(3, max)]),
            Some(((1 << 33) - 2, 3))
        );
        // A lane-maximal pair does not shadow a smaller sum on another hub.
        let (a, b) = ([(3, max), (7, 10)], [(3, 5), (7, 2)]);
        assert_eq!(join(&a, &b), 12);
        assert_eq!(join_with_witness(&a, &b), Some((12, 7)));
        // Disjoint hub sets are the only way to get no witness.
        assert_eq!(join_with_witness(&[(3, max)], &[(4, max)]), None);
        assert_eq!(witnessed((INFINITY, 0)), None);
    }

    #[test]
    fn branchless_matches_branchy_reference() {
        // Differential check on adversarial shapes: overlapping, disjoint,
        // nested ranges, duplicates of length 0/1, lane-maximal distances.
        let cases: &[(Pairs, Pairs)] = &[
            (&[], &[]),
            (&[(1, 1)], &[]),
            (&[(1, 2), (5, 0)], &[(1, 9), (5, 1)]),
            (&[(0, 3), (2, 1), (9, 4)], &[(1, 1), (2, 3), (8, 0)]),
            (&[(4, u32::MAX)], &[(4, u32::MAX)]),
            (&[(0, 1), (1, 1), (2, 1), (3, 1)], &[(3, 1), (4, 1), (5, 1)]),
        ];
        for (pa, pb) in cases {
            let ((ah, ad), (bh, bd)) = (lanes(pa), lanes(pb));
            assert_eq!(
                merge_join(&ah, &ad, &bh, &bd),
                merge_join_branchy(&ah, &ad, &bh, &bd),
                "{pa:?} vs {pb:?}"
            );
        }
    }

    #[test]
    fn gallop_agrees_with_branchy_on_long_skewed_labels() {
        // The coarse stride-skip advance only fires on labels longer than
        // the gallop stride; the fixed cases above never reach it. Seeded
        // random labels far above the stride, balanced and heavily skewed
        // in both directions, pin the galloping kernels against the
        // branchy reference and a naive binary-search witness oracle.
        let mut rng = hl_graph::rng::Xorshift64::seed_from_u64(0xC0FFEE);
        for case in 0..200usize {
            let (la, lb) = match case % 3 {
                0 => (1 + rng.gen_index(600), 1 + rng.gen_index(600)),
                1 => (1 + rng.gen_index(600), 1 + rng.gen_index(20)),
                _ => (1 + rng.gen_index(20), 1 + rng.gen_index(600)),
            };
            let mut make_label = |len: usize| {
                let mut hubs: Vec<NodeId> = Vec::with_capacity(len);
                let mut dists: Vec<u32> = Vec::with_capacity(len);
                let mut h: u64 = 0;
                for _ in 0..len {
                    h += 1 + rng.gen_index(6) as u64;
                    hubs.push(h as NodeId);
                    dists.push(rng.gen_index(1_000) as u32);
                }
                (hubs, dists)
            };
            let (ah, ad) = make_label(la);
            let (bh, bd) = make_label(lb);
            assert_eq!(
                merge_join(&ah, &ad, &bh, &bd),
                merge_join_branchy(&ah, &ad, &bh, &bd),
                "case {case}"
            );
            let mut naive: Option<(Distance, NodeId)> = None;
            for (i, &h) in ah.iter().enumerate() {
                if let Ok(j) = bh.binary_search(&h) {
                    let d = Distance::from(ad[i]) + Distance::from(bd[j]);
                    if d < naive.map_or(INFINITY, |(b, _)| b) {
                        naive = Some((d, h));
                    }
                }
            }
            assert_eq!(
                merge_join_with_witness(&ah, &ad, &bh, &bd),
                naive,
                "witness, case {case}"
            );
        }
    }
}
