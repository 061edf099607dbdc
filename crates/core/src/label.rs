//! The hub join: the distance query.
//!
//! hl-core owns two representations of a labeling, and they share one
//! query — `min over common hubs h of d(u, h) + d(h, v)` — each kernel
//! written once for both the distance-only and the witness-reporting
//! query:
//!
//! * [`crate::flat::FlatLabeling`] — a single CSR arena, one allocation
//!   for the whole labeling; what every construction returns and every
//!   store, daemon and analysis holds. It joins through this module's
//!   hybrid kernel: a galloping merge when one label is short, else a
//!   scatter of the shorter label into a hub-indexed scratch that the
//!   longer label is gathered through (PLL's pruning test, on the query
//!   path);
//! * [`crate::compact::CompactLabeling`] — the v2c store's lanes:
//!   delta-coded hub ids and narrow distances; it joins (distance only)
//!   through its own merge loop, because delta-coded ids can be neither
//!   galloped over nor indexed by.
//!
//! A single label has no type of its own: borrowed it is the two sorted
//! slices [`crate::FlatLabeling::hubs_of`] and
//! [`crate::FlatLabeling::dists_of`] lend (hub ids and `u32` distances),
//! owned it is a `Vec<(NodeId, Distance)>`.

use std::cell::RefCell;

use hl_graph::{Distance, NodeId, INFINITY};

/// Gallop stride of the merge kernels: how far (in entries) each cursor
/// tests ahead on the hub lane per iteration. One 64-byte cache line of
/// u32 hub ids — big enough that length-skewed joins skip whole lines per
/// step, and the stride-ahead read doubles as a prefetch that hides an
/// LLC/DRAM round-trip behind the serial advance chain.
///
/// Also the shortest label the scatter path takes: a join whose shorter
/// label has fewer entries merges, because a merge reads the longer
/// label's distances only where hubs match, and a 2–5-entry label (the
/// median on a power-law graph) meets few of them.
const LOOKAHEAD: usize = 16;

/// Hub ids below this bound are joined through the calling thread's
/// scratch; the rest, merged. 4,096 [`Distance`] slots are 32 KiB, which
/// stays in L1d. On a ranked arena ([`crate::dense`]) the hubs most labels
/// share are the smallest ids, so they are the ones the scratch covers.
/// The bound is fixed, not `n`: every thread that joins fills its own
/// scratch once, and a split batch starts a thread per share.
const HOT_HUBS: usize = 4096;

/// The join scratch: slot `h` holds the shorter label's distance to hot
/// hub `h` during a scatter join, and [`INFINITY`] between joins. The
/// length is in the type, so a slot index reduced modulo [`HOT_HUBS`]
/// needs no bounds check and cannot panic.
pub(crate) type Slots = [Distance; HOT_HUBS];

thread_local! {
    /// This thread's join scratch, allocated at its first scatter join.
    static SCRATCH: RefCell<Box<Slots>> = RefCell::new(Box::new([INFINITY; HOT_HUBS]));
}

/// Runs `f` with the calling thread's join scratch borrowed, so a run of
/// joins ([`crate::DenseLabeling::query_many`]) borrows it once.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Slots) -> R) -> R {
    SCRATCH.with_borrow_mut(|slots| f(slots))
}

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
/// moves — `d` can never displace a tie, and an [`INFINITY`] sum (an
/// empty scratch slot) never displaces anything.
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

/// One label as its two parallel lanes, hub ids sorted ascending.
type Lanes<'a> = (&'a [NodeId], &'a [u32]);

/// The join over two labels of absolute hub ids — the one kernel behind
/// [`merge_join`], [`merge_join_with_witness`] and every
/// [`crate::FlatLabeling`] query. `slots` is the calling thread's
/// scratch when the caller holds it ([`with_scratch`]); with `None` a
/// scatter join borrows it itself.
///
/// This is *the* hot-path kernel, with two paths:
///
/// * **The shorter label has fewer than [`LOOKAHEAD`] entries:** the
///   galloping merge ([`merge`]).
/// * **Otherwise, scatter–gather:** the shorter label's entries with hub
///   ids below [`HOT_HUBS`] are written into the scratch at their hub's
///   index, the longer label's hot entries are read through it (one
///   independent load and a `saturating_add` each, no branch on a
///   match), the written slots are reset to [`INFINITY`], and the two
///   tails (hub ids `>= HOT_HUBS`) are merged. Hot hubs precede tail hubs
///   and [`offer`] is strict, so the witness is still the smallest hub
///   that attains the minimum.
///
/// Sums are taken in [`Distance`] from two `u32` lanes, so none
/// overflows; a lane pair of unequal lengths is read to the shorter.
#[inline]
pub(crate) fn join_absolute<const WITNESS: bool>(
    slots: Option<&mut Slots>,
    a_hubs: &[NodeId],
    a_dists: &[u32],
    b_hubs: &[NodeId],
    b_dists: &[u32],
) -> (Distance, NodeId) {
    // Truncate each pair to its common length: every loop below then
    // indexes both lanes of a side within bounds.
    let n = a_hubs.len().min(a_dists.len());
    let m = b_hubs.len().min(b_dists.len());
    let a = (&a_hubs[..n], &a_dists[..n]);
    let b = (&b_hubs[..m], &b_dists[..m]);
    if n.min(m) < LOOKAHEAD {
        return merge::<WITNESS>(a, b);
    }
    let (short, long) = if n <= m { (a, b) } else { (b, a) };
    match slots {
        Some(slots) => scatter_gather::<WITNESS>(slots, short, long),
        None => with_scratch(|slots| scatter_gather::<WITNESS>(slots, short, long)),
    }
}

/// The scatter–gather path of [`join_absolute`]: `short` scattered into
/// `slots`, `long` gathered through it, `slots` reset, tails merged.
#[inline]
fn scatter_gather<const WITNESS: bool>(
    slots: &mut Slots,
    (short_hubs, short_dists): Lanes,
    (long_hubs, long_dists): Lanes,
) -> (Distance, NodeId) {
    let hot = |hubs: &[NodeId]| hubs.partition_point(|&h| (h as usize) < HOT_HUBS);
    let (short_hot, long_hot) = (hot(short_hubs), hot(long_hubs));
    // Every hub id in the hot prefixes is below HOT_HUBS, so the modulo
    // (a mask) leaves it unchanged and only proves the index in bounds.
    for (&h, &d) in short_hubs[..short_hot].iter().zip(short_dists) {
        slots[h as usize % HOT_HUBS] = Distance::from(d);
    }
    let mut best = INFINITY;
    let mut witness: NodeId = 0;
    for (&h, &d) in long_hubs[..long_hot].iter().zip(long_dists) {
        let sum = slots[h as usize % HOT_HUBS].saturating_add(Distance::from(d));
        offer::<WITNESS>(&mut best, &mut witness, sum, h);
    }
    for &h in &short_hubs[..short_hot] {
        slots[h as usize % HOT_HUBS] = INFINITY;
    }
    if short_hot < short_hubs.len() && long_hot < long_hubs.len() {
        let (tail, hub) = merge::<WITNESS>(
            (&short_hubs[short_hot..], &short_dists[short_hot..]),
            (&long_hubs[long_hot..], &long_dists[long_hot..]),
        );
        offer::<WITNESS>(&mut best, &mut witness, tail, hub);
    }
    (best, witness)
}

/// The sorted-merge join of two labels whose lanes are of equal length:
/// [`join_absolute`]'s path for a short label, and for the tails of a
/// scatter join.
///
/// The cursor advance is branchless: on a hub mismatch both cursors move
/// by the boolean comparison results (fine step) and gallop a whole
/// cache line when even the stride-ahead hub is still behind the other
/// side (coarse step) — conditional moves throughout, so the effectively
/// random interleaving of two sorted hub runs never feeds the branch
/// predictor. A branchless advance is a serial data-dependency chain the
/// core cannot speculate past, so the kernel first warms both hub lanes
/// by issuing every cache-line fetch as independent overlapping loads.
/// Only the hub *equality* test remains a real branch.
#[inline]
fn merge<const WITNESS: bool>(a: Lanes, b: Lanes) -> (Distance, NodeId) {
    let ((a_hubs, a_dists), (b_hubs, b_dists)) = (a, b);
    // Re-truncating to the common length lets the loop condition prove
    // every index in bounds for *both* slices of a side, so the four
    // per-iteration bounds checks vanish from the hot loop.
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

/// The join over two labels given as parallel slices:
/// `min over common hubs h of d(u, h) + d(h, v)`, summed in [`Distance`],
/// or [`INFINITY`] when the hub sets are disjoint. Both hub slices must
/// be sorted by hub id, with `a_dists[i]` the distance to `a_hubs[i]`
/// (and likewise for `b`). A galloping merge when the shorter label has
/// fewer than 16 entries; otherwise the shorter label's hubs below 4,096
/// are scattered into the calling thread's 32 KiB scratch, the longer
/// label's are gathered through it, and the tails are merged.
pub fn merge_join(
    a_hubs: &[NodeId],
    a_dists: &[u32],
    b_hubs: &[NodeId],
    b_dists: &[u32],
) -> Distance {
    join_absolute::<false>(None, a_hubs, a_dists, b_hubs, b_dists).0
}

/// Like [`merge_join`] but also reports the hub realizing the minimum —
/// the smallest such hub on a tie; `None` when the hub sets are disjoint.
pub fn merge_join_with_witness(
    a_hubs: &[NodeId],
    a_dists: &[u32],
    b_hubs: &[NodeId],
    b_dists: &[u32],
) -> Option<(Distance, NodeId)> {
    witnessed(join_absolute::<true>(
        None, a_hubs, a_dists, b_hubs, b_dists,
    ))
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
        // in both directions, pin the kernel (its merge when a side has
        // fewer than 16 entries, else its scatter path) against the
        // branchy reference and the binary-search witness oracle.
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
            assert_eq!(
                merge_join_with_witness(&ah, &ad, &bh, &bd),
                naive_witness(&ah, &ad, &bh, &bd),
                "witness, case {case}"
            );
        }
    }

    /// The binary-search witness oracle: the smallest hub attaining the
    /// minimum, found without any merge or scratch.
    fn naive_witness(
        ah: &[NodeId],
        ad: &[u32],
        bh: &[NodeId],
        bd: &[u32],
    ) -> Option<(Distance, NodeId)> {
        let mut naive: Option<(Distance, NodeId)> = None;
        for (i, &h) in ah.iter().enumerate() {
            if let Ok(j) = bh.binary_search(&h) {
                let d = Distance::from(ad[i]) + Distance::from(bd[j]);
                if d < naive.map_or(INFINITY, |(b, _)| b) {
                    naive = Some((d, h));
                }
            }
        }
        naive
    }

    /// A seeded label of `len` entries over hub ids from `lo` up, ids
    /// `shared` with probability 1/2 when `shared` is given (so two labels
    /// meet), distances from `0..spread` (a small spread makes ties) or,
    /// one entry in eight, lane-maximal.
    fn seeded_label(
        rng: &mut hl_graph::rng::Xorshift64,
        len: usize,
        lo: u64,
        spread: usize,
        shared: Option<&[NodeId]>,
    ) -> (Vec<NodeId>, Vec<u32>) {
        let mut hubs: Vec<NodeId> = match shared {
            Some(pool) if !pool.is_empty() => (0..len)
                .map(|_| {
                    if rng.gen_bool() {
                        pool[rng.gen_index(pool.len())]
                    } else {
                        (lo + rng.gen_index(6 * len.max(1)) as u64) as NodeId
                    }
                })
                .collect(),
            _ => {
                let mut h = lo;
                (0..len)
                    .map(|_| {
                        h += rng.gen_index(6) as u64;
                        let hub = h as NodeId;
                        h += 1;
                        hub
                    })
                    .collect()
            }
        };
        hubs.sort_unstable();
        hubs.dedup();
        let dists = hubs
            .iter()
            .map(|_| match rng.gen_index(8) {
                0 => u32::MAX,
                _ => rng.gen_index(spread) as u32,
            })
            .collect();
        (hubs, dists)
    }

    #[test]
    fn hybrid_agrees_with_branchy_and_witness_oracle_on_both_paths() {
        // Shorter sides on both sides of the 16-entry bound, longer sides
        // up to 600 entries, hub ids below 4,096, above it, straddling it
        // and at the top of the id space; distances with many ties and
        // lane-maximal ones. Each join runs both ways round, with and
        // without a held scratch.
        let mut rng = hl_graph::rng::Xorshift64::seed_from_u64(0x5CA7_7E12);
        let starts: [u64; 4] = [
            0,
            HOT_HUBS as u64 + 3,
            HOT_HUBS as u64 - 1_000,
            u64::from(u32::MAX) - 4_000,
        ];
        let mut scratch_joins = 0;
        for case in 0..1_000usize {
            let short_len = [0, 1, 15, 16, 17][case % 5];
            let long_len = short_len + rng.gen_index(600 - short_len + 1);
            let lo = starts[(case / 5) % 4];
            let spread = if case % 2 == 0 { 3 } else { 1_000 };
            let (bh, bd) = seeded_label(&mut rng, long_len, lo, spread, None);
            let (mut ah, mut ad) = seeded_label(&mut rng, short_len, lo, spread, Some(&bh));
            // Deduplicated sampling can fall short; top the label back up
            // with fresh ids above it so the length is exactly the case's.
            let mut next = ah.last().map_or(lo, |&h| u64::from(h) + 1);
            while ah.len() < short_len {
                ah.push(next as NodeId);
                ad.push(rng.gen_index(spread) as u32);
                next += 1 + rng.gen_index(3) as u64;
            }
            assert_eq!(ah.len(), short_len, "case {case}");
            scratch_joins += usize::from(short_len.min(bh.len()) >= LOOKAHEAD);
            let want = naive_witness(&ah, &ad, &bh, &bd);
            assert_eq!(
                want.map_or(INFINITY, |(d, _)| d),
                merge_join_branchy(&ah, &ad, &bh, &bd),
                "oracles disagree, case {case}"
            );
            for ((xh, xd), (yh, yd)) in [((&ah, &ad), (&bh, &bd)), ((&bh, &bd), (&ah, &ad))] {
                let got = merge_join_with_witness(xh, xd, yh, yd);
                assert_eq!(got, want, "witness, case {case}");
                assert_eq!(
                    merge_join(xh, xd, yh, yd),
                    want.map_or(INFINITY, |(d, _)| d),
                    "distance, case {case}"
                );
                let held = with_scratch(|s| join_absolute::<true>(Some(s), xh, xd, yh, yd));
                assert_eq!(witnessed(held), want, "held scratch, case {case}");
            }
        }
        assert!(scratch_joins >= 300, "{scratch_joins} scatter joins");
    }

    #[test]
    fn a_tie_across_the_scratch_bound_keeps_the_smaller_hub() {
        // 20 entries a side: the scatter path. Hub 100 (hot) and hub 5000
        // (tail) both attain 7; hubs 200 and 300 (both hot) both attain 9
        // in the second pair. The witness is the smaller hub every time,
        // whichever label is the shorter.
        let label = |extra: &[(NodeId, u32)]| {
            let mut pairs: Vec<(NodeId, u32)> = (0..20).map(|k| (10 * k + 1, 50)).collect();
            pairs.extend_from_slice(extra);
            pairs.sort_unstable();
            pairs
        };
        let a = label(&[(100, 3), (5_000, 2)]);
        let b = label(&[(100, 4), (5_000, 5), (6_000, 0)]);
        assert_eq!(join_with_witness(&a, &b), Some((7, 100)));
        assert_eq!(join_with_witness(&b, &a), Some((7, 100)));
        let a = label(&[(200, 4), (300, 5)]);
        let b = label(&[(200, 5), (300, 4), (400, 1)]);
        assert_eq!(join_with_witness(&a, &b), Some((9, 200)));
        assert_eq!(join_with_witness(&b, &a), Some((9, 200)));
        // Lane-maximal distances on every common hub still sum finitely.
        let max = u32::MAX;
        let a: Vec<(NodeId, u32)> = (0..16).map(|k| (k, max)).collect();
        let b: Vec<(NodeId, u32)> = (0..16).map(|k| (k, max)).collect();
        assert_eq!(join_with_witness(&a, &b), Some(((1 << 33) - 2, 0)));
    }

    #[test]
    fn the_scratch_is_clean_between_joins_across_arenas() {
        use crate::FlatLabeling;
        // Arena `full`, 2 vertices: both labels hold hubs 0..32, so their
        // join writes slots 0..32. Arena `split`, 3 vertices (one label
        // empty): evens 0..64 against odds 1..65, disjoint, so a slot left
        // written by `full` would make its join finite.
        let hubs: Vec<NodeId> = (0..32).collect();
        let mut full = FlatLabeling::new();
        full.push_label(&hubs, &[1; 32]);
        full.push_label(&hubs, &[2; 32]);
        let evens: Vec<NodeId> = (0..32).map(|k| 2 * k).collect();
        let odds: Vec<NodeId> = (0..32).map(|k| 2 * k + 1).collect();
        let mut split = FlatLabeling::new();
        split.push_label(&evens, &[0; 32]);
        split.push_label(&odds, &[0; 32]);
        split.push_label(&[], &[]);
        for _ in 0..3 {
            assert_eq!(full.query_with_witness(0, 1), Some((3, 0)));
            assert_eq!(split.query(0, 1), INFINITY);
            assert_eq!(full.query(1, 0), 3);
            assert_eq!(split.query_with_witness(1, 0), None);
            // A run of joins under one borrow of the scratch, as
            // `DenseLabeling::query_many` runs them.
            let many = |flat: &FlatLabeling, pairs: [(NodeId, NodeId); 3]| {
                with_scratch(|slots| {
                    pairs.map(|(u, v)| {
                        let (hu, du) = (flat.hubs_of(u), flat.dists_of(u));
                        let (hv, dv) = (flat.hubs_of(v), flat.dists_of(v));
                        join_absolute::<false>(Some(&mut *slots), hu, du, hv, dv).0
                    })
                })
            };
            assert_eq!(many(&full, [(0, 1), (0, 0), (1, 1)]), [3, 2, 4]);
            assert_eq!(many(&split, [(0, 1), (1, 0), (0, 2)]), [INFINITY; 3]);
        }
    }

    #[test]
    fn hub_ids_past_num_nodes_join_exactly() {
        use crate::FlatLabeling;
        // `push_label` takes any sorted hub ids: here far past the
        // arena's 3 vertices, straddling the scratch bound and at the top
        // of the id space.
        let hot_and_tail: Vec<NodeId> = (4_000..4_200).step_by(5).collect();
        let top: Vec<NodeId> = (0..40).map(|k| u32::MAX - 80 + 2 * k).collect();
        let mut flat = FlatLabeling::new();
        let dists = |hubs: &[NodeId], salt: u32| -> Vec<u32> {
            hubs.iter().map(|&h| (h ^ salt) % 97).collect()
        };
        flat.push_label(&hot_and_tail, &dists(&hot_and_tail, 11));
        let odd_tail: Vec<NodeId> = hot_and_tail.iter().map(|h| h + (h % 2)).collect();
        flat.push_label(&odd_tail, &dists(&odd_tail, 29));
        flat.push_label(&top, &dists(&top, 3));
        let mut all = hot_and_tail.clone();
        all.extend(&top);
        flat.push_label(&all, &dists(&all, 7));
        let n = flat.num_nodes() as NodeId;
        for u in 0..n {
            for v in 0..n {
                let (ah, ad, bh, bd) = (
                    flat.hubs_of(u),
                    flat.dists_of(u),
                    flat.hubs_of(v),
                    flat.dists_of(v),
                );
                let want = naive_witness(ah, ad, bh, bd);
                assert_eq!(flat.query_with_witness(u, v), want, "({u}, {v})");
                assert_eq!(flat.query(u, v), merge_join_branchy(ah, ad, bh, bd));
            }
        }
        assert!(flat.query_with_witness(0, 1).is_some());
        assert_eq!(flat.query_with_witness(0, 2), None);
    }
}
