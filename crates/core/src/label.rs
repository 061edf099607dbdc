//! Hub label data structures and the merge-join distance query.
//!
//! hl-core owns three representations of a labeling, and they share one
//! query algorithm — the sorted merge-join, each loop written once for
//! both the distance-only and the witness-reporting query:
//!
//! * [`HubLabeling`] — one [`HubLabel`] (two heap `Vec`s) per vertex; the
//!   *construction-time* form, cheap to grow and mutate per vertex;
//! * [`crate::flat::FlatLabeling`] — a single CSR arena; the blessed
//!   *query-time* form, one allocation for the whole labeling;
//! * [`crate::compact::CompactLabeling`] — the same arena with delta-coded
//!   hub ids and narrow distance lanes; it joins through its own loop,
//!   because delta-coded ids cannot be galloped over.
//!
//! The [`LabelingView`] trait is the borrowed read-only view the two
//! slice-backed forms implement, so verification, statistics, and oracles
//! work on either; the compact arena decodes on the fly and has no slices
//! to lend.

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
/// over the entry width so the compact arena's narrow delta lanes warm
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
/// `(best, witness)` pair — the one update rule of every join loop, so the
/// slice kernel below and the delta kernel of [`crate::compact`] agree on
/// ties and on saturation by construction. `WITNESS = false` compiles the
/// witness bookkeeping out.
///
/// Strict `<` keeps the first hub realizing the minimum, as conditional
/// moves — `d` can never displace a tie. `best` starts at [`INFINITY`],
/// so a sum that saturated there never takes: a pair of huge finite
/// label distances reads as unreachable, exactly like a disjoint hub set.
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
/// queries return it: `None` when no sum took — the hub sets are disjoint
/// **or** every common-hub sum saturated at [`INFINITY`]. A saturated sum
/// means "farther than the distance type can say", and returning it with
/// a witness would claim a finite meeting point that does not exist.
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
    a_dists: &[Distance],
    b_hubs: &[NodeId],
    b_dists: &[Distance],
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
            let d = a_dists[i].saturating_add(b_dists[j]);
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
/// `min over common hubs h of d(u, h) + d(h, v)`, or [`INFINITY`] when the
/// hub sets are disjoint or every common-hub sum saturated. Both hub
/// slices must be sorted by hub id, with `a_dists[i]` the distance to
/// `a_hubs[i]` (and likewise for `b`).
pub fn merge_join(
    a_hubs: &[NodeId],
    a_dists: &[Distance],
    b_hubs: &[NodeId],
    b_dists: &[Distance],
) -> Distance {
    join_absolute::<false>(a_hubs, a_dists, b_hubs, b_dists).0
}

/// Like [`merge_join`] but also reports the hub realizing the minimum;
/// `None` when the hub sets are disjoint **or** every common-hub sum
/// saturated at [`INFINITY`].
pub fn merge_join_with_witness(
    a_hubs: &[NodeId],
    a_dists: &[Distance],
    b_hubs: &[NodeId],
    b_dists: &[Distance],
) -> Option<(Distance, NodeId)> {
    witnessed(join_absolute::<true>(a_hubs, a_dists, b_hubs, b_dists))
}

/// A borrowed, read-only view of a complete hub labeling: per-vertex
/// sorted hub/distance slices plus the merge-join query over them.
///
/// Implemented by both the nested [`HubLabeling`] (construction-time form)
/// and the arena [`crate::flat::FlatLabeling`] (query-time form), so code
/// that only *reads* a labeling — verification, statistics, oracles —
/// accepts either without conversion.
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
    fn dists_of(&self, v: NodeId) -> &[Distance];

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

/// The label of a single vertex: its hubs and exact distances to them,
/// sorted by hub id.
///
/// # Example
///
/// ```
/// use hl_core::HubLabel;
///
/// let label = HubLabel::from_pairs(vec![(3, 2), (1, 5), (7, 0)]);
/// assert_eq!(label.len(), 3);
/// assert_eq!(label.distance_to_hub(1), Some(5));
/// assert_eq!(label.distance_to_hub(2), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HubLabel {
    hubs: Vec<NodeId>,
    dists: Vec<Distance>,
}

impl HubLabel {
    /// Creates an empty label.
    pub fn new() -> Self {
        HubLabel::default()
    }

    /// Builds a label from `(hub, distance)` pairs in any order.
    /// Duplicate hubs keep their minimum distance.
    pub fn from_pairs(mut pairs: Vec<(NodeId, Distance)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup_by(|next, kept| next.0 == kept.0);
        let (hubs, dists) = pairs.into_iter().unzip();
        HubLabel { hubs, dists }
    }

    /// Number of hubs.
    pub fn len(&self) -> usize {
        self.hubs.len()
    }

    /// `true` when the label has no hubs.
    pub fn is_empty(&self) -> bool {
        self.hubs.is_empty()
    }

    /// The sorted hub ids.
    pub fn hubs(&self) -> &[NodeId] {
        &self.hubs
    }

    /// The distances, aligned with [`HubLabel::hubs`].
    pub fn distances(&self) -> &[Distance] {
        &self.dists
    }

    /// Iterates over `(hub, distance)` pairs in increasing hub order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Distance)> + '_ {
        self.hubs.iter().copied().zip(self.dists.iter().copied())
    }

    /// Distance to hub `h` if `h` is in the label.
    pub fn distance_to_hub(&self, h: NodeId) -> Option<Distance> {
        self.hubs.binary_search(&h).ok().map(|i| self.dists[i])
    }

    /// `true` when `h` is a hub of this label.
    pub fn contains(&self, h: NodeId) -> bool {
        self.hubs.binary_search(&h).is_ok()
    }

    /// Appends a hub; the caller must maintain increasing hub order
    /// (checked in debug builds).
    pub fn push(&mut self, hub: NodeId, dist: Distance) {
        debug_assert!(self.hubs.last().is_none_or(|&last| last < hub));
        self.hubs.push(hub);
        self.dists.push(dist);
    }

    /// The two-label merge-join at the heart of hub labeling: returns
    /// `min over common hubs h of d(u, h) + d(h, v)`, or [`INFINITY`]
    /// when the labels share no hub.
    pub fn join(&self, other: &HubLabel) -> Distance {
        merge_join(&self.hubs, &self.dists, &other.hubs, &other.dists)
    }

    /// Like [`HubLabel::join`] but also reports the witnessing hub.
    pub fn join_with_witness(&self, other: &HubLabel) -> Option<(Distance, NodeId)> {
        merge_join_with_witness(&self.hubs, &self.dists, &other.hubs, &other.dists)
    }

    /// Heap footprint of this label's two vectors, in bytes (by length,
    /// not capacity — the steady-state size once construction is done).
    pub fn heap_bytes(&self) -> usize {
        self.hubs.len() * std::mem::size_of::<NodeId>()
            + self.dists.len() * std::mem::size_of::<Distance>()
    }
}

impl FromIterator<(NodeId, Distance)> for HubLabel {
    fn from_iter<T: IntoIterator<Item = (NodeId, Distance)>>(iter: T) -> Self {
        HubLabel::from_pairs(iter.into_iter().collect())
    }
}

/// A complete hub labeling: one [`HubLabel`] per vertex.
///
/// # Example
///
/// ```
/// use hl_graph::generators;
/// use hl_core::pll::PrunedLandmarkLabeling;
///
/// let g = generators::path(5);
/// let labeling = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
/// assert_eq!(labeling.query(0, 4), 4);
/// assert_eq!(labeling.num_nodes(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HubLabeling {
    labels: Vec<HubLabel>,
}

impl HubLabeling {
    /// Creates a labeling of `n` empty labels.
    pub fn empty(n: usize) -> Self {
        HubLabeling {
            labels: vec![HubLabel::new(); n],
        }
    }

    /// Wraps per-vertex labels into a labeling.
    pub fn from_labels(labels: Vec<HubLabel>) -> Self {
        HubLabeling { labels }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// The label of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn label(&self, v: NodeId) -> &HubLabel {
        &self.labels[v as usize]
    }

    /// Mutable access to the label of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn label_mut(&mut self, v: NodeId) -> &mut HubLabel {
        &mut self.labels[v as usize]
    }

    /// Iterates over all labels in vertex order.
    pub fn iter(&self) -> impl Iterator<Item = &HubLabel> {
        self.labels.iter()
    }

    /// Answers the distance query `u, v` via the merge-join of the two
    /// labels. Returns [`INFINITY`] when the labels share no hub — on a
    /// valid labeling of a connected graph this only happens for
    /// genuinely unreachable pairs.
    pub fn query(&self, u: NodeId, v: NodeId) -> Distance {
        self.labels[u as usize].join(&self.labels[v as usize])
    }

    /// Like [`HubLabeling::query`] but also reports the hub realizing the
    /// minimum.
    pub fn query_with_witness(&self, u: NodeId, v: NodeId) -> Option<(Distance, NodeId)> {
        self.labels[u as usize].join_with_witness(&self.labels[v as usize])
    }

    /// Total number of hubs over all vertices, `Σ_v |S_v|`.
    pub fn total_hubs(&self) -> usize {
        self.labels.iter().map(|l| l.len()).sum()
    }

    /// Average hubs per vertex, `Σ_v |S_v| / n`.
    pub fn average_hubs(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.total_hubs() as f64 / self.labels.len() as f64
    }

    /// Largest label size.
    pub fn max_hubs(&self) -> usize {
        self.labels.iter().map(|l| l.len()).max().unwrap_or(0)
    }

    /// Heap footprint of the nested representation, in bytes: every
    /// per-vertex `HubLabel` header plus its two vectors' contents.
    /// Comparable with [`crate::flat::FlatLabeling::heap_bytes`] — the
    /// difference is exactly what the arena layout saves.
    pub fn heap_bytes(&self) -> usize {
        self.labels.len() * std::mem::size_of::<HubLabel>()
            + self.labels.iter().map(HubLabel::heap_bytes).sum::<usize>()
    }

    /// Ensures every vertex contains itself as a hub at distance 0
    /// (required by several constructions, harmless otherwise).
    pub fn add_self_hubs(&mut self) {
        for (v, label) in self.labels.iter_mut().enumerate() {
            if !label.contains(v as NodeId) {
                let mut pairs: Vec<_> = label.iter().collect();
                pairs.push((v as NodeId, 0));
                *label = HubLabel::from_pairs(pairs);
            }
        }
    }
}

impl FromIterator<HubLabel> for HubLabeling {
    fn from_iter<T: IntoIterator<Item = HubLabel>>(iter: T) -> Self {
        HubLabeling {
            labels: iter.into_iter().collect(),
        }
    }
}

impl LabelingView for HubLabeling {
    fn num_nodes(&self) -> usize {
        HubLabeling::num_nodes(self)
    }

    fn hubs_of(&self, v: NodeId) -> &[NodeId] {
        self.labels[v as usize].hubs()
    }

    fn dists_of(&self, v: NodeId) -> &[Distance] {
        self.labels[v as usize].distances()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-branchless three-way-`match` formulation of [`merge_join`]:
    /// the reference the tests below hold the shipping kernel to.
    fn merge_join_branchy(
        a_hubs: &[NodeId],
        a_dists: &[Distance],
        b_hubs: &[NodeId],
        b_dists: &[Distance],
    ) -> Distance {
        let mut best = INFINITY;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a_hubs.len() && j < b_hubs.len() {
            match a_hubs[i].cmp(&b_hubs[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let d = a_dists[i].saturating_add(b_dists[j]);
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

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let l = HubLabel::from_pairs(vec![(5, 1), (2, 9), (5, 3), (2, 4)]);
        assert_eq!(l.hubs(), &[2, 5]);
        assert_eq!(l.distances(), &[4, 1]);
    }

    #[test]
    fn join_on_shared_hub() {
        let a = HubLabel::from_pairs(vec![(1, 3), (4, 2)]);
        let b = HubLabel::from_pairs(vec![(2, 1), (4, 5)]);
        assert_eq!(a.join(&b), 7);
        assert_eq!(a.join_with_witness(&b), Some((7, 4)));
    }

    #[test]
    fn join_picks_minimum() {
        let a = HubLabel::from_pairs(vec![(1, 10), (2, 1)]);
        let b = HubLabel::from_pairs(vec![(1, 1), (2, 3)]);
        assert_eq!(a.join(&b), 4);
        assert_eq!(a.join_with_witness(&b).unwrap().1, 2);
    }

    #[test]
    fn join_disjoint_is_infinity() {
        let a = HubLabel::from_pairs(vec![(1, 1)]);
        let b = HubLabel::from_pairs(vec![(2, 1)]);
        assert_eq!(a.join(&b), INFINITY);
        assert_eq!(a.join_with_witness(&b), None);
    }

    #[test]
    fn join_empty_labels() {
        let a = HubLabel::new();
        assert!(a.is_empty());
        assert_eq!(a.join(&a), INFINITY);
    }

    #[test]
    fn join_saturates_on_overflow() {
        let a = HubLabel::from_pairs(vec![(0, u64::MAX - 1)]);
        let b = HubLabel::from_pairs(vec![(0, 5)]);
        assert_eq!(a.join(&b), INFINITY);
    }

    #[test]
    fn saturated_sum_is_unreachable_not_witnessed() {
        // Regression (the PR-10 headline bug): two large *finite* label
        // distances saturate to the INFINITY sentinel. The witness path
        // used to hand that sentinel back as a witnessed "finite" minimum;
        // a saturated sum must read exactly like a disjoint hub set.
        let a = HubLabel::from_pairs(vec![(3, u64::MAX - 1)]);
        let b = HubLabel::from_pairs(vec![(3, 5)]);
        assert_eq!(a.join(&b), INFINITY);
        assert_eq!(a.join_with_witness(&b), None);
        // Exactly at the boundary: the sum lands on u64::MAX itself.
        let a = HubLabel::from_pairs(vec![(3, u64::MAX - 5)]);
        assert_eq!(a.join_with_witness(&b), None);
        // One below the sentinel is still a real, witnessed distance.
        let a = HubLabel::from_pairs(vec![(3, u64::MAX - 6)]);
        assert_eq!(a.join_with_witness(&b), Some((u64::MAX - 1, 3)));
        // A saturating pair must not shadow a finite sum on another hub.
        let a = HubLabel::from_pairs(vec![(3, u64::MAX - 1), (7, 10)]);
        let b = HubLabel::from_pairs(vec![(3, 5), (7, 2)]);
        assert_eq!(a.join(&b), 12);
        assert_eq!(a.join_with_witness(&b), Some((12, 7)));
    }

    #[test]
    fn branchless_matches_branchy_reference() {
        // Differential check on adversarial shapes: overlapping, disjoint,
        // nested ranges, duplicates of length 0/1, saturating distances.
        type Pairs = Vec<(NodeId, Distance)>;
        let cases: &[(Pairs, Pairs)] = &[
            (vec![], vec![]),
            (vec![(1, 1)], vec![]),
            (vec![(1, 2), (5, 0)], vec![(1, 9), (5, 1)]),
            (vec![(0, 3), (2, 1), (9, 4)], vec![(1, 1), (2, 3), (8, 0)]),
            (vec![(4, u64::MAX - 1)], vec![(4, 7)]),
            (
                vec![(0, 1), (1, 1), (2, 1), (3, 1)],
                vec![(3, 1), (4, 1), (5, 1)],
            ),
        ];
        for (pa, pb) in cases {
            let a = HubLabel::from_pairs(pa.clone());
            let b = HubLabel::from_pairs(pb.clone());
            assert_eq!(
                merge_join(a.hubs(), a.distances(), b.hubs(), b.distances()),
                merge_join_branchy(a.hubs(), a.distances(), b.hubs(), b.distances()),
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
                let mut dists: Vec<Distance> = Vec::with_capacity(len);
                let mut h: u64 = 0;
                for _ in 0..len {
                    h += 1 + rng.gen_index(6) as u64;
                    hubs.push(h as NodeId);
                    dists.push(rng.gen_index(1_000) as Distance);
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
                    let d = ad[i].saturating_add(bd[j]);
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

    #[test]
    fn push_maintains_order() {
        let mut l = HubLabel::new();
        l.push(1, 5);
        l.push(9, 2);
        assert_eq!(l.len(), 2);
        assert_eq!(l.distance_to_hub(9), Some(2));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn push_rejects_out_of_order() {
        let mut l = HubLabel::new();
        l.push(5, 1);
        l.push(3, 1);
    }

    #[test]
    fn labeling_query_symmetric() {
        let mut hl = HubLabeling::empty(3);
        *hl.label_mut(0) = HubLabel::from_pairs(vec![(0, 0), (1, 4)]);
        *hl.label_mut(2) = HubLabel::from_pairs(vec![(1, 2), (2, 0)]);
        assert_eq!(hl.query(0, 2), 6);
        assert_eq!(hl.query(2, 0), 6);
    }

    #[test]
    fn stats_accessors() {
        let mut hl = HubLabeling::empty(4);
        *hl.label_mut(1) = HubLabel::from_pairs(vec![(0, 1), (1, 0)]);
        *hl.label_mut(3) = HubLabel::from_pairs(vec![(3, 0)]);
        assert_eq!(hl.total_hubs(), 3);
        assert_eq!(hl.max_hubs(), 2);
        assert!((hl.average_hubs() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn add_self_hubs_idempotent() {
        let mut hl = HubLabeling::empty(3);
        *hl.label_mut(0) = HubLabel::from_pairs(vec![(0, 0)]);
        hl.add_self_hubs();
        hl.add_self_hubs();
        for v in 0..3u32 {
            assert_eq!(hl.label(v).distance_to_hub(v), Some(0));
        }
        assert_eq!(hl.total_hubs(), 3);
        assert_eq!(hl.query(1, 1), 0);
    }

    #[test]
    fn from_iterator_impls() {
        let l: HubLabel = vec![(2u32, 7u64), (0, 1)].into_iter().collect();
        assert_eq!(l.hubs(), &[0, 2]);
        let hl: HubLabeling = vec![l.clone(), l].into_iter().collect();
        assert_eq!(hl.num_nodes(), 2);
    }

    #[test]
    fn view_trait_agrees_with_inherent_api() {
        let mut hl = HubLabeling::empty(3);
        *hl.label_mut(0) = HubLabel::from_pairs(vec![(0, 0), (1, 4)]);
        *hl.label_mut(2) = HubLabel::from_pairs(vec![(1, 2), (2, 0)]);
        fn via_view<L: LabelingView>(l: &L) -> (Distance, usize, usize, f64) {
            (
                l.query(0, 2),
                l.total_hubs(),
                l.max_hubs(),
                l.average_hubs(),
            )
        }
        let (d, total, max, avg) = via_view(&hl);
        assert_eq!(d, hl.query(0, 2));
        assert_eq!(total, hl.total_hubs());
        assert_eq!(max, hl.max_hubs());
        assert!((avg - hl.average_hubs()).abs() < 1e-12);
        assert_eq!(hl.hubs_of(2), &[1, 2]);
        assert_eq!(hl.dists_of(2), &[2, 0]);
    }

    #[test]
    fn merge_join_slices_match_label_join() {
        let a = HubLabel::from_pairs(vec![(1, 10), (2, 1), (9, 3)]);
        let b = HubLabel::from_pairs(vec![(1, 1), (2, 3), (8, 0)]);
        assert_eq!(
            merge_join(a.hubs(), a.distances(), b.hubs(), b.distances()),
            a.join(&b)
        );
        assert_eq!(
            merge_join_with_witness(a.hubs(), a.distances(), b.hubs(), b.distances()),
            a.join_with_witness(&b)
        );
    }

    #[test]
    fn heap_bytes_counts_vectors_and_headers() {
        let mut hl = HubLabeling::empty(2);
        *hl.label_mut(0) = HubLabel::from_pairs(vec![(0, 0), (1, 1)]);
        *hl.label_mut(1) = HubLabel::from_pairs(vec![(1, 0)]);
        let entries = 3;
        let payload = entries * (std::mem::size_of::<NodeId>() + std::mem::size_of::<Distance>());
        assert_eq!(
            hl.heap_bytes(),
            payload + 2 * std::mem::size_of::<HubLabel>()
        );
    }
}
