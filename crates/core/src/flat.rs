//! `FlatLabeling` — the CSR label arena, the one owned representation of
//! a hub labeling: what every construction returns, every store
//! serializes and every analysis reads.
//!
//! A `Vec` pair per vertex pays two heap pointers per vertex; on the
//! query path that means a pointer chase (and usually a cold cache line)
//! per endpoint before the merge-join even starts. The flat form stores
//! every label back to back in three arrays, exactly like the graph
//! crate's CSR adjacency:
//!
//! ```text
//! offsets: [0, |S_0|, |S_0|+|S_1|, ...]          (n + 1 entries, u64)
//! hubs:    [S_0 sorted | S_1 sorted | ... ]      (Σ|S_v| u32 NodeIds)
//! dists:   [d(0,·)     | d(1,·)     | ... ]      (Σ|S_v| u32 distances)
//! ```
//!
//! Vertex `v`'s label is the slice `offsets[v]..offsets[v+1]` of `hubs`
//! and `dists` — contiguous, allocation-free to access, and friendly to
//! whatever comes next (SIMD merges, mmap-backed stores, sharding).
//!
//! Construction code accumulates one `Vec<(NodeId, Distance)>` per vertex
//! and ends with [`FlatLabeling::from_pair_lists`], the one place labels
//! are sorted, deduplicated and narrowed to the 4-byte lane (a distance
//! above `u32::MAX` is [`FlatLayoutError::DistanceTooWide`]); reads and
//! query answers widen back to [`Distance`].
//!
//! # Example
//!
//! ```
//! use hl_graph::generators;
//! use hl_core::pll::PrunedLandmarkLabeling;
//! use hl_core::FlatLabeling;
//!
//! let g = generators::grid(4, 4);
//! let flat: FlatLabeling = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
//! assert_eq!(flat.query(0, 15), 6);
//! let lists = (0..16).map(|v| flat.pairs_of(v).collect()).collect();
//! assert_eq!(FlatLabeling::from_pair_lists(lists), Ok(flat));
//! ```

use hl_graph::{Distance, GraphError, NodeId};

use crate::label::LabelingView;

/// Why labels were rejected on their way into the arena: a triple of raw
/// arrays by [`FlatLabeling::from_raw_parts`], or a distance too wide for
/// the `u32` lane by [`FlatLabeling::from_pair_lists`].
///
/// Every variant names the invariant that failed, so callers
/// deserializing untrusted bytes (the HLBS v2 store reader) can surface a
/// precise corruption message instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlatLayoutError {
    /// `offsets` was empty; even a zero-vertex arena stores `[0]`.
    EmptyOffsets,
    /// `offsets[0]` was not zero.
    FirstOffsetNonZero(u64),
    /// `offsets` decreased between two consecutive vertices.
    NonMonotoneOffsets {
        /// The vertex whose span start exceeds its span end.
        vertex: usize,
    },
    /// The final offset disagrees with the entry-array length.
    FinalOffsetMismatch {
        /// `offsets[n]`.
        final_offset: u64,
        /// `hubs.len()` (== `dists.len()`).
        entries: usize,
    },
    /// `hubs` and `dists` differ in length.
    UnparallelArrays {
        /// `hubs.len()`.
        hubs: usize,
        /// `dists.len()`.
        dists: usize,
    },
    /// A vertex's hub run was not strictly increasing.
    UnsortedHubs {
        /// The offending vertex.
        vertex: usize,
    },
    /// A hub id was `>= num_nodes`.
    HubOutOfRange {
        /// The vertex whose label holds the hub.
        vertex: usize,
        /// The out-of-range hub id.
        hub: NodeId,
    },
    /// A label distance exceeds `u32::MAX`, the width of the arena's
    /// distance lane. (The [`hl_graph::INFINITY`] sentinel trips this
    /// too; a valid label never stores it.)
    DistanceTooWide {
        /// The vertex whose label holds the distance.
        vertex: usize,
        /// The offending distance.
        distance: Distance,
    },
}

impl std::fmt::Display for FlatLayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlatLayoutError::EmptyOffsets => write!(f, "offset array is empty"),
            FlatLayoutError::FirstOffsetNonZero(o) => {
                write!(f, "first offset is {o}, expected 0")
            }
            FlatLayoutError::NonMonotoneOffsets { vertex } => {
                write!(f, "offsets decrease at vertex {vertex}")
            }
            FlatLayoutError::FinalOffsetMismatch {
                final_offset,
                entries,
            } => write!(
                f,
                "final offset {final_offset} disagrees with {entries} entries"
            ),
            FlatLayoutError::UnparallelArrays { hubs, dists } => {
                write!(f, "{hubs} hubs but {dists} distances")
            }
            FlatLayoutError::UnsortedHubs { vertex } => {
                write!(f, "hubs of vertex {vertex} are not strictly increasing")
            }
            FlatLayoutError::HubOutOfRange { vertex, hub } => {
                write!(f, "vertex {vertex} lists out-of-range hub {hub}")
            }
            FlatLayoutError::DistanceTooWide { vertex, distance } => write!(
                f,
                "distance {distance} of vertex {vertex} exceeds the u32 distance lane"
            ),
        }
    }
}

impl std::error::Error for FlatLayoutError {}

/// A construction that reports [`GraphError`] reports a label too wide
/// for the arena as [`GraphError::DistanceOverflow`], the graph crate's
/// own "does not fit `u32`" error.
impl From<FlatLayoutError> for GraphError {
    fn from(e: FlatLayoutError) -> Self {
        match e {
            FlatLayoutError::DistanceTooWide { distance, .. } => {
                GraphError::DistanceOverflow { distance }
            }
            other => GraphError::InvalidParameters {
                reason: other.to_string(),
            },
        }
    }
}

// The CSR offset-table skeleton. An arena's `offsets` holds `num_nodes + 1`
// entry offsets, vertex `v` owning entries `offsets[v]..offsets[v+1]` of
// the two entry lanes. Whatever the lanes hold — absolute or delta-coded
// ids, wide or narrow distances — the table's invariants are the same, so
// `FlatLabeling` and `CompactLabeling` share these three functions.

/// Validates an untrusted offset table against the lengths of the two
/// entry lanes it indexes: it starts at 0, never decreases, and ends at
/// the entry count, and the lanes are parallel.
pub(crate) fn check_offsets(
    offsets: &[u64],
    hubs: usize,
    dists: usize,
) -> Result<(), FlatLayoutError> {
    if offsets.is_empty() {
        return Err(FlatLayoutError::EmptyOffsets);
    }
    if offsets[0] != 0 {
        return Err(FlatLayoutError::FirstOffsetNonZero(offsets[0]));
    }
    if hubs != dists {
        return Err(FlatLayoutError::UnparallelArrays { hubs, dists });
    }
    let num_nodes = offsets.len() - 1;
    if offsets[num_nodes] != hubs as u64 {
        return Err(FlatLayoutError::FinalOffsetMismatch {
            final_offset: offsets[num_nodes],
            entries: hubs,
        });
    }
    // Full monotonicity pass *before* any caller slices a lane: only the
    // complete chain (together with offsets[0] == 0 and the final-offset
    // check) bounds every intermediate offset by the entry count — a
    // single huge offsets[v] would otherwise slice out of range.
    for v in 0..num_nodes {
        if offsets[v] > offsets[v + 1] {
            return Err(FlatLayoutError::NonMonotoneOffsets { vertex: v });
        }
    }
    Ok(())
}

/// The entry range vertex `v` owns in both lanes.
pub(crate) fn span_of(offsets: &[u64], v: NodeId) -> std::ops::Range<usize> {
    offsets[v as usize] as usize..offsets[v as usize + 1] as usize
}

/// Every vertex's entry range, in vertex order.
pub(crate) fn spans(offsets: &[u64]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    offsets.windows(2).map(|w| w[0] as usize..w[1] as usize)
}

/// A complete hub labeling in a single CSR arena: three flat arrays
/// instead of two heap vectors per vertex. Immutable once built — grow it
/// with [`FlatLabeling::push_label`] (vertices append in id order), or
/// build it whole with [`FlatLabeling::from_pair_lists`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatLabeling {
    /// `num_nodes + 1` entry offsets; vertex `v` owns `offsets[v]..offsets[v+1]`.
    offsets: Vec<u64>,
    /// All hub ids, per-vertex runs sorted by hub id.
    hubs: Vec<NodeId>,
    /// All distances, aligned with `hubs`, narrowed to `u32` on entry.
    dists: Vec<u32>,
}

impl Default for FlatLabeling {
    fn default() -> Self {
        FlatLabeling::new()
    }
}

impl FlatLabeling {
    /// Arena bytes per `(hub, distance)` entry: a `u32` hub id plus a
    /// `u32` distance.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<NodeId>() + std::mem::size_of::<u32>();

    /// An empty arena with zero vertices; grow it with
    /// [`FlatLabeling::push_label`].
    pub fn new() -> Self {
        FlatLabeling::with_capacity(0, 0)
    }

    /// An empty arena with room for `nodes` vertices and `entries` total
    /// hubs, so a decode loop never reallocates.
    pub fn with_capacity(nodes: usize, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        FlatLabeling {
            offsets,
            hubs: Vec::with_capacity(entries),
            dists: Vec::with_capacity(entries),
        }
    }

    /// Appends the label of the next vertex (vertex ids are assigned in
    /// call order). `hubs` must be strictly increasing (checked in debug
    /// builds) and the slices equally long.
    ///
    /// # Panics
    ///
    /// Panics if `hubs` and `dists` differ in length.
    pub fn push_label(&mut self, hubs: &[NodeId], dists: &[u32]) {
        assert_eq!(
            hubs.len(),
            dists.len(),
            "hub and distance slices must be parallel"
        );
        debug_assert!(hubs.windows(2).all(|w| w[0] < w[1]));
        self.hubs.extend_from_slice(hubs);
        self.dists.extend_from_slice(dists);
        self.offsets.push(self.hubs.len() as u64);
    }

    /// Assembles an arena directly from its three raw arrays, validating
    /// every structural invariant the accessors and the merge-join rely
    /// on: `offsets` starts at 0, never decreases, and ends at the entry
    /// count; `hubs` and `dists` are parallel; each vertex's hub run is
    /// strictly increasing with every hub id `< num_nodes`.
    ///
    /// This is the trust boundary for deserializers (the HLBS v2 store
    /// body *is* these three arrays): a malformed triple comes back as a
    /// typed [`FlatLayoutError`], never a panic in a later accessor.
    pub fn from_raw_parts(
        offsets: Vec<u64>,
        hubs: Vec<NodeId>,
        dists: Vec<u32>,
    ) -> Result<Self, FlatLayoutError> {
        check_offsets(&offsets, hubs.len(), dists.len())?;
        let num_nodes = offsets.len() - 1;
        for (v, span) in spans(&offsets).enumerate() {
            let run = &hubs[span];
            // Branch-free accumulation instead of an early-exit scan:
            // `fold` with `&` lets the comparison loop vectorize, and on
            // a hundred-million-entry arena (every v2 store load takes
            // this path) that is the difference between a memory-speed
            // pass and a per-element branch chain. Errors stay per-run
            // precise because the fold is per vertex.
            let sorted = run
                .iter()
                .zip(run.iter().skip(1))
                .fold(true, |ok, (a, b)| ok & (a < b));
            if !sorted {
                return Err(FlatLayoutError::UnsortedHubs { vertex: v });
            }
            if let Some(&last) = run.last() {
                // Runs are strictly increasing, so checking the largest
                // hub covers the whole run.
                if last as usize >= num_nodes {
                    return Err(FlatLayoutError::HubOutOfRange {
                        vertex: v,
                        hub: last,
                    });
                }
            }
        }
        Ok(FlatLabeling {
            offsets,
            hubs,
            dists,
        })
    }

    /// The raw offset array: `num_nodes + 1` entries, vertex `v` owns
    /// `offsets[v]..offsets[v+1]` of [`FlatLabeling::raw_hubs`].
    pub fn raw_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw hub-id array, all per-vertex runs back to back.
    pub fn raw_hubs(&self) -> &[NodeId] {
        &self.hubs
    }

    /// The raw distance array, aligned with [`FlatLabeling::raw_hubs`].
    pub fn raw_dists(&self) -> &[u32] {
        &self.dists
    }

    /// Builds the arena from one `(hub, distance)` list per vertex, each
    /// in any order; a hub listed twice keeps its minimum distance. The
    /// one place labels are sorted, deduplicated and narrowed — what every
    /// construction ends with.
    ///
    /// # Errors
    ///
    /// [`FlatLayoutError::DistanceTooWide`] when a kept distance exceeds
    /// `u32::MAX`.
    pub fn from_pair_lists(lists: Vec<Vec<(NodeId, Distance)>>) -> Result<Self, FlatLayoutError> {
        let entries = lists.iter().map(Vec::len).sum();
        let mut flat = FlatLabeling::with_capacity(lists.len(), entries);
        for mut pairs in lists {
            flat.push_pairs(&mut pairs)?;
        }
        Ok(flat)
    }

    /// [`FlatLabeling::from_pair_lists`] for one vertex: sorts and
    /// deduplicates `pairs` in place and appends them as the next label.
    ///
    /// # Errors
    ///
    /// [`FlatLayoutError::DistanceTooWide`] when a kept distance exceeds
    /// `u32::MAX`; the arena is left as it was.
    pub fn push_pairs(
        &mut self,
        pairs: &mut Vec<(NodeId, Distance)>,
    ) -> Result<(), FlatLayoutError> {
        pairs.sort_unstable();
        pairs.dedup_by(|next, kept| next.0 == kept.0);
        if let Some(&(_, distance)) = pairs.iter().find(|&&(_, d)| u32::try_from(d).is_err()) {
            return Err(FlatLayoutError::DistanceTooWide {
                vertex: self.num_nodes(),
                distance,
            });
        }
        self.hubs.extend(pairs.iter().map(|&(h, _)| h));
        self.dists.extend(pairs.iter().map(|&(_, d)| d as u32));
        self.offsets.push(self.hubs.len() as u64);
        Ok(())
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of `(hub, distance)` entries in the arena, `Σ_v |S_v|`.
    pub fn num_entries(&self) -> usize {
        self.hubs.len()
    }

    fn span(&self, v: NodeId) -> std::ops::Range<usize> {
        span_of(&self.offsets, v)
    }

    /// The sorted hub ids of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn hubs_of(&self, v: NodeId) -> &[NodeId] {
        &self.hubs[self.span(v)]
    }

    /// The distances of vertex `v`, aligned with [`FlatLabeling::hubs_of`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn dists_of(&self, v: NodeId) -> &[u32] {
        &self.dists[self.span(v)]
    }

    /// Iterates over vertex `v`'s `(hub, distance)` pairs in increasing
    /// hub order, distances widened back to [`Distance`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn pairs_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Distance)> + '_ {
        let span = self.span(v);
        self.hubs[span.clone()]
            .iter()
            .copied()
            .zip(self.dists[span].iter().map(|&d| Distance::from(d)))
    }

    /// Answers the distance query `u, v` via the merge-join of the two
    /// label slices. Returns [`hl_graph::INFINITY`] when the labels share
    /// no hub.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn query(&self, u: NodeId, v: NodeId) -> Distance {
        LabelingView::query(self, u, v)
    }

    /// Like [`FlatLabeling::query`] but also reports the hub realizing
    /// the minimum.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn query_with_witness(&self, u: NodeId, v: NodeId) -> Option<(Distance, NodeId)> {
        LabelingView::query_with_witness(self, u, v)
    }

    /// Total number of hubs over all vertices (same as
    /// [`FlatLabeling::num_entries`]; named for parity with
    /// [`LabelingView::total_hubs`]).
    pub fn total_hubs(&self) -> usize {
        self.num_entries()
    }

    /// Average hubs per vertex, `Σ_v |S_v| / n`.
    pub fn average_hubs(&self) -> f64 {
        match self.num_nodes() {
            0 => 0.0,
            n => self.num_entries() as f64 / n as f64,
        }
    }

    /// Largest label size.
    pub fn max_hubs(&self) -> usize {
        spans(&self.offsets).map(|run| run.len()).max().unwrap_or(0)
    }

    /// Heap footprint of the three arena arrays, in bytes: 8 per offset,
    /// [`FlatLabeling::ENTRY_BYTES`] (4 + 4) per entry — the same
    /// accounting as [`hl_graph::Graph::memory_bytes`] for the adjacency
    /// CSR, so store-size claims are comparable across both structures.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.hubs.len() * std::mem::size_of::<NodeId>()
            + self.dists.len() * std::mem::size_of::<u32>()
    }
}

impl LabelingView for FlatLabeling {
    fn num_nodes(&self) -> usize {
        FlatLabeling::num_nodes(self)
    }

    fn hubs_of(&self, v: NodeId) -> &[NodeId] {
        FlatLabeling::hubs_of(self, v)
    }

    fn dists_of(&self, v: NodeId) -> &[u32] {
        FlatLabeling::dists_of(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_graph::INFINITY;

    fn sample() -> FlatLabeling {
        // vertex 2 keeps an empty label on purpose
        FlatLabeling::from_pair_lists(vec![
            vec![(0, 0), (2, 3)],
            vec![(1, 0)],
            vec![],
            vec![(2, 1), (3, 0)],
        ])
        .unwrap()
    }

    #[test]
    fn from_pair_lists_sorts_and_keeps_the_minimum_of_a_duplicate_hub() {
        let flat =
            FlatLabeling::from_pair_lists(vec![vec![(5, 1), (2, 9), (5, 3), (2, 4)]]).unwrap();
        assert_eq!(flat.hubs_of(0), &[2, 5]);
        assert_eq!(flat.dists_of(0), &[4, 1]);
        assert_eq!(flat.num_entries(), 2);
    }

    #[test]
    fn from_pair_lists_keeps_empty_labels_and_vertex_order() {
        let flat =
            FlatLabeling::from_pair_lists(vec![vec![], vec![(1, 0), (0, 4)], vec![]]).unwrap();
        assert_eq!(flat.num_nodes(), 3);
        assert_eq!(flat.raw_offsets(), &[0, 0, 2, 2]);
        assert_eq!(flat.pairs_of(1).collect::<Vec<_>>(), vec![(0, 4), (1, 0)]);
        assert_eq!(flat.query(0, 0), INFINITY);
        assert_eq!(
            FlatLabeling::from_pair_lists(Vec::new()),
            Ok(FlatLabeling::new())
        );
    }

    #[test]
    fn from_pair_lists_narrows_at_the_u32_boundary() {
        // The lane holds u32::MAX exactly and widens it back unchanged...
        let max = Distance::from(u32::MAX);
        let flat = FlatLabeling::from_pair_lists(vec![vec![(0, max)], vec![(0, 0)]]).unwrap();
        assert_eq!(flat.raw_dists(), &[u32::MAX, 0]);
        assert_eq!(flat.pairs_of(0).collect::<Vec<_>>(), vec![(0, max)]);
        assert_eq!(flat.query(0, 1), max);
        // ...and one more is a typed error naming the vertex, whether it
        // arrives whole or label by label; INFINITY is too wide as well.
        for distance in [max + 1, INFINITY] {
            let lists = vec![vec![(0, 0)], vec![(1, 0), (0, distance)]];
            let want = FlatLayoutError::DistanceTooWide {
                vertex: 1,
                distance,
            };
            assert_eq!(FlatLabeling::from_pair_lists(lists), Err(want.clone()));
            assert_eq!(
                GraphError::from(want),
                GraphError::DistanceOverflow { distance }
            );
        }
        let mut flat = FlatLabeling::new();
        assert!(flat.push_pairs(&mut vec![(0, max + 1)]).is_err());
        assert_eq!(
            flat,
            FlatLabeling::new(),
            "a rejected label leaves no trace"
        );
        // A duplicate hub keeps its minimum before the width check.
        let flat = FlatLabeling::from_pair_lists(vec![vec![(0, max + 1), (0, 7)]]).unwrap();
        assert_eq!(flat.dists_of(0), &[7]);
    }

    #[test]
    fn queries_join_the_two_runs() {
        let flat = sample();
        assert_eq!(flat.query(0, 3), 4); // via shared hub 2
        assert_eq!(flat.query(3, 0), 4);
        assert_eq!(flat.query_with_witness(0, 3), Some((4, 2)));
        assert_eq!(flat.query(1, 3), INFINITY);
        assert_eq!(flat.query_with_witness(1, 3), None);
    }

    #[test]
    fn accessors_and_stats() {
        let flat = sample();
        assert_eq!(flat.num_nodes(), 4);
        assert_eq!(flat.num_entries(), 5);
        assert_eq!(flat.total_hubs(), 5);
        assert_eq!(flat.max_hubs(), 2);
        assert!((flat.average_hubs() - 1.25).abs() < 1e-12);
        assert_eq!(flat.hubs_of(0), &[0, 2]);
        assert_eq!(flat.dists_of(0), &[0, 3]);
        assert!(flat.hubs_of(2).is_empty());
        assert_eq!(flat.pairs_of(3).collect::<Vec<_>>(), vec![(2, 1), (3, 0)]);
        // 8 bytes an entry (u32 hub + u32 distance), 8 per offset.
        assert_eq!(FlatLabeling::ENTRY_BYTES, 8);
        assert_eq!(flat.heap_bytes(), 5 * 8 + 5 * 8);
    }

    #[test]
    fn push_label_builds_incrementally() {
        let mut flat = FlatLabeling::with_capacity(3, 4);
        flat.push_label(&[0, 1], &[0, 2]);
        flat.push_label(&[], &[]);
        flat.push_label(&[1], &[0]);
        assert_eq!(flat.num_nodes(), 3);
        assert_eq!(flat.num_entries(), 3);
        assert_eq!(flat.query(0, 2), 2);
        let lists = vec![vec![(1, 2), (0, 0)], vec![], vec![(1, 0)]];
        assert_eq!(Ok(flat), FlatLabeling::from_pair_lists(lists));
    }

    #[test]
    #[should_panic]
    fn push_label_rejects_mismatched_slices() {
        let mut flat = FlatLabeling::new();
        flat.push_label(&[0, 1], &[0]);
    }

    #[test]
    fn empty_and_default() {
        let flat = FlatLabeling::default();
        assert_eq!(flat.num_nodes(), 0);
        assert_eq!(flat.num_entries(), 0);
        assert_eq!(flat.heap_bytes(), std::mem::size_of::<u64>());
        assert_eq!(flat.max_hubs(), 0);
        assert_eq!(flat.average_hubs(), 0.0);
    }

    #[test]
    fn from_raw_parts_accepts_valid_arena() {
        let flat = sample();
        let rebuilt = FlatLabeling::from_raw_parts(
            flat.raw_offsets().to_vec(),
            flat.raw_hubs().to_vec(),
            flat.raw_dists().to_vec(),
        )
        .expect("valid arena");
        assert_eq!(rebuilt, flat);
        // The zero-vertex arena is valid too.
        let empty = FlatLabeling::from_raw_parts(vec![0], vec![], vec![]).expect("empty arena");
        assert_eq!(empty.num_nodes(), 0);
    }

    #[test]
    fn from_raw_parts_rejects_malformed_arenas() {
        use FlatLayoutError as E;
        let err = |o: Vec<u64>, h: Vec<NodeId>, d: Vec<u32>| {
            FlatLabeling::from_raw_parts(o, h, d).expect_err("must reject")
        };
        assert_eq!(err(vec![], vec![], vec![]), E::EmptyOffsets);
        assert_eq!(err(vec![1, 1], vec![0], vec![0]), E::FirstOffsetNonZero(1));
        assert_eq!(
            err(vec![0, 1], vec![0, 1], vec![0]),
            E::UnparallelArrays { hubs: 2, dists: 1 }
        );
        assert_eq!(
            err(vec![0, 2], vec![0], vec![0]),
            E::FinalOffsetMismatch {
                final_offset: 2,
                entries: 1
            }
        );
        assert_eq!(
            err(vec![0, 2, 1, 3], vec![0, 1, 2], vec![0, 0, 0]),
            E::NonMonotoneOffsets { vertex: 1 }
        );
        assert_eq!(
            err(vec![0, 2], vec![1, 1], vec![0, 0]),
            E::UnsortedHubs { vertex: 0 }
        );
        assert_eq!(
            err(vec![0, 1, 2], vec![0, 7], vec![0, 0]),
            E::HubOutOfRange { vertex: 1, hub: 7 }
        );
        // Errors render without panicking.
        assert!(!format!("{}", E::EmptyOffsets).is_empty());
        let wide = E::DistanceTooWide {
            vertex: 3,
            distance: 1 << 32,
        };
        assert!(format!("{wide}").contains("u32"));
    }

    #[test]
    fn view_trait_agrees_with_inherent_api() {
        fn via_view<L: LabelingView>(l: &L) -> (Distance, usize, usize, f64) {
            (
                l.query(0, 3),
                l.total_hubs(),
                l.max_hubs(),
                l.average_hubs(),
            )
        }
        let flat = sample();
        let (d, total, max, avg) = via_view(&flat);
        assert_eq!(d, flat.query(0, 3));
        assert_eq!(total, flat.total_hubs());
        assert_eq!(max, flat.max_hubs());
        assert!((avg - flat.average_hubs()).abs() < 1e-12);
    }
}
