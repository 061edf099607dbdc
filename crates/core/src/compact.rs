//! `CompactLabeling` — the byte-tuned CSR lanes of the HLBS v2c store
//! flavor: a storage codec, not a served arena.
//!
//! [`crate::flat::FlatLabeling`] spends 8 bytes per entry (u32 hub +
//! u32 distance); these lanes narrow both:
//!
//! * **distances** are stored as `u16` when every distance in the arena
//!   fits, `u32` (the flat lane's own width) otherwise;
//! * **hub ids** are delta-coded within each per-vertex sorted run (the
//!   first entry is the absolute id, every later entry the gap to its
//!   predecessor); deltas are `u16` when every gap in the arena fits,
//!   `u32` otherwise.
//!
//! Best case (`u16`+`u16`) is 4 bytes per entry, half the flat arena's;
//! worst case (`u32`+`u32`) is the flat arena's 8. Conversion to and from the flat
//! arena is lossless: a v2c store mounts by validating these lanes
//! ([`CompactLabeling::from_raw_parts`]) and expanding them
//! ([`CompactLabeling::to_flat`]). [`CompactLabeling::query`] joins the
//! lanes directly, decoding deltas on the fly; it is slower than the flat
//! join on every benchmarked store, which is why nothing serves it.
//!
//! # Example
//!
//! ```
//! use hl_graph::generators;
//! use hl_core::pll::PrunedLandmarkLabeling;
//! use hl_core::{CompactLabeling, FlatLabeling};
//!
//! let g = generators::grid(4, 4);
//! let flat: FlatLabeling = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
//! let Ok(compact) = CompactLabeling::from_flat(&flat);
//! assert_eq!(compact.query(0, 15), flat.query(0, 15));
//! assert_eq!(compact.to_flat(), flat);
//! assert!(compact.heap_bytes() < flat.heap_bytes());
//! ```
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use std::convert::Infallible;

use hl_graph::{Distance, NodeId, INFINITY};

use crate::flat::{check_offsets, span_of, spans, FlatLabeling, FlatLayoutError};
use crate::label::warm_hub_lanes;

/// One compact entry lane at its labeling-wide width: 2 bytes
/// per entry when every value in the lane fits 16 bits, 4 otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NarrowLane {
    /// Every value in the lane fits 16 bits.
    U16(Vec<u16>),
    /// The general case: 32-bit values.
    U32(Vec<u32>),
}

/// The delta-coded hub lane (each run's first entry is its absolute id).
pub type HubDeltas = NarrowLane;
/// The distance lane.
pub type CompactDists = NarrowLane;

impl NarrowLane {
    /// Number of entries in the lane.
    pub fn len(&self) -> usize {
        match self {
            NarrowLane::U16(v) => v.len(),
            NarrowLane::U32(v) => v.len(),
        }
    }

    /// `true` when the lane holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per entry: 2 or 4.
    pub fn entry_bytes(&self) -> usize {
        match self {
            NarrowLane::U16(_) => 2,
            NarrowLane::U32(_) => 4,
        }
    }

    fn get(&self, i: usize) -> u32 {
        match self {
            NarrowLane::U16(v) => u32::from(v[i]),
            NarrowLane::U32(v) => v[i],
        }
    }
}

/// A complete hub labeling in the compact CSR arena: `u64` offsets plus
/// the two narrow lanes. Immutable once built; convert from a
/// [`FlatLabeling`] (width selection happens there) or assemble from raw
/// lanes with full validation via [`CompactLabeling::from_raw_parts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactLabeling {
    /// `num_nodes + 1` entry offsets; vertex `v` owns `offsets[v]..offsets[v+1]`.
    offsets: Vec<u64>,
    /// Delta-coded hub ids, per-vertex runs.
    hubs: HubDeltas,
    /// Distances, aligned with `hubs`.
    dists: CompactDists,
}

impl CompactLabeling {
    /// Compacts a flat arena, choosing the narrowest widths that hold
    /// every value. Lossless: [`CompactLabeling::to_flat`] reproduces the
    /// input exactly. Cannot fail — the flat lane is already `u32`, the
    /// widest compact lane; `Result` because the frozen `benchmark/`
    /// compiles against it.
    pub fn from_flat(flat: &FlatLabeling) -> Result<Self, Infallible> {
        let offsets = flat.raw_offsets().to_vec();
        let hubs = flat.raw_hubs();
        let dists = flat.raw_dists();

        let mut max_delta: NodeId = 0;
        for run in spans(&offsets) {
            let mut prev: NodeId = 0;
            for &h in &hubs[run] {
                // First entry of a run is its absolute id (delta from 0).
                max_delta = max_delta.max(h - prev);
                prev = h;
            }
        }
        let max_dist = dists.iter().copied().max().unwrap_or(0);

        #[expect(
            clippy::cast_possible_truncation,
            reason = "the u16 branch runs only when every delta is at most u16::MAX"
        )]
        let hub_lane = if max_delta > u16::MAX as NodeId {
            NarrowLane::U32(delta_code(&offsets, hubs, |delta| delta))
        } else {
            NarrowLane::U16(delta_code(&offsets, hubs, |delta| delta as u16))
        };
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the u16 branch runs only when every distance is at most u16::MAX"
        )]
        let dist_lane = if max_dist > u32::from(u16::MAX) {
            NarrowLane::U32(dists.to_vec())
        } else {
            NarrowLane::U16(dists.iter().map(|&d| d as u16).collect())
        };
        Ok(CompactLabeling {
            offsets,
            hubs: hub_lane,
            dists: dist_lane,
        })
    }

    /// Assembles an arena from raw lanes, validating every invariant the
    /// query loop relies on — the trust boundary for deserializers (the
    /// HLBS v2 compact flavor's body *is* these three lanes): offsets
    /// start at 0, never decrease, and end at the entry count; lanes are
    /// parallel; each run's decoded hub ids are strictly increasing
    /// (every delta after a run's first entry is nonzero) and in range.
    /// Accumulation happens in `u64`, so a crafted delta stream cannot
    /// wrap the id space undetected.
    pub fn from_raw_parts(
        offsets: Vec<u64>,
        hubs: HubDeltas,
        dists: CompactDists,
    ) -> Result<Self, FlatLayoutError> {
        check_offsets(&offsets, hubs.len(), dists.len())?;
        // Width dispatch outside the scan: every v2c mount walks the whole
        // lane here, so the loop is monomorphized, not matched per entry.
        match &hubs {
            NarrowLane::U16(h) => check_delta_runs(&offsets, h),
            NarrowLane::U32(h) => check_delta_runs(&offsets, h),
        }?;
        Ok(CompactLabeling {
            offsets,
            hubs,
            dists,
        })
    }

    /// Expands back into the flat arena (exact inverse of
    /// [`CompactLabeling::from_flat`]): both narrow lanes copy straight
    /// into the arena's `u32` lanes.
    pub fn to_flat(&self) -> FlatLabeling {
        let mut flat = FlatLabeling::with_capacity(self.num_nodes(), self.num_entries());
        let (mut hubs, mut dists) = (Vec::new(), Vec::new());
        for run in spans(&self.offsets) {
            hubs.clear();
            dists.clear();
            let mut acc: NodeId = 0;
            for k in run {
                acc += self.hubs.get(k);
                hubs.push(acc);
                dists.push(self.dists.get(k));
            }
            flat.push_label(&hubs, &dists);
        }
        flat
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total `(hub, distance)` entries in the arena, `Σ_v |S_v|`.
    pub fn num_entries(&self) -> usize {
        self.hubs.len()
    }

    /// The raw offset array.
    pub fn raw_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The delta-coded hub lane.
    pub fn raw_hubs(&self) -> &HubDeltas {
        &self.hubs
    }

    /// The distance lane.
    pub fn raw_dists(&self) -> &CompactDists {
        &self.dists
    }

    /// Bytes per hub entry in this arena (2 or 4).
    pub fn hub_entry_bytes(&self) -> usize {
        self.hubs.entry_bytes()
    }

    /// Bytes per distance entry in this arena (2 or 4).
    pub fn dist_entry_bytes(&self) -> usize {
        self.dists.entry_bytes()
    }

    /// Heap footprint of the three lanes, in bytes — *exact*, by length:
    /// there are no side tables in this encoding, so the accounting is
    /// `offsets + entries × (hub width + dist width)` and nothing else.
    /// Comparable with [`FlatLabeling::heap_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.hubs.len() * self.hubs.entry_bytes()
            + self.dists.len() * self.dists.entry_bytes()
    }

    fn span(&self, v: NodeId) -> std::ops::Range<usize> {
        span_of(&self.offsets, v)
    }

    /// Answers the distance query `u, v` by merge-joining the two runs,
    /// decoding hub deltas on the fly — the one place the arena-wide lane
    /// widths pick their monomorphized kernel. Returns [`INFINITY`] when
    /// the labels share no hub, as [`crate::label::merge_join`] does.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn query(&self, u: NodeId, v: NodeId) -> Distance {
        let (ra, rb) = (self.span(u), self.span(v));
        match (&self.hubs, &self.dists) {
            (NarrowLane::U16(h), NarrowLane::U16(d)) => {
                join_delta_runs(&h[ra.clone()], &d[ra], &h[rb.clone()], &d[rb])
            }
            (NarrowLane::U16(h), NarrowLane::U32(d)) => {
                join_delta_runs(&h[ra.clone()], &d[ra], &h[rb.clone()], &d[rb])
            }
            (NarrowLane::U32(h), NarrowLane::U16(d)) => {
                join_delta_runs(&h[ra.clone()], &d[ra], &h[rb.clone()], &d[rb])
            }
            (NarrowLane::U32(h), NarrowLane::U32(d)) => {
                join_delta_runs(&h[ra.clone()], &d[ra], &h[rb.clone()], &d[rb])
            }
        }
    }
}

/// The per-run half of [`CompactLabeling::from_raw_parts`]: decoded hub
/// ids strictly increase within a run and stay below the vertex count.
fn check_delta_runs<H: Copy>(offsets: &[u64], hubs: &[H]) -> Result<(), FlatLayoutError>
where
    u64: From<H>,
{
    let num_nodes = (offsets.len() - 1) as u64;
    for (v, run) in spans(offsets).enumerate() {
        let mut acc: u64 = 0;
        for (k, &delta) in hubs[run].iter().enumerate() {
            if k > 0 && u64::from(delta) == 0 {
                // A zero gap decodes to a duplicate hub id.
                return Err(FlatLayoutError::UnsortedHubs { vertex: v });
            }
            acc += u64::from(delta);
            if acc >= num_nodes {
                return Err(FlatLayoutError::HubOutOfRange {
                    vertex: v,
                    hub: NodeId::try_from(acc).unwrap_or(NodeId::MAX),
                });
            }
        }
    }
    Ok(())
}

/// Delta-codes every per-vertex run of `hubs` (first entry absolute, later
/// entries the gap to their predecessor) at the width `narrow` casts to.
fn delta_code<T>(offsets: &[u64], hubs: &[NodeId], narrow: impl Fn(NodeId) -> T) -> Vec<T> {
    let mut out = Vec::with_capacity(hubs.len());
    for run in spans(offsets) {
        let mut prev: NodeId = 0;
        for &h in &hubs[run] {
            out.push(narrow(h - prev));
            prev = h;
        }
    }
    out
}

/// The delta-decoding merge-join kernel, monomorphized per lane width;
/// candidates fold by `min` from [`INFINITY`], and lane sums (at most
/// `2^33 - 2`) never reach it. Cursor movement
/// mirrors that branchless kernel, but delta-coded ids cannot be skipped
/// over, so there is no gallop; the accumulator updates are guarded
/// because advancing past the end of a run must not read (or add) a delta
/// that belongs to the next vertex.
#[inline]
fn join_delta_runs<H, D>(a_hubs: &[H], a_dists: &[D], b_hubs: &[H], b_dists: &[D]) -> Distance
where
    H: Copy,
    NodeId: From<H>,
    D: Copy,
    Distance: From<D>,
{
    let mut best = INFINITY;
    // Truncating each side to its common length lets the loop condition
    // prove every index in bounds for both lanes — no per-iteration
    // bounds checks (same trick as `crate::label::merge_join`).
    let n = a_hubs.len().min(a_dists.len());
    let m = b_hubs.len().min(b_dists.len());
    if n == 0 || m == 0 {
        return best;
    }
    let (a_hubs, a_dists) = (&a_hubs[..n], &a_dists[..n]);
    let (b_hubs, b_dists) = (&b_hubs[..m], &b_dists[..m]);
    warm_hub_lanes(a_hubs, b_hubs);
    let (mut i, mut j) = (0usize, 0usize);
    let mut ha = NodeId::from(a_hubs[0]);
    let mut hb = NodeId::from(b_hubs[0]);
    loop {
        // No branch on the hub match: a mismatch offers the sentinel,
        // which never takes.
        let d = Distance::from(a_dists[i]) + Distance::from(b_dists[j]);
        let candidate = if ha == hb { d } else { INFINITY };
        best = best.min(candidate);
        let adv_a = ha <= hb;
        let adv_b = hb <= ha;
        i += adv_a as usize;
        j += adv_b as usize;
        if i >= n || j >= m {
            break;
        }
        if adv_a {
            ha += NodeId::from(a_hubs[i]);
        }
        if adv_b {
            hb += NodeId::from(b_hubs[j]);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    fn sample_flat() -> FlatLabeling {
        let g = generators::grid(5, 5);
        PrunedLandmarkLabeling::by_degree(&g).into_labeling()
    }

    #[test]
    fn roundtrip_is_lossless_and_narrow() {
        let flat = sample_flat();
        let Ok(compact) = CompactLabeling::from_flat(&flat);
        assert_eq!(compact.to_flat(), flat);
        assert_eq!(compact.num_nodes(), flat.num_nodes());
        assert_eq!(compact.num_entries(), flat.num_entries());
        // A 25-vertex grid has tiny ids and tiny distances: both lanes u16.
        assert_eq!(compact.hub_entry_bytes(), 2);
        assert_eq!(compact.dist_entry_bytes(), 2);
        assert!(compact.heap_bytes() < flat.heap_bytes());
    }

    #[test]
    fn queries_match_flat_exactly() {
        let flat = sample_flat();
        let Ok(compact) = CompactLabeling::from_flat(&flat);
        let n = flat.num_nodes() as NodeId;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(compact.query(u, v), flat.query(u, v), "d({u},{v})");
            }
        }
    }

    #[test]
    fn wide_values_select_wide_lanes() {
        // Distances above u16::MAX force the u32 distance lane; a hub gap
        // above u16::MAX forces the u32 hub lane.
        let mut lists = vec![Vec::new(); 200_000];
        lists[0] = vec![(0, 0), (70_000, 1 << 20)];
        lists[70_000] = vec![(70_000, 0)];
        let flat = FlatLabeling::from_pair_lists(lists).unwrap();
        let Ok(compact) = CompactLabeling::from_flat(&flat);
        assert_eq!(compact.hub_entry_bytes(), 4);
        assert_eq!(compact.dist_entry_bytes(), 4);
        assert_eq!(compact.query(0, 70_000), 1 << 20);
        assert_eq!(compact.to_flat(), flat);
    }

    #[test]
    fn lane_sums_and_sentinel_match_flat() {
        // u32-lane distances that sum past u32::MAX must still be finite
        // (the join runs in u64)...
        let flat = FlatLabeling::from_pair_lists(vec![vec![(1, u32::MAX as u64)]; 2]).unwrap();
        let Ok(compact) = CompactLabeling::from_flat(&flat);
        assert_eq!(compact.query(0, 1), 2 * (u32::MAX as u64));
        // ...and disjoint hub sets (or an empty label) read as unreachable.
        let flat = FlatLabeling::from_pair_lists(vec![vec![(0, 0)], vec![], vec![(2, 0)]]).unwrap();
        let Ok(compact) = CompactLabeling::from_flat(&flat);
        assert_eq!(compact.query(0, 2), INFINITY);
        assert_eq!(compact.query(0, 1), INFINITY);
    }

    #[test]
    fn from_raw_parts_accepts_own_lanes() {
        let flat = sample_flat();
        let Ok(compact) = CompactLabeling::from_flat(&flat);
        let rebuilt = CompactLabeling::from_raw_parts(
            compact.raw_offsets().to_vec(),
            compact.raw_hubs().clone(),
            compact.raw_dists().clone(),
        )
        .expect("own lanes must validate");
        assert_eq!(rebuilt, compact);
        let empty = CompactLabeling::from_raw_parts(
            vec![0],
            HubDeltas::U16(vec![]),
            CompactDists::U16(vec![]),
        )
        .expect("empty arena");
        assert_eq!(empty.num_nodes(), 0);
        assert_eq!(empty.heap_bytes(), 8);
    }

    #[test]
    fn from_raw_parts_rejects_malformed_lanes() {
        use FlatLayoutError as E;
        let err = |o: Vec<u64>, h: HubDeltas, d: CompactDists| {
            CompactLabeling::from_raw_parts(o, h, d).expect_err("must reject")
        };
        assert_eq!(
            err(vec![], HubDeltas::U16(vec![]), CompactDists::U16(vec![])),
            E::EmptyOffsets
        );
        assert_eq!(
            err(
                vec![1, 1],
                HubDeltas::U16(vec![0]),
                CompactDists::U16(vec![0])
            ),
            E::FirstOffsetNonZero(1)
        );
        assert_eq!(
            err(
                vec![0, 2],
                HubDeltas::U16(vec![0, 1]),
                CompactDists::U16(vec![0])
            ),
            E::UnparallelArrays { hubs: 2, dists: 1 }
        );
        assert_eq!(
            err(
                vec![0, 2],
                HubDeltas::U16(vec![0]),
                CompactDists::U16(vec![0])
            ),
            E::FinalOffsetMismatch {
                final_offset: 2,
                entries: 1
            }
        );
        assert_eq!(
            err(
                vec![0, 2, 1, 3],
                HubDeltas::U16(vec![0, 1, 1]),
                CompactDists::U16(vec![0, 0, 0])
            ),
            E::NonMonotoneOffsets { vertex: 1 }
        );
        // Zero delta after a run's first entry = duplicate hub.
        assert_eq!(
            err(
                vec![0, 2, 2],
                HubDeltas::U16(vec![1, 0]),
                CompactDists::U16(vec![0, 0])
            ),
            E::UnsortedHubs { vertex: 0 }
        );
        // Accumulated id walks out of the vertex range.
        assert_eq!(
            err(
                vec![0, 2],
                HubDeltas::U16(vec![0, 9]),
                CompactDists::U16(vec![0, 0])
            ),
            E::HubOutOfRange { vertex: 0, hub: 9 }
        );
    }

    #[test]
    fn heap_bytes_is_exact_by_lane_width() {
        let flat = sample_flat();
        let Ok(compact) = CompactLabeling::from_flat(&flat);
        let e = compact.num_entries();
        let expect = (compact.num_nodes() + 1) * 8
            + e * compact.hub_entry_bytes()
            + e * compact.dist_entry_bytes();
        assert_eq!(compact.heap_bytes(), expect);
    }
}
