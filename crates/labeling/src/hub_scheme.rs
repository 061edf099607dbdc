//! Hub labelings encoded as bit labels — the "hubsets → distance labels"
//! step the paper calls out ("such constructions usually involve some form
//! of compression and/or encoding of all distances from a vertex to its
//! hubs").
//!
//! Format per label: γ(k+1) hub count, then `k` hub ids (first id γ-coded
//! +1, rest gap-coded), then `k` distances (γ-coded +1). Two labels decode
//! a distance by a sorted merge on hub ids — no graph access needed.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use std::fmt;

use hl_graph::{Distance, Graph, GraphError, NodeId};

use hl_core::label::merge_join;
use hl_core::pll::PrunedLandmarkLabeling;
use hl_core::{FlatLabeling, LabelingView};

use crate::bits::{BitReader, BitWriter};
use crate::scheme::{BitLabel, DistanceLabelingScheme};

/// Writes the hub-id half of a label, the one spelling every γ layout
/// shares: γ(k+1) count, first id γ-coded +1, the rest as γ-coded gaps.
pub(crate) fn write_hub_ids(w: &mut BitWriter, hubs: &[NodeId]) {
    w.write_gamma0(hubs.len() as u64);
    let mut prev: Option<NodeId> = None;
    for &h in hubs {
        match prev {
            None => w.write_gamma0(h as u64),
            Some(p) => w.write_gamma((h - p) as u64),
        }
        prev = Some(h);
    }
}

/// Reads what [`write_hub_ids`] wrote, appending the ids to `hubs` in
/// increasing order, and returns their count. Trusts its input.
pub(crate) fn read_hub_ids(r: &mut BitReader<'_>, hubs: &mut Vec<NodeId>) -> usize {
    let k = usize::try_from(r.read_gamma0()).unwrap_or(usize::MAX);
    hubs.reserve(k);
    let mut cur = 0u64;
    for i in 0..k {
        cur = if i == 0 {
            r.read_gamma0()
        } else {
            cur + r.read_gamma()
        };
        #[expect(
            clippy::cast_possible_truncation,
            reason = "trusted bits: write_hub_ids wrote a NodeId here"
        )]
        let hub = cur as NodeId;
        hubs.push(hub);
    }
    k
}

/// Encodes one hub label — its sorted hub ids and their aligned
/// distances, as a [`LabelingView`] lends them — into bits.
pub fn encode_label(hubs: &[NodeId], dists: &[u32]) -> BitLabel {
    let mut w = BitWriter::new();
    write_hub_ids(&mut w, hubs);
    for &d in dists {
        w.write_gamma0(u64::from(d));
    }
    BitLabel::new(w.into_bits())
}

/// Decodes a [`BitLabel`] back into its `(hub, distance)` pairs, in
/// increasing hub order.
pub fn decode_label(label: &BitLabel) -> Vec<(NodeId, Distance)> {
    let mut hubs = Vec::new();
    let mut dists = Vec::new();
    decode_label_append(label, &mut hubs, &mut dists);
    hubs.into_iter()
        .zip(dists.into_iter().map(Distance::from))
        .collect()
}

/// Decodes a [`BitLabel`], *appending* its `(hub, distance)` entries to
/// `hubs` and `dists` in increasing hub order (the gap coding guarantees
/// sortedness). This is the allocation-free decode path: a caller
/// assembling a [`hl_core::FlatLabeling`] arena decodes every label
/// straight into the arena's backing vectors (or a reused scratch pair)
/// without a per-vertex allocation. Distances land in the arena's `u32`
/// lane; [`encode_label`] only ever wrote `u32`s.
pub fn decode_label_append(label: &BitLabel, hubs: &mut Vec<NodeId>, dists: &mut Vec<u32>) {
    let mut r = BitReader::new(label.bits());
    let start = hubs.len();
    let k = read_hub_ids(&mut r, hubs);
    dists.reserve(k);
    for _ in 0..k {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "trusted bits: encode_label wrote a u32 here"
        )]
        let d = r.read_gamma0() as u32;
        dists.push(d);
    }
    debug_assert!(hubs[start..].windows(2).all(|w| w[0] < w[1]));
}

/// Why an untrusted bit label failed to decode.
///
/// [`decode_label_append`] trusts its input — it panics (or worse,
/// over-reserves) on bits this process did not encode itself. Anything
/// read from disk or the network goes through
/// [`try_decode_label_append`] instead, which reports one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelDecodeError {
    /// A γ code ran off the end of the bits, or encoded a value too wide
    /// for `u64`.
    BadGamma {
        /// Bit position the reader had reached.
        at_bit: usize,
    },
    /// The declared entry count cannot fit in the remaining bits (each
    /// `(hub, distance)` entry costs at least two bits), so it is a lie —
    /// rejecting it early also stops attacker-controlled allocations.
    CountTooLarge {
        /// The declared number of entries.
        count: u64,
        /// Bits left after the count, an upper bound on plausible entries.
        remaining_bits: usize,
    },
    /// Accumulated hub-id gaps overflowed the node-id space.
    HubOverflow,
    /// A distance exceeds `u32::MAX`, the width of the arena's distance
    /// lane the label decodes into.
    DistanceTooWide(u64),
    /// Bits were left over after the declared entries — a valid label
    /// consumes its bit length exactly.
    TrailingBits(usize),
}

impl fmt::Display for LabelDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelDecodeError::BadGamma { at_bit } => {
                write!(f, "malformed gamma code at bit {at_bit}")
            }
            LabelDecodeError::CountTooLarge {
                count,
                remaining_bits,
            } => {
                write!(
                    f,
                    "declared {count} entries but only {remaining_bits} bits remain"
                )
            }
            LabelDecodeError::HubOverflow => write!(f, "hub id gaps overflow the node-id space"),
            LabelDecodeError::DistanceTooWide(d) => {
                write!(f, "distance {d} exceeds the u32 distance lane")
            }
            LabelDecodeError::TrailingBits(n) => {
                write!(f, "{n} trailing bits after the last entry")
            }
        }
    }
}

impl std::error::Error for LabelDecodeError {}

/// Checked variant of [`decode_label_append`] for *untrusted* bits (label
/// stores on disk, frames off the wire), read through `bits` — a
/// [`BitReader::from_bytes`] view decodes a label in place, without
/// copying it out of the file buffer: every read is bounds-checked,
/// the entry count is validated against the remaining bits before any
/// allocation, hub-id accumulation is overflow-checked, every distance
/// must fit the `u32` lane, and the label must consume its bits exactly.
/// On error, `hubs` and `dists` are truncated back to their input
/// lengths.
pub fn try_decode_label_append(
    bits: BitReader<'_>,
    hubs: &mut Vec<NodeId>,
    dists: &mut Vec<u32>,
) -> Result<(), LabelDecodeError> {
    let start_hubs = hubs.len();
    let start_dists = dists.len();
    let result = try_decode_label_inner(bits, hubs, dists);
    if result.is_err() {
        hubs.truncate(start_hubs);
        dists.truncate(start_dists);
    }
    result
}

fn try_decode_label_inner(
    mut r: BitReader<'_>,
    hubs: &mut Vec<NodeId>,
    dists: &mut Vec<u32>,
) -> Result<(), LabelDecodeError> {
    let bad_gamma = |r: &BitReader<'_>| LabelDecodeError::BadGamma {
        at_bit: r.position(),
    };
    let count = r.try_read_gamma0().ok_or_else(|| bad_gamma(&r))?;
    let k = usize::try_from(count).map_err(|_| LabelDecodeError::CountTooLarge {
        count,
        remaining_bits: r.remaining(),
    })?;
    // Each entry is one γ-coded hub (≥ 1 bit) plus one γ-coded distance
    // (≥ 1 bit), so a count beyond remaining/2 cannot be honest. This
    // also bounds the reserves below by the label's physical size.
    if k > r.remaining() / 2 {
        return Err(LabelDecodeError::CountTooLarge {
            count,
            remaining_bits: r.remaining(),
        });
    }
    hubs.reserve(k);
    let mut cur = 0u64;
    for i in 0..k {
        cur = if i == 0 {
            r.try_read_gamma0().ok_or_else(|| bad_gamma(&r))?
        } else {
            let gap = r.try_read_gamma().ok_or_else(|| bad_gamma(&r))?;
            cur.checked_add(gap).ok_or(LabelDecodeError::HubOverflow)?
        };
        hubs.push(NodeId::try_from(cur).map_err(|_| LabelDecodeError::HubOverflow)?);
    }
    dists.reserve(k);
    for _ in 0..k {
        let d = r.try_read_gamma0().ok_or_else(|| bad_gamma(&r))?;
        dists.push(u32::try_from(d).map_err(|_| LabelDecodeError::DistanceTooWide(d))?);
    }
    if r.remaining() != 0 {
        return Err(LabelDecodeError::TrailingBits(r.remaining()));
    }
    Ok(())
}

/// Encodes a complete hub labeling.
pub fn encode_labeling<L: LabelingView>(labeling: &L) -> Vec<BitLabel> {
    (0..=NodeId::MAX)
        .take(labeling.num_nodes())
        .map(|v| encode_label(labeling.hubs_of(v), labeling.dists_of(v)))
        .collect()
}

/// Decodes the distance between two encoded labels (merge on hub ids).
pub fn decode_distance(a: &BitLabel, b: &BitLabel) -> Distance {
    let (mut hubs, mut dists) = (Vec::new(), Vec::new());
    decode_label_append(a, &mut hubs, &mut dists);
    let mid = hubs.len();
    decode_label_append(b, &mut hubs, &mut dists);
    merge_join(&hubs[..mid], &dists[..mid], &hubs[mid..], &dists[mid..])
}

/// A [`DistanceLabelingScheme`] built on PLL hub labels.
#[derive(Debug, Clone, Copy, Default)]
pub struct HubPllScheme;

impl DistanceLabelingScheme for HubPllScheme {
    fn name(&self) -> &'static str {
        "hub-pll"
    }

    fn encode(&self, g: &Graph) -> Result<Vec<BitLabel>, GraphError> {
        let labeling = PrunedLandmarkLabeling::by_degree(g).into_labeling();
        Ok(encode_labeling(&labeling))
    }

    fn decode(&self, u: &BitLabel, v: &BitLabel) -> Distance {
        decode_distance(u, v)
    }
}

/// A scheme built on an arbitrary pre-computed hub labeling (useful when
/// the caller wants a specific construction, e.g. the Theorem 4.1 one).
#[derive(Debug, Clone)]
pub struct PrecomputedHubScheme {
    labeling: FlatLabeling,
}

impl PrecomputedHubScheme {
    /// Wraps an existing labeling.
    pub fn new(labeling: FlatLabeling) -> Self {
        PrecomputedHubScheme { labeling }
    }
}

impl DistanceLabelingScheme for PrecomputedHubScheme {
    fn name(&self) -> &'static str {
        "hub-precomputed"
    }

    fn encode(&self, g: &Graph) -> Result<Vec<BitLabel>, GraphError> {
        if self.labeling.num_nodes() != g.num_nodes() {
            return Err(GraphError::InvalidParameters {
                reason: "precomputed labeling does not match graph size".into(),
            });
        }
        Ok(encode_labeling(&self.labeling))
    }

    fn decode(&self, u: &BitLabel, v: &BitLabel) -> Distance {
        decode_distance(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{verify_scheme, SchemeStats};
    use hl_graph::{generators, INFINITY};

    #[test]
    fn label_roundtrip() {
        let encoded = encode_label(&[0, 7, 8, 1000], &[0, 3, 12, 999]);
        assert_eq!(
            decode_label(&encoded),
            vec![(0, 0), (7, 3), (8, 12), (1000, 999)]
        );
    }

    #[test]
    fn empty_label_roundtrip() {
        assert_eq!(decode_label(&encode_label(&[], &[])), vec![]);
    }

    #[test]
    fn try_decode_accepts_everything_the_encoder_writes() {
        let labels: [(&[NodeId], &[u32]); 3] = [
            (&[], &[]),
            (&[0], &[0]),
            (&[0, 7, 8, 1000], &[0, 3, 12, 999]),
        ];
        for (label_hubs, label_dists) in labels {
            let encoded = encode_label(label_hubs, label_dists);
            let mut hubs = Vec::new();
            let mut dists = Vec::new();
            try_decode_label_append(BitReader::new(encoded.bits()), &mut hubs, &mut dists).unwrap();
            assert_eq!(hubs, label_hubs);
            assert_eq!(dists, label_dists);
        }
    }

    #[test]
    fn try_decode_rejects_garbage_bits_instead_of_panicking() {
        use crate::bits::{BitVec, BitWriter};

        let mut hubs = Vec::new();
        let mut dists = Vec::new();

        // All-zero bits: the count's unary run never terminates. The
        // trusting decoder panics on this input; the checked one must not.
        let mut zeros = BitVec::new();
        for _ in 0..64 {
            zeros.push(false);
        }
        let err = try_decode_label_append(BitReader::new(&zeros), &mut hubs, &mut dists);
        assert!(matches!(err, Err(LabelDecodeError::BadGamma { .. })));
        assert!(
            hubs.is_empty() && dists.is_empty(),
            "buffers must roll back"
        );

        // A count far beyond what the remaining bits could carry: must be
        // rejected *before* any reserve, or a one-byte label could demand
        // gigabytes.
        let mut w = BitWriter::new();
        w.write_gamma0(1u64 << 40);
        let err = try_decode_label_append(BitReader::new(&w.into_bits()), &mut hubs, &mut dists);
        assert!(matches!(err, Err(LabelDecodeError::CountTooLarge { .. })));

        // Hub ids past the 32-bit node-id space.
        let mut w = BitWriter::new();
        w.write_gamma0(1); // one entry
        w.write_gamma0(1u64 << 33); // first hub id, too wide for NodeId
        w.write_gamma0(5); // its distance
        let err = try_decode_label_append(BitReader::new(&w.into_bits()), &mut hubs, &mut dists);
        assert!(matches!(err, Err(LabelDecodeError::HubOverflow)));

        // A distance one past the u32 lane; u32::MAX itself decodes.
        for (d, fits) in [(u64::from(u32::MAX), true), (1u64 << 32, false)] {
            let mut w = BitWriter::new();
            w.write_gamma0(1);
            w.write_gamma0(0);
            w.write_gamma0(d);
            let got =
                try_decode_label_append(BitReader::new(&w.into_bits()), &mut hubs, &mut dists);
            if fits {
                assert_eq!(got, Ok(()));
                assert_eq!(
                    (hubs.as_slice(), dists.as_slice()),
                    (&[0][..], &[u32::MAX][..])
                );
                hubs.clear();
                dists.clear();
            } else {
                assert_eq!(got, Err(LabelDecodeError::DistanceTooWide(1 << 32)));
                assert!(
                    hubs.is_empty() && dists.is_empty(),
                    "buffers must roll back"
                );
            }
        }

        // A structurally valid label followed by leftover bits.
        let encoded = encode_label(&[3], &[1]);
        let mut bits = BitVec::new();
        for i in 0..encoded.bits().len() {
            bits.push(encoded.bits().get(i));
        }
        bits.push(true);
        let err = try_decode_label_append(BitReader::new(&bits), &mut hubs, &mut dists);
        assert!(matches!(err, Err(LabelDecodeError::TrailingBits(1))));
    }

    #[test]
    fn append_decode_concatenates_sorted_entries() {
        let mut hubs = Vec::new();
        let mut dists = Vec::new();
        decode_label_append(
            &encode_label(&[0, 7, 1000], &[0, 3, 999]),
            &mut hubs,
            &mut dists,
        );
        decode_label_append(&encode_label(&[2, 5], &[1, 5]), &mut hubs, &mut dists);
        assert_eq!(hubs, [0, 7, 1000, 2, 5]);
        assert_eq!(dists, [0, 3, 999, 1, 5]);
    }

    #[test]
    fn distance_decoding_matches_join() {
        let (ea, eb) = (
            encode_label(&[1, 5], &[4, 2]),
            encode_label(&[2, 5], &[1, 5]),
        );
        assert_eq!(decode_distance(&ea, &eb), 7);
    }

    #[test]
    fn pll_scheme_exact_on_families() {
        for g in [
            generators::grid(5, 5),
            generators::random_tree(40, 2),
            generators::connected_gnm(40, 20, 3),
            generators::weighted_grid(4, 4, 4),
        ] {
            assert_eq!(verify_scheme(&HubPllScheme, &g).unwrap(), 0);
        }
    }

    #[test]
    fn pll_scheme_handles_disconnection() {
        let g = hl_graph::builder::graph_from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(verify_scheme(&HubPllScheme, &g).unwrap(), 0);
        let labels = HubPllScheme.encode(&g).unwrap();
        assert_eq!(HubPllScheme.decode(&labels[0], &labels[4]), INFINITY);
    }

    #[test]
    fn precomputed_scheme_rejects_size_mismatch() {
        let g = generators::path(5);
        let labeling = FlatLabeling::from_pair_lists(vec![Vec::new(); 3]).unwrap();
        assert!(PrecomputedHubScheme::new(labeling).encode(&g).is_err());
    }

    #[test]
    fn precomputed_scheme_exact() {
        let g = generators::cycle(12);
        let labeling = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let scheme = PrecomputedHubScheme::new(labeling);
        assert_eq!(verify_scheme(&scheme, &g).unwrap(), 0);
    }

    #[test]
    fn bit_sizes_reasonable() {
        // A 64-vertex grid label should cost far fewer bits than a full
        // distance vector (64 * 7 bits).
        let g = generators::grid(8, 8);
        let labels = HubPllScheme.encode(&g).unwrap();
        let stats = SchemeStats::of(&labels);
        assert!(
            stats.average_bits < 64.0 * 7.0 / 2.0,
            "avg = {}",
            stats.average_bits
        );
        assert!(stats.max_bits > 0);
    }
}
