//! Packed hub-label encodings (bit level; `hl_core::compact` is the byte-tuned arena).
//!
//! Going from hubsets to *bit* labels is where the `log n` factors hide —
//! the paper's §1.1 notes that the sublinear distance labelings of
//! ADKP16/GKU16 hinge on "careful encoding of distances from a vertex
//! to its hubs". This module implements the standard tricks and lets the
//! experiments measure what each saves:
//!
//! * **fixed-width** ids and distances sized to the instance
//!   (`⌈log n⌉` / `⌈log(diam+1)⌉` bits) instead of universal γ-codes;
//! * **split near/far**: hubs at distance `< D` store their distance in
//!   `⌈log D⌉` bits, far hubs in full width — profitable exactly when most
//!   hubs are near, which is how the ADKP16-style constructions arrange
//!   their hubsets;
//! * **gap+split**: γ-gap-coded ids (sorted hubs compress well) combined
//!   with the near/far distance split — the layout that usually wins;
//! * a per-label **best-of** chooser with a 2-bit tag.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use hl_graph::{Distance, NodeId};

use hl_core::FlatLabeling;

use crate::bits::{BitReader, BitWriter};
use crate::hub_scheme::{read_hub_ids, write_hub_ids};
use crate::scheme::BitLabel;

/// Encoding parameters shared by encoder and decoder (public protocol
/// constants, not counted into label size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactParams {
    /// Bits per hub id: `⌈log₂ n⌉`.
    pub id_bits: u32,
    /// Bits per full-width distance: `⌈log₂(diam + 1)⌉`.
    pub dist_bits: u32,
    /// Near/far threshold `D` (near distances use `⌈log₂ D⌉` bits).
    pub near_threshold: Distance,
}

impl CompactParams {
    /// Derives parameters for a graph with `n` vertices and the given
    /// weighted diameter, with near threshold `D`.
    ///
    /// # Panics
    ///
    /// Panics if `near_threshold == 0`.
    pub fn new(n: usize, diameter: Distance, near_threshold: Distance) -> Self {
        assert!(near_threshold > 0, "near threshold must be positive");
        CompactParams {
            id_bits: width_for(n.saturating_sub(1) as u64),
            dist_bits: width_for(diameter),
            near_threshold,
        }
    }

    fn near_bits(&self) -> u32 {
        width_for(self.near_threshold - 1)
    }
}

fn width_for(max_value: u64) -> u32 {
    (64 - max_value.leading_zeros()).max(1)
}

const TAG_GAMMA: u64 = 0;
const TAG_FIXED: u64 = 1;
const TAG_SPLIT: u64 = 2;
const TAG_GAP_SPLIT: u64 = 3;

/// Encodes a label — sorted hub ids and their aligned distances — with
/// the cheapest of the four layouts (2-bit tag).
///
/// # Example
///
/// ```
/// use hl_labeling::packed::{encode_compact, decode_compact, CompactParams};
///
/// let params = CompactParams::new(100, 50, 8);
/// let encoded = encode_compact(&[3, 40], &[2, 17], &params);
/// assert_eq!(decode_compact(&encoded, &params), vec![(3, 2), (40, 17)]);
/// ```
pub fn encode_compact(hubs: &[NodeId], dists: &[u32], params: &CompactParams) -> BitLabel {
    let candidates = [
        (TAG_GAMMA, encode_gamma_body(hubs, dists)),
        (TAG_FIXED, encode_fixed_body(hubs, dists, params)),
        (TAG_SPLIT, encode_split_body(hubs, dists, params)),
        (TAG_GAP_SPLIT, encode_gap_split_body(hubs, dists, params)),
    ];
    let [first, rest @ ..] = candidates;
    let (tag, body) = rest.into_iter().fold(
        first,
        |best, c| if c.1.len() < best.1.len() { c } else { best },
    );
    let mut w = BitWriter::new();
    w.write_bits(tag, 2);
    let mut r = BitReader::new(&body);
    for _ in 0..body.len() {
        w.write_bit(r.read_bit());
    }
    BitLabel::new(w.into_bits())
}

/// Decodes a compact label into its `(hub, distance)` pairs, in
/// increasing hub order.
pub fn decode_compact(label: &BitLabel, params: &CompactParams) -> Vec<(NodeId, Distance)> {
    let mut r = BitReader::new(label.bits());
    // `read_bits(2)` yields a value in 0..=3, and the three explicit arms
    // cover 0..=2, so the wildcard is exactly TAG_GAP_SPLIT (3).
    match r.read_bits(2) {
        TAG_GAMMA => decode_gamma_body(&mut r),
        TAG_FIXED => decode_fixed_body(&mut r, params),
        TAG_SPLIT => decode_split_body(&mut r, params),
        _ => decode_gap_split_body(&mut r, params),
    }
}

/// Encodes a whole labeling compactly.
pub fn encode_labeling_compact(labeling: &FlatLabeling, params: &CompactParams) -> Vec<BitLabel> {
    (0..=NodeId::MAX)
        .take(labeling.num_nodes())
        .map(|v| encode_compact(labeling.hubs_of(v), labeling.dists_of(v), params))
        .collect()
}

fn encode_gamma_body(hubs: &[NodeId], dists: &[u32]) -> crate::bits::BitVec {
    // The hub_scheme label itself: γ count, gap-coded ids, γ distances.
    crate::hub_scheme::encode_label(hubs, dists).bits().clone()
}

fn decode_gamma_body(r: &mut BitReader<'_>) -> Vec<(NodeId, Distance)> {
    let mut hubs = Vec::new();
    read_hub_ids(r, &mut hubs);
    hubs.iter().map(|&h| (h, r.read_gamma0())).collect()
}

fn encode_fixed_body(
    hubs: &[NodeId],
    dists: &[u32],
    params: &CompactParams,
) -> crate::bits::BitVec {
    let mut w = BitWriter::new();
    w.write_gamma0(hubs.len() as u64);
    for (&h, &d) in hubs.iter().zip(dists) {
        w.write_bits(h as u64, params.id_bits);
        w.write_bits(u64::from(d), params.dist_bits);
    }
    w.into_bits()
}

fn decode_fixed_body(r: &mut BitReader<'_>, params: &CompactParams) -> Vec<(NodeId, Distance)> {
    let k = usize::try_from(r.read_gamma0()).unwrap_or(usize::MAX);
    (0..k)
        .map(|_| {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "trusted bits: the encoder wrote a NodeId in id_bits bits"
            )]
            let h = r.read_bits(params.id_bits) as NodeId;
            let d = r.read_bits(params.dist_bits);
            (h, d)
        })
        .collect()
}

fn encode_split_body(
    hubs: &[NodeId],
    dists: &[u32],
    params: &CompactParams,
) -> crate::bits::BitVec {
    let mut w = BitWriter::new();
    w.write_gamma0(hubs.len() as u64);
    let nb = params.near_bits();
    for (&h, &d) in hubs.iter().zip(dists) {
        let d = u64::from(d);
        w.write_bits(h as u64, params.id_bits);
        if d < params.near_threshold {
            w.write_bit(true);
            w.write_bits(d, nb);
        } else {
            w.write_bit(false);
            w.write_bits(d, params.dist_bits);
        }
    }
    w.into_bits()
}

fn decode_split_body(r: &mut BitReader<'_>, params: &CompactParams) -> Vec<(NodeId, Distance)> {
    let k = usize::try_from(r.read_gamma0()).unwrap_or(usize::MAX);
    let nb = params.near_bits();
    (0..k)
        .map(|_| {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "trusted bits: the encoder wrote a NodeId in id_bits bits"
            )]
            let h = r.read_bits(params.id_bits) as NodeId;
            let d = if r.read_bit() {
                r.read_bits(nb)
            } else {
                r.read_bits(params.dist_bits)
            };
            (h, d)
        })
        .collect()
}

fn encode_gap_split_body(
    hubs: &[NodeId],
    dists: &[u32],
    params: &CompactParams,
) -> crate::bits::BitVec {
    let mut w = BitWriter::new();
    write_hub_ids(&mut w, hubs);
    let nb = params.near_bits();
    for d in dists.iter().map(|&d| u64::from(d)) {
        if d < params.near_threshold {
            w.write_bit(true);
            w.write_bits(d, nb);
        } else {
            w.write_bit(false);
            w.write_bits(d, params.dist_bits);
        }
    }
    w.into_bits()
}

fn decode_gap_split_body(r: &mut BitReader<'_>, params: &CompactParams) -> Vec<(NodeId, Distance)> {
    let nb = params.near_bits();
    let mut hubs = Vec::new();
    read_hub_ids(r, &mut hubs);
    hubs.iter()
        .map(|&h| {
            let d = if r.read_bit() {
                r.read_bits(nb)
            } else {
                r.read_bits(params.dist_bits)
            };
            (h, d)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeStats;
    use hl_core::pll::PrunedLandmarkLabeling;
    use hl_core::random_threshold::{random_threshold_labeling, RandomThresholdParams};
    use hl_graph::properties::diameter_exact;
    use hl_graph::{generators, Graph};

    fn roundtrip(g: &Graph, labeling: &FlatLabeling, d: Distance) {
        let params = CompactParams::new(g.num_nodes(), diameter_exact(g), d);
        for v in 0..g.num_nodes() as NodeId {
            let enc = encode_compact(labeling.hubs_of(v), labeling.dists_of(v), &params);
            assert_eq!(
                decode_compact(&enc, &params),
                labeling.pairs_of(v).collect::<Vec<_>>(),
                "vertex {v}"
            );
        }
    }

    #[test]
    fn roundtrip_all_layouts() {
        let g = generators::grid(7, 7);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        for d in [1u64, 2, 4, 12] {
            roundtrip(&g, &hl, d);
        }
    }

    #[test]
    fn roundtrip_weighted() {
        let g = generators::weighted_grid(5, 5, 3);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        roundtrip(&g, &hl, 8);
    }

    #[test]
    fn roundtrip_empty_label() {
        let params = CompactParams::new(10, 5, 2);
        assert_eq!(
            decode_compact(&encode_compact(&[], &[], &params), &params),
            vec![]
        );
    }

    #[test]
    fn compact_never_larger_than_gamma_plus_tag() {
        let g = generators::connected_gnm(60, 30, 5);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let params = CompactParams::new(60, diameter_exact(&g), 4);
        for v in 0..60u32 {
            let (hubs, dists) = (hl.hubs_of(v), hl.dists_of(v));
            let gamma_bits = crate::hub_scheme::encode_label(hubs, dists).num_bits();
            let compact_bits = encode_compact(hubs, dists, &params).num_bits();
            assert!(compact_bits <= gamma_bits + 2, "vertex {v}");
        }
    }

    #[test]
    fn split_helps_near_heavy_labelings() {
        // Random-threshold hubsets are mostly near hubs — the split layout
        // should win for them on a long path (large diameter, so full-width
        // distances are expensive).
        let g = generators::path(200);
        let (hl, _) = random_threshold_labeling(
            &g,
            RandomThresholdParams {
                threshold: 6,
                seed: 1,
            },
        )
        .unwrap();
        let params = CompactParams::new(200, diameter_exact(&g), 6);
        let compact = SchemeStats::of(&encode_labeling_compact(&hl, &params));
        let gamma = SchemeStats::of(&crate::hub_scheme::encode_labeling(&hl));
        assert!(
            compact.total_bits < gamma.total_bits,
            "compact {} vs gamma {}",
            compact.total_bits,
            gamma.total_bits
        );
    }

    #[test]
    fn params_reject_zero_threshold() {
        let result = std::panic::catch_unwind(|| CompactParams::new(10, 5, 0));
        assert!(result.is_err());
    }

    #[test]
    fn width_for_values() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 2);
        assert_eq!(width_for(255), 8);
        assert_eq!(width_for(256), 9);
    }
}
