//! Randomized property tests for the bit codecs and label encodings,
//! driven by seeded [`Xorshift64`] streams (offline-friendly stand-in for
//! the original `proptest` strategies).

use hl_core::FlatLabeling;
use hl_graph::rng::Xorshift64;
use hl_labeling::bits::{BitReader, BitWriter};
use hl_labeling::hub_scheme::{decode_label, encode_label};

const CASES: u64 = 64;

#[test]
fn gamma_roundtrip() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(case);
        let count = rng.gen_index(100);
        let values: Vec<u64> = (0..count)
            .map(|_| rng.gen_range_u64(1, u64::MAX / 2))
            .collect();
        let mut w = BitWriter::new();
        for &v in &values {
            w.write_gamma(v);
        }
        let bits = w.into_bits();
        let mut r = BitReader::new(&bits);
        for &v in &values {
            assert_eq!(r.read_gamma(), v);
        }
        assert_eq!(r.remaining(), 0);
    }
}

#[test]
fn delta_roundtrip() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(1000 + case);
        let count = rng.gen_index(100);
        let values: Vec<u64> = (0..count)
            .map(|_| rng.gen_range_u64(1, u64::MAX / 2))
            .collect();
        let mut w = BitWriter::new();
        for &v in &values {
            w.write_delta(v);
        }
        let bits = w.into_bits();
        let mut r = BitReader::new(&bits);
        for &v in &values {
            assert_eq!(r.read_delta(), v);
        }
    }
}

#[test]
fn mixed_codes_roundtrip() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(2000 + case);
        let count = rng.gen_index(60);
        let ops: Vec<(u8, u64)> = (0..count)
            .map(|_| (rng.gen_index(4) as u8, rng.gen_range_u64(1, 1 << 40)))
            .collect();
        let mut w = BitWriter::new();
        for &(kind, v) in &ops {
            match kind {
                0 => w.write_gamma(v),
                1 => w.write_delta(v),
                2 => w.write_unary(v % 64),
                _ => w.write_bits(v & 0xFFFF, 16),
            }
        }
        let bits = w.into_bits();
        let mut r = BitReader::new(&bits);
        for &(kind, v) in &ops {
            let got = match kind {
                0 => r.read_gamma(),
                1 => r.read_delta(),
                2 => r.read_unary(),
                _ => r.read_bits(16),
            };
            let expect = match kind {
                2 => v % 64,
                3 => v & 0xFFFF,
                _ => v,
            };
            assert_eq!(got, expect);
        }
    }
}

/// One label in canonical form — sorted, a repeated hub keeping its
/// minimum — as vertex 0 of a one-vertex arena.
fn label(pairs: Vec<(u32, u64)>) -> FlatLabeling {
    FlatLabeling::from_pair_lists(vec![pairs]).unwrap()
}

fn encode(label: &FlatLabeling) -> hl_labeling::BitLabel {
    encode_label(label.hubs_of(0), label.dists_of(0))
}

#[test]
fn hub_label_roundtrip() {
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(3000 + case);
        let count = rng.gen_index(80);
        let pairs: Vec<(u32, u64)> = (0..count)
            .map(|_| (rng.gen_index(10_000) as u32, rng.gen_u64_below(1 << 30)))
            .collect();
        let label = label(pairs);
        let decoded = decode_label(&encode(&label));
        assert_eq!(decoded, label.pairs_of(0).collect::<Vec<_>>());
    }
}

#[test]
fn encoding_size_monotone_in_hub_count() {
    for k in 0usize..50 {
        // More hubs never encode smaller (ids are increasing).
        let small: Vec<(u32, u64)> = (0..k as u32).map(|i| (i, i as u64)).collect();
        let large: Vec<(u32, u64)> = (0..k as u32 + 1).map(|i| (i, i as u64)).collect();
        let a = encode(&label(small)).num_bits();
        let b = encode(&label(large)).num_bits();
        assert!(b >= a);
    }
}

#[test]
fn compact_roundtrip_arbitrary() {
    use hl_labeling::packed::{decode_compact, encode_compact, CompactParams};
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(4000 + case);
        let count = rng.gen_index(60);
        let pairs: Vec<(u32, u64)> = (0..count)
            .map(|_| (rng.gen_index(5_000) as u32, rng.gen_u64_below(100_000)))
            .collect();
        let near = rng.gen_range_u64(1, 64);
        let label = label(pairs);
        let (hubs, dists) = (label.hubs_of(0), label.dists_of(0));
        let max_d = dists.iter().copied().max().map_or(0, u64::from);
        let params = CompactParams::new(5_000, max_d, near);
        let decoded = decode_compact(&encode_compact(hubs, dists, &params), &params);
        assert_eq!(decoded, label.pairs_of(0).collect::<Vec<_>>());
    }
}

#[test]
fn compact_never_beaten_by_gamma_by_more_than_tag() {
    use hl_labeling::packed::{encode_compact, CompactParams};
    for case in 0..CASES {
        let mut rng = Xorshift64::seed_from_u64(5000 + case);
        let count = rng.gen_index(40);
        let pairs: Vec<(u32, u64)> = (0..count)
            .map(|_| (rng.gen_index(2_000) as u32, rng.gen_u64_below(10_000)))
            .collect();
        let label = label(pairs);
        let (hubs, dists) = (label.hubs_of(0), label.dists_of(0));
        let max_d = dists.iter().copied().max().map_or(0, u64::from);
        let params = CompactParams::new(2_000, max_d, 8);
        let compact = encode_compact(hubs, dists, &params).num_bits();
        let gamma = encode(&label).num_bits();
        assert!(compact <= gamma + 2);
    }
}
