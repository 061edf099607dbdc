//! The mount record: what opening an HLBS file of any version yields.
//!
//! Both formats share the magic and the header prefix through the version
//! field; [`AnyStore::parse`] peeks at that field
//! ([`crate::store::format_version`]) and runs the matching codec's one
//! eager validate-and-decode pass — [`store::decode`] for v1 γ, the v2
//! codec ([`V2Store`]) for both v2 flavors, v2c's compact lanes expanded
//! after they validate. Every version yields the same record: the flat
//! arena a daemon mounts, plus the facts about the file that `hubserve
//! stats` and the serve banner report.
//! Every product path that reads a store (`hubserve serve`/`query`/
//! `stats`/`convert`/`build --verify`, the `Reload` opcode, `hl-shard
//! partition`) goes through this type.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use hl_core::FlatLabeling;

use crate::store::{self, StoreError};
use crate::store_v2::{self, V2Store};

/// A store file, validated and decoded: the served arena and the file's
/// own size facts.
#[derive(Debug, Clone)]
pub struct AnyStore {
    flat: FlatLabeling,
    version: u16,
    flavor: &'static str,
    file_len: u64,
    sections: [(&'static str, u64); 3],
    label_bits: u64,
}

impl AnyStore {
    /// Parses a serialized store of either version, fully validated and
    /// decoded. For v2 the header flag word picks the flavor
    /// ([`store_v2::FLAG_COMPACT`]); v1 γ-decodes every label (the
    /// untrusted-decode path, so a crafted store fails here).
    pub fn parse(bytes: &[u8]) -> Result<Self, StoreError> {
        let version = store::format_version(bytes)?;
        // Both codecs reject trailing bytes, so the image is the file.
        let file_len = bytes.len() as u64;
        match version {
            store::VERSION => {
                let (flat, label_bits) = store::decode(bytes)?;
                Ok(AnyStore {
                    version,
                    flavor: "v1",
                    file_len,
                    sections: store::section_bytes(flat.num_nodes(), file_len),
                    label_bits,
                    flat,
                })
            }
            store_v2::VERSION => {
                let store = V2Store::parse(bytes)?;
                let sections = store.section_bytes();
                Ok(AnyStore {
                    version,
                    flavor: if store.flags() & store_v2::FLAG_COMPACT != 0 {
                        "v2c"
                    } else {
                        "v2"
                    },
                    file_len,
                    sections,
                    label_bits: store.label_bits(),
                    flat: store.into_flat(),
                })
            }
            other => Err(StoreError::UnsupportedVersion(other)),
        }
    }

    /// Reads and validates a store from a reader.
    pub fn read_from<R: Read>(mut input: R) -> Result<Self, StoreError> {
        let mut bytes = Vec::new();
        input.read_to_end(&mut bytes)?;
        Self::parse(&bytes)
    }

    /// Reads and validates a store from a file.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StoreError> {
        Self::read_from(File::open(path)?)
    }

    /// The format version of this store.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Short flavor tag for stats and CLI output: `"v1"`, `"v2"`, or
    /// `"v2c"` (the compact flavor).
    pub fn flavor(&self) -> &'static str {
        self.flavor
    }

    /// Number of vertices the store holds labels for.
    pub fn num_nodes(&self) -> usize {
        self.flat.num_nodes()
    }

    /// Size of the serialized file in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Per-section byte sizes (v1: offsets/bit_lens/blob; v2 flavors:
    /// offsets/hubs/dists), for stats reporting.
    pub fn section_bytes(&self) -> [(&'static str, u64); 3] {
        self.sections
    }

    /// The label payload in bits: γ-coded bits for v1 (the paper's unit,
    /// and the figure `hubserve build` prints), the two entry sections
    /// for the v2 flavors.
    pub fn label_bits(&self) -> u64 {
        self.label_bits
    }

    /// The arena every store version mounts as.
    pub fn served(&self) -> &FlatLabeling {
        &self.flat
    }

    /// Moves the arena out, ready for [`crate::QueryEngine::new`].
    /// Cannot fail — decoding happened in [`AnyStore::parse`]; `Result`
    /// because the frozen `benchmark/` compiles against it.
    pub fn into_flat(self) -> Result<FlatLabeling, StoreError> {
        Ok(self.flat)
    }

    /// [`AnyStore::into_flat`] under the name the frozen `benchmark/`
    /// calls; nothing else does.
    pub fn into_served(self) -> Result<FlatLabeling, StoreError> {
        self.into_flat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::LabelStore;
    use crate::store_v2::{CompactStore, FlatStore};
    use hl_core::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    fn sample() -> FlatLabeling {
        let g = generators::connected_gnm(60, 60, 5);
        PrunedLandmarkLabeling::by_degree(&g).into_labeling()
    }

    #[test]
    fn dispatches_both_versions() {
        let flat = sample();
        let encoder = LabelStore::from_flat(&flat);
        let mut v1_bytes = Vec::new();
        encoder.write_to(&mut v1_bytes).unwrap();
        let v2_bytes = FlatStore::from_flat(flat.clone()).encode();

        let v1 = AnyStore::parse(&v1_bytes).unwrap();
        assert_eq!((v1.version(), v1.flavor()), (1, "v1"));
        assert_eq!(v1.num_nodes(), flat.num_nodes());
        assert_eq!(v1.file_len(), v1_bytes.len() as u64);
        // The record carries v1's own size facts: γ bits, γ sections.
        assert_eq!(v1.label_bits(), encoder.total_bits());
        assert_eq!(v1.section_bytes(), encoder.section_bytes());
        assert_eq!(v1.served(), &flat);
        assert_eq!(v1.into_flat().unwrap(), flat);

        let v2 = AnyStore::parse(&v2_bytes).unwrap();
        assert_eq!(v2.version(), 2);
        assert_eq!(v2.file_len(), v2_bytes.len() as u64);
        assert_eq!(v2.label_bits(), flat.num_entries() as u64 * (4 + 8) * 8);
        assert_eq!(v2.into_flat().unwrap(), flat);
    }

    #[test]
    fn dispatches_compact_flavor() {
        let flat = sample();
        let compact = hl_core::CompactLabeling::from_flat(&flat).unwrap();
        let bytes = CompactStore::from_compact(compact.clone()).encode();
        let any = AnyStore::parse(&bytes).unwrap();
        assert_eq!(any.version(), 2);
        assert_eq!(any.flavor(), "v2c");
        assert_eq!(any.num_nodes(), flat.num_nodes());
        assert_eq!(any.file_len(), bytes.len() as u64);
        // The v2c file keeps its own size facts but mounts exactly the
        // arena its v2 twin mounts.
        assert_eq!(any.label_bits(), compact.num_entries() as u64 * (2 + 2) * 8);
        let v2 = AnyStore::parse(&FlatStore::from_flat(flat.clone()).encode()).unwrap();
        assert_eq!(v2.flavor(), "v2");
        assert_eq!(any.served(), v2.served());
        assert_eq!(any.into_flat().unwrap(), flat);
    }

    #[test]
    fn encodings_are_pinned_to_the_bytes_deployed_daemons_mount() {
        // Round-trip tests only prove the codecs agree with themselves.
        // These constants were captured from the writers as of PR 12
        // (before the v2 codec was unified): a change to any of them
        // means stores already on disk no longer mean what they meant.
        let flat = sample();
        let compact = hl_core::CompactLabeling::from_flat(&flat).unwrap();
        let mut v1 = Vec::new();
        LabelStore::from_flat(&flat).write_to(&mut v1).unwrap();
        let v2 = FlatStore::from_flat(flat).encode();
        let v2c = CompactStore::from_compact(compact).encode();
        // Both width bits set: a hub gap and a distance past u16::MAX.
        let mut wide = vec![Vec::new(); 70_001];
        wide[0] = vec![(0, 0), (70_000, 1 << 20)];
        wide[70_000] = vec![(70_000, 0)];
        let wide =
            hl_core::CompactLabeling::from_flat(&FlatLabeling::from_pair_lists(wide).unwrap())
                .unwrap();
        let v2c_wide = CompactStore::from_compact(wide).encode();
        for (name, bytes, len, fnv) in [
            ("v1", &v1, 1301, 0x7f72_8bb0_7a30_8911_u64),
            ("v2", &v2, 7104, 0x8ae3_3a63_7d40_1b96),
            ("v2c", &v2c, 2800, 0x5f98_5c89_ecda_9c68),
            ("v2c wide", &v2c_wide, 560_268, 0x9963_e897_0984_e554),
        ] {
            assert_eq!(bytes.len(), len, "{name} length");
            assert_eq!(store::fnv1a64(bytes), fnv, "{name} bytes");
        }
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = Vec::new();
        LabelStore::from_flat(&sample())
            .write_to(&mut bytes)
            .unwrap();
        bytes[4] = 77;
        assert!(matches!(
            AnyStore::parse(&bytes),
            Err(StoreError::UnsupportedVersion(77))
        ));
    }

    #[test]
    fn format_version_peek() {
        assert!(matches!(
            store::format_version(b"HLB"),
            Err(StoreError::Truncated { .. })
        ));
        assert!(matches!(
            store::format_version(b"NOPE0000"),
            Err(StoreError::BadMagic(_))
        ));
        let bytes = FlatStore::from_flat(sample()).encode();
        assert_eq!(store::format_version(&bytes).unwrap(), 2);
    }

    #[test]
    fn v1_v2_v1_is_byte_identical() {
        // The convert round-trip contract: γ-encoding is a canonical
        // function of the labeling, so decoding v1 to the arena and
        // re-encoding reproduces the original file exactly.
        let mut v1_bytes = Vec::new();
        LabelStore::from_flat(&sample())
            .write_to(&mut v1_bytes)
            .unwrap();

        let flat = AnyStore::parse(&v1_bytes).unwrap().into_flat().unwrap();
        let v2_bytes = FlatStore::from_flat(flat).encode();
        let flat_back = AnyStore::parse(&v2_bytes).unwrap().into_flat().unwrap();
        let mut v1_again = Vec::new();
        LabelStore::from_flat(&flat_back)
            .write_to(&mut v1_again)
            .unwrap();
        assert_eq!(v1_again, v1_bytes);

        // And v2 → v1 → v2 is byte-identical too.
        let v2_again =
            FlatStore::from_flat(AnyStore::parse(&v1_again).unwrap().into_flat().unwrap()).encode();
        assert_eq!(v2_again, v2_bytes);
    }
}
