//! The mount record: what opening an HLBS file of any version yields.
//!
//! Both formats share the magic and the header prefix through the version
//! field; [`AnyStore::parse`] and [`AnyStore::open`] peek at that field
//! ([`crate::store::format_version`]) and run the matching codec's one
//! eager validate-and-decode pass — [`store::decode`] for v1 γ, the v2
//! codec ([`V2Store`]) for both v2 flavors, v2c's compact lanes expanded
//! after they validate. A v2 file is streamed through one chunk buffer by
//! the same reader a byte slice parses through, so a mount never holds
//! the file's image beside the arena. A v1 file (γ-coded, small beside
//! its arena) is read whole, and so is a pipe, which has no length and
//! no positional reads. Every version yields the same record: the
//! flat arena a daemon mounts, plus the facts about the file that
//! `hubserve stats` and the serve banner report.
//! Every product path that reads a store (`hubserve serve`/`query`/
//! `stats`/`convert`/`build --verify`, the `Reload` opcode, `hl-shard
//! partition`) goes through this type.

use std::fs::File;
use std::io::Read;
use std::os::unix::fs::FileExt;
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
        match store::format_version(bytes)? {
            store::VERSION => {
                let (flat, label_bits) = store::decode(bytes)?;
                // The codec rejects trailing bytes, so the image is the file.
                let file_len = bytes.len() as u64;
                Ok(AnyStore {
                    version: store::VERSION,
                    flavor: "v1",
                    file_len,
                    sections: store::section_bytes(flat.num_nodes(), file_len),
                    label_bits,
                    flat,
                })
            }
            store_v2::VERSION => Ok(Self::from_v2(V2Store::parse(bytes)?)),
            other => Err(StoreError::UnsupportedVersion(other)),
        }
    }

    /// Reads and validates a store from a file: [`AnyStore::parse`]'s
    /// checks, with a v2 file streamed section by section rather than
    /// read whole.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StoreError> {
        let mut file = File::open(path)?;
        let meta = file.metadata()?;
        if meta.is_file() {
            let mut peek = [0u8; 8];
            let peek = &mut peek[..meta.len().min(8) as usize];
            file.read_exact_at(peek, 0)?;
            match store::format_version(peek)? {
                store_v2::VERSION => return Ok(Self::from_v2(V2Store::read(&file)?)),
                store::VERSION => {}
                other => return Err(StoreError::UnsupportedVersion(other)),
            }
        }
        // A v1 file (γ-coded, small beside its arena) is read whole, and
        // so is a source with no length or positional reads, a pipe.
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        Self::parse(&bytes)
    }

    /// The record of a validated v2 store of either flavor.
    fn from_v2(store: V2Store) -> Self {
        AnyStore {
            version: store_v2::VERSION,
            flavor: if store.flags() & store_v2::FLAG_COMPACT != 0 {
                "v2c"
            } else {
                "v2"
            },
            // The reader rejects trailing bytes, so the layout is the file.
            file_len: store.file_len(),
            sections: store.section_bytes(),
            label_bits: store.label_bits(),
            flat: store.into_flat(),
        }
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

    /// Writes `bytes` to a fresh file and opens it as a store.
    fn open_bytes(name: &str, bytes: &[u8]) -> Result<AnyStore, StoreError> {
        let path = std::env::temp_dir().join(format!("hl-any-store-{name}-{}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let opened = AnyStore::open(&path);
        std::fs::remove_file(&path).ok();
        opened
    }

    #[test]
    fn open_rejects_damaged_v2_files_with_typed_errors() {
        let clean = FlatStore::from_flat(sample()).encode();
        let any = open_bytes("clean", &clean).unwrap();
        assert_eq!((any.flavor(), any.file_len()), ("v2", clean.len() as u64));

        let short = &clean[..clean.len() - 1];
        assert!(matches!(
            open_bytes("short", short),
            Err(StoreError::Truncated { expected, actual })
                if expected == clean.len() as u64 && actual == short.len() as u64
        ));

        let mut long = clean.clone();
        long.push(0);
        assert!(matches!(
            open_bytes("long", &long),
            Err(StoreError::Corrupt(m)) if m.contains("1 trailing bytes")
        ));

        // The 24 bytes between the 104-byte header and the first section.
        let mut padded = clean.clone();
        padded[store_v2::HEADER_LEN + 3] = 1;
        assert!(matches!(
            open_bytes("padding", &padded),
            Err(StoreError::Corrupt(m)) if m.contains("nonzero padding before section offsets")
        ));
    }

    #[test]
    fn open_rejects_a_huge_declared_store_before_allocating_it() {
        // 2^40 entries, with table records that match them and every
        // checksum right, in a 200-byte file: the frame check against the
        // file's real length fails before a section is allocated.
        let e = 1u64 << 40;
        let lay = store_v2::layout_with(0, 1 << 40, 4, 8);
        let mut bytes = vec![0u8; 200];
        bytes[..4].copy_from_slice(b"HLBS");
        bytes[4..6].copy_from_slice(&store_v2::VERSION.to_le_bytes());
        bytes[16..24].copy_from_slice(&e.to_le_bytes());
        for (i, sec) in lay.sections.iter().enumerate() {
            let rec = 32 + i * 24;
            bytes[rec..rec + 8].copy_from_slice(&sec.file_offset.to_le_bytes());
            bytes[rec + 8..rec + 16].copy_from_slice(&sec.byte_len.to_le_bytes());
        }
        let table = store::fnv1a64(&bytes[32..store_v2::HEADER_LEN]);
        bytes[24..32].copy_from_slice(&table.to_le_bytes());
        let hubs = lay.sections[1];
        assert!(matches!(
            open_bytes("huge", &bytes),
            Err(StoreError::Truncated { expected, actual: 200 })
                if expected == hubs.file_offset + hubs.byte_len
        ));
    }

    #[test]
    fn open_reads_a_store_through_a_pipe() {
        // A FIFO has no length and no positional reads, so it is read
        // whole and parsed: the same store its bytes parse to.
        let bytes = FlatStore::from_flat(sample()).encode();
        let fifo = std::env::temp_dir().join(format!("hl-any-store-fifo-{}", std::process::id()));
        std::fs::remove_file(&fifo).ok();
        let made = std::process::Command::new("mkfifo").arg(&fifo).status();
        assert!(made.expect("run mkfifo").success(), "mkfifo failed");
        let writer = {
            let (fifo, bytes) = (fifo.clone(), bytes.clone());
            std::thread::spawn(move || std::fs::write(fifo, bytes))
        };
        let opened = AnyStore::open(&fifo);
        writer.join().unwrap().unwrap();
        std::fs::remove_file(&fifo).ok();
        let opened = opened.unwrap();
        assert_eq!(opened.file_len(), bytes.len() as u64);
        assert_eq!(opened.served(), AnyStore::parse(&bytes).unwrap().served());
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
