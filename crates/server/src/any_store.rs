//! The mount record: what opening an HLBS file of any version yields.
//!
//! Both formats share the magic and the header prefix through the version
//! field; [`AnyStore::parse`] and [`AnyStore::open`] peek at that field
//! ([`crate::store::format_version`]) and run the matching codec's one
//! eager validate-and-decode pass — [`store::decode`] for v1 γ, the v2
//! codec ([`V2Store`]) for both v2 flavors, v2c's compact lanes expanded
//! after they validate. A v2 file is streamed through one chunk buffer by
//! the same reader a byte slice parses through, so a read never holds
//! the file's image beside the arena. A v1 file (γ-coded, small beside
//! its arena) is read whole, and so is a pipe, which has no length and
//! no positional reads. Every version yields the same record: the flat
//! arena the store decodes to, plus the facts about the file that
//! `hubserve stats` and the serve banner report.
//!
//! A daemon does not serve that arena. [`AnyStore::mount`] opens a store
//! straight into the served layout ([`Mount`]): a flat-flavor v2 file is
//! walked twice by the v2 reader, so no flat arena is ever built beside
//! the table, and every other source is read as `open` reads it and laid
//! out with [`DenseLabeling::from_flat`]. Every product path that reads
//! a store goes through this type: `hubserve serve`/`query` and the
//! `Reload` opcode through [`AnyStore::mount`], `hubserve stats`/
//! `convert`/`verify`/`build --verify` and `hl-shard partition` through
//! [`AnyStore::open`].

use std::fs::File;
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::Path;

use hl_core::{DenseLabeling, FlatLabeling};

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
        let file = File::open(path)?;
        if is_v2_file(&file)? {
            return Ok(Self::from_v2(V2Store::read(&file)?));
        }
        read_whole(file)
    }

    /// Opens a store straight into the served layout, with
    /// [`AnyStore::open`]'s checks: what `hubserve serve`, `hubserve
    /// query` and the `Reload` opcode mount. A flat-flavor v2 file is
    /// walked twice by the v2 reader ([`V2Store::parse_served`]), once to
    /// count and once to place, so no flat arena is built beside the
    /// table. Every other source (a v2c or v1 file, a pipe) is opened as
    /// [`AnyStore::open`] opens it and laid out with
    /// [`DenseLabeling::from_flat`].
    pub fn mount<P: AsRef<Path>>(path: P) -> Result<Mount, StoreError> {
        let file = File::open(path)?;
        if is_v2_file(&file)? {
            let (labeling, flags) = V2Store::read_served(&file)?;
            return Ok(Mount {
                labeling,
                version: store_v2::VERSION,
                flavor: v2_flavor(flags),
            });
        }
        let store = read_whole(file)?;
        Ok(Mount {
            version: store.version,
            flavor: store.flavor,
            labeling: DenseLabeling::from_flat(store.flat),
        })
    }

    /// The record of a validated v2 store of either flavor.
    fn from_v2(store: V2Store) -> Self {
        AnyStore {
            version: store_v2::VERSION,
            flavor: v2_flavor(store.flags()),
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

/// A store mounted for serving by [`AnyStore::mount`]: the served layout,
/// and what the serve banner and the `Reload` answer say of the file.
#[derive(Debug)]
pub struct Mount {
    /// The labels in the served layout.
    pub labeling: DenseLabeling,
    /// The file's format version.
    pub version: u16,
    /// The file's flavor, as [`AnyStore::flavor`] names it.
    pub flavor: &'static str,
}

/// Whether `file` is a regular file holding a v2 store, which is read in
/// place; a regular file of an unknown version is refused here. A v1
/// file (γ-coded, small beside its arena) is read whole, and so is a
/// source with no length or positional reads, a pipe.
fn is_v2_file(file: &File) -> Result<bool, StoreError> {
    let meta = file.metadata()?;
    if !meta.is_file() {
        return Ok(false);
    }
    let mut peek = [0u8; 8];
    let peek = &mut peek[..meta.len().min(8) as usize];
    file.read_exact_at(peek, 0)?;
    match store::format_version(peek)? {
        store_v2::VERSION => Ok(true),
        store::VERSION => Ok(false),
        other => Err(StoreError::UnsupportedVersion(other)),
    }
}

/// Reads `file` to its end and parses it.
fn read_whole(mut file: File) -> Result<AnyStore, StoreError> {
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    AnyStore::parse(&bytes)
}

/// The flavor tag of a v2 file with flag word `flags`.
fn v2_flavor(flags: u16) -> &'static str {
    if flags & store_v2::FLAG_COMPACT != 0 {
        "v2c"
    } else {
        "v2"
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

    /// Writes `bytes` to a fresh file, opens it as a store and mounts it
    /// for serving; both must succeed or fail alike, and the mount must
    /// be the opened arena laid out.
    fn open_bytes(name: &str, bytes: &[u8]) -> Result<AnyStore, StoreError> {
        let path = std::env::temp_dir().join(format!("hl-any-store-{name}-{}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let (opened, mounted) = (AnyStore::open(&path), AnyStore::mount(&path));
        std::fs::remove_file(&path).ok();
        match (&opened, mounted) {
            (Ok(store), Ok(mount)) => {
                assert_eq!(mount.labeling, DenseLabeling::from_flat(store.flat.clone()));
                assert_eq!((mount.version, mount.flavor), (store.version, store.flavor));
            }
            (Err(open), Err(mount)) => assert_eq!(
                std::mem::discriminant(open),
                std::mem::discriminant(&mount),
                "{open:?} against {mount:?}"
            ),
            (open, mount) => panic!("open gave {open:?}, mount {mount:?}"),
        }
        opened
    }

    /// A labeling from one pair list per vertex.
    fn lists(lists: Vec<Vec<(hl_graph::NodeId, hl_graph::Distance)>>) -> FlatLabeling {
        FlatLabeling::from_pair_lists(lists).unwrap()
    }

    /// Twenty vertices, the first four labeled, with hub 1's column
    /// holding `wide` (dense.rs's fixture of the same name): K = 2 at 127,
    /// K = 1 at 128.
    fn column_one_holds(wide: hl_graph::Distance) -> FlatLabeling {
        let mut labels = vec![
            vec![(0, 0), (1, 3)],
            vec![(1, 0)],
            vec![(0, 1), (1, wide)],
            vec![(0, 2), (2, 0)],
        ];
        labels.resize(20, Vec::new());
        lists(labels)
    }

    #[test]
    fn the_served_mount_is_the_opened_arena_laid_out() {
        let built = |g: &hl_graph::Graph| PrunedLandmarkLabeling::by_degree(g).into_labeling();
        let h24 = hl_lowerbound::HGraph::build(hl_lowerbound::GadgetParams::new(2, 4).unwrap());
        // Two random matchings on 60 vertices: disjoint cycles.
        let disconnected = generators::union_of_matchings(60, 2, 5);
        let apart = built(&disconnected);
        assert!((1..60).any(|v| apart.query(0, v) == hl_graph::INFINITY));
        // Hub 0 in every label but vertex 5's, which is empty.
        let one_empty = lists(
            (0..12)
                .map(|v| match v {
                    0 => vec![(0, 0)],
                    5 => Vec::new(),
                    _ => vec![(0, v.into()), (v, 0)],
                })
                .collect(),
        );
        for (name, flat, k) in [
            ("gnm", built(&generators::connected_gnm(300, 900, 2)), None),
            ("rmat", built(&generators::rmat(8, 1000, 3)), None),
            ("h:2,4", built(h24.graph()), Some(0)),
            ("n = 0", FlatLabeling::new(), Some(0)),
            ("n = 1", lists(vec![vec![(0, 0)]]), Some(1)),
            ("an empty label", one_empty, Some(12)),
            ("disconnected", apart, None),
            ("a column holding 127", column_one_holds(127), Some(2)),
            ("a column holding 128", column_one_holds(128), Some(1)),
        ] {
            let path =
                std::env::temp_dir().join(format!("hl-any-store-mount-{}", std::process::id()));
            FlatStore::from_flat(flat).save(&path).unwrap();
            let mount = AnyStore::mount(&path).unwrap();
            let laid_out =
                DenseLabeling::from_flat(AnyStore::open(&path).unwrap().into_flat().unwrap());
            std::fs::remove_file(&path).ok();
            assert_eq!((mount.version, mount.flavor), (2, "v2"), "{name}");
            let served = mount.labeling;
            assert_eq!(served, laid_out, "{name}");
            assert_eq!(served.heap_bytes(), laid_out.heap_bytes(), "{name}");
            if let Some(k) = k {
                assert_eq!(served.prefix_hubs(), k, "{name}: K");
            }
            for v in 0..served.num_nodes() as hl_graph::NodeId {
                assert_eq!(
                    served.label_of(v),
                    laid_out.label_of(v),
                    "{name}: label of {v}"
                );
            }
        }
    }

    #[test]
    fn every_other_source_mounts_through_the_opened_arena() {
        // v1, v2c and a pipe take `open` and `from_flat`: their mounts
        // equal the v2 file's.
        let flat = sample();
        let mut v1 = Vec::new();
        LabelStore::from_flat(&flat).write_to(&mut v1).unwrap();
        let v2c = CompactStore::from_compact(hl_core::CompactLabeling::from_flat(&flat).unwrap())
            .encode();
        let want = DenseLabeling::from_flat(flat);
        for (name, bytes) in [("v1", v1), ("v2c", v2c)] {
            let path =
                std::env::temp_dir().join(format!("hl-any-store-{name}-{}", std::process::id()));
            std::fs::write(&path, &bytes).unwrap();
            let mount = AnyStore::mount(&path);
            std::fs::remove_file(&path).ok();
            let mount = mount.unwrap();
            assert_eq!(mount.flavor, name);
            assert_eq!(mount.labeling, want, "{name}");
        }
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
        let through_fifo = |read: &dyn Fn(&Path) -> Result<(), StoreError>| {
            let writer = {
                let (fifo, bytes) = (fifo.clone(), bytes.clone());
                std::thread::spawn(move || std::fs::write(fifo, bytes))
            };
            read(&fifo).unwrap();
            writer.join().unwrap().unwrap();
        };
        let parsed = AnyStore::parse(&bytes).unwrap();
        through_fifo(&|path| {
            let opened = AnyStore::open(path)?;
            assert_eq!(opened.file_len(), bytes.len() as u64);
            assert_eq!(opened.served(), parsed.served());
            Ok(())
        });
        // A pipe mounts through the arena it is read into.
        through_fifo(&|path| {
            let mounted = AnyStore::mount(path)?;
            assert_eq!(
                mounted.labeling,
                DenseLabeling::from_flat(parsed.flat.clone())
            );
            Ok(())
        });
        std::fs::remove_file(&fifo).ok();
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
