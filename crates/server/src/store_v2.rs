//! HLBS version 2 — the on-disk body *is* the [`FlatLabeling`] arena.
//!
//! Version 1 stores labels γ-coded: minimal bytes on disk, but opening a
//! multi-GB store means bit-decoding 100M+ entries before the first query.
//! Version 2 inverts the trade: the three CSR arrays (`offsets`, `hubs`,
//! `dists`) are laid out verbatim, little-endian, each in its own aligned,
//! individually checksummed section — so a load is one sequential read,
//! one fused checksum-and-decode pass, and one structural scan. No bit
//! twiddling, no per-label work. v1 remains the archival/transport encoding (`hubserve
//! convert` moves between them losslessly); v2 is what a daemon mounts.
//!
//! ## Format (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HLBS"
//! 4       2     format version (2)
//! 6       2     flags (0 = flat flavor; see below for the compact flavor)
//! 8       8     node count n
//! 16      8     entry count e  (Σ_v |S_v|)
//! 24      8     FNV-1a-64 checksum of the section table (bytes 32..104)
//! 32      72    section table: 3 records of
//!                 (file offset u64, byte length u64, checksum u64)
//!               for the offsets, hubs and dists sections in that order;
//!               the section checksum is the word-folded, four-lane FNV
//!               variant of [`section_checksum`] (bulk data would be
//!               bottlenecked by byte-serial FNV)
//! 104     ...   zero padding to each section's 64-byte-aligned start
//! ```
//!
//! The `offsets` section holds `(n + 1)` u64s, `hubs` holds `e` u32s,
//! `dists` holds `e` u64s. Sections start at 64-byte-aligned file offsets
//! in table order, every gap byte is zero, and the file ends exactly where
//! the `dists` section does. The arena's distance lane is `u32`: the
//! writer widens it into the `u64` section, and the reader narrows each
//! word back inside the fused decode pass, so a mount allocates no `u64`
//! lane and a word above `u32::MAX` is [`StoreError::Corrupt`].
//!
//! ## The compact flavor (`flags != 0`)
//!
//! The same frame — header, section table, alignment, lane checksums,
//! zero padding, no trailing bytes — can carry the byte-tuned
//! [`CompactLabeling`] lanes instead. Flag bits declare it:
//!
//! * [`FLAG_COMPACT`] (bit 0): the body is the compact lanes — `hubs`
//!   holds per-run delta-coded ids, `dists` the narrow distance lane;
//! * [`FLAG_HUBS_WIDE`] (bit 1): hub deltas are u32 (u16 when clear);
//! * [`FLAG_DISTS_WIDE`] (bit 2): distances are u32 (u16 when clear).
//!
//! Section byte lengths scale with the declared widths; everything else
//! is unchanged, so one codec ([`V2Store`]) writes and parses both
//! flavors: the flag word is derived from the body on the way out and
//! picks the lane decoder on the way in. Either flavor mounts as the flat
//! arena ([`V2Store::into_flat`]): compact lanes are a storage encoding,
//! expanded once at mount. Readers that predate the compact flavor
//! reject it cleanly ([`StoreError::UnsupportedFlags`]) because they
//! require `flags == 0` — the flag word doubles as the flavor version gate.
//!
//! A reader validates, in order: header length, magic/version/flags, the
//! table checksum, then each section record (alignment, exact length for
//! the declared `n`/`e`, in-bounds, ascending and non-overlapping), the
//! zero padding, each section checksum (computed in the same pass that
//! decodes the section — decoded data is discarded unless every checksum
//! matches), and finally the structural invariants of the decoded arena
//! via [`FlatLabeling::from_raw_parts`] or
//! [`CompactLabeling::from_raw_parts`]. Anything malformed is a typed
//! [`StoreError`], never a panic or a wrong distance — the same untrusted-
//! bytes discipline as v1, with the checksum catching accidents and the
//! structural pass catching crafted stores.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use hl_core::{CompactDists, CompactLabeling, FlatLabeling, HubDeltas};

use crate::store::{fnv1a64, format_version, read_array, read_u64, StoreError, MAGIC};

/// Format version this module reads and writes.
pub const VERSION: u16 = 2;
/// Size of the fixed header plus the section table, in bytes.
pub const HEADER_LEN: usize = 104;
/// Every section starts at a multiple of this file offset.
pub const SECTION_ALIGN: usize = 64;
/// Section names, in table order.
pub const SECTION_NAMES: [&str; 3] = ["offsets", "hubs", "dists"];

/// Flag bit: the body is the compact lanes (delta-coded hubs, narrow
/// distances) rather than the flat one.
pub const FLAG_COMPACT: u16 = 1;
/// Flag bit: hub deltas are u32 (u16 when clear). Meaningful only with
/// [`FLAG_COMPACT`].
pub const FLAG_HUBS_WIDE: u16 = 1 << 1;
/// Flag bit: distances are u32 (u16 when clear). Meaningful only with
/// [`FLAG_COMPACT`].
pub const FLAG_DISTS_WIDE: u16 = 1 << 2;
/// Every flag bit this reader understands; anything else is rejected.
pub const FLAGS_KNOWN: u16 = FLAG_COMPACT | FLAG_HUBS_WIDE | FLAG_DISTS_WIDE;

const TABLE_OFF: usize = 32;
const RECORD_LEN: usize = 24;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One little-endian integer element of a section: the three widths the
/// two flavors lay out (`u64` offsets and flat distances, `u32` flat hubs
/// and wide compact lanes, `u16` narrow compact lanes). The fused
/// decoder and the lane writer are generic over it, so each exists once.
trait Lane: Copy + Default + Send {
    /// Bytes per element on disk.
    const BYTES: usize = std::mem::size_of::<Self>();

    /// Decodes one element from exactly [`Lane::BYTES`] bytes.
    fn read_le(chunk: &[u8]) -> Self;

    /// Encodes `self` into exactly [`Lane::BYTES`] bytes.
    fn write_le(self, out: &mut [u8]);
}

macro_rules! impl_lane {
    ($($t:ty),*) => {$(
        impl Lane for $t {
            fn read_le(chunk: &[u8]) -> Self {
                let mut b = [0u8; Self::BYTES];
                b.copy_from_slice(chunk);
                <$t>::from_le_bytes(b)
            }

            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
impl_lane!(u16, u32, u64);

/// The v2 *section* checksum: FNV-1a-64 folded over little-endian u64
/// words in four independent lanes, with the byte-FNV of the tail and
/// the section length absorbed into the combining hash.
///
/// Plain byte-at-a-time FNV-1a is a single serial xor/multiply chain —
/// ~4 cycles of multiply latency *per byte*, which would dominate the
/// load of a multi-GB store and defeat the format's purpose. Folding
/// whole words cuts the work to one multiply per 8 bytes, and four
/// independent lanes let those multiplies overlap in flight, pushing
/// checksum throughput to memory-bandwidth territory while staying
/// std-only and allocation-free.
///
/// Detection is as strong as plain FNV where it matters: every absorb
/// step `s' = (s ^ w) * PRIME` is a bijection in both `s` and `w`
/// (the prime is odd, hence invertible mod 2^64), so corrupting any
/// single word — in a lane stream, the tail hash, or the length —
/// changes that lane's state and therefore the final hash
/// *deterministically*; broader corruption collides with probability
/// ~2^-64 as usual. The 72-byte table keeps the classic byte-wise
/// [`fnv1a64`]; only bulk section data uses the folded form.
pub fn section_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut chunks = bytes.chunks_exact(32);
    for c in chunks.by_ref() {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = (*lane ^ u64::read_le(&c[j * 8..j * 8 + 8])).wrapping_mul(FNV_PRIME);
        }
    }
    let mut tail = FNV_OFFSET;
    for &b in chunks.remainder() {
        tail = (tail ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    combine_lanes(lanes, tail, bytes.len())
}

/// Placement of one section within the file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Section {
    /// Absolute file offset of the section's first byte.
    pub file_offset: u64,
    /// Exact byte length of the section.
    pub byte_len: u64,
}

impl Section {
    /// The section's bytes within the whole-file buffer `file`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a section ends within its file buffer: validate_frame checks parsed ones against bytes.len()"
    )]
    fn range(&self) -> std::ops::Range<usize> {
        self.file_offset as usize..(self.file_offset + self.byte_len) as usize
    }
}

/// The canonical (writer) placement of the three sections for a store
/// with the given node and entry counts, plus the resulting file length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// `offsets`, `hubs`, `dists` placements in table order.
    pub sections: [Section; 3],
    /// Total file length: the end of the `dists` section.
    pub file_len: u64,
}

fn align_up(off: u64) -> u64 {
    let a = SECTION_ALIGN as u64;
    off.div_ceil(a) * a
}

/// Computes the canonical layout for `num_nodes` vertices and
/// `num_entries` label entries at the given per-entry lane widths (4-byte
/// hubs and 8-byte distances in the flat flavor): sections in table
/// order, each aligned to [`SECTION_ALIGN`], no trailing bytes. The
/// compact flavor's sections shrink with its `u16`/`u32` lanes while the
/// frame rules (order, alignment, density) stay identical.
pub fn layout_with(
    num_nodes: usize,
    num_entries: usize,
    hub_bytes: usize,
    dist_bytes: usize,
) -> Layout {
    let lens = [
        (num_nodes as u64 + 1) * 8,
        num_entries as u64 * hub_bytes as u64,
        num_entries as u64 * dist_bytes as u64,
    ];
    let mut sections = [Section::default(); 3];
    let mut at = HEADER_LEN as u64;
    for (i, &len) in lens.iter().enumerate() {
        at = align_up(at);
        sections[i] = Section {
            file_offset: at,
            byte_len: len,
        };
        at += len;
    }
    Layout {
        sections,
        file_len: at,
    }
}

/// The HLBS v2 codec for both flavors: a thin wrapper holding the body
/// in its flavor's form. [`V2Store::encode`] lays it out;
/// [`V2Store::parse`] validates an image and [`V2Store::into_flat`] hands
/// on the arena a daemon mounts ([`crate::any_store::AnyStore`] is how
/// files get here). A flat body serializes with `flags == 0`, a compact
/// one with [`FLAG_COMPACT`] and its lane-width bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct V2Store {
    body: Body,
}

/// What a [`V2Store`] serializes: the flat arena, or the compact lanes
/// of the v2c flavor.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Body {
    Flat(FlatLabeling),
    Compact(CompactLabeling),
}

/// The flat flavor's name for [`V2Store`] (`FlatStore::from_flat(..)`).
pub type FlatStore = V2Store;
/// The compact flavor's name for [`V2Store`]
/// (`CompactStore::from_compact(..)`).
pub type CompactStore = V2Store;

impl V2Store {
    /// Wraps a flat arena for serialization in the flat flavor.
    pub fn from_flat(flat: FlatLabeling) -> Self {
        V2Store {
            body: Body::Flat(flat),
        }
    }

    /// Wraps compact lanes for serialization in the compact flavor.
    pub fn from_compact(compact: CompactLabeling) -> Self {
        V2Store {
            body: Body::Compact(compact),
        }
    }

    /// The arena a daemon mounts: the flat body by move, compact lanes
    /// expanded (exactly — [`CompactLabeling::to_flat`] is lossless).
    pub fn into_flat(self) -> FlatLabeling {
        match self.body {
            Body::Flat(f) => f,
            Body::Compact(c) => c.to_flat(),
        }
    }

    /// Number of vertices the store holds labels for.
    pub fn num_nodes(&self) -> usize {
        match &self.body {
            Body::Flat(f) => f.num_nodes(),
            Body::Compact(c) => c.num_nodes(),
        }
    }

    /// Total `(hub, distance)` entries, `Σ_v |S_v|`.
    pub fn num_entries(&self) -> usize {
        match &self.body {
            Body::Flat(f) => f.num_entries(),
            Body::Compact(c) => c.num_entries(),
        }
    }

    /// The flag word this store serializes with: 0 for the flat flavor,
    /// [`FLAG_COMPACT`] plus the width bits matching the lanes for the
    /// compact one.
    pub fn flags(&self) -> u16 {
        match &self.body {
            Body::Flat(_) => 0,
            Body::Compact(c) => {
                let mut flags = FLAG_COMPACT;
                if c.hub_entry_bytes() == u32::BYTES {
                    flags |= FLAG_HUBS_WIDE;
                }
                if c.dist_entry_bytes() == u32::BYTES {
                    flags |= FLAG_DISTS_WIDE;
                }
                flags
            }
        }
    }

    fn layout(&self) -> Layout {
        let (hub_bytes, dist_bytes) = entry_bytes(self.flags());
        layout_with(self.num_nodes(), self.num_entries(), hub_bytes, dist_bytes)
    }

    /// Per-section byte sizes in table order, for stats reporting.
    pub fn section_bytes(&self) -> [(&'static str, u64); 3] {
        let lay = self.layout();
        [0, 1, 2].map(|i| (SECTION_NAMES[i], lay.sections[i].byte_len))
    }

    /// The label payload in bits: the two entry sections.
    pub fn label_bits(&self) -> u64 {
        let [_, (_, hubs), (_, dists)] = self.section_bytes();
        (hubs + dists) * 8
    }

    /// Size of the serialized file in bytes.
    pub fn file_len(&self) -> u64 {
        self.layout().file_len
    }

    /// Serializes the store into a fresh byte buffer.
    pub fn encode(&self) -> Vec<u8> {
        let lay = self.layout();
        // A layout too long to address fails here as an allocation would.
        let mut buf = vec![0u8; usize::try_from(lay.file_len).unwrap_or(usize::MAX)];

        buf[0..4].copy_from_slice(&MAGIC);
        buf[4..6].copy_from_slice(&VERSION.to_le_bytes());
        buf[6..8].copy_from_slice(&self.flags().to_le_bytes());
        buf[8..16].copy_from_slice(&(self.num_nodes() as u64).to_le_bytes());
        buf[16..24].copy_from_slice(&(self.num_entries() as u64).to_le_bytes());

        let [offsets, hubs, dists] = lay.sections;
        match &self.body {
            Body::Flat(f) => {
                write_lane(&mut buf, offsets, f.raw_offsets().iter().copied());
                write_lane(&mut buf, hubs, f.raw_hubs().iter().copied());
                // On disk the distance lane stays u64.
                let wide = f.raw_dists().iter().map(|&d| u64::from(d));
                write_lane(&mut buf, dists, wide);
            }
            Body::Compact(c) => {
                write_lane(&mut buf, offsets, c.raw_offsets().iter().copied());
                write_narrow_lane(&mut buf, hubs, c.raw_hubs());
                write_narrow_lane(&mut buf, dists, c.raw_dists());
            }
        }

        for (i, sec) in lay.sections.iter().enumerate() {
            let sum = section_checksum(&buf[sec.range()]);
            let rec = TABLE_OFF + i * RECORD_LEN;
            buf[rec..rec + 8].copy_from_slice(&sec.file_offset.to_le_bytes());
            buf[rec + 8..rec + 16].copy_from_slice(&sec.byte_len.to_le_bytes());
            buf[rec + 16..rec + 24].copy_from_slice(&sum.to_le_bytes());
        }
        let table_sum = fnv1a64(&buf[TABLE_OFF..HEADER_LEN]);
        buf[24..32].copy_from_slice(&table_sum.to_le_bytes());
        buf
    }

    /// Serializes the store to a writer.
    pub fn write_to<W: Write>(&self, mut out: W) -> Result<(), StoreError> {
        out.write_all(&self.encode())?;
        out.flush()?;
        Ok(())
    }

    /// Serializes the store to a file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), StoreError> {
        let file = File::create(path)?;
        self.write_to(io::BufWriter::new(file))
    }

    /// Parses and validates a serialized v2 store of either flavor. The
    /// flag word picks the flavor and the lane widths: it must be 0 (flat)
    /// or carry [`FLAG_COMPACT`] and nothing outside [`FLAGS_KNOWN`] —
    /// width bits without the compact bit are as unknown as any other.
    /// Every later step is shared: the frame checks, the fused
    /// checksum+decode pass, and the arena's own structural validation
    /// ([`FlatLabeling::from_raw_parts`] or
    /// [`CompactLabeling::from_raw_parts`]).
    pub fn parse(bytes: &[u8]) -> Result<Self, StoreError> {
        let (flags, n, e) = parse_header(bytes)?;
        let compact = flags & FLAG_COMPACT != 0;
        let known = if compact { FLAGS_KNOWN } else { 0 };
        if flags & !known != 0 {
            return Err(StoreError::UnsupportedFlags(flags));
        }
        let (hub_bytes, dist_bytes) = entry_bytes(flags);

        usize::try_from(n)
            .map_err(|_| StoreError::Corrupt(format!("node count {n} exceeds address space")))?;
        usize::try_from(e)
            .map_err(|_| StoreError::Corrupt(format!("entry count {e} exceeds address space")))?;
        let expect_lens = expected_section_lens(n, e, hub_bytes as u64, dist_bytes as u64)?;
        let sections = validate_frame(bytes, &expect_lens)?;

        let body = if compact {
            let (offsets, hubs, dists) = decode_sections(
                bytes,
                &sections,
                |s| decode_narrow_section(s, hub_bytes),
                |s| decode_narrow_section(s, dist_bytes),
            )?;
            CompactLabeling::from_raw_parts(offsets, hubs, dists).map(Body::Compact)
        } else {
            let (offsets, hubs, (dists, widest)) = decode_sections(
                bytes,
                &sections,
                decode_section::<u32>,
                decode_dists_section,
            )?;
            if widest > u64::from(u32::MAX) {
                return Err(StoreError::Corrupt(format!(
                    "distance {widest} in the dists section exceeds the arena's u32 lane"
                )));
            }
            FlatLabeling::from_raw_parts(offsets, hubs, dists).map(Body::Flat)
        }
        .map_err(|e| StoreError::Corrupt(format!("arena invariant violated: {e}")))?;
        Ok(V2Store { body })
    }
}

/// On-disk bytes per hub and per distance entry under flag word `flags`
/// — the one place a flavor's lane widths are spelled out, read by the
/// writer's layout and the reader's expected lengths alike.
fn entry_bytes(flags: u16) -> (usize, usize) {
    if flags & FLAG_COMPACT == 0 {
        return (u32::BYTES, u64::BYTES);
    }
    let narrow = |wide: u16| {
        if flags & wide != 0 {
            u32::BYTES
        } else {
            u16::BYTES
        }
    };
    (narrow(FLAG_HUBS_WIDE), narrow(FLAG_DISTS_WIDE))
}

/// Validates the fixed header shared by both flavors — length, magic,
/// version, table checksum — and returns `(flags, n, e)`. Interpreting
/// the flag word stays with the caller.
fn parse_header(bytes: &[u8]) -> Result<(u16, u64, u64), StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            expected: HEADER_LEN as u64,
            actual: bytes.len() as u64,
        });
    }
    let version = format_version(bytes)?;
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let flags = u16::from_le_bytes(read_array(bytes, 6)?);
    let n = read_u64(bytes, 8)?;
    let e = read_u64(bytes, 16)?;
    let table_checksum = read_u64(bytes, 24)?;

    let actual_table = fnv1a64(&bytes[TABLE_OFF..HEADER_LEN]);
    if actual_table != table_checksum {
        return Err(StoreError::ChecksumMismatch {
            expected: table_checksum,
            actual: actual_table,
        });
    }
    Ok((flags, n, e))
}

/// Expected exact section lengths for the declared counts and lane
/// widths; checked arithmetic so a lying header cannot wrap into a small
/// number.
fn expected_section_lens(
    n: u64,
    e: u64,
    hub_bytes: u64,
    dist_bytes: u64,
) -> Result<[u64; 3], StoreError> {
    Ok([
        n.checked_add(1)
            .and_then(|c| c.checked_mul(8))
            .ok_or_else(|| {
                StoreError::Corrupt(format!("node count {n} overflows offsets section"))
            })?,
        e.checked_mul(hub_bytes).ok_or_else(|| {
            StoreError::Corrupt(format!("entry count {e} overflows hubs section"))
        })?,
        e.checked_mul(dist_bytes).ok_or_else(|| {
            StoreError::Corrupt(format!("entry count {e} overflows dists section"))
        })?,
    ])
}

/// Validates the section table records (aligned, exact-length, in-bounds,
/// ascending, non-overlapping — all against the *actual* file length
/// before any section-sized allocation happens), the zero padding between
/// sections, and the absence of trailing bytes. Shared by both flavors;
/// only the expected lengths differ.
fn validate_frame(bytes: &[u8], expect_lens: &[u64; 3]) -> Result<[Section; 3], StoreError> {
    let file_len = bytes.len() as u64;
    let mut sections = [Section::default(); 3];
    let mut prev_end = HEADER_LEN as u64;
    for (i, name) in SECTION_NAMES.iter().enumerate() {
        let rec = TABLE_OFF + i * RECORD_LEN;
        let off = read_u64(bytes, rec)?;
        let len = read_u64(bytes, rec + 8)?;
        if off % SECTION_ALIGN as u64 != 0 {
            return Err(StoreError::Corrupt(format!(
                "section {name} misaligned: offset {off} is not a multiple of {SECTION_ALIGN}"
            )));
        }
        if len != expect_lens[i] {
            return Err(StoreError::Corrupt(format!(
                "section {name} length {len} does not match expected {} for the declared counts",
                expect_lens[i]
            )));
        }
        let end = off
            .checked_add(len)
            .ok_or_else(|| StoreError::Corrupt(format!("section {name} extent overflows")))?;
        if off < prev_end {
            return Err(StoreError::Corrupt(format!(
                "section {name} at offset {off} overlaps the bytes before it (end {prev_end})"
            )));
        }
        if end > file_len {
            return Err(StoreError::Truncated {
                expected: end,
                actual: file_len,
            });
        }
        sections[i] = Section {
            file_offset: off,
            byte_len: len,
        };
        prev_end = end;
    }
    if prev_end != file_len {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after the dists section",
            file_len - prev_end
        )));
    }

    // Padding gaps carry no checksum, so they must be all zero — that
    // way a blind bit flip anywhere in the file is detectable.
    let mut gap_start = HEADER_LEN;
    for (i, sec) in sections.iter().enumerate() {
        let gap = &bytes[gap_start..sec.range().start];
        if gap.iter().any(|&b| b != 0) {
            return Err(StoreError::Corrupt(format!(
                "nonzero padding before section {}",
                SECTION_NAMES[i]
            )));
        }
        gap_start = sec.range().end;
    }
    Ok(sections)
}

/// Decodes the three sections of a validated frame and checks every
/// section checksum against its table record, for either flavor: `hubs`
/// and `dists` are the fused decoders of the flavor's two entry lanes.
///
/// Checksum and little-endian decode are fused into ONE pass per
/// section: every word is read once, absorbed into the lane hash, and
/// stored decoded. A separate verify pass would stream the whole
/// multi-GB file through memory a second time. Decoding ahead of
/// verification is safe because the decode is pure element-wise
/// arithmetic — nothing indexes by the untrusted values — and the
/// vectors are dropped unused unless every checksum matches its table
/// record. The computed hashes are bit-identical to [`section_checksum`].
fn decode_sections<H: Send, D: Send>(
    bytes: &[u8],
    sections: &[Section; 3],
    hubs: impl FnOnce(&[u8]) -> (H, u64) + Send,
    dists: impl FnOnce(&[u8]) -> (D, u64) + Send,
) -> Result<(Vec<u64>, H, D), StoreError> {
    let [offsets_bytes, hubs_bytes, dists_bytes] = sections.map(|sec| &bytes[sec.range()]);
    // Sections are independent, so on multi-core hosts the two entry
    // lanes decode on scoped threads while this thread takes offsets —
    // the load is memory-bandwidth-bound, and per-core bandwidth is
    // usually well below the socket's.
    let parallel = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
    let ((offsets, offsets_sum), (hubs, hubs_sum), (dists, dists_sum)) = if parallel {
        std::thread::scope(|scope| -> Result<_, StoreError> {
            let hubs = scope.spawn(|| hubs(hubs_bytes));
            let dists = scope.spawn(|| dists(dists_bytes));
            let offsets = decode_section::<u64>(offsets_bytes);
            // The decoders are pure arithmetic and cannot panic; a
            // join error still maps to a typed StoreError rather
            // than propagating as a panic.
            let joined = |name: &str| StoreError::Corrupt(format!("{name} decode thread died"));
            Ok((
                offsets,
                hubs.join().map_err(|_| joined("hubs"))?,
                dists.join().map_err(|_| joined("dists"))?,
            ))
        })?
    } else {
        (
            decode_section::<u64>(offsets_bytes),
            hubs(hubs_bytes),
            dists(dists_bytes),
        )
    };
    for (i, actual) in [offsets_sum, hubs_sum, dists_sum].into_iter().enumerate() {
        let declared = read_u64(bytes, TABLE_OFF + i * RECORD_LEN + 16)?;
        if actual != declared {
            return Err(StoreError::Corrupt(format!(
                "section {} checksum mismatch: table says {declared:#018x}, bytes hash to {actual:#018x}",
                SECTION_NAMES[i]
            )));
        }
    }
    Ok((offsets, hubs, dists))
}

/// Combines the four lane states, the byte-FNV tail hash, and the byte
/// length into the final section hash — the last step of
/// [`section_checksum`], shared with the fused decoder below.
fn combine_lanes(lanes: [u64; 4], tail: u64, byte_len: usize) -> u64 {
    let mut h = FNV_OFFSET;
    for w in lanes.into_iter().chain([tail, byte_len as u64]) {
        h = (h ^ w).wrapping_mul(FNV_PRIME);
    }
    h
}

const LANE_SEEDS: [u64; 4] = [
    FNV_OFFSET ^ 1,
    FNV_OFFSET ^ 2,
    FNV_OFFSET ^ 3,
    FNV_OFFSET ^ 4,
];

/// Decodes a section of little-endian `T`s while computing its
/// [`section_checksum`] in the same pass over the bytes. `bytes.len()`
/// must be a multiple of `T::BYTES` (the caller validated section
/// lengths). The hash always folds u64 *words*, whatever the element
/// width: each 32-byte chunk is absorbed as four words and decoded as
/// `32 / T::BYTES` elements while it is in cache.
fn decode_section<T: Lane>(bytes: &[u8]) -> (Vec<T>, u64) {
    decode_section_into(bytes, |x: T| x)
}

/// The flat flavor's distance section: `u64` words on disk, stored into
/// the arena's `u32` lane as they are decoded, so no `u64` lane is ever
/// allocated. Returns the widest word too; the caller rejects the store
/// if it does not fit `u32`, after the checksums have been checked.
fn decode_dists_section(bytes: &[u8]) -> ((Vec<u32>, u64), u64) {
    let mut widest = 0u64;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the caller rejects the store when `widest` does not fit u32"
    )]
    let (lane, sum) = decode_section_into(bytes, |d: u64| {
        widest = widest.max(d);
        d as u32
    });
    ((lane, widest), sum)
}

/// [`decode_section`] with each decoded `T` passed through `convert` on
/// its way into the output lane.
fn decode_section_into<T: Lane, U: Copy + Default>(
    bytes: &[u8],
    mut convert: impl FnMut(T) -> U,
) -> (Vec<U>, u64) {
    let mut out = vec![U::default(); bytes.len() / T::BYTES];
    let mut lanes = LANE_SEEDS;
    let mut src = bytes.chunks_exact(32);
    let mut dst = out.chunks_exact_mut(32 / T::BYTES);
    for (d, s) in (&mut dst).zip(&mut src) {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = (*lane ^ u64::read_le(&s[j * 8..j * 8 + 8])).wrapping_mul(FNV_PRIME);
        }
        for (slot, chunk) in d.iter_mut().zip(s.chunks_exact(T::BYTES)) {
            *slot = convert(T::read_le(chunk));
        }
    }
    let mut tail = FNV_OFFSET;
    for &b in src.remainder() {
        tail = (tail ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    for (slot, chunk) in dst
        .into_remainder()
        .iter_mut()
        .zip(src.remainder().chunks_exact(T::BYTES))
    {
        *slot = convert(T::read_le(chunk));
    }
    let h = combine_lanes(lanes, tail, bytes.len());
    (out, h)
}

/// [`decode_section`] at the width a compact lane's flag bit declares.
fn decode_narrow_section(bytes: &[u8], entry_bytes: usize) -> (HubDeltas, u64) {
    if entry_bytes == u32::BYTES {
        let (v, sum) = decode_section::<u32>(bytes);
        (HubDeltas::U32(v), sum)
    } else {
        let (v, sum) = decode_section::<u16>(bytes);
        (HubDeltas::U16(v), sum)
    }
}

/// Lays `values` out little-endian from the start of section `sec`.
fn write_lane<T: Lane>(buf: &mut [u8], sec: Section, values: impl IntoIterator<Item = T>) {
    for (out, v) in buf[sec.range()].chunks_exact_mut(T::BYTES).zip(values) {
        v.write_le(out);
    }
}

/// [`write_lane`] at whichever width a compact lane holds.
fn write_narrow_lane(buf: &mut [u8], sec: Section, lane: &CompactDists) {
    match lane {
        CompactDists::U16(v) => write_lane(buf, sec, v.iter().copied()),
        CompactDists::U32(v) => write_lane(buf, sec, v.iter().copied()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::any_store::AnyStore;
    use hl_core::pll::PrunedLandmarkLabeling;
    use hl_graph::{generators, NodeId};

    fn sample_flat() -> FlatLabeling {
        let g = generators::grid(5, 6);
        PrunedLandmarkLabeling::by_degree(&g).into_labeling()
    }

    fn refresh_table_checksum(buf: &mut [u8]) {
        let sum = fnv1a64(&buf[TABLE_OFF..HEADER_LEN]);
        buf[24..32].copy_from_slice(&sum.to_le_bytes());
    }

    fn refresh_section_checksum(buf: &mut [u8], section: usize) {
        let rec = TABLE_OFF + section * RECORD_LEN;
        let off = u64::from_le_bytes(buf[rec..rec + 8].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(buf[rec + 8..rec + 16].try_into().unwrap()) as usize;
        let sum = section_checksum(&buf[off..off + len]);
        buf[rec + 16..rec + 24].copy_from_slice(&sum.to_le_bytes());
        refresh_table_checksum(buf);
    }

    #[test]
    fn layout_is_aligned_and_dense() {
        let lay = layout_with(1000, 12345, 4, 8);
        let mut prev_end = HEADER_LEN as u64;
        for sec in &lay.sections {
            assert_eq!(sec.file_offset % SECTION_ALIGN as u64, 0);
            assert!(sec.file_offset >= prev_end);
            assert!(sec.file_offset - prev_end < SECTION_ALIGN as u64);
            prev_end = sec.file_offset + sec.byte_len;
        }
        assert_eq!(lay.file_len, prev_end);
        assert_eq!(lay.sections[0].byte_len, 1001 * 8);
        assert_eq!(lay.sections[1].byte_len, 12345 * 4);
        assert_eq!(lay.sections[2].byte_len, 12345 * 8);
    }

    #[test]
    fn roundtrip_preserves_arena_exactly() {
        let flat = sample_flat();
        let store = FlatStore::from_flat(flat.clone());
        assert_eq!(store.flags(), 0);
        let bytes = store.encode();
        assert_eq!(bytes.len() as u64, store.file_len());
        let back = FlatStore::parse(&bytes).expect("own encoding must parse");
        // Deterministic writer: encoding again is byte-identical.
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.into_flat(), flat);
    }

    #[test]
    fn empty_arena_roundtrips() {
        let store = FlatStore::from_flat(FlatLabeling::new());
        let bytes = store.encode();
        let back = FlatStore::parse(&bytes).unwrap();
        assert_eq!(back.num_nodes(), 0);
        assert_eq!(back.num_entries(), 0);
    }

    #[test]
    fn header_fields_rejected() {
        let bytes = FlatStore::from_flat(sample_flat()).encode();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            FlatStore::parse(&bad),
            Err(StoreError::BadMagic(_))
        ));
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(matches!(
            FlatStore::parse(&bad),
            Err(StoreError::UnsupportedVersion(9))
        ));
        // An unknown flag bit, and a width bit without the compact bit
        // it qualifies, are both rejected by name...
        for flags in [1u8 << 3, FLAG_HUBS_WIDE as u8, FLAG_DISTS_WIDE as u8] {
            let mut bad = bytes.clone();
            bad[6] = flags;
            assert!(matches!(
                FlatStore::parse(&bad),
                Err(StoreError::UnsupportedFlags(f)) if f == flags as u16
            ));
        }
        // ...and claiming the compact flavor over flat-width sections
        // dies on the section lengths that flavor implies.
        let mut bad = bytes.clone();
        bad[6] = FLAG_COMPACT as u8;
        assert!(matches!(
            FlatStore::parse(&bad),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = FlatStore::from_flat(sample_flat()).encode();
        for cut in [
            0,
            3,
            HEADER_LEN - 1,
            HEADER_LEN,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            assert!(
                FlatStore::parse(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = FlatStore::from_flat(sample_flat()).encode();
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            FlatStore::parse(&bytes),
            Err(StoreError::Corrupt(ref m)) if m.contains("trailing")
        ));
    }

    #[test]
    fn every_blind_byte_flip_is_detected() {
        // The format's corruption-detection contract: flip any single
        // byte anywhere — header, table, padding, any section — and the
        // parse must fail with a typed error.
        let flat = sample_flat();
        let bytes = FlatStore::from_flat(flat).encode();
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(
                FlatStore::parse(&bad).is_err(),
                "flipped byte at {at} went undetected"
            );
        }
    }

    #[test]
    fn crafted_section_flip_fails_structural_validation() {
        // Overwrite offsets[1] with a huge value and refresh the section
        // checksum — the crafted-store shape. The checksum now matches,
        // so only the structural pass can catch it (monotonicity).
        let flat = sample_flat();
        let mut bytes = FlatStore::from_flat(flat.clone()).encode();
        let off0 = layout_with(flat.num_nodes(), flat.num_entries(), 4, 8).sections[0].file_offset
            as usize;
        bytes[off0 + 8..off0 + 16].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        refresh_section_checksum(&mut bytes, 0);
        let err = FlatStore::parse(&bytes).expect_err("crafted offsets must be rejected");
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn crafted_misaligned_section_offset_rejected() {
        let mut bytes = FlatStore::from_flat(sample_flat()).encode();
        let rec = TABLE_OFF; // offsets record
        let off = u64::from_le_bytes(bytes[rec..rec + 8].try_into().unwrap());
        bytes[rec..rec + 8].copy_from_slice(&(off + 1).to_le_bytes());
        refresh_table_checksum(&mut bytes);
        let err = FlatStore::parse(&bytes).expect_err("misaligned section must be rejected");
        assert!(
            matches!(err, StoreError::Corrupt(ref m) if m.contains("misaligned")),
            "{err:?}"
        );
    }

    #[test]
    fn crafted_huge_counts_rejected_before_allocation() {
        // Lie about n/e in the header (checksums refreshed): the expected
        // section lengths no longer match the table records, so the parse
        // dies before any table-sized allocation.
        let mut bytes = FlatStore::from_flat(sample_flat()).encode();
        bytes[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        refresh_table_checksum(&mut bytes);
        let err = FlatStore::parse(&bytes).expect_err("lying node count");
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");

        let mut bytes2 = FlatStore::from_flat(sample_flat()).encode();
        bytes2[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        refresh_table_checksum(&mut bytes2);
        let err = FlatStore::parse(&bytes2).expect_err("overflowing entry count");
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn crafted_unsorted_hubs_rejected() {
        // Swap two hub ids inside one vertex's run and refresh the hubs
        // checksum: the arena structural pass must reject it.
        let flat = sample_flat();
        let e = flat.num_entries();
        let mut bytes = FlatStore::from_flat(flat.clone()).encode();
        let lay = layout_with(flat.num_nodes(), e, 4, 8);
        // Find a vertex with >= 2 hubs and swap its first two entries.
        let v = (0..flat.num_nodes())
            .find(|&v| flat.hubs_of(v as NodeId).len() >= 2)
            .expect("grid labels have multi-hub vertices");
        let run_start = flat.raw_offsets()[v] as usize;
        let base = lay.sections[1].file_offset as usize + run_start * 4;
        let (a, b) = (base, base + 4);
        for i in 0..4 {
            bytes.swap(a + i, b + i);
        }
        refresh_section_checksum(&mut bytes, 1);
        let err = FlatStore::parse(&bytes).expect_err("unsorted hubs must be rejected");
        assert!(
            matches!(err, StoreError::Corrupt(ref m) if m.contains("strictly increasing")),
            "{err:?}"
        );
    }

    #[test]
    fn fused_decoders_match_section_checksum() {
        // The parse path hashes sections inside the decode loop; that
        // fused hash must be bit-identical to the spec function the
        // writer uses, including at tail lengths that exercise the
        // byte-FNV remainder (0..4 words past a 32-byte boundary).
        let mut bytes = Vec::new();
        for i in 0..200u32 {
            bytes.push((i as u8).wrapping_mul(37).wrapping_add(11));
        }
        for len in [0, 8, 16, 24, 32, 40, 64, 72, 96, 104, 136, 200] {
            let s = &bytes[..len];
            let (vals, h) = decode_section::<u64>(s);
            assert_eq!(h, section_checksum(s), "u64 fused hash at len {len}");
            assert_eq!(vals.len(), len / 8);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(
                    v,
                    u64::from_le_bytes(s[i * 8..i * 8 + 8].try_into().unwrap())
                );
            }
        }
        for len in [0, 4, 12, 28, 32, 36, 60, 64, 68, 100, 196, 200] {
            let s = &bytes[..len];
            let (vals, h) = decode_section::<u32>(s);
            assert_eq!(h, section_checksum(s), "u32 fused hash at len {len}");
            assert_eq!(vals.len(), len / 4);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(
                    v,
                    u32::from_le_bytes(s[i * 4..i * 4 + 4].try_into().unwrap())
                );
            }
        }
    }

    #[test]
    fn section_bytes_report_matches_layout() {
        let flat = sample_flat();
        let store = FlatStore::from_flat(flat.clone());
        let report = store.section_bytes();
        assert_eq!(report[0], ("offsets", (flat.num_nodes() as u64 + 1) * 8));
        assert_eq!(report[1], ("hubs", flat.num_entries() as u64 * 4));
        assert_eq!(report[2], ("dists", flat.num_entries() as u64 * 8));
    }

    fn sample_compact() -> CompactLabeling {
        CompactLabeling::from_flat(&sample_flat()).expect("grid labels compact cleanly")
    }

    #[test]
    fn compact_roundtrip_preserves_arena_exactly() {
        let compact = sample_compact();
        let store = CompactStore::from_compact(compact.clone());
        let bytes = store.encode();
        assert_eq!(bytes.len() as u64, store.file_len());
        let back = CompactStore::parse(&bytes).expect("own encoding must parse");
        assert_eq!(back, CompactStore::from_compact(compact.clone()));
        // Deterministic writer: encoding again is byte-identical.
        assert_eq!(back.encode(), bytes);
        // And the decoded arena answers exactly like the flat one.
        let flat = sample_flat();
        for u in 0..flat.num_nodes() as NodeId {
            for v in 0..flat.num_nodes() as NodeId {
                assert_eq!(compact.query(u, v), flat.query(u, v));
            }
        }
    }

    #[test]
    fn compact_flag_word_tracks_lane_widths() {
        let narrow = CompactStore::from_compact(sample_compact());
        assert_eq!(narrow.flags(), FLAG_COMPACT);
        let mut wide_hl = vec![Vec::new(); 200_000];
        wide_hl[0] = vec![(0, 0), (70_000, 1 << 20)];
        wide_hl[70_000] = vec![(70_000, 0)];
        let wide = CompactStore::from_compact(
            CompactLabeling::from_flat(&FlatLabeling::from_pair_lists(wide_hl).unwrap()).unwrap(),
        );
        assert_eq!(
            wide.flags(),
            FLAG_COMPACT | FLAG_HUBS_WIDE | FLAG_DISTS_WIDE
        );
        // Both flavors roundtrip through their own flags.
        assert_eq!(CompactStore::parse(&wide.encode()).unwrap(), wide);
    }

    #[test]
    fn one_parser_mounts_each_flavor_natively() {
        // The flag word alone picks the lane decoder, and both flavors of
        // one labeling mount as the same flat arena.
        let compact_bytes = CompactStore::from_compact(sample_compact()).encode();
        let flat_bytes = FlatStore::from_flat(sample_flat()).encode();
        let from_v2c = V2Store::parse(&compact_bytes).unwrap().into_flat();
        let from_v2 = V2Store::parse(&flat_bytes).unwrap().into_flat();
        assert_eq!(from_v2c, from_v2);
        assert_eq!(from_v2, sample_flat());
        // Unknown flag bits are rejected even with FLAG_COMPACT set.
        let mut bad = compact_bytes.clone();
        bad[6] |= 1 << 3;
        assert!(matches!(
            V2Store::parse(&bad),
            Err(StoreError::UnsupportedFlags(f)) if f & FLAG_COMPACT != 0
        ));
    }

    #[test]
    fn compact_every_blind_byte_flip_is_detected() {
        // The corruption-detection contract extends to the compact
        // flavor: flip any single byte anywhere — header, flag word,
        // table, padding, any narrow-lane section — and the parse fails.
        let bytes = CompactStore::from_compact(sample_compact()).encode();
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(
                CompactStore::parse(&bad).is_err(),
                "flipped byte at {at} went undetected"
            );
        }
    }

    #[test]
    fn compact_heap_bytes_equals_sum_of_section_byte_lens() {
        // The stats contract: the lanes' exact heap accounting and the
        // store's section table describe the same bytes — no hidden side
        // tables, no double-counted fallback lanes — so `hubserve stats`
        // can read v2c lane widths off the section table alone.
        let store = CompactStore::from_compact(sample_compact());
        let section_sum: u64 = store.section_bytes().iter().map(|&(_, b)| b).sum();
        assert_eq!(sample_compact().heap_bytes() as u64, section_sum);
        // On the flat side the on-disk dists lane is u64 and the arena's
        // is u32: the arena is the sections minus 4 bytes an entry.
        let flat = sample_flat();
        let flat_store = FlatStore::from_flat(flat.clone());
        let flat_sum: u64 = flat_store.section_bytes().iter().map(|&(_, b)| b).sum();
        let e = flat.num_entries() as u64;
        assert_eq!(flat.heap_bytes() as u64, flat_sum - 4 * e);
    }

    #[test]
    fn crafted_distance_past_the_u32_lane_is_corrupt_at_the_mount() {
        // The dists section stays u64 on disk; the mount narrows it into
        // the arena's u32 lane. A word of 2^32 with every checksum
        // refreshed must stop there, while u32::MAX still mounts.
        let flat = sample_flat();
        let clean = FlatStore::from_flat(flat.clone()).encode();
        let dists_at = layout_with(flat.num_nodes(), flat.num_entries(), 4, 8).sections[2]
            .file_offset as usize;
        let last = dists_at + (flat.num_entries() - 1) * 8;
        for (word, ok) in [(u64::from(u32::MAX), true), (1u64 << 32, false)] {
            let mut bytes = clean.clone();
            bytes[last..last + 8].copy_from_slice(&word.to_le_bytes());
            refresh_section_checksum(&mut bytes, 2);
            let mounted = AnyStore::parse(&bytes);
            if ok {
                let arena = mounted
                    .expect("u32::MAX fits the lane")
                    .into_flat()
                    .unwrap();
                assert_eq!(arena.raw_dists().last(), Some(&u32::MAX));
            } else {
                let err = mounted.expect_err("2^32 does not fit the lane");
                assert!(
                    matches!(err, StoreError::Corrupt(ref m) if m.contains("u32")),
                    "{err:?}"
                );
            }
        }
    }

    #[test]
    fn crafted_compact_lanes_are_corrupt_at_the_mount() {
        // Expanding at mount must not skip the lanes' own validation: a
        // zero delta mid-run (a duplicate hub) and a run walking past the
        // last vertex, each with every checksum refreshed, stop at
        // `CompactLabeling::from_raw_parts` inside `AnyStore::parse`.
        let flat = sample_flat();
        let store = CompactStore::from_compact(sample_compact());
        assert_eq!(store.flags(), FLAG_COMPACT, "both lanes u16");
        let clean = store.encode();
        let hubs_at = layout_with(flat.num_nodes(), flat.num_entries(), 2, 2).sections[1]
            .file_offset as usize;
        let v = (0..flat.num_nodes())
            .find(|&v| flat.hubs_of(v as NodeId).len() >= 3)
            .expect("grid labels have runs of three");
        let run = flat.raw_offsets()[v] as usize;
        let n = flat.num_nodes() as u16;
        for (entry, delta, reason) in [
            (run + 1, 0, "strictly increasing"),
            (run, n, "out-of-range hub"),
        ] {
            let mut bytes = clean.clone();
            let at = hubs_at + entry * 2;
            bytes[at..at + 2].copy_from_slice(&delta.to_le_bytes());
            refresh_section_checksum(&mut bytes, 1);
            let err = AnyStore::parse(&bytes).expect_err(reason);
            assert!(
                matches!(err, StoreError::Corrupt(ref m) if m.contains(reason)),
                "{err:?}"
            );
        }
    }

    #[test]
    fn fused_u16_decoder_matches_section_checksum() {
        let mut bytes = Vec::new();
        for i in 0..200u32 {
            bytes.push((i as u8).wrapping_mul(53).wrapping_add(7));
        }
        for len in [0, 2, 6, 16, 30, 32, 34, 62, 64, 66, 98, 130, 200] {
            let s = &bytes[..len];
            let (vals, h) = decode_section::<u16>(s);
            assert_eq!(h, section_checksum(s), "u16 fused hash at len {len}");
            assert_eq!(vals.len(), len / 2);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(
                    v,
                    u16::from_le_bytes(s[i * 2..i * 2 + 2].try_into().unwrap())
                );
            }
        }
    }

    #[test]
    fn compact_save_and_open_roundtrip() {
        let compact = sample_compact();
        let dir = std::env::temp_dir().join(format!("hlbs2c-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.hlbs2c");
        CompactStore::from_compact(compact.clone())
            .save(&path)
            .unwrap();
        let back = AnyStore::open(&path).unwrap();
        assert_eq!(back.served(), &compact.to_flat());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_and_open_roundtrip() {
        let flat = sample_flat();
        let dir = std::env::temp_dir().join(format!("hlbs2-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.hlbs2");
        FlatStore::from_flat(flat.clone()).save(&path).unwrap();
        let back = AnyStore::open(&path).unwrap();
        assert_eq!(back.served(), &flat);
        std::fs::remove_dir_all(&dir).ok();
    }
}
