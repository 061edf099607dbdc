//! HLBS version 2 — the on-disk body *is* the [`FlatLabeling`] arena.
//!
//! Version 1 stores labels γ-coded: minimal bytes on disk, but opening a
//! multi-GB store means bit-decoding 100M+ entries before the first query.
//! Version 2 inverts the trade: the three CSR arrays (`offsets`, `hubs`,
//! `dists`) are laid out verbatim, little-endian, each in its own aligned,
//! individually checksummed section — so a load is each section streamed
//! through one chunk buffer, checksummed and decoded in the same pass,
//! then one structural scan. No bit twiddling, no per-label work, and no
//! image of the whole file: a save or a read holds the arena and one
//! 256 KiB buffer. A daemon's mount ([`V2Store::parse_served`], which
//! `AnyStore::mount` runs on a file) holds less: it walks the hubs and
//! dists sections twice, once to count and once to place each run into
//! the served layout, so it holds that layout, the offsets and the one
//! buffer, and never the flat arena. v1 remains the archival/transport
//! encoding (`hubserve convert` moves between them losslessly); v2 is
//! what a daemon mounts.
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
//! the declared `n`/`e`, in-bounds against the image's real length,
//! ascending and non-overlapping) before any section-sized allocation, the
//! zero padding, each section checksum (computed in the same pass that
//! decodes the section — decoded data is discarded unless every checksum
//! matches), and finally the structural invariants of the decoded arena
//! via [`FlatLabeling::from_raw_parts`] or
//! [`CompactLabeling::from_raw_parts`]. The served mount checks the same
//! frame, padding and offsets, then folds both entry checksums and checks
//! every run as `from_raw_parts` does on each of its two passes
//! ([`DenseLabeling::from_two_passes`]); a file that changes between the
//! passes is [`StoreError::Corrupt`]. Anything malformed is a typed
//! [`StoreError`], never a panic or a wrong distance — the same untrusted-
//! bytes discipline as v1, with the checksum catching accidents and the
//! structural pass catching crafted stores.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use std::fs::File;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

use hl_core::{CompactDists, CompactLabeling, DenseLabeling, FlatLabeling, HubDeltas, RunSink};
use hl_graph::sync::{fan_out, machine_workers};
use hl_graph::NodeId;

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

/// The one buffer a save or a mount moves section bytes through, whatever
/// the file's size. A mount splits it among its section decoders; every
/// share stays a multiple of [`SECTION_ALIGN`], hence of the checksum's
/// 32-byte fold and of every lane width.
const CHUNK: usize = 256 << 10;

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
    let mut fold = LaneFold::default();
    fold.absorb(bytes);
    fold.finish()
}

/// A [`section_checksum`] in progress, so a section can be folded one
/// chunk at a time: the four lane states, the byte-FNV of the tail, and
/// the bytes absorbed so far.
struct LaneFold {
    lanes: [u64; 4],
    tail: u64,
    len: u64,
}

impl Default for LaneFold {
    fn default() -> Self {
        LaneFold {
            lanes: [1, 2, 3, 4].map(|seed| FNV_OFFSET ^ seed),
            tail: FNV_OFFSET,
            len: 0,
        }
    }
}

impl LaneFold {
    /// Folds the next bytes of the section in. Only the last call may
    /// pass a length that is not a multiple of 32: its remainder is the
    /// tail.
    fn absorb(&mut self, bytes: &[u8]) {
        debug_assert_eq!(self.len % 32, 0, "bytes absorbed after the tail");
        let mut words = bytes.chunks_exact(32);
        for c in words.by_ref() {
            for (j, lane) in self.lanes.iter_mut().enumerate() {
                *lane = (*lane ^ u64::read_le(&c[j * 8..j * 8 + 8])).wrapping_mul(FNV_PRIME);
            }
        }
        for &b in words.remainder() {
            self.tail = (self.tail ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.len += bytes.len() as u64;
    }

    /// Combines the lanes, the tail hash and the length into the hash.
    fn finish(self) -> u64 {
        let mut h = FNV_OFFSET;
        for w in self.lanes.into_iter().chain([self.tail, self.len]) {
            h = (h ^ w).wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// Placement of one section within the file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Section {
    /// Absolute file offset of the section's first byte.
    pub file_offset: u64,
    /// Exact byte length of the section.
    pub byte_len: u64,
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

/// Where the reader finds a v2 image: its length and positional reads
/// are all it asks, so a file mounts through the very checks a byte
/// slice parses through, and is never read whole.
pub(crate) trait Image: Sync {
    /// The image's length in bytes.
    fn image_len(&self) -> io::Result<u64>;

    /// Fills `buf` with the image's bytes from `offset` on.
    fn fill_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
}

impl Image for [u8] {
    fn image_len(&self) -> io::Result<u64> {
        Ok(self.len() as u64)
    }

    fn fill_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let src = usize::try_from(offset)
            .ok()
            .and_then(|at| self.get(at..at.checked_add(buf.len())?))
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
        buf.copy_from_slice(src);
        Ok(())
    }
}

impl Image for File {
    fn image_len(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn fill_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.read_exact_at(buf, offset)
    }
}

/// The chunk buffer of a save or a mount ([`CHUNK`] bytes).
fn chunk_buffer() -> Vec<u8> {
    vec![0u8; CHUNK]
}

/// The HLBS v2 codec for both flavors: a thin wrapper holding the body
/// in its flavor's form. [`V2Store::write_to`] lays it out;
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

    /// Serializes the store into a fresh byte buffer: [`V2Store::write_to`]
    /// into a `Vec`.
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        let written = self.write_to(&mut bytes);
        assert!(
            written.is_ok(),
            "writing into a Vec cannot fail: {written:?}"
        );
        bytes
    }

    /// Serializes the store to a writer through one 256 KiB chunk
    /// buffer, in two passes over the body: the first folds each
    /// section's checksum, the second writes the header and table that
    /// carry them, then the padding and the sections. No buffer of the
    /// file's length is ever allocated.
    pub fn write_to<W: Write>(&self, mut out: W) -> Result<(), StoreError> {
        let lay = self.layout();
        let mut buf = chunk_buffer();
        let mut head = [0u8; HEADER_LEN];
        head[0..4].copy_from_slice(&MAGIC);
        head[4..6].copy_from_slice(&VERSION.to_le_bytes());
        head[6..8].copy_from_slice(&self.flags().to_le_bytes());
        head[8..16].copy_from_slice(&(self.num_nodes() as u64).to_le_bytes());
        head[16..24].copy_from_slice(&(self.num_entries() as u64).to_le_bytes());
        for (i, sec) in lay.sections.iter().enumerate() {
            let mut fold = LaneFold::default();
            self.stream_section(i, &mut buf, |bytes| {
                fold.absorb(bytes);
                Ok(())
            })?;
            let rec = TABLE_OFF + i * RECORD_LEN;
            head[rec..rec + 8].copy_from_slice(&sec.file_offset.to_le_bytes());
            head[rec + 8..rec + 16].copy_from_slice(&sec.byte_len.to_le_bytes());
            head[rec + 16..rec + 24].copy_from_slice(&fold.finish().to_le_bytes());
        }
        let table_sum = fnv1a64(&head[TABLE_OFF..]);
        head[24..32].copy_from_slice(&table_sum.to_le_bytes());

        out.write_all(&head)?;
        let mut at = HEADER_LEN as u64;
        for (i, sec) in lay.sections.iter().enumerate() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "layout_with aligns each section within SECTION_ALIGN of the bytes before it"
            )]
            let gap = (sec.file_offset - at) as usize;
            out.write_all(&[0; SECTION_ALIGN][..gap])?;
            self.stream_section(i, &mut buf, |bytes| out.write_all(bytes))?;
            at = sec.file_offset + sec.byte_len;
        }
        out.flush()?;
        Ok(())
    }

    /// Serializes the store to a file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), StoreError> {
        self.write_to(File::create(path)?)
    }

    /// Lays section `i` of the body out little-endian, one chunk of `buf`
    /// at a time, and hands each chunk to `sink`.
    fn stream_section(
        &self,
        i: usize,
        buf: &mut [u8],
        sink: impl FnMut(&[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        match (&self.body, i) {
            (Body::Flat(f), 0) => stream_lane(buf, f.raw_offsets(), |o: u64| o, sink),
            (Body::Compact(c), 0) => stream_lane(buf, c.raw_offsets(), |o: u64| o, sink),
            (Body::Flat(f), 1) => stream_lane(buf, f.raw_hubs(), |h: u32| h, sink),
            // On disk the distance lane stays u64.
            (Body::Flat(f), _) => stream_lane(buf, f.raw_dists(), u64::from, sink),
            (Body::Compact(c), 1) => stream_narrow_lane(buf, c.raw_hubs(), sink),
            (Body::Compact(c), _) => stream_narrow_lane(buf, c.raw_dists(), sink),
        }
    }

    /// Parses and validates a serialized v2 store of either flavor, through
    /// the reader [`crate::any_store::AnyStore::open`] mounts files by.
    pub fn parse(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::read(bytes)
    }

    /// Reads and validates a v2 store of either flavor from `image`,
    /// streaming each section through one [`CHUNK`]-byte buffer. The flag
    /// word picks the flavor and the lane widths: it must be 0 (flat) or
    /// carry [`FLAG_COMPACT`] and nothing outside [`FLAGS_KNOWN`] — width
    /// bits without the compact bit are as unknown as any other. Every
    /// later step is shared: the frame checks against the image's real
    /// length (before any section-sized allocation), the zero padding, the
    /// fused checksum+decode pass, and the arena's own structural
    /// validation ([`FlatLabeling::from_raw_parts`] or
    /// [`CompactLabeling::from_raw_parts`]).
    pub(crate) fn read<I: Image + ?Sized>(image: &I) -> Result<Self, StoreError> {
        let frame = Frame::read(image)?;
        let mut buf = chunk_buffer();
        check_padding(image, &frame.sections, &mut buf)?;
        let body = frame.decode(image, &mut buf)?;
        Ok(V2Store { body })
    }

    /// Parses a serialized v2 store of either flavor straight into the
    /// served layout, through the reader [`crate::any_store::AnyStore::mount`]
    /// mounts files by. Returns the layout and the file's flag word.
    pub fn parse_served(bytes: &[u8]) -> Result<(DenseLabeling, u16), StoreError> {
        Self::read_served(bytes)
    }

    /// Reads a v2 store from `image` into the served layout, with
    /// [`V2Store::read`]'s checks. A flat-flavor image never becomes a
    /// flat arena: after the frame, the padding and the offsets section,
    /// [`DenseLabeling::from_two_passes`] walks the hubs and dists
    /// sections twice ([`walk_runs`]), once to count and once to place,
    /// so a mount holds the served layout, the offsets and the one chunk
    /// buffer. A compact image is read as [`V2Store::read`] reads it and
    /// laid out with [`DenseLabeling::from_flat`].
    pub(crate) fn read_served<I: Image + ?Sized>(
        image: &I,
    ) -> Result<(DenseLabeling, u16), StoreError> {
        let frame = Frame::read(image)?;
        let mut buf = chunk_buffer();
        check_padding(image, &frame.sections, &mut buf)?;
        if frame.flags != 0 {
            let store = V2Store {
                body: frame.decode(image, &mut buf)?,
            };
            return Ok((DenseLabeling::from_flat(store.into_flat()), frame.flags));
        }
        let (offsets, sum) = decode_section::<u64, _>(image, frame.sections[0], &mut buf)?;
        check_section_sum(&frame.head, 0, sum)?;
        let dense = DenseLabeling::from_two_passes(&offsets, frame.entries, |sink| {
            walk_runs(image, &frame, &offsets, &mut buf, sink)
        })?;
        Ok((dense, frame.flags))
    }
}

/// A v2 image's validated frame: its header, its flag word, its entry
/// count, where its sections lie, and the image's length, all checked
/// before any section-sized allocation.
struct Frame {
    head: [u8; HEADER_LEN],
    flags: u16,
    entries: usize,
    sections: [Section; 3],
    file_len: u64,
}

impl Frame {
    /// Checks `image`'s header and section table against its real
    /// length, as the module docs list.
    fn read<I: Image + ?Sized>(image: &I) -> Result<Frame, StoreError> {
        let file_len = image.image_len()?;
        if file_len < HEADER_LEN as u64 {
            return Err(StoreError::Truncated {
                expected: HEADER_LEN as u64,
                actual: file_len,
            });
        }
        let mut head = [0u8; HEADER_LEN];
        image.fill_at(&mut head, 0)?;
        let (flags, n, e) = parse_header(&head)?;
        let compact = flags & FLAG_COMPACT != 0;
        let known = if compact { FLAGS_KNOWN } else { 0 };
        if flags & !known != 0 {
            return Err(StoreError::UnsupportedFlags(flags));
        }
        let (hub_bytes, dist_bytes) = entry_bytes(flags);

        usize::try_from(n)
            .map_err(|_| StoreError::Corrupt(format!("node count {n} exceeds address space")))?;
        let entries = usize::try_from(e)
            .map_err(|_| StoreError::Corrupt(format!("entry count {e} exceeds address space")))?;
        let expect_lens = expected_section_lens(n, e, hub_bytes as u64, dist_bytes as u64)?;
        let sections = validate_frame(&head, file_len, &expect_lens)?;
        Ok(Frame {
            head,
            flags,
            entries,
            sections,
            file_len,
        })
    }

    /// Decodes the body the flag word names, through the fused
    /// checksum+decode pass, and validates it as an arena.
    fn decode<I: Image + ?Sized>(&self, image: &I, buf: &mut [u8]) -> Result<Body, StoreError> {
        let (hub_bytes, dist_bytes) = entry_bytes(self.flags);
        if self.flags & FLAG_COMPACT != 0 {
            let (offsets, hubs, dists) = decode_sections(
                image,
                &self.head,
                &self.sections,
                buf,
                |sec, buf| decode_narrow_section(image, sec, buf, hub_bytes),
                |sec, buf| decode_narrow_section(image, sec, buf, dist_bytes),
            )?;
            return Ok(Body::Compact(CompactLabeling::from_raw_parts(
                offsets, hubs, dists,
            )?));
        }
        let (offsets, hubs, (dists, widest)) = decode_sections(
            image,
            &self.head,
            &self.sections,
            buf,
            |sec, buf| decode_section::<u32, _>(image, sec, buf),
            |sec, buf| decode_dists_section(image, sec, buf),
        )?;
        check_lane(widest)?;
        Ok(Body::Flat(FlatLabeling::from_raw_parts(
            offsets, hubs, dists,
        )?))
    }

    /// Checks that `image` still holds this frame: its length and its
    /// header bytes, which carry every section checksum.
    fn check_unchanged<I: Image + ?Sized>(&self, image: &I) -> Result<(), StoreError> {
        let mut head = [0u8; HEADER_LEN];
        if image.image_len()? == self.file_len {
            image.fill_at(&mut head, 0)?;
        }
        if head != self.head {
            return Err(StoreError::Corrupt(
                "the store changed between the mount's two passes".into(),
            ));
        }
        Ok(())
    }
}

/// Rejects a distance word past the arena's `u32` lane.
fn check_lane(widest: u64) -> Result<(), StoreError> {
    if widest > u64::from(u32::MAX) {
        return Err(StoreError::Corrupt(format!(
            "distance {widest} in the dists section exceeds the arena's u32 lane"
        )));
    }
    Ok(())
}

/// Checks section `i`'s folded checksum against its record in `head`.
fn check_section_sum(head: &[u8; HEADER_LEN], i: usize, actual: u64) -> Result<(), StoreError> {
    let declared = read_u64(head, TABLE_OFF + i * RECORD_LEN + 16)?;
    if actual != declared {
        return Err(StoreError::Corrupt(format!(
            "section {} checksum mismatch: table says {declared:#018x}, bytes hash to {actual:#018x}",
            SECTION_NAMES[i]
        )));
    }
    Ok(())
}

/// One pass of a served mount over a flat-flavor image, for
/// [`DenseLabeling::from_two_passes`]: the image is checked to still hold
/// `frame`, then the hubs and dists sections are read in lockstep
/// ([`Lanes`]), and each vertex's run, as `offsets` bounds it, is
/// gathered and handed to `sink` with its distances narrowed to the
/// arena's `u32` lane. Both section checksums are folded on the way and
/// checked at the end, before a run `sink` refused or a distance past
/// `u32` is reported, so a damaged byte reads as a checksum mismatch, as
/// it does in [`V2Store::read`].
fn walk_runs<I: Image + ?Sized>(
    image: &I,
    frame: &Frame,
    offsets: &[u64],
    buf: &mut [u8],
    sink: &mut RunSink<'_, StoreError>,
) -> Result<(), StoreError> {
    frame.check_unchanged(image)?;
    let mut lanes = Lanes::new(buf, frame);
    let (mut hubs, mut dists) = (Vec::new(), Vec::new());
    let mut refused = None;
    for span in offsets.windows(2) {
        hubs.clear();
        dists.clear();
        lanes.take(
            image,
            span[1].saturating_sub(span[0]),
            &mut hubs,
            &mut dists,
        )?;
        if refused.is_none() {
            refused = check_lane(lanes.widest)
                .and_then(|()| sink(&hubs, &dists))
                .err();
        }
    }
    let [hubs_sum, dists_sum] = lanes.folds.map(LaneFold::finish);
    check_section_sum(&frame.head, 1, hubs_sum)?;
    check_section_sum(&frame.head, 2, dists_sum)?;
    refused.map_or(Ok(()), Err)
}

/// The hubs and dists sections of a flat-flavor image, read in lockstep
/// one step of entries at a time: hubs into the first half of the chunk
/// buffer, distances into the second, each section's checksum folded as
/// its bytes arrive.
struct Lanes<'b> {
    hub_buf: &'b mut [u8],
    dist_buf: &'b mut [u8],
    /// The hubs and dists sections.
    sections: [Section; 2],
    /// Entries a read: what the dists half holds, a multiple of 8 so
    /// that every read but the last folds whole 32-byte words.
    step: usize,
    /// Entries in the sections, and entries read so far.
    entries: usize,
    read: usize,
    /// The entries of the last read not yet taken: `at..len`.
    at: usize,
    len: usize,
    folds: [LaneFold; 2],
    /// The widest distance word taken so far.
    widest: u64,
}

impl<'b> Lanes<'b> {
    fn new(buf: &'b mut [u8], frame: &Frame) -> Lanes<'b> {
        let (hub_buf, dist_buf) = buf.split_at_mut(buf.len() / 2);
        Lanes {
            step: dist_buf.len() / u64::BYTES / 8 * 8,
            hub_buf,
            dist_buf,
            sections: [frame.sections[1], frame.sections[2]],
            entries: frame.entries,
            read: 0,
            at: 0,
            len: 0,
            folds: [LaneFold::default(), LaneFold::default()],
            widest: 0,
        }
    }

    /// Appends the next `count` entries to `hubs` and `dists`, each
    /// distance word narrowed to `u32` (and recorded in `widest`).
    fn take<I: Image + ?Sized>(
        &mut self,
        image: &I,
        mut count: u64,
        hubs: &mut Vec<NodeId>,
        dists: &mut Vec<u32>,
    ) -> io::Result<()> {
        while count > 0 {
            if self.at == self.len {
                self.next_read(image)?;
            }
            let m =
                usize::try_from(count).map_or(self.len - self.at, |c| c.min(self.len - self.at));
            let (from, to) = (self.at, self.at + m);
            let hub_bytes = &self.hub_buf[from * u32::BYTES..to * u32::BYTES];
            hubs.extend(hub_bytes.chunks_exact(u32::BYTES).map(u32::read_le));
            let dist_bytes = &self.dist_buf[from * u64::BYTES..to * u64::BYTES];
            let widest = &mut self.widest;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "`widest` records the word; the walk rejects the store when it does not fit u32"
            )]
            dists.extend(dist_bytes.chunks_exact(u64::BYTES).map(|word| {
                let d = u64::read_le(word);
                *widest = (*widest).max(d);
                d as u32
            }));
            self.at = to;
            count -= m as u64;
        }
        Ok(())
    }

    /// Reads the next step of both sections and folds it into their
    /// checksums. Runs that claim more entries than the sections hold
    /// end here, as a read past the end.
    fn next_read<I: Image + ?Sized>(&mut self, image: &I) -> io::Result<()> {
        let m = self.step.min(self.entries - self.read);
        if m == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let bufs = [&mut *self.hub_buf, &mut *self.dist_buf];
        for ((buf, sec), (fold, width)) in bufs
            .into_iter()
            .zip(self.sections)
            .zip(self.folds.iter_mut().zip([u32::BYTES, u64::BYTES]))
        {
            let bytes = &mut buf[..m * width];
            image.fill_at(bytes, sec.file_offset + (self.read * width) as u64)?;
            fold.absorb(bytes);
        }
        (self.read, self.at, self.len) = (self.read + m, 0, m);
        Ok(())
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

/// Validates the fixed header shared by both flavors — magic, version,
/// table checksum — and returns `(flags, n, e)`. Interpreting the flag
/// word stays with the caller.
fn parse_header(head: &[u8; HEADER_LEN]) -> Result<(u16, u64, u64), StoreError> {
    let version = format_version(head)?;
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let flags = u16::from_le_bytes(read_array(head, 6)?);
    let n = read_u64(head, 8)?;
    let e = read_u64(head, 16)?;
    let table_checksum = read_u64(head, 24)?;

    let actual_table = fnv1a64(&head[TABLE_OFF..]);
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
/// ascending, non-overlapping — all against the image's *actual* length
/// `file_len` before any section-sized allocation happens) and the
/// absence of trailing bytes. Shared by both flavors; only the expected
/// lengths differ.
fn validate_frame(
    head: &[u8; HEADER_LEN],
    file_len: u64,
    expect_lens: &[u64; 3],
) -> Result<[Section; 3], StoreError> {
    let mut sections = [Section::default(); 3];
    let mut prev_end = HEADER_LEN as u64;
    for (i, name) in SECTION_NAMES.iter().enumerate() {
        let rec = TABLE_OFF + i * RECORD_LEN;
        let off = read_u64(head, rec)?;
        let len = read_u64(head, rec + 8)?;
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
    Ok(sections)
}

/// Checks that every byte between the header and the first section, and
/// between sections, is zero. Padding gaps carry no checksum, so this is
/// what makes a blind bit flip anywhere in the file detectable.
fn check_padding<I: Image + ?Sized>(
    image: &I,
    sections: &[Section; 3],
    buf: &mut [u8],
) -> Result<(), StoreError> {
    let mut at = HEADER_LEN as u64;
    for (sec, name) in sections.iter().zip(SECTION_NAMES) {
        while at < sec.file_offset {
            let len =
                usize::try_from(sec.file_offset - at).map_or(buf.len(), |gap| gap.min(buf.len()));
            let gap = &mut buf[..len];
            image.fill_at(gap, at)?;
            if gap.iter().any(|&b| b != 0) {
                return Err(StoreError::Corrupt(format!(
                    "nonzero padding before section {name}"
                )));
            }
            at += len as u64;
        }
        at = sec.file_offset + sec.byte_len;
    }
    Ok(())
}

/// Decodes the three sections of a validated frame and checks every
/// section checksum against its table record in `head`, for either
/// flavor: `hubs` and `dists` are the fused decoders of the flavor's two
/// entry lanes.
///
/// Checksum and little-endian decode are fused into ONE pass per
/// section: each chunk is read once into the decoder's share of `buf`,
/// absorbed into the lane hash and decoded while it is in cache. A
/// separate verify pass would stream the whole multi-GB file through
/// memory a second time. Decoding ahead of verification is safe because
/// the decode is pure element-wise arithmetic — nothing indexes by the
/// untrusted values — and the vectors are dropped unused unless every
/// checksum matches its table record. The computed hashes are
/// bit-identical to [`section_checksum`].
fn decode_sections<I: Image + ?Sized, H: Send, D: Send>(
    image: &I,
    head: &[u8; HEADER_LEN],
    sections: &[Section; 3],
    buf: &mut [u8],
    hubs: impl Fn(Section, &mut [u8]) -> io::Result<(H, u64)> + Sync,
    dists: impl Fn(Section, &mut [u8]) -> io::Result<(D, u64)> + Sync,
) -> Result<(Vec<u64>, H, D), StoreError> {
    use Decoded::{Dists, Hubs, Offsets};
    // Sections are independent, so on multi-core hosts they decode on up
    // to three workers ([`fan_out`]), each through its own share of the
    // one buffer — the load is memory-bandwidth-bound, and per-core
    // bandwidth is usually well below the socket's.
    let workers = machine_workers().clamp(1, 3);
    let share = buf.len() / workers / SECTION_ALIGN * SECTION_ALIGN;
    let mut shares: Vec<&mut [u8]> = buf.chunks_exact_mut(share).take(workers).collect();
    let decoded = fan_out(&mut shares, 3, |buf, i| match i {
        0 => decode_section::<u64, _>(image, sections[0], buf).map(Offsets),
        1 => hubs(sections[1], buf).map(Hubs),
        _ => dists(sections[2], buf).map(Dists),
    })
    // The decoders are pure arithmetic and cannot panic; a panic still
    // maps to a typed StoreError rather than propagating.
    .map_err(|_| StoreError::Corrupt("a section decoder panicked".into()))?
    .into_iter()
    .collect::<io::Result<Vec<_>>>()?;
    let Ok([Offsets((offsets, offsets_sum)), Hubs((hubs, hubs_sum)), Dists((dists, dists_sum))]) =
        <[_; 3]>::try_from(decoded)
    else {
        return Err(StoreError::Corrupt("sections decoded out of order".into()));
    };
    for (i, actual) in [offsets_sum, hubs_sum, dists_sum].into_iter().enumerate() {
        check_section_sum(head, i, actual)?;
    }
    Ok((offsets, hubs, dists))
}

/// One section of [`decode_sections`], decoded, with its checksum.
enum Decoded<H, D> {
    Offsets((Vec<u64>, u64)),
    Hubs((H, u64)),
    Dists((D, u64)),
}

/// Decodes section `sec` of `image` as little-endian `T`s while computing
/// its [`section_checksum`] in the same pass, one chunk of `buf` at a
/// time. The section's length must be a multiple of `T::BYTES` (the
/// caller validated section lengths).
fn decode_section<T: Lane, I: Image + ?Sized>(
    image: &I,
    sec: Section,
    buf: &mut [u8],
) -> io::Result<(Vec<T>, u64)> {
    decode_section_into(image, sec, buf, |x: T| x)
}

/// The flat flavor's distance section: `u64` words on disk, stored into
/// the arena's `u32` lane as they are decoded, so no `u64` lane is ever
/// allocated. Returns the widest word too; the caller rejects the store
/// if it does not fit `u32`, after the checksums have been checked.
fn decode_dists_section<I: Image + ?Sized>(
    image: &I,
    sec: Section,
    buf: &mut [u8],
) -> io::Result<((Vec<u32>, u64), u64)> {
    let mut widest = 0u64;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the caller rejects the store when `widest` does not fit u32"
    )]
    let (lane, sum) = decode_section_into(image, sec, buf, |d: u64| {
        widest = widest.max(d);
        d as u32
    })?;
    Ok(((lane, widest), sum))
}

/// [`decode_section`] with each decoded `T` passed through `convert` on
/// its way into the output lane.
fn decode_section_into<T: Lane, U: Copy + Default, I: Image + ?Sized>(
    image: &I,
    sec: Section,
    buf: &mut [u8],
    mut convert: impl FnMut(T) -> U,
) -> io::Result<(Vec<U>, u64)> {
    let count = usize::try_from(sec.byte_len / T::BYTES as u64)
        .map_err(|_| io::Error::new(io::ErrorKind::OutOfMemory, "section exceeds address space"))?;
    let mut out = vec![U::default(); count];
    let mut fold = LaneFold::default();
    let mut at = sec.file_offset;
    for dst in out.chunks_mut(buf.len() / T::BYTES) {
        let src = &mut buf[..dst.len() * T::BYTES];
        image.fill_at(src, at)?;
        fold.absorb(src);
        for (slot, chunk) in dst.iter_mut().zip(src.chunks_exact(T::BYTES)) {
            *slot = convert(T::read_le(chunk));
        }
        at += src.len() as u64;
    }
    Ok((out, fold.finish()))
}

/// [`decode_section`] at the width a compact lane's flag bit declares.
fn decode_narrow_section<I: Image + ?Sized>(
    image: &I,
    sec: Section,
    buf: &mut [u8],
    entry_bytes: usize,
) -> io::Result<(HubDeltas, u64)> {
    Ok(if entry_bytes == u32::BYTES {
        let (v, sum) = decode_section::<u32, _>(image, sec, buf)?;
        (HubDeltas::U32(v), sum)
    } else {
        let (v, sum) = decode_section::<u16, _>(image, sec, buf)?;
        (HubDeltas::U16(v), sum)
    })
}

/// Lays `values` out little-endian as `T`s (each through `widen`), one
/// chunk of `buf` at a time, handing each chunk to `sink`. Every chunk
/// but the last fills `buf`, so the lane checksum folds them unchanged.
fn stream_lane<S: Copy, T: Lane>(
    buf: &mut [u8],
    values: &[S],
    widen: impl Fn(S) -> T,
    mut sink: impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    for run in values.chunks(buf.len() / T::BYTES) {
        let bytes = &mut buf[..run.len() * T::BYTES];
        for (out, &v) in bytes.chunks_exact_mut(T::BYTES).zip(run) {
            widen(v).write_le(out);
        }
        sink(bytes)?;
    }
    Ok(())
}

/// [`stream_lane`] at whichever width a compact lane holds.
fn stream_narrow_lane(
    buf: &mut [u8],
    lane: &CompactDists,
    sink: impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    match lane {
        CompactDists::U16(v) => stream_lane(buf, v, |x: u16| x, sink),
        CompactDists::U32(v) => stream_lane(buf, v, |x: u32| x, sink),
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

    /// A whole section decoded from a bare slice by the reader's own
    /// chunked decoder, through a 64-byte buffer so that longer sections
    /// fold across chunk boundaries.
    fn decode_section<T: Lane>(bytes: &[u8]) -> (Vec<T>, u64) {
        let sec = Section {
            file_offset: 0,
            byte_len: bytes.len() as u64,
        };
        super::decode_section::<T, _>(bytes, sec, &mut [0u8; 64]).unwrap()
    }

    /// The errors both v2 readers give `bytes` — the arena's
    /// ([`V2Store::parse`]) and the served mount's
    /// ([`V2Store::parse_served`]) — which must each refuse it, with the
    /// same [`StoreError`] variant.
    fn rejected(bytes: &[u8]) -> [StoreError; 2] {
        let arena = V2Store::parse(bytes).expect_err("the arena reader accepted it");
        let served = V2Store::parse_served(bytes).expect_err("the served mount accepted it");
        assert_eq!(
            std::mem::discriminant(&arena),
            std::mem::discriminant(&served),
            "{arena:?} against {served:?}"
        );
        [arena, served]
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
        for err in rejected(&bad) {
            assert!(matches!(err, StoreError::BadMagic(_)), "{err:?}");
        }
        let mut bad = bytes.clone();
        bad[4] = 9;
        for err in rejected(&bad) {
            assert!(matches!(err, StoreError::UnsupportedVersion(9)), "{err:?}");
        }
        // An unknown flag bit, and a width bit without the compact bit
        // it qualifies, are both rejected by name...
        for flags in [1u8 << 3, FLAG_HUBS_WIDE as u8, FLAG_DISTS_WIDE as u8] {
            let mut bad = bytes.clone();
            bad[6] = flags;
            for err in rejected(&bad) {
                assert!(
                    matches!(err, StoreError::UnsupportedFlags(f) if f == flags as u16),
                    "{err:?}"
                );
            }
        }
        // ...and claiming the compact flavor over flat-width sections
        // dies on the section lengths that flavor implies.
        let mut bad = bytes.clone();
        bad[6] = FLAG_COMPACT as u8;
        for err in rejected(&bad) {
            assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
        }
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = FlatStore::from_flat(sample_flat()).encode();
        for cut in 0..bytes.len() {
            rejected(&bytes[..cut]);
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = FlatStore::from_flat(sample_flat()).encode();
        bytes.extend_from_slice(b"junk");
        for err in rejected(&bytes) {
            assert!(
                matches!(err, StoreError::Corrupt(ref m) if m.contains("trailing")),
                "{err:?}"
            );
        }
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
            rejected(&bad);
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
        for err in rejected(&bytes) {
            assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
        }
    }

    #[test]
    fn crafted_misaligned_section_offset_rejected() {
        let mut bytes = FlatStore::from_flat(sample_flat()).encode();
        let rec = TABLE_OFF; // offsets record
        let off = u64::from_le_bytes(bytes[rec..rec + 8].try_into().unwrap());
        bytes[rec..rec + 8].copy_from_slice(&(off + 1).to_le_bytes());
        refresh_table_checksum(&mut bytes);
        for err in rejected(&bytes) {
            assert!(
                matches!(err, StoreError::Corrupt(ref m) if m.contains("misaligned")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn crafted_huge_counts_rejected_before_allocation() {
        // Lie about n/e in the header (checksums refreshed): the expected
        // section lengths no longer match the table records, so the parse
        // dies before any table-sized allocation.
        let mut bytes = FlatStore::from_flat(sample_flat()).encode();
        bytes[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        refresh_table_checksum(&mut bytes);
        for err in rejected(&bytes) {
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "lying node count: {err:?}"
            );
        }

        let mut bytes2 = FlatStore::from_flat(sample_flat()).encode();
        bytes2[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        refresh_table_checksum(&mut bytes2);
        for err in rejected(&bytes2) {
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "overflowing entry count: {err:?}"
            );
        }
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
        for err in rejected(&bytes) {
            assert!(
                matches!(err, StoreError::Corrupt(ref m) if m.contains("strictly increasing")),
                "{err:?}"
            );
        }
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
    fn section_checksums_are_pinned_for_both_flavors() {
        // The lane checksums a small store of each flavor carries in its
        // table, and its length: a writer that folds a section some other
        // way (chunk by chunk, or in a pass of its own) must land on these.
        let flat = FlatStore::from_flat(sample_flat()).encode();
        let compact = CompactStore::from_compact(sample_compact()).encode();
        for (name, bytes, len, sums) in [
            (
                "v2",
                flat,
                2848,
                [
                    0x22ce_c391_dbd8_b744,
                    0x1e14_2bd9_27f7_6aac,
                    0xd95a_5f99_a503_4e61,
                ],
            ),
            (
                "v2c",
                compact,
                1240,
                [
                    0x22ce_c391_dbd8_b744,
                    0xe9d2_6080_2185_9e3e,
                    0xf900_d67d_e491_707d,
                ],
            ),
        ] {
            assert_eq!(bytes.len(), len, "{name} length");
            let table =
                [0, 1, 2].map(|i| read_u64(&bytes, TABLE_OFF + i * RECORD_LEN + 16).unwrap());
            assert_eq!(table, sums, "{name} section checksums");
        }
    }

    /// An image whose bytes come out of a [`Read`](std::io::Read) that
    /// yields 1–7 bytes a call and fails every fifth call with
    /// `Interrupted`.
    struct Dribble(Vec<u8>);

    struct DribbleRead<'a> {
        rest: &'a [u8],
        calls: usize,
    }

    impl std::io::Read for DribbleRead<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(5) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = (self.calls % 7 + 1).min(buf.len()).min(self.rest.len());
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    impl Image for Dribble {
        fn image_len(&self) -> io::Result<u64> {
            Ok(self.0.len() as u64)
        }

        fn fill_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
            let rest = self.0.get(offset as usize..).unwrap_or_default();
            std::io::Read::read_exact(&mut DribbleRead { rest, calls: 0 }, buf)
        }
    }

    #[test]
    fn a_dribbling_reader_reads_the_store_parse_reads() {
        for bytes in [
            FlatStore::from_flat(sample_flat()).encode(),
            CompactStore::from_compact(sample_compact()).encode(),
        ] {
            let parsed = V2Store::parse(&bytes).unwrap();
            assert_eq!(V2Store::read(&Dribble(bytes.clone())).unwrap(), parsed);
            let served = V2Store::parse_served(&bytes).unwrap();
            assert_eq!(
                V2Store::read_served(&Dribble(bytes.clone())).unwrap(),
                served
            );
            // A source that ends early is an error, never a short store.
            let mut short = Dribble(bytes.clone());
            short.0.truncate(bytes.len() - 1);
            assert!(V2Store::read(&short).is_err());
            assert!(V2Store::read_served(&short).is_err());
        }
    }

    /// An image that serves `first` until the reader has made `swap`
    /// reads, and `second` from then on: a store replaced under a mount.
    struct Replaced {
        first: Vec<u8>,
        second: Vec<u8>,
        swap: usize,
        reads: std::sync::atomic::AtomicUsize,
    }

    impl Replaced {
        fn new(first: &[u8], second: &[u8], swap: usize) -> Replaced {
            Replaced {
                first: first.to_vec(),
                second: second.to_vec(),
                swap,
                reads: 0.into(),
            }
        }

        fn now(&self) -> &[u8] {
            use std::sync::atomic::Ordering::Relaxed;
            if self.reads.load(Relaxed) < self.swap {
                &self.first
            } else {
                &self.second
            }
        }
    }

    impl Image for Replaced {
        fn image_len(&self) -> io::Result<u64> {
            self.now().image_len()
        }

        fn fill_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
            let filled = self.now().fill_at(buf, offset);
            self.reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            filled
        }
    }

    #[test]
    fn a_store_replaced_between_the_two_passes_is_corrupt() {
        let first = FlatStore::from_flat(sample_flat()).encode();
        let first_layout = V2Store::parse_served(&first).unwrap().0;
        // The same shape with every distance one longer, and a store of
        // another graph: both valid, both read by the second pass.
        let mut lists: Vec<Vec<(NodeId, hl_graph::Distance)>> = Vec::new();
        for v in 0..sample_flat().num_nodes() as NodeId {
            lists.push(sample_flat().pairs_of(v).map(|(h, d)| (h, d + 1)).collect());
        }
        let longer = FlatStore::from_flat(FlatLabeling::from_pair_lists(lists).unwrap()).encode();
        let other = PrunedLandmarkLabeling::by_degree(&generators::grid(4, 9)).into_labeling();
        let other = FlatStore::from_flat(other).encode();
        // Reads of a whole mount: the header, the padding, the offsets,
        // then each pass's header and sections.
        let counter = Replaced::new(&first, &first, usize::MAX);
        V2Store::read_served(&counter).unwrap();
        let reads = counter.reads.into_inner();
        for second in [&longer, &other] {
            for swap in 0..=reads {
                let replaced = Replaced::new(&first, second, swap);
                match V2Store::read_served(&replaced) {
                    // Swapped before any read, or after the last: one
                    // store, read whole.
                    Ok((layout, _)) if swap == 0 => {
                        assert_eq!(layout, V2Store::parse_served(second).unwrap().0)
                    }
                    Ok((layout, _)) => {
                        assert_eq!(swap, reads, "a mixed image mounted at read {swap}");
                        assert_eq!(layout, first_layout);
                    }
                    Err(err) => {
                        assert!(
                            matches!(err, StoreError::Corrupt(_)),
                            "read {swap}: {err:?}"
                        )
                    }
                }
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
            rejected(&bad);
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
            if ok {
                let arena = AnyStore::parse(&bytes)
                    .expect("u32::MAX fits the lane")
                    .into_flat()
                    .unwrap();
                assert_eq!(arena.raw_dists().last(), Some(&u32::MAX));
                let (served, _) = V2Store::parse_served(&bytes).unwrap();
                assert_eq!(served, DenseLabeling::from_flat(arena));
            } else {
                for err in rejected(&bytes) {
                    assert!(
                        matches!(err, StoreError::Corrupt(ref m) if m.contains("u32")),
                        "{err:?}"
                    );
                }
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
