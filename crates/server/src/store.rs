//! HLBS version 1 — the γ-coded archival encoding of a hub labeling.
//!
//! Version 1 stores each vertex label in the Elias-γ encoding of `hl_labeling::hub_scheme` — the same codec whose
//! bit counts the paper's bounds are stated in — behind an offset table.
//! It is a codec, not a container: [`LabelStore`] encodes a labeling into
//! the format and [`decode`] turns a serialized image back into the
//! [`FlatLabeling`] arena in one eager pass. Nothing answers a query from
//! γ bits; every mount goes through [`crate::any_store::AnyStore`].
//!
//! ## Format (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HLBS"
//! 4       2     format version (currently 1)
//! 6       2     flags (must be 0 in version 1)
//! 8       8     node count n
//! 16      8     body length in bytes
//! 24      8     FNV-1a-64 checksum of the body
//! 32      ...   body
//! ```
//!
//! The body is, in order: `n + 1` byte offsets (u64) into the label blob,
//! `n` bit lengths (u32), then the concatenated label bytes. Label `v`
//! occupies bytes `offsets[v] .. offsets[v + 1]` of the blob and exactly
//! `bit_lens[v]` bits of those bytes.
//!
//! [`decode`] validates magic, version, length and checksum before any
//! label is decoded, and treats the γ bits behind a matching checksum as
//! untrusted all the same: a truncated, bit-flipped or crafted file
//! yields a typed [`StoreError`], never a panic or a wrong distance.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use hl_core::{FlatLabeling, FlatLayoutError};
use hl_graph::NodeId;
use hl_labeling::bits::BitReader;
use hl_labeling::hub_scheme::{encode_label, try_decode_label_append};

/// File magic: "Hub Label Binary Store".
pub const MAGIC: [u8; 4] = *b"HLBS";
/// Format version this module (the γ-coded archival encoding) speaks.
/// Version 2, the flat-arena serving encoding, lives in
/// [`crate::store_v2`]; [`crate::any_store::AnyStore`] dispatches on
/// [`format_version`].
pub const VERSION: u16 = 1;
/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 32;

/// Peeks at the magic and format version of a serialized store without
/// parsing the rest — how [`crate::any_store::AnyStore`] picks a reader.
/// Returns whatever version the header declares; rejecting unknown
/// versions is the caller's job.
pub fn format_version(bytes: &[u8]) -> Result<u16, StoreError> {
    if bytes.len() < 8 {
        return Err(StoreError::Truncated {
            expected: 8,
            actual: bytes.len() as u64,
        });
    }
    let magic: [u8; 4] = read_array(bytes, 0)?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic(magic));
    }
    Ok(u16::from_le_bytes(read_array(bytes, 4)?))
}

/// Everything that can go wrong opening or reading a store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The first four bytes are not `b"HLBS"` — not a label store.
    BadMagic([u8; 4]),
    /// The file declares a format version this reader does not speak.
    UnsupportedVersion(u16),
    /// Reserved flag bits were set.
    UnsupportedFlags(u16),
    /// The file ends before the declared body does.
    Truncated { expected: u64, actual: u64 },
    /// The body checksum does not match the header.
    ChecksumMismatch { expected: u64, actual: u64 },
    /// The body is internally inconsistent (offsets out of order,
    /// bit lengths disagreeing with byte spans, trailing bytes, ...).
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic(m) => {
                write!(f, "bad magic {m:?}: not a hub label store")
            }
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported store version {v}")
            }
            StoreError::UnsupportedFlags(bits) => {
                write!(f, "unsupported flag bits {bits:#06x}")
            }
            StoreError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated store: expected {expected} body bytes, found {actual}"
                )
            }
            StoreError::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch: header says {expected:#018x}, body hashes to {actual:#018x}")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Labels that break an arena invariant are a corrupt store.
impl From<FlatLayoutError> for StoreError {
    fn from(e: FlatLayoutError) -> Self {
        StoreError::Corrupt(format!("arena invariant violated: {e}"))
    }
}

/// FNV-1a 64-bit hash; simple, dependency-free, and plenty for
/// detecting accidental corruption (it is not cryptographic).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Reads an `N`-byte field at `at`; a short or out-of-bounds read is
/// [`StoreError::Corrupt`], never a slice-index panic. Shared by the v1
/// and v2 parsers.
pub(crate) fn read_array<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], StoreError> {
    at.checked_add(N)
        .and_then(|end| bytes.get(at..end))
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or_else(|| StoreError::Corrupt(format!("truncated read of {N} bytes at offset {at}")))
}

/// Reads the little-endian `u64` header or table field at `at`.
pub(crate) fn read_u64(bytes: &[u8], at: usize) -> Result<u64, StoreError> {
    Ok(u64::from_le_bytes(read_array(bytes, at)?))
}

/// The v1 encoder: a labeling γ-coded into the format's three sections
/// (offset table, bit-length table, label blob), ready to serialize.
/// [`decode`] is the way back.
#[derive(Debug, Clone)]
pub struct LabelStore {
    num_nodes: usize,
    /// `num_nodes + 1` byte offsets into `blob`.
    offsets: Vec<u64>,
    /// Bit length of each label within its byte span.
    bit_lens: Vec<u32>,
    /// Concatenated label bytes.
    blob: Vec<u8>,
}

impl LabelStore {
    /// Encodes a labeling into store form (in memory), γ-coding one
    /// vertex at a time straight from the arena's slices — the v2 → v1
    /// direction of `hubserve convert`. The encoding is canonical (a
    /// deterministic function of the labeling), which is what makes
    /// v1 → v2 → v1 byte-identical.
    pub fn from_flat(labeling: &FlatLabeling) -> Self {
        let n = labeling.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut bit_lens = Vec::with_capacity(n);
        let mut blob = Vec::new();
        offsets.push(0u64);
        for v in (0..=NodeId::MAX).take(n) {
            let bits = encode_label(labeling.hubs_of(v), labeling.dists_of(v));
            blob.extend_from_slice(bits.bits().as_bytes());
            // A label past u32::MAX bits saturates, and the mount then
            // rejects its byte length as not matching its bit length.
            bit_lens.push(u32::try_from(bits.num_bits()).unwrap_or(u32::MAX));
            offsets.push(blob.len() as u64);
        }
        LabelStore {
            num_nodes: n,
            offsets,
            bit_lens,
            blob,
        }
    }

    /// Number of vertices the store holds labels for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Per-section byte sizes of the serialized body, for stats
    /// reporting: the offset table, the bit-length table, and the γ-coded
    /// label blob (v1's sections; v2 reports offsets/hubs/dists).
    pub fn section_bytes(&self) -> [(&'static str, u64); 3] {
        section_bytes(self.num_nodes, self.file_len() as u64)
    }

    /// Total γ-coded size of all labels in bits.
    pub fn total_bits(&self) -> u64 {
        self.bit_lens.iter().map(|&b| b as u64).sum()
    }

    /// Size of the serialized file in bytes.
    pub fn file_len(&self) -> usize {
        HEADER_LEN + self.body_len()
    }

    fn body_len(&self) -> usize {
        (self.num_nodes + 1) * 8 + self.num_nodes * 4 + self.blob.len()
    }

    /// Serializes the store to a writer.
    pub fn write_to<W: Write>(&self, mut out: W) -> Result<(), StoreError> {
        let mut body = Vec::with_capacity(self.body_len());
        for &off in &self.offsets {
            body.extend_from_slice(&off.to_le_bytes());
        }
        for &bl in &self.bit_lens {
            body.extend_from_slice(&bl.to_le_bytes());
        }
        body.extend_from_slice(&self.blob);

        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&0u16.to_le_bytes())?; // flags
        out.write_all(&(self.num_nodes as u64).to_le_bytes())?;
        out.write_all(&(body.len() as u64).to_le_bytes())?;
        out.write_all(&fnv1a64(&body).to_le_bytes())?;
        out.write_all(&body)?;
        out.flush()?;
        Ok(())
    }

    /// Serializes the store to a file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), StoreError> {
        let file = File::create(path)?;
        self.write_to(io::BufWriter::new(file))
    }
}

/// Per-section byte sizes of a v1 image `file_len` bytes long over
/// `num_nodes` vertices — the one place the section layout is spelled
/// out for the encoder's and [`crate::any_store::AnyStore`]'s reports.
pub(crate) fn section_bytes(num_nodes: usize, file_len: u64) -> [(&'static str, u64); 3] {
    let offsets = (num_nodes as u64 + 1) * 8;
    let bit_lens = num_nodes as u64 * 4;
    let blob = file_len - HEADER_LEN as u64 - offsets - bit_lens;
    [("offsets", offsets), ("bit_lens", bit_lens), ("blob", blob)]
}

/// Decodes a serialized v1 store into the query-time arena, returning it
/// with the total γ-coded label size in bits (the paper's unit). One
/// pass over the borrowed bytes: header, length, checksum and table
/// bounds first, then each label is located through the tables and
/// γ-decoded in place — no copy of the blob, no per-vertex allocation.
///
/// The γ bits are treated as *untrusted* even though the checksum
/// matched: a checksum only catches accidents, and a crafted store can
/// carry any bit pattern behind a freshly computed FNV. Malformed codes,
/// lying entry counts, hub-id overflow, out-of-range hub ids and
/// distances too wide for the arena's `u32` lane are all
/// [`StoreError::Corrupt`], never a panic or a runaway allocation.
pub fn decode(bytes: &[u8]) -> Result<(FlatLabeling, u64), StoreError> {
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
    if flags != 0 {
        return Err(StoreError::UnsupportedFlags(flags));
    }
    let n = read_u64(bytes, 8)?;
    let body_len = read_u64(bytes, 16)?;
    let checksum = read_u64(bytes, 24)?;

    let num_nodes = usize::try_from(n)
        .map_err(|_| StoreError::Corrupt(format!("node count {n} exceeds address space")))?;
    let body = &bytes[HEADER_LEN..];
    let actual_body = body.len() as u64;
    if actual_body < body_len {
        return Err(StoreError::Truncated {
            expected: body_len,
            actual: actual_body,
        });
    }
    if actual_body > body_len {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after declared body",
            actual_body - body_len
        )));
    }
    let actual_checksum = fnv1a64(body);
    if actual_checksum != checksum {
        return Err(StoreError::ChecksumMismatch {
            expected: checksum,
            actual: actual_checksum,
        });
    }

    // Tables: (n + 1) u64 offsets, n u32 bit lengths, then the blob.
    // Even the `n + 1` must be checked: n = usize::MAX would wrap it.
    let tables_len = num_nodes
        .checked_add(1)
        .and_then(|c| c.checked_mul(8))
        .and_then(|o| o.checked_add(num_nodes.checked_mul(4)?))
        .ok_or_else(|| StoreError::Corrupt(format!("node count {n} overflows table size")))?;
    if body.len() < tables_len {
        return Err(StoreError::Corrupt(format!(
            "body too small for offset tables: {} < {tables_len}",
            body.len()
        )));
    }
    let (tables, blob) = body.split_at(tables_len);
    let (offsets, bit_lens) = tables.split_at((num_nodes + 1) * 8);

    let first = read_u64(offsets, 0)?;
    if first != 0 {
        return Err(StoreError::Corrupt(format!(
            "first offset is {first}, not 0"
        )));
    }
    let last = read_u64(offsets, num_nodes * 8)?;
    if last != blob.len() as u64 {
        return Err(StoreError::Corrupt(format!(
            "final offset {last} does not match blob length {}",
            blob.len()
        )));
    }

    // The node count is now bounded by the file's own size, so it may
    // size the arena; the entry count is only known label by label.
    let mut flat = FlatLabeling::with_capacity(num_nodes, 0);
    let (mut hubs, mut dists) = (Vec::new(), Vec::new());
    let mut total_bits = 0u64;
    let mut lo = first;
    let ends = offsets[8..].chunks_exact(8).zip(bit_lens.chunks_exact(4));
    for (v, (hi, bit_len)) in ends.enumerate() {
        let hi = read_u64(hi, 0)?;
        let bit_len = u32::from_le_bytes(read_array(bit_len, 0)?);
        if lo > hi {
            return Err(StoreError::Corrupt(format!(
                "offsets out of order at label {v}: {lo} > {hi}"
            )));
        }
        let need = u64::from(bit_len).div_ceil(8);
        if hi - lo != need {
            return Err(StoreError::Corrupt(format!(
                "label {v}: {bit_len} bits need {need} bytes but span is {}",
                hi - lo
            )));
        }
        // try_from, not `as`: a 32-bit target must not silently truncate
        // a decoded-from-disk offset.
        let span = usize::try_from(lo)
            .ok()
            .zip(usize::try_from(hi).ok())
            .and_then(|(lo, hi)| blob.get(lo..hi))
            .ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "label {v}: bytes {lo}..{hi} lie outside the {}-byte blob",
                    blob.len()
                ))
            })?;
        let bits = BitReader::from_bytes(span, bit_len as usize).ok_or_else(|| {
            StoreError::Corrupt(format!("label {v}: bits set past its {bit_len}-bit length"))
        })?;
        hubs.clear();
        dists.clear();
        try_decode_label_append(bits, &mut hubs, &mut dists)
            .map_err(|e| StoreError::Corrupt(format!("label {v}: {e}")))?;
        if let Some(&hub) = hubs.last() {
            // Gap coding keeps hubs strictly increasing, so checking the
            // last one bounds them all.
            if hub as usize >= num_nodes {
                return Err(StoreError::Corrupt(format!(
                    "label {v}: hub {hub} out of range for {num_nodes} nodes"
                )));
            }
        }
        flat.push_label(&hubs, &dists);
        total_bits += u64::from(bit_len);
        lo = hi;
    }
    Ok((flat, total_bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_core::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    fn encode(hl: &FlatLabeling) -> Vec<u8> {
        let mut buf = Vec::new();
        LabelStore::from_flat(hl).write_to(&mut buf).unwrap();
        buf
    }

    fn sample() -> (FlatLabeling, Vec<u8>) {
        let g = generators::grid(5, 6);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let buf = encode(&hl);
        (hl, buf)
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn roundtrip_in_memory() {
        let (hl, buf) = sample();
        let store = LabelStore::from_flat(&hl);
        assert_eq!(buf.len(), store.file_len());
        let (flat, total_bits) = decode(&buf).unwrap();
        assert_eq!(flat, hl);
        assert_eq!(flat.num_entries(), hl.num_entries());
        assert_eq!(total_bits, store.total_bits());
        let sections = store.section_bytes();
        assert_eq!(sections, section_bytes(hl.num_nodes(), buf.len() as u64));
        let body: u64 = sections.iter().map(|&(_, b)| b).sum();
        assert_eq!(body, (buf.len() - HEADER_LEN) as u64);
    }

    #[test]
    fn bad_magic_rejected() {
        let (_, mut buf) = sample();
        buf[0] = b'X';
        assert!(matches!(decode(&buf), Err(StoreError::BadMagic(_))));
    }

    #[test]
    fn wrong_version_rejected() {
        let (_, mut buf) = sample();
        buf[4] = 99;
        assert!(matches!(
            decode(&buf),
            Err(StoreError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let (_, buf) = sample();
        for cut in [
            0,
            3,
            HEADER_LEN - 1,
            HEADER_LEN,
            buf.len() / 2,
            buf.len() - 1,
        ] {
            // Later checks (checksum, offsets) would object too; a short
            // file must be *named* as one.
            assert!(
                matches!(decode(&buf[..cut]), Err(StoreError::Truncated { .. })),
                "prefix of {cut} bytes must be reported as truncated"
            );
        }
    }

    #[test]
    fn flipped_body_byte_rejected() {
        let (_, mut buf) = sample();
        let mid = HEADER_LEN + (buf.len() - HEADER_LEN) / 2;
        buf[mid] ^= 0x40;
        assert!(matches!(
            decode(&buf),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (_, mut buf) = sample();
        buf.extend_from_slice(b"junk");
        assert!(matches!(decode(&buf), Err(StoreError::Corrupt(_))));
    }

    /// Rewrites the header checksum to match the (possibly corrupted)
    /// body — what a *crafted* store does, as opposed to an accidentally
    /// bit-flipped one.
    fn refresh_checksum(buf: &mut [u8]) {
        let sum = fnv1a64(&buf[HEADER_LEN..]);
        buf[24..32].copy_from_slice(&sum.to_le_bytes());
    }

    /// A checksum-valid header claiming `n` nodes over an empty body.
    fn crafted_header(n: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // body_len = 0
        buf.extend_from_slice(&fnv1a64(b"").to_le_bytes());
        buf
    }

    #[test]
    fn crafted_huge_node_count_is_rejected_before_allocation() {
        // A lying node count must be rejected against the actual body
        // size *before* the arena is sized from it — the exact shape the
        // untrusted-length-alloc lint guards. A terabyte-scale table
        // claim over a 0-byte body would OOM a trusting decoder.
        let err = decode(&crafted_header(1 << 40)).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt(ref m) if m.contains("body too small")),
            "{err:?}"
        );
    }

    #[test]
    fn crafted_overflowing_node_count_is_corrupt_not_panic() {
        // n = u64::MAX overflows the table-size arithmetic itself; the
        // checked math must turn that into Corrupt, not a wrap-around
        // that under-allocates.
        let err = decode(&crafted_header(u64::MAX)).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn crafted_garbage_label_bits_are_corrupt_not_panic() {
        // A checksum-valid file whose γ blob is all zeros: the offset
        // tables check out, but every label's count code is an
        // unterminated unary run. Found by the hlnp-fuzz store campaign —
        // the trusting decoder panicked in `BitVec::get`.
        let (hl, mut buf) = sample();
        let n = hl.num_nodes();
        let blob_base = HEADER_LEN + (n + 1) * 8 + n * 4;
        for b in &mut buf[blob_base..] {
            *b = 0;
        }
        refresh_checksum(&mut buf);
        let err = decode(&buf).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt(ref m) if m.contains("malformed gamma code")),
            "{err:?}"
        );
    }

    #[test]
    fn crafted_out_of_range_hub_id_rejected() {
        // A store whose γ bits decode cleanly but name a hub id past the
        // store's own node count: a query against it would index out of
        // the label universe. Must be Corrupt, not a wrong answer.
        let labels = vec![
            vec![(0, 0)],
            vec![(0, 1), (9, 0)], // hub 9 in a 2-node store
        ];
        let err = decode(&encode(&FlatLabeling::from_pair_lists(labels).unwrap())).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt(ref m) if m.contains("hub 9 out of range")),
            "{err:?}"
        );
    }

    #[test]
    fn crafted_distance_past_the_u32_lane_is_corrupt() {
        // γ codes carry any u64, the arena's distance lane only u32: a
        // one-vertex store whose label (hub 0) sits at distance 2^32
        // decodes cleanly bit by bit and must still stop at the mount.
        for (d, ok) in [(u64::from(u32::MAX), true), (1u64 << 32, false)] {
            let mut w = hl_labeling::BitWriter::new();
            w.write_gamma0(1);
            w.write_gamma0(0);
            w.write_gamma0(d);
            let bits = w.into_bits();
            let store = LabelStore {
                num_nodes: 1,
                offsets: vec![0, bits.as_bytes().len() as u64],
                bit_lens: vec![bits.len() as u32],
                blob: bits.as_bytes().to_vec(),
            };
            let mut buf = Vec::new();
            store.write_to(&mut buf).unwrap();
            match decode(&buf) {
                Ok((flat, _)) => assert!(ok && flat.raw_dists() == [u32::MAX]),
                Err(err) => assert!(
                    !ok && matches!(err, StoreError::Corrupt(ref m) if m.contains("u32")),
                    "{err:?}"
                ),
            }
        }
    }

    #[test]
    fn crafted_offset_past_the_blob_is_corrupt_not_panic() {
        // Offsets 1.. pushed past the blob with bit lengths to match and
        // the checksum refreshed: every span is self-consistent, so only
        // the bounds check on the blob slice stands between the tables
        // and an out-of-range index.
        let (hl, mut buf) = sample();
        let n = hl.num_nodes();
        let blob_len = (buf.len() - HEADER_LEN - (n + 1) * 8 - n * 4) as u64;
        let far = blob_len + 64;
        for v in 1..n {
            let at = HEADER_LEN + v * 8;
            buf[at..at + 8].copy_from_slice(&far.to_le_bytes());
        }
        let bit_lens = HEADER_LEN + (n + 1) * 8;
        buf[bit_lens..bit_lens + 4].copy_from_slice(&(far as u32 * 8).to_le_bytes());
        for v in 1..n - 1 {
            let at = bit_lens + v * 4;
            buf[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        }
        refresh_checksum(&mut buf);
        let err = decode(&buf).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt(ref m) if m.contains("outside")),
            "{err:?}"
        );
    }

    #[test]
    fn empty_labeling_roundtrips() {
        let (flat, total_bits) = decode(&encode(&FlatLabeling::new())).unwrap();
        assert_eq!(flat.num_nodes(), 0);
        assert_eq!(total_bits, 0);
    }
}
