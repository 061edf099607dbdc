//! Versioned binary on-disk store for γ-coded hub labels.
//!
//! The text format of `hl_core::io` is convenient for experiments but slow
//! and bulky to serve from. The binary store keeps each vertex label in the
//! Elias-γ encoding of `hl_labeling::hub_scheme` — the same codec whose
//! bit counts the paper's bounds are stated in — behind an offset table,
//! so a reader can locate any label in O(1) and decode it independently.
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
//! Every read validates magic, version, length and checksum before any
//! label is decoded: a truncated or bit-flipped file yields a typed
//! [`StoreError`], never a wrong distance.

use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

use hl_core::{FlatLabeling, HubLabel, HubLabeling, LabelingView};
use hl_graph::{Distance, NodeId};
use hl_labeling::bits::BitVec;
use hl_labeling::hub_scheme::{encode_label, try_decode_label_append};
use hl_labeling::scheme::BitLabel;

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
    /// A query or label access named a vertex the store does not have.
    NodeOutOfRange { node: NodeId, num_nodes: usize },
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
            StoreError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of range for store with {num_nodes} nodes"
                )
            }
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

/// A validated, in-memory label store: the offset table plus the raw
/// γ-coded label blob. Labels decode lazily per vertex.
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
    /// Encodes a labeling — nested or flat — into store form (in memory),
    /// γ-coding one vertex at a time from the view's slices, so the flat
    /// arena encodes without a nested [`HubLabeling`] being materialized. The
    /// encoding is canonical (a deterministic function of the labeling),
    /// which is what makes v1 → v2 → v1 byte-identical.
    pub fn from_labeling<L: LabelingView>(labeling: &L) -> Self {
        let n = labeling.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut bit_lens = Vec::with_capacity(n);
        let mut blob = Vec::new();
        offsets.push(0u64);
        for v in 0..n as NodeId {
            let (hubs, dists) = (labeling.hubs_of(v), labeling.dists_of(v));
            let label: HubLabel = hubs.iter().copied().zip(dists.iter().copied()).collect();
            let bits = encode_label(&label);
            blob.extend_from_slice(bits.bits().as_bytes());
            bit_lens.push(bits.num_bits() as u32);
            offsets.push(blob.len() as u64);
        }
        LabelStore {
            num_nodes: n,
            offsets,
            bit_lens,
            blob,
        }
    }

    /// [`LabelStore::from_labeling`] under the name the arena's callers
    /// use — the v2 → v1 direction of `hubserve convert`, and how
    /// `hubserve build` writes its store.
    pub fn from_flat(flat: &FlatLabeling) -> Self {
        Self::from_labeling(flat)
    }

    /// Number of vertices the store holds labels for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Per-section byte sizes of the serialized body, for stats
    /// reporting: the offset table, the bit-length table, and the γ-coded
    /// label blob (v1's sections; v2 reports offsets/hubs/dists).
    pub fn section_bytes(&self) -> [(&'static str, u64); 3] {
        [
            ("offsets", (self.num_nodes as u64 + 1) * 8),
            ("bit_lens", self.num_nodes as u64 * 4),
            ("blob", self.blob.len() as u64),
        ]
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

    fn check_node(&self, v: NodeId) -> Result<usize, StoreError> {
        let idx = v as usize;
        if idx >= self.num_nodes {
            return Err(StoreError::NodeOutOfRange {
                node: v,
                num_nodes: self.num_nodes,
            });
        }
        Ok(idx)
    }

    /// The γ-coded label of vertex `v`, without decoding it.
    pub fn bit_label(&self, v: NodeId) -> Result<BitLabel, StoreError> {
        let idx = self.check_node(v)?;
        // The offsets were range-checked against the blob during parse(),
        // but they are still decoded-from-disk values: narrow them with
        // try_from so a 32-bit target cannot silently truncate.
        let lo = usize::try_from(self.offsets[idx])
            .map_err(|_| StoreError::Corrupt(format!("label {v}: offset overflows usize")))?;
        let hi = usize::try_from(self.offsets[idx + 1])
            .map_err(|_| StoreError::Corrupt(format!("label {v}: offset overflows usize")))?;
        let len = self.bit_lens[idx] as usize;
        let bits = BitVec::from_bytes(self.blob[lo..hi].to_vec(), len).ok_or_else(|| {
            StoreError::Corrupt(format!(
                "label {v}: bit length {len} inconsistent with {} bytes",
                hi - lo
            ))
        })?;
        Ok(BitLabel::new(bits))
    }

    /// Decodes the hub label of vertex `v`.
    ///
    /// The γ bits are treated as *untrusted* even though the checksum
    /// matched: a checksum only catches accidents, and a crafted store
    /// can carry any bit pattern behind a freshly computed FNV. Malformed
    /// codes, lying entry counts, hub-id overflow and out-of-range hub
    /// ids are all [`StoreError::Corrupt`], never a panic or a runaway
    /// allocation.
    pub fn decode_label(&self, v: NodeId) -> Result<HubLabel, StoreError> {
        let mut hubs = Vec::new();
        let mut dists = Vec::new();
        self.decode_label_into(v, &mut hubs, &mut dists)?;
        Ok(HubLabel::from_pairs(hubs.into_iter().zip(dists).collect()))
    }

    /// Checked decode of label `v` appended into caller buffers — the
    /// allocation-free path [`LabelStore::to_flat`] iterates.
    fn decode_label_into(
        &self,
        v: NodeId,
        hubs: &mut Vec<NodeId>,
        dists: &mut Vec<Distance>,
    ) -> Result<(), StoreError> {
        let start = hubs.len();
        try_decode_label_append(&self.bit_label(v)?, hubs, dists)
            .map_err(|e| StoreError::Corrupt(format!("label {v}: {e}")))?;
        if let Some(&hub) = hubs[start..].iter().last() {
            // Gap coding keeps hubs strictly increasing, so checking the
            // last one bounds them all.
            if hub as usize >= self.num_nodes {
                hubs.truncate(start);
                dists.truncate(start);
                return Err(StoreError::Corrupt(format!(
                    "label {v}: hub {hub} out of range for {} nodes",
                    self.num_nodes
                )));
            }
        }
        Ok(())
    }

    /// Decodes every label back into a [`HubLabeling`] (the nested,
    /// construction-time form — two heap vectors per vertex).
    pub fn to_labeling(&self) -> Result<HubLabeling, StoreError> {
        let mut labels = Vec::with_capacity(self.num_nodes);
        for v in 0..self.num_nodes {
            labels.push(self.decode_label(v as NodeId)?);
        }
        Ok(HubLabeling::from_labels(labels))
    }

    /// Decodes every label straight into a [`FlatLabeling`] arena — the
    /// canonical query-time form. One pass over the γ-coded blob; each
    /// label decodes into a reused scratch pair and is appended to the
    /// arena, so no per-vertex `HubLabel` (or any other per-vertex heap
    /// allocation) is ever built. This is how [`crate::QueryEngine`]
    /// loads a store.
    pub fn to_flat(&self) -> Result<FlatLabeling, StoreError> {
        let mut flat = FlatLabeling::with_capacity(self.num_nodes, 0);
        let mut hubs: Vec<NodeId> = Vec::new();
        let mut dists: Vec<Distance> = Vec::new();
        for v in 0..self.num_nodes {
            hubs.clear();
            dists.clear();
            self.decode_label_into(v as NodeId, &mut hubs, &mut dists)?;
            flat.push_label(&hubs, &dists);
        }
        Ok(flat)
    }

    /// Answers a distance query straight from the stored labels.
    pub fn query(&self, u: NodeId, v: NodeId) -> Result<Distance, StoreError> {
        let lu = self.decode_label(u)?;
        let lv = self.decode_label(v)?;
        Ok(lu.join(&lv))
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

    /// Reads and fully validates a store from a reader.
    pub fn read_from<R: Read>(mut input: R) -> Result<Self, StoreError> {
        let mut bytes = Vec::new();
        input.read_to_end(&mut bytes)?;
        Self::parse(&bytes)
    }

    /// Reads and fully validates a store from a file.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StoreError> {
        Self::read_from(File::open(path)?)
    }

    /// Parses and validates a serialized store.
    pub fn parse(bytes: &[u8]) -> Result<Self, StoreError> {
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

        let n_usize = usize::try_from(n)
            .map_err(|_| StoreError::Corrupt(format!("node count {n} exceeds address space")))?;
        let actual_body = (bytes.len() - HEADER_LEN) as u64;
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
        let body = &bytes[HEADER_LEN..];
        let actual_checksum = fnv1a64(body);
        if actual_checksum != checksum {
            return Err(StoreError::ChecksumMismatch {
                expected: checksum,
                actual: actual_checksum,
            });
        }

        // Tables: (n + 1) u64 offsets, n u32 bit lengths, then the blob.
        // Even the `n + 1` must be checked: n = usize::MAX would wrap it.
        let tables_len = n_usize
            .checked_add(1)
            .and_then(|c| c.checked_mul(8))
            .and_then(|o| o.checked_add(n_usize.checked_mul(4)?))
            .ok_or_else(|| StoreError::Corrupt(format!("node count {n} overflows table size")))?;
        if body.len() < tables_len {
            return Err(StoreError::Corrupt(format!(
                "body too small for offset tables: {} < {tables_len}",
                body.len()
            )));
        }
        let mut offsets = Vec::with_capacity(n_usize + 1);
        for i in 0..=n_usize {
            offsets.push(read_u64(body, i * 8)?);
        }
        let bl_base = (n_usize + 1) * 8;
        let mut bit_lens = Vec::with_capacity(n_usize);
        for i in 0..n_usize {
            bit_lens.push(u32::from_le_bytes(read_array(body, bl_base + i * 4)?));
        }
        let blob = body[tables_len..].to_vec();

        if offsets[0] != 0 {
            return Err(StoreError::Corrupt(format!(
                "first offset is {}, not 0",
                offsets[0]
            )));
        }
        if offsets[n_usize] != blob.len() as u64 {
            return Err(StoreError::Corrupt(format!(
                "final offset {} does not match blob length {}",
                offsets[n_usize],
                blob.len()
            )));
        }
        for v in 0..n_usize {
            let lo = offsets[v];
            let hi = offsets[v + 1];
            if lo > hi {
                return Err(StoreError::Corrupt(format!(
                    "offsets out of order at label {v}: {lo} > {hi}"
                )));
            }
            let span = hi - lo;
            let need = (bit_lens[v] as u64).div_ceil(8);
            if span != need {
                return Err(StoreError::Corrupt(format!(
                    "label {v}: {} bits need {need} bytes but span is {span}",
                    bit_lens[v]
                )));
            }
        }

        Ok(LabelStore {
            num_nodes: n_usize,
            offsets,
            bit_lens,
            blob,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_core::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    fn sample_store() -> (HubLabeling, LabelStore) {
        let g = generators::grid(5, 6);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let store = LabelStore::from_labeling(&hl);
        (hl, store)
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn roundtrip_in_memory() {
        let (hl, store) = sample_store();
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        let back = LabelStore::parse(&buf).unwrap();
        assert_eq!(back.num_nodes(), hl.num_nodes());
        let decoded = back.to_labeling().unwrap();
        assert_eq!(decoded, hl);
    }

    #[test]
    fn to_flat_matches_nested_decode() {
        let (hl, store) = sample_store();
        let flat = store.to_flat().unwrap();
        assert_eq!(flat.to_labeling(), hl);
        assert_eq!(flat, hl_core::FlatLabeling::from_labeling(&hl));
        assert_eq!(flat.num_entries(), hl.total_hubs());
    }

    #[test]
    fn query_matches_labeling() {
        let (hl, store) = sample_store();
        let n = hl.num_nodes() as NodeId;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(store.query(u, v).unwrap(), hl.query(u, v));
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let (_, store) = sample_store();
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            LabelStore::parse(&buf),
            Err(StoreError::BadMagic(_))
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let (_, store) = sample_store();
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        buf[4] = 99;
        assert!(matches!(
            LabelStore::parse(&buf),
            Err(StoreError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let (_, store) = sample_store();
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        for cut in [
            0,
            3,
            HEADER_LEN - 1,
            HEADER_LEN,
            buf.len() / 2,
            buf.len() - 1,
        ] {
            assert!(
                LabelStore::parse(&buf[..cut]).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn flipped_body_byte_rejected() {
        let (_, store) = sample_store();
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        let mid = HEADER_LEN + (buf.len() - HEADER_LEN) / 2;
        buf[mid] ^= 0x40;
        assert!(matches!(
            LabelStore::parse(&buf),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (_, store) = sample_store();
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        buf.extend_from_slice(b"junk");
        assert!(matches!(
            LabelStore::parse(&buf),
            Err(StoreError::Corrupt(_))
        ));
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
        // size *before* the offset tables are allocated — the exact shape
        // the untrusted-length-alloc lint guards. A terabyte-scale table
        // claim over a 0-byte body would OOM a trusting parser.
        let err = LabelStore::parse(&crafted_header(1 << 40)).unwrap_err();
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
        let err = LabelStore::parse(&crafted_header(u64::MAX)).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn crafted_garbage_label_bits_are_corrupt_not_panic() {
        // A checksum-valid file whose γ blob is all zeros: the offset
        // tables parse fine, but every label's count code is an
        // unterminated unary run. Found by the hlnp-fuzz store campaign —
        // the trusting decoder panicked in `BitVec::get`.
        let (_, store) = sample_store();
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        let blob_base = HEADER_LEN + (store.num_nodes() + 1) * 8 + store.num_nodes() * 4;
        for b in &mut buf[blob_base..] {
            *b = 0;
        }
        refresh_checksum(&mut buf);
        let crafted = LabelStore::parse(&buf).expect("structurally valid store must parse");
        for v in 0..crafted.num_nodes() as NodeId {
            if crafted.bit_lens[v as usize] == 0 {
                continue; // an empty label decodes to an empty hub set
            }
            assert!(
                matches!(crafted.decode_label(v), Err(StoreError::Corrupt(_))),
                "garbage bits for label {v} must be a typed error"
            );
        }
        assert!(matches!(crafted.to_flat(), Err(StoreError::Corrupt(_))));
        assert!(matches!(crafted.query(0, 1), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn crafted_out_of_range_hub_id_rejected() {
        // A store whose γ bits decode cleanly but name a hub id past the
        // store's own node count: a query against it would index out of
        // the label universe. Must be Corrupt, not a wrong answer.
        let labels = vec![
            HubLabel::from_pairs(vec![(0, 0)]),
            HubLabel::from_pairs(vec![(0, 1), (9, 0)]), // hub 9 in a 2-node store
        ];
        let store = LabelStore::from_labeling(&HubLabeling::from_labels(labels));
        assert!(store.decode_label(0).is_ok());
        assert!(matches!(store.decode_label(1), Err(StoreError::Corrupt(_))));
        assert!(matches!(store.to_flat(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn node_out_of_range() {
        let (_, store) = sample_store();
        let n = store.num_nodes() as NodeId;
        assert!(matches!(
            store.query(0, n),
            Err(StoreError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            store.decode_label(n + 7),
            Err(StoreError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn empty_labeling_roundtrips() {
        let hl = HubLabeling::empty(0);
        let store = LabelStore::from_labeling(&hl);
        let mut buf = Vec::new();
        store.write_to(&mut buf).unwrap();
        let back = LabelStore::parse(&buf).unwrap();
        assert_eq!(back.num_nodes(), 0);
        assert!(back.to_labeling().unwrap().num_nodes() == 0);
    }
}
