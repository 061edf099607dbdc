//! Bit-level primitives: bit vectors, MSB-first readers/writers, unary and
//! Elias-γ/δ codes.
//!
//! Distance labelings are measured in *bits*; these codecs let the schemes
//! report honest sizes (and actually round-trip their data).
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

/// A growable bit vector (MSB-first within each byte).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    bytes: Vec<u8>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        BitVec::default()
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let byte = self.len / 8;
        if byte == self.bytes.len() {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[byte] |= 1 << (7 - self.len % 8);
        }
        self.len += 1;
    }

    /// The bit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index out of range");
        self.bytes[idx / 8] & (1 << (7 - idx % 8)) != 0
    }

    /// Underlying bytes (the last byte may be partially used).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// MSB-first bit writer over a [`BitVec`].
#[derive(Debug, Default)]
pub struct BitWriter {
    bits: BitVec,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends one bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Appends the low `width` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` does not fit in `width` bits.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width too large");
        assert!(
            width == 64 || value < (1u64 << width),
            "value does not fit width"
        );
        for i in (0..width).rev() {
            self.bits.push(value >> i & 1 == 1);
        }
    }

    /// Appends `value` zeros followed by a one (unary code).
    pub fn write_unary(&mut self, value: u64) {
        for _ in 0..value {
            self.bits.push(false);
        }
        self.bits.push(true);
    }

    /// Elias-γ code of `value >= 1`: unary length prefix + binary suffix.
    ///
    /// # Panics
    ///
    /// Panics if `value == 0`.
    pub fn write_gamma(&mut self, value: u64) {
        assert!(value >= 1, "gamma codes positive integers only");
        let n = 63 - value.leading_zeros(); // floor(log2 value)
        for _ in 0..n {
            self.bits.push(false);
        }
        self.write_bits(value, n + 1);
    }

    /// Elias-γ of `value + 1`, allowing zero.
    pub fn write_gamma0(&mut self, value: u64) {
        self.write_gamma(value + 1);
    }

    /// Elias-δ code of `value >= 1`: γ-coded length + binary remainder.
    ///
    /// # Panics
    ///
    /// Panics if `value == 0`.
    pub fn write_delta(&mut self, value: u64) {
        assert!(value >= 1, "delta codes positive integers only");
        let n = 63 - value.leading_zeros();
        self.write_gamma(n as u64 + 1);
        if n > 0 {
            self.write_bits(value & ((1u64 << n) - 1), n);
        }
    }

    /// Bits written so far.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Finishes writing and extracts the bit vector.
    pub fn into_bits(self) -> BitVec {
        self.bits
    }
}

/// MSB-first bit reader over a [`BitVec`] or over borrowed bytes.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    len: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Starts reading at the first bit.
    pub fn new(bits: &'a BitVec) -> Self {
        BitReader {
            bytes: bits.as_bytes(),
            len: bits.len(),
            pos: 0,
        }
    }

    /// Reads `len` bits in place from serialized bytes — the layout of
    /// [`BitVec::as_bytes`] plus the bit length from [`BitVec::len`] —
    /// without copying them. This is how binary label stores
    /// (`hl-server`) decode a label out of a file buffer.
    ///
    /// Returns `None` when `bytes` is not exactly `ceil(len / 8)` bytes
    /// long or a bit past `len` in the final byte is set — both are signs
    /// of a corrupted or misaligned serialization, which callers must
    /// surface as an error rather than decode garbage.
    pub fn from_bytes(bytes: &'a [u8], len: usize) -> Option<Self> {
        if bytes.len() != len.div_ceil(8) {
            return None;
        }
        if !len.is_multiple_of(8) {
            let tail = bytes[bytes.len() - 1];
            let used = len % 8;
            if tail & ((1u8 << (8 - used)) - 1) != 0 {
                return None;
            }
        }
        Some(BitReader { bytes, len, pos: 0 })
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }

    /// Reads one bit.
    ///
    /// # Panics
    ///
    /// Panics if the reader is exhausted.
    pub fn read_bit(&mut self) -> bool {
        assert!(self.pos < self.len, "bit index out of range");
        let b = self.bytes[self.pos / 8] & (1 << (7 - self.pos % 8)) != 0;
        self.pos += 1;
        b
    }

    /// Reads `width` bits MSB-first.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `width` bits remain.
    pub fn read_bits(&mut self, width: u32) -> u64 {
        let mut v = 0u64;
        for _ in 0..width {
            v = v << 1 | self.read_bit() as u64;
        }
        v
    }

    /// Reads a unary code.
    pub fn read_unary(&mut self) -> u64 {
        let mut n = 0;
        while !self.read_bit() {
            n += 1;
        }
        n
    }

    /// Reads an Elias-γ code.
    pub fn read_gamma(&mut self) -> u64 {
        let n = self.read_unary();
        let rest = if n == 0 {
            0
        } else {
            self.read_bits(u32::try_from(n).unwrap_or(u32::MAX))
        };
        (1u64 << n) | rest
    }

    /// Reads a γ-coded `value + 1`, returning `value`.
    pub fn read_gamma0(&mut self) -> u64 {
        self.read_gamma() - 1
    }

    /// Reads an Elias-δ code.
    pub fn read_delta(&mut self) -> u64 {
        let n = self.read_gamma() - 1;
        let rest = if n == 0 {
            0
        } else {
            self.read_bits(u32::try_from(n).unwrap_or(u32::MAX))
        };
        (1u64 << n) | rest
    }

    // --- Checked variants -------------------------------------------------
    //
    // The panicking readers above are for bits this process itself wrote
    // (encode → decode round trips). Bits arriving from *outside* — a label
    // store file, a network peer — may be arbitrary, and a checksum only
    // guards against accidents, not crafted input. The `try_` readers
    // return `None` instead of panicking on exhaustion, over-long unary
    // runs, or γ codes too wide for `u64`, so untrusted decode paths can
    // surface a typed error.

    /// Reads one bit, or `None` if the reader is exhausted.
    pub fn try_read_bit(&mut self) -> Option<bool> {
        if self.pos >= self.len {
            return None;
        }
        Some(self.read_bit())
    }

    /// Reads `width` bits MSB-first, or `None` if fewer remain.
    pub fn try_read_bits(&mut self, width: u32) -> Option<u64> {
        if width as usize > self.remaining() || width > 64 {
            return None;
        }
        Some(self.read_bits(width))
    }

    /// Reads a unary code, or `None` if the run hits the end of the bits
    /// before its terminating 1.
    pub fn try_read_unary(&mut self) -> Option<u64> {
        let mut n = 0u64;
        loop {
            match self.try_read_bit() {
                Some(true) => return Some(n),
                Some(false) => n += 1,
                None => return None,
            }
        }
    }

    /// Reads an Elias-γ code, or `None` on exhaustion or a value that
    /// does not fit in a `u64` (unary prefix of 64 or more).
    pub fn try_read_gamma(&mut self) -> Option<u64> {
        let n = self.try_read_unary()?;
        if n >= 64 {
            return None;
        }
        let rest = if n == 0 {
            0
        } else {
            let width = u32::try_from(n).ok()?;
            self.try_read_bits(width)?
        };
        Some((1u64 << n) | rest)
    }

    /// Reads a γ-coded `value + 1` and returns `value`, or `None` on any
    /// malformed code.
    pub fn try_read_gamma0(&mut self) -> Option<u64> {
        self.try_read_gamma().map(|v| v - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut bv = BitVec::new();
        for i in 0..20 {
            bv.push(i % 3 == 0);
        }
        assert_eq!(bv.len(), 20);
        for i in 0..20 {
            assert_eq!(bv.get(i), i % 3 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range() {
        BitVec::new().get(0);
    }

    #[test]
    fn fixed_width_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(7, 3);
        w.write_bits(u64::MAX, 64);
        let bits = w.into_bits();
        let mut r = BitReader::new(&bits);
        assert_eq!(r.read_bits(4), 0b1011);
        assert_eq!(r.read_bits(3), 7);
        assert_eq!(r.read_bits(64), u64::MAX);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn fixed_width_overflow_rejected() {
        BitWriter::new().write_bits(8, 3);
    }

    #[test]
    fn unary_roundtrip() {
        let mut w = BitWriter::new();
        for v in [0u64, 1, 5, 13] {
            w.write_unary(v);
        }
        let bits = w.into_bits();
        let mut r = BitReader::new(&bits);
        for v in [0u64, 1, 5, 13] {
            assert_eq!(r.read_unary(), v);
        }
    }

    #[test]
    fn gamma_roundtrip() {
        let values = [1u64, 2, 3, 4, 5, 7, 8, 100, 1_000_000, u64::MAX >> 1];
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

    #[test]
    fn gamma_known_codes() {
        // gamma(1) = "1", gamma(2) = "010", gamma(3) = "011".
        let mut w = BitWriter::new();
        w.write_gamma(1);
        assert_eq!(w.len(), 1);
        let mut w = BitWriter::new();
        w.write_gamma(2);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn gamma0_allows_zero() {
        let mut w = BitWriter::new();
        w.write_gamma0(0);
        w.write_gamma0(41);
        let bits = w.into_bits();
        let mut r = BitReader::new(&bits);
        assert_eq!(r.read_gamma0(), 0);
        assert_eq!(r.read_gamma0(), 41);
    }

    #[test]
    fn from_bytes_reads_in_place_and_rejects_misfit_serializations() {
        let mut w = BitWriter::new();
        w.write_gamma(5); // 00101
        w.write_gamma0(0); // 1
        let bits = w.into_bits();
        assert_eq!(bits.as_bytes(), [0b0010_1100]);
        let mut r = BitReader::from_bytes(bits.as_bytes(), bits.len()).unwrap();
        assert_eq!(r.read_gamma(), 5);
        assert_eq!(r.read_gamma0(), 0);
        assert_eq!(r.try_read_bit(), None);
        // A byte count that is not ceil(len / 8), and a set bit past `len`.
        assert!(BitReader::from_bytes(bits.as_bytes(), 9).is_none());
        assert!(BitReader::from_bytes(&[0b0010_1101], 6).is_none());
    }

    #[test]
    fn delta_roundtrip() {
        let values = [1u64, 2, 15, 16, 17, 4095, 1 << 40];
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

    #[test]
    fn delta_shorter_than_gamma_for_large() {
        let mut wg = BitWriter::new();
        wg.write_gamma(1 << 30);
        let mut wd = BitWriter::new();
        wd.write_delta(1 << 30);
        assert!(wd.len() < wg.len());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gamma_zero_rejected() {
        BitWriter::new().write_gamma(0);
    }

    #[test]
    fn mixed_stream() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_gamma(9);
        w.write_unary(3);
        w.write_bits(5, 3);
        w.write_delta(100);
        let bits = w.into_bits();
        let mut r = BitReader::new(&bits);
        assert!(r.read_bit());
        assert_eq!(r.read_gamma(), 9);
        assert_eq!(r.read_unary(), 3);
        assert_eq!(r.read_bits(3), 5);
        assert_eq!(r.read_delta(), 100);
        assert_eq!(r.remaining(), 0);
    }
}
