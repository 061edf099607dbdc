/// Allocates from a decoded length with no cap check: fires on line 3.
pub fn bad_alloc(buf: [u8; 4]) -> Vec<u8> {
    Vec::with_capacity(u32::from_le_bytes(buf) as usize)
}

/// The same allocation behind a cap check: clean.
pub fn checked_alloc(buf: [u8; 4]) -> Vec<u8> {
    let n = u32::from_le_bytes(buf) as usize;
    if n > 4096 {
        return Vec::new();
    }
    Vec::with_capacity(n)
}

/// A header count decoded through the store parsers' `read_u64` helper
/// (no `from_le_bytes` in sight) sizes a `vec!` uncapped: fires on line 19.
pub fn bad_header_alloc(bytes: &[u8]) -> Vec<u8> {
    let n = usize::try_from(read_u64(bytes, 8)).unwrap_or(0);
    vec![0; n]
}
