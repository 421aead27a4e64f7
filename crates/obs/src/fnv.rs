//! FNV-1a 64-bit, the workspace's one dependency-free content hash.
//!
//! Campaign checkpoint fingerprints, the print shop's query and content
//! keys, snapshot digests, and program digests all hash through here.
//! Those values are persisted (checkpoint file names, cache entries,
//! journal lines), so the arithmetic must never change.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64 hasher: feeding bytes in pieces hashes exactly
/// like [`fnv1a`] over their concatenation.
///
/// ```
/// use printed_obs::fnv::{fnv1a, Fnv1a};
/// let mut h = Fnv1a::new();
/// h.write(b"print");
/// h.write(b"shop");
/// assert_eq!(h.finish(), fnv1a(b"printshop"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub const fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds `v` in as its 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv1a::new();
        h.write_u64(0x0123_4567_89ab_cdef);
        h.write(b"tail");
        let mut flat = 0x0123_4567_89ab_cdefu64.to_le_bytes().to_vec();
        flat.extend_from_slice(b"tail");
        assert_eq!(h.finish(), fnv1a(&flat));
    }
}
