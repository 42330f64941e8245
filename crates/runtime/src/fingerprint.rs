//! In-repo FNV-1a/64 streaming hasher for canonical state fingerprints.
//!
//! The reduced exhaustive explorer ([`crate::explore`]) dedups revisited
//! states by a 64-bit fingerprint of the simulation's canonical state.
//! The hash must be identical across processes, platforms and runs —
//! `std`'s `DefaultHasher` is seeded per process and its algorithm is
//! explicitly unstable, so the determinism contract (DESIGN.md §6) rules
//! it out. FNV-1a is tiny, dependency-free and fully specified; the
//! fingerprint is a pure function of the bytes fed to it.
//!
//! [`Fnv64`] also implements [`std::fmt::Write`], so canonical *byte
//! encodings* of compound state can be produced by streaming a value's
//! `Debug` rendering straight into the hasher without allocating:
//! derived `Debug` output is a pure function of the data (field values in
//! declaration order — no addresses, no hash-seeded iteration), which
//! makes it a convenient canonical encoding for plain-data state.

use std::fmt;

/// A streaming FNV-1a/64 hasher.
///
/// # Example
///
/// ```
/// use sih_runtime::Fnv64;
/// let mut h = Fnv64::new();
/// h.write(b"hello");
/// let a = h.finish();
/// let mut h2 = Fnv64::new();
/// h2.write(b"hel");
/// h2.write(b"lo");
/// assert_eq!(a, h2.finish()); // streaming is chunk-insensitive
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

/// FNV-1a/64 offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a/64 prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }

    /// Feeds one byte (domain-separation tags between sections).
    pub fn write_u8(&mut self, b: u8) {
        self.write(&[b]);
    }

    /// Feeds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a `usize` widened to `u64` (so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a value's `Debug` rendering as the canonical byte encoding.
    pub fn write_debug<T: fmt::Debug>(&mut self, value: &T) {
        // Formatting into a hasher cannot fail; the sink is infallible.
        let _ = fmt::write(self, format_args!("{value:?}"));
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Hash of a byte slice in one call (reference entry point and test
/// anchor for the streaming implementation).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Hash of a value's `Debug` rendering in one call: the 64-bit digest
/// the state fingerprint caches for a compound section (an automaton,
/// the emulated history, an installed plan).
pub(crate) fn debug_digest<T: fmt::Debug>(value: &T) -> u64 {
    let mut h = Fnv64::new();
    h.write_debug(value);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        // Vectors from the FNV reference code (Noll).
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn chunked_and_whole_writes_agree() {
        let mut whole = Fnv64::new();
        whole.write(b"canonical encoding");
        let mut parts = Fnv64::new();
        parts.write(b"canonical ");
        parts.write(b"encoding");
        assert_eq!(whole.finish(), parts.finish());
    }

    #[test]
    fn debug_streaming_matches_formatted_string() {
        #[derive(Debug)]
        #[allow(dead_code)] // fields exist to be Debug-rendered
        struct S {
            a: u32,
            b: Option<&'static str>,
        }
        let v = S { a: 7, b: Some("x") };
        let mut streamed = Fnv64::new();
        streamed.write_debug(&v);
        assert_eq!(streamed.finish(), fnv1a_64(format!("{v:?}").as_bytes()));
    }

    #[test]
    fn integer_writes_are_width_stable() {
        let mut a = Fnv64::new();
        a.write_usize(513);
        let mut b = Fnv64::new();
        b.write_u64(513);
        assert_eq!(a.finish(), b.finish());
    }
}
