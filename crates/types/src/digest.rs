//! A stable 64-bit digest for identities that are printed or stored.
//!
//! [`Digest`] is FNV-1a 64 over an explicit little-endian encoding, so a
//! value's digest depends only on its fields — not on `Debug` text, the
//! standard library's hasher or the platform. Callers feed fields in a
//! fixed order with the typed writers:
//!
//! * integers as fixed-width little-endian bytes (`usize` as 8 bytes);
//! * strings as their byte length, then their UTF-8 bytes;
//! * durations as nanoseconds;
//! * enum variants and `Option`s as a one-byte tag before the payload.
//!
//! [`Digest`] is also a [`Hasher`] whose integer writers use the same
//! fixed-width little-endian encoding, so a type with a `Hash` impl
//! digests through [`Digest::of`]. That is how in-process identities
//! (the sweep planner's cache keys) are built; the values a golden
//! prints use the typed writers, whose encoding this module pins.
//!
//! # Example
//!
//! ```
//! use tsn_types::digest::Digest;
//! use tsn_types::SimDuration;
//!
//! let mut a = Digest::new();
//! a.str("ring").u32(3).duration(SimDuration::from_millis(2));
//! let mut b = Digest::new();
//! b.str("ring").u32(3).duration(SimDuration::from_micros(2000));
//! assert_eq!(a.finish(), b.finish());
//! ```

use crate::time::SimDuration;
use std::hash::{Hash, Hasher};

/// FNV-1a 64 offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a 64 hasher with typed, explicitly encoded writers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// A digest of nothing yet (the FNV offset basis).
    #[must_use]
    pub const fn new() -> Self {
        Digest(OFFSET_BASIS)
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(PRIME);
        }
        self
    }

    /// Feeds one byte: an enum variant's or an `Option`'s tag.
    pub fn u8(&mut self, value: u8) -> &mut Self {
        self.bytes(&[value])
    }

    /// Feeds a `u32` as 4 little-endian bytes.
    pub fn u32(&mut self, value: u32) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Feeds a `u64` as 8 little-endian bytes.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Feeds a `usize` as a `u64`, so 32- and 64-bit hosts agree.
    pub fn usize(&mut self, value: usize) -> &mut Self {
        self.u64(value as u64)
    }

    /// Feeds a string as its byte length, then its bytes, so adjacent
    /// strings cannot trade characters.
    pub fn str(&mut self, value: &str) -> &mut Self {
        self.usize(value.len()).bytes(value.as_bytes())
    }

    /// Feeds a duration as its nanoseconds.
    pub fn duration(&mut self, value: SimDuration) -> &mut Self {
        self.u64(value.as_nanos())
    }

    /// Feeds tag 0 for `None`, or tag 1 followed by `some` applied to the
    /// value.
    pub fn option<T>(
        &mut self,
        value: Option<T>,
        some: impl FnOnce(&mut Self, T) -> &mut Self,
    ) -> &mut Self {
        match value {
            None => self.u8(0),
            Some(value) => some(self.u8(1), value),
        }
    }

    /// The digest of everything fed so far.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }

    /// The digest of `value`'s `Hash` encoding.
    #[must_use]
    pub fn of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut digest = Digest::new();
        value.hash(&mut digest);
        digest.finish()
    }
}

/// The integer writers use the typed writers' fixed little-endian
/// encoding (the signed ones forward to them), so a `Hash`-derived digest
/// does not depend on the host's byte order or pointer width.
impl Hasher for Digest {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
    }

    fn write_u8(&mut self, value: u8) {
        self.u8(value);
    }

    fn write_u16(&mut self, value: u16) {
        self.bytes(&value.to_le_bytes());
    }

    fn write_u32(&mut self, value: u32) {
        self.u32(value);
    }

    fn write_u64(&mut self, value: u64) {
        self.u64(value);
    }

    fn write_u128(&mut self, value: u128) {
        self.bytes(&value.to_le_bytes());
    }

    fn write_usize(&mut self, value: usize) {
        self.usize(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Digest::new().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn integers_are_little_endian_fixed_width() {
        let mut bytes = Digest::new();
        bytes.bytes(&[1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]);
        let mut typed = Digest::new();
        typed.u32(1).u64(2);
        assert_eq!(typed, bytes);
        let mut wide = Digest::new();
        wide.usize(2);
        let mut narrow = Digest::new();
        narrow.u64(2);
        assert_eq!(wide, narrow);
        assert_ne!(Digest::new().u32(2).finish(), narrow.finish());
    }

    #[test]
    fn strings_carry_their_length() {
        let mut ab_c = Digest::new();
        ab_c.str("ab").str("c");
        let mut a_bc = Digest::new();
        a_bc.str("a").str("bc");
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn options_are_tagged() {
        let mut none = Digest::new();
        none.option(None::<u64>, Digest::u64);
        let mut zero = Digest::new();
        zero.option(Some(0u64), Digest::u64);
        assert_ne!(none, zero);
        assert_eq!(none, *Digest::new().u8(0));
        let mut tagged = Digest::new();
        tagged.u8(1).u64(0);
        assert_eq!(zero, tagged);
    }

    #[test]
    fn hash_writes_use_the_typed_encoding() {
        let mut typed = Digest::new();
        typed
            .u8(7)
            .u32(1)
            .u64(2)
            .usize(3)
            .duration(SimDuration::from_nanos(4));
        assert_eq!(
            Digest::of(&(7u8, 1u32, 2u64, 3usize, SimDuration::from_nanos(4))),
            typed.finish()
        );
        assert_eq!(Digest::of(&-1i32), Digest::of(&u32::MAX));
        assert_eq!(
            Digest::of(&0x0102u16),
            Digest::new().bytes(&[2, 1]).finish()
        );
        assert_eq!(
            Digest::of(&1u128),
            Digest::new().u64(1).u64(0).finish(),
            "u128 is 16 little-endian bytes"
        );
    }

    #[test]
    fn durations_hash_as_nanoseconds() {
        let mut d = Digest::new();
        d.duration(SimDuration::from_micros(3));
        assert_eq!(d, *Digest::new().u64(3_000));
    }
}
