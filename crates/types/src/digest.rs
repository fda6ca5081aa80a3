//! Canonical state hashing for visited-state deduplication.
//!
//! The model checker (`newtop-exp mc`) explores every event interleaving of
//! a small system and prunes states it has already seen. That pruning is
//! sound only if the hash is **canonical**: two states that can evolve
//! differently must hash differently, and derived caches, scratch buffers
//! and allocation shapes must not leak into the hash.
//!
//! The contract is [`std::hash::Hash`], fed to one [`DigestHasher`]. A type
//! whose every field is observable protocol or network state derives
//! `Hash`. A type that carries derived caches (a cached head or minimum, a
//! memoised deadline, statistics, scratch buffers) writes its `Hash` by
//! hand, and that impl destructures `self` exhaustively — `let Self { a, b,
//! cache: _ } = self;` — so a new field does not compile until someone
//! decides whether it is observable.
//!
//! The hash is 64-bit FNV-1a over fixed-width big-endian integers (lengths
//! included; enum discriminants take one byte), the same function the chaos
//! corpus uses for history hashes: no dependencies, stable across platforms,
//! pointer widths and runs, and cheap enough to run after every explored
//! event.

use std::fmt;
use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a [`Hasher`] with fixed-width big-endian
/// integer encodings. It is also a [`fmt::Write`] sink, so formatted text
/// streams into the hash without an intermediate `String`.
///
/// # Examples
///
/// ```
/// use newtop_types::digest::{digest_of, DigestHasher};
/// use newtop_types::Msn;
/// use std::hash::{Hash, Hasher};
///
/// let mut h = DigestHasher::new();
/// Msn(7).hash(&mut h);
/// assert_eq!(h.finish(), digest_of(&Msn(7)));
/// assert_ne!(digest_of(&Msn(7)), digest_of(&Msn(8)));
/// ```
#[derive(Debug, Clone)]
pub struct DigestHasher {
    state: u64,
}

impl DigestHasher {
    /// A hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> DigestHasher {
        DigestHasher { state: FNV_OFFSET }
    }
}

impl Default for DigestHasher {
    fn default() -> DigestHasher {
        DigestHasher::new()
    }
}

impl Hasher for DigestHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.state ^= u64::from(*b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write(&v.to_be_bytes());
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_be_bytes());
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_be_bytes());
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.write(&v.to_be_bytes());
    }

    /// Derived `Hash` feeds enum discriminants here: one byte each below
    /// 255 (as the hand-written tags were), an escape byte and the full
    /// width otherwise — prefix-free, so no two values alias.
    #[inline]
    fn write_isize(&mut self, v: isize) {
        match u8::try_from(v) {
            Ok(b) if b < u8::MAX => self.write_u8(b),
            _ => {
                self.write_u8(u8::MAX);
                self.write_u64(v as u64);
            }
        }
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

impl fmt::Write for DigestHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        Hasher::write(self, s.as_bytes());
        Ok(())
    }
}

/// The digest of a single value.
#[must_use]
pub fn digest_of<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DigestHasher::new();
    v.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupId, Message, MessageBody, Msn, ProcessId};
    use bytes::Bytes;

    #[test]
    fn known_fnv_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(DigestHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        // "a" = 0x61.
        let mut h = DigestHasher::new();
        h.write_u8(0x61);
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        // Integers, lengths and discriminants are fixed-width big-endian.
        let mut bytes = DigestHasher::new();
        bytes.write(&[0, 0, 0, 0, 0, 0, 0, 0x61]);
        let mut word = DigestHasher::new();
        word.write_usize(0x61);
        assert_eq!(word.finish(), bytes.finish());
        // Discriminants take one byte; the escape keeps larger ones apart.
        let tag = |v: isize| {
            let mut h = DigestHasher::new();
            h.write_isize(v);
            h.finish()
        };
        assert_eq!(tag(0x61), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(tag(255), tag(-1));
    }

    #[test]
    fn length_prefix_prevents_aliasing() {
        let a: (&[u8], &[u8]) = (b"ab", b"c");
        let b: (&[u8], &[u8]) = (b"a", b"bc");
        assert_ne!(digest_of(&a), digest_of(&b));
    }

    #[test]
    fn message_digest_distinguishes_bodies() {
        let base = Message {
            group: GroupId(1),
            sender: ProcessId(2),
            c: Msn(3),
            ldn: Msn(1),
            body: MessageBody::Null,
        };
        let app = Message {
            body: MessageBody::App(Bytes::from_static(b"")),
            ..base.clone()
        };
        assert_ne!(digest_of(&base), digest_of(&app));
    }

    #[test]
    fn option_and_vec_are_tagged() {
        assert_ne!(digest_of(&None::<Msn>), digest_of(&Some(Msn(0))));
        assert_ne!(
            digest_of(&vec![Msn(1), Msn(2)]),
            digest_of(&vec![Msn(2), Msn(1)])
        );
    }
}
