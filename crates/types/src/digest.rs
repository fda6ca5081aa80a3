//! Canonical state hashing for visited-state deduplication.
//!
//! The model checker (`newtop-exp mc`) explores every event interleaving of
//! a small system and prunes states it has already seen. That pruning is
//! sound only if the hash is **canonical**: two states that can evolve
//! differently must hash differently, and derived caches, scratch buffers
//! and allocation shapes must not leak into the hash. [`StateDigest`] is the
//! contract — every type that is part of observable protocol or network
//! state folds exactly its observable fields into a [`DigestHasher`], in a
//! fixed order, with fixed-width encodings.
//!
//! The hash is 64-bit FNV-1a, the same function the chaos corpus uses for
//! history hashes: no dependencies, stable across platforms and runs, and
//! cheap enough to run after every explored event.

use crate::{
    ControlMessage, Envelope, FormationDecision, GroupConfig, GroupId, Instant, Message,
    MessageBody, Msn, OrderMode, ProcessId, SignedView, Span, Suspicion, View, ViewSeq,
};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher with fixed-width integer encodings.
///
/// # Examples
///
/// ```
/// use newtop_types::digest::{digest_of, DigestHasher, StateDigest};
/// use newtop_types::Msn;
///
/// let mut h = DigestHasher::new();
/// Msn(7).digest_into(&mut h);
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

    /// Folds one byte in.
    pub fn write_u8(&mut self, b: u8) {
        self.state ^= u64::from(b);
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Folds a byte slice in, length-prefixed so adjacent slices cannot
    /// alias (`"ab","c"` vs `"a","bc"`).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for b in bytes {
            self.write_u8(*b);
        }
    }

    /// Folds a `u32` in (big-endian).
    pub fn write_u32(&mut self, v: u32) {
        for b in v.to_be_bytes() {
            self.write_u8(b);
        }
    }

    /// Folds a `u64` in (big-endian).
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_be_bytes() {
            self.write_u8(b);
        }
    }

    /// Folds a boolean in.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for DigestHasher {
    fn default() -> DigestHasher {
        DigestHasher::new()
    }
}

/// Canonical state hashing: fold exactly the observable state into `h`.
///
/// Implementations must exclude anything derived (cached minima, memoised
/// deadlines), anything allocation-shaped (pool capacities, scratch
/// buffers) and anything that does not influence future behaviour
/// (statistics counters, logs). Everything else must be folded in a
/// deterministic order with length prefixes on variable-size parts.
pub trait StateDigest {
    /// Folds this value's observable state into the hasher.
    fn digest_into(&self, h: &mut DigestHasher);
}

/// Convenience: the digest of a single value.
#[must_use]
pub fn digest_of<T: StateDigest + ?Sized>(v: &T) -> u64 {
    let mut h = DigestHasher::new();
    v.digest_into(&mut h);
    h.finish()
}

impl<T: StateDigest + ?Sized> StateDigest for &T {
    fn digest_into(&self, h: &mut DigestHasher) {
        (**self).digest_into(h);
    }
}

impl<T: StateDigest + ?Sized> StateDigest for Arc<T> {
    fn digest_into(&self, h: &mut DigestHasher) {
        (**self).digest_into(h);
    }
}

impl<T: StateDigest> StateDigest for Option<T> {
    fn digest_into(&self, h: &mut DigestHasher) {
        match self {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                v.digest_into(h);
            }
        }
    }
}

impl<T: StateDigest> StateDigest for [T] {
    fn digest_into(&self, h: &mut DigestHasher) {
        h.write_u64(self.len() as u64);
        for v in self {
            v.digest_into(h);
        }
    }
}

impl<T: StateDigest> StateDigest for Vec<T> {
    fn digest_into(&self, h: &mut DigestHasher) {
        self.as_slice().digest_into(h);
    }
}

impl<A: StateDigest, B: StateDigest> StateDigest for (A, B) {
    fn digest_into(&self, h: &mut DigestHasher) {
        self.0.digest_into(h);
        self.1.digest_into(h);
    }
}

impl StateDigest for bool {
    fn digest_into(&self, h: &mut DigestHasher) {
        h.write_bool(*self);
    }
}

impl StateDigest for u32 {
    fn digest_into(&self, h: &mut DigestHasher) {
        h.write_u32(*self);
    }
}

impl StateDigest for u64 {
    fn digest_into(&self, h: &mut DigestHasher) {
        h.write_u64(*self);
    }
}

impl StateDigest for bytes::Bytes {
    fn digest_into(&self, h: &mut DigestHasher) {
        h.write_bytes(self);
    }
}

impl StateDigest for ProcessId {
    fn digest_into(&self, h: &mut DigestHasher) {
        h.write_u32(self.0);
    }
}

impl StateDigest for GroupId {
    fn digest_into(&self, h: &mut DigestHasher) {
        h.write_u32(self.0);
    }
}

impl StateDigest for ViewSeq {
    fn digest_into(&self, h: &mut DigestHasher) {
        h.write_u32(self.0);
    }
}

impl StateDigest for Msn {
    fn digest_into(&self, h: &mut DigestHasher) {
        h.write_u64(self.0);
    }
}

impl StateDigest for Instant {
    fn digest_into(&self, h: &mut DigestHasher) {
        h.write_u64(self.as_micros());
    }
}

impl StateDigest for Span {
    fn digest_into(&self, h: &mut DigestHasher) {
        h.write_u64(self.as_micros());
    }
}

impl StateDigest for OrderMode {
    fn digest_into(&self, h: &mut DigestHasher) {
        h.write_u8(match self {
            OrderMode::Symmetric => 0,
            OrderMode::Asymmetric => 1,
        });
    }
}

impl StateDigest for crate::DeliveryMode {
    fn digest_into(&self, h: &mut DigestHasher) {
        h.write_u8(match self {
            crate::DeliveryMode::Total => 0,
            crate::DeliveryMode::Atomic => 1,
        });
    }
}

impl StateDigest for crate::SuspicionMode {
    fn digest_into(&self, h: &mut DigestHasher) {
        match self {
            crate::SuspicionMode::FixedOmega => h.write_u8(0),
            crate::SuspicionMode::Accrual {
                window,
                factor,
                cap,
            } => {
                h.write_u8(1);
                h.write_u8(*window);
                h.write_u32(u32::from(*factor));
                h.write_u32(u32::from(*cap));
            }
        }
    }
}

impl StateDigest for GroupConfig {
    fn digest_into(&self, h: &mut DigestHasher) {
        self.mode.digest_into(h);
        self.delivery.digest_into(h);
        self.omega.digest_into(h);
        self.big_omega.digest_into(h);
        self.flow_window.digest_into(h);
        self.suspicion.digest_into(h);
    }
}

impl StateDigest for crate::ProcessConfig {
    fn digest_into(&self, h: &mut DigestHasher) {
        self.formation_timeout.digest_into(h);
    }
}

impl StateDigest for View {
    fn digest_into(&self, h: &mut DigestHasher) {
        self.seq().digest_into(h);
        h.write_u64(self.len() as u64);
        for p in self.iter() {
            p.digest_into(h);
        }
    }
}

impl StateDigest for SignedView {
    fn digest_into(&self, h: &mut DigestHasher) {
        h.write_u32(self.excluded_count());
        let members = self.members();
        h.write_u64(members.len() as u64);
        for p in members {
            p.digest_into(h);
        }
    }
}

impl StateDigest for Suspicion {
    fn digest_into(&self, h: &mut DigestHasher) {
        self.suspect.digest_into(h);
        self.ln.digest_into(h);
    }
}

impl StateDigest for FormationDecision {
    fn digest_into(&self, h: &mut DigestHasher) {
        h.write_u8(match self {
            FormationDecision::Yes => 0,
            FormationDecision::No => 1,
        });
    }
}

impl StateDigest for MessageBody {
    fn digest_into(&self, h: &mut DigestHasher) {
        match self {
            MessageBody::App(payload) => {
                h.write_u8(0);
                payload.digest_into(h);
            }
            MessageBody::Null => h.write_u8(1),
            MessageBody::SeqRequest { origin_c, payload } => {
                h.write_u8(2);
                origin_c.digest_into(h);
                payload.digest_into(h);
            }
            MessageBody::Relay {
                origin,
                origin_c,
                payload,
            } => {
                h.write_u8(3);
                origin.digest_into(h);
                origin_c.digest_into(h);
                payload.digest_into(h);
            }
            MessageBody::Suspect(s) => {
                h.write_u8(4);
                s.digest_into(h);
            }
            MessageBody::Refute {
                suspicion,
                upto,
                recovered,
            } => {
                h.write_u8(5);
                suspicion.digest_into(h);
                upto.digest_into(h);
                recovered.digest_into(h);
            }
            MessageBody::Confirmed { detection } => {
                h.write_u8(6);
                detection.digest_into(h);
            }
            MessageBody::StartGroup => h.write_u8(7),
            MessageBody::Depart => h.write_u8(8),
            MessageBody::ViewCut { detection } => {
                h.write_u8(9);
                detection.digest_into(h);
            }
        }
    }
}

impl StateDigest for Message {
    fn digest_into(&self, h: &mut DigestHasher) {
        self.group.digest_into(h);
        self.sender.digest_into(h);
        self.c.digest_into(h);
        self.ldn.digest_into(h);
        self.body.digest_into(h);
    }
}

impl StateDigest for ControlMessage {
    fn digest_into(&self, h: &mut DigestHasher) {
        match self {
            ControlMessage::FormGroup {
                group,
                initiator,
                members,
                config,
            } => {
                h.write_u8(0);
                group.digest_into(h);
                initiator.digest_into(h);
                h.write_u64(members.len() as u64);
                for p in members {
                    p.digest_into(h);
                }
                config.digest_into(h);
            }
            ControlMessage::FormVote {
                group,
                voter,
                decision,
            } => {
                h.write_u8(1);
                group.digest_into(h);
                voter.digest_into(h);
                decision.digest_into(h);
            }
        }
    }
}

impl StateDigest for Envelope {
    fn digest_into(&self, h: &mut DigestHasher) {
        match self {
            Envelope::Group(m) => {
                h.write_u8(0);
                m.digest_into(h);
            }
            Envelope::Control(c) => {
                h.write_u8(1);
                c.digest_into(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn known_fnv_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(DigestHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        // "a" = 0x61.
        let mut h = DigestHasher::new();
        h.write_u8(0x61);
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn length_prefix_prevents_aliasing() {
        let mut a = DigestHasher::new();
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = DigestHasher::new();
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
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
