//! Compact binary codec for [`Envelope`]s.
//!
//! The codec exists for two reasons. First, the threaded runtime frames
//! messages with it. Second — and more importantly for the reproduction —
//! the paper's §6 efficiency argument is about *message space overhead*:
//! Newtop piggybacks a constant-size header (`group`, `sender`, `c`, `ldn`)
//! where vector-clock protocols piggyback O(group size) and causal-history
//! protocols piggyback message graphs. Experiment E1 measures exactly the
//! bytes this module produces (see `newtop-harness`).
//!
//! Integers use LEB128 variable-length encoding so that the measured sizes
//! reflect what a careful 1995 implementation would have sent.
//!
//! # Layout
//!
//! Every envelope opens with one **key** varint, `group·16 + kind`. Its
//! low four bits say what follows: kinds 0–9 are the ten
//! [`MessageBody`] variants, 10 and 11 the two [`ControlMessage`]s, and
//! 12–15 are rejected as [`DecodeError::UnknownTag`]. The rest of the key
//! is the group id, so in groups below 8 group and kind share one byte.
//!
//! ```text
//! group message   key  sender  c  c−ldn  body fields
//! FormGroup       key  initiator  n  member×n  config
//! FormVote        key  voter  decision
//! ```
//!
//! A group message sends `ldn` as its lag behind `c`. The engine caps
//! `ldn` at `c` and `ldn` usually trails `c` closely, so the lag takes
//! one byte where `ldn` itself takes as many as `c`. The subtraction wraps, which keeps the codec total: every
//! `(c, ldn)` pair round-trips, `ldn > c` included. The messages a
//! `Refute` recovers are encoded the same way, key first.
//!
//! Decoding rejects an id that does not fit its 32-bit field with
//! [`DecodeError::OutOfRange`] instead of truncating it into another id.
//!
//! # Examples
//!
//! ```
//! use newtop_types::wire;
//! use newtop_types::{Envelope, GroupId, Message, MessageBody, Msn, ProcessId};
//!
//! let env: Envelope = Message {
//!     group: GroupId(1),
//!     sender: ProcessId(2),
//!     c: Msn(300),
//!     ldn: Msn(250),
//!     body: MessageBody::App(bytes::Bytes::from_static(b"hi")),
//! }
//! .into();
//! let bytes = wire::encode(&env);
//! // key 1·16 + 0, sender, c = 300 (two bytes), lag 50, then the payload.
//! assert_eq!(&bytes[..], &[0x10, 2, 0xac, 0x02, 50, 2, b'h', b'i']);
//! let back = wire::decode(&mut bytes.clone()).expect("round-trip");
//! assert_eq!(env, back);
//! ```

use crate::{
    ControlMessage, DecodeError, DeliveryMode, Envelope, FormationDecision, GroupConfig, GroupId,
    Message, MessageBody, Msn, OrderMode, ProcessId, Span, Suspicion, SuspicionMode,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Encoded size of `v` as a LEB128 varint, in bytes (1–10).
#[must_use]
pub fn varint_len(v: u64) -> usize {
    // ceil(bits/7), with 0 taking one byte.
    ((64 - v.leading_zeros() as usize).div_ceil(7)).max(1)
}

/// Appends `v` as a LEB128 varint.
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Peeks one LEB128 varint at `at` without consuming it: the value and
/// its encoded width, or `None` if the buffer ends mid-varint. Stream
/// decoders use it for length prefixes, so a prefix split across reads
/// leaves the buffer untouched for the next push.
///
/// # Errors
///
/// [`DecodeError::VarintOverflow`] if more than 64 bits are encoded.
pub fn peek_varint(buf: &[u8], at: usize) -> Result<Option<(u64, usize)>, DecodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    let mut i = at;
    loop {
        let Some(&byte) = buf.get(i) else {
            return Ok(None);
        };
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(DecodeError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        i += 1;
        if byte & 0x80 == 0 {
            return Ok(Some((v, i - at)));
        }
        shift += 7;
    }
}

/// Reads a LEB128 varint.
///
/// # Errors
///
/// [`DecodeError::Truncated`] if the buffer empties mid-varint;
/// [`DecodeError::VarintOverflow`] if more than 64 bits are encoded.
pub fn get_varint(buf: &mut Bytes) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(DecodeError::Truncated);
        }
        let byte = buf.get_u8();
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(DecodeError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Narrows a decoded varint to the width of its `field`.
///
/// # Errors
///
/// [`DecodeError::OutOfRange`] if `v` does not fit: a corrupt id is
/// refused rather than truncated into another one.
pub(crate) fn narrow<T: TryFrom<u64>>(v: u64, field: &'static str) -> Result<T, DecodeError> {
    T::try_from(v).map_err(|_| DecodeError::OutOfRange { value: v, field })
}

fn get_narrow<T: TryFrom<u64>>(buf: &mut Bytes, field: &'static str) -> Result<T, DecodeError> {
    narrow(get_varint(buf)?, field)
}

fn put_bytes(buf: &mut BytesMut, b: &Bytes) {
    put_varint(buf, b.len() as u64);
    buf.put_slice(b);
}

fn get_bytes(buf: &mut Bytes) -> Result<Bytes, DecodeError> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.split_to(len))
}

fn put_suspicion(buf: &mut BytesMut, s: &Suspicion) {
    put_varint(buf, u64::from(s.suspect.0));
    put_varint(buf, s.ln.0);
}

fn get_suspicion(buf: &mut Bytes) -> Result<Suspicion, DecodeError> {
    let suspect = ProcessId(get_narrow(buf, "suspect")?);
    let ln = Msn(get_varint(buf)?);
    Ok(Suspicion { suspect, ln })
}

fn put_detection(buf: &mut BytesMut, d: &[Suspicion]) {
    put_varint(buf, d.len() as u64);
    for s in d {
        put_suspicion(buf, s);
    }
}

fn get_detection(buf: &mut Bytes) -> Result<Vec<Suspicion>, DecodeError> {
    let n = get_varint(buf)? as usize;
    let mut d = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        d.push(get_suspicion(buf)?);
    }
    Ok(d)
}

/// Width of the kind in the low bits of an envelope's key.
const KIND_BITS: u32 = 4;
const KIND_APP: u8 = 0;
const KIND_NULL: u8 = 1;
const KIND_SEQ_REQUEST: u8 = 2;
const KIND_RELAY: u8 = 3;
const KIND_SUSPECT: u8 = 4;
const KIND_REFUTE: u8 = 5;
const KIND_CONFIRMED: u8 = 6;
const KIND_START_GROUP: u8 = 7;
const KIND_DEPART: u8 = 8;
const KIND_VIEW_CUT: u8 = 9;
const KIND_FORM_GROUP: u8 = 10;
const KIND_FORM_VOTE: u8 = 11;

fn body_kind(body: &MessageBody) -> u8 {
    match body {
        MessageBody::App(_) => KIND_APP,
        MessageBody::Null => KIND_NULL,
        MessageBody::SeqRequest { .. } => KIND_SEQ_REQUEST,
        MessageBody::Relay { .. } => KIND_RELAY,
        MessageBody::Suspect(_) => KIND_SUSPECT,
        MessageBody::Refute { .. } => KIND_REFUTE,
        MessageBody::Confirmed { .. } => KIND_CONFIRMED,
        MessageBody::StartGroup => KIND_START_GROUP,
        MessageBody::Depart => KIND_DEPART,
        MessageBody::ViewCut { .. } => KIND_VIEW_CUT,
    }
}

fn put_key(buf: &mut BytesMut, group: GroupId, kind: u8) {
    put_varint(buf, u64::from(group.0) << KIND_BITS | u64::from(kind));
}

/// Reads an envelope key: the group and a kind in `0..=KIND_FORM_VOTE`.
fn get_key(buf: &mut Bytes) -> Result<(GroupId, u8), DecodeError> {
    let key = get_varint(buf)?;
    let kind = (key & ((1 << KIND_BITS) - 1)) as u8;
    if kind > KIND_FORM_VOTE {
        return Err(DecodeError::UnknownTag {
            tag: kind,
            context: "envelope",
        });
    }
    Ok((GroupId(narrow(key >> KIND_BITS, "group")?), kind))
}

/// Encoded size of a key in `group`. The kind only fills the four low
/// bits, so it never changes the width.
fn key_len(group: GroupId) -> usize {
    varint_len(u64::from(group.0) << KIND_BITS)
}

/// What a group message sends in place of `ldn`: its lag behind `c`.
fn ldn_lag(m: &Message) -> u64 {
    m.c.0.wrapping_sub(m.ldn.0)
}

fn put_message(buf: &mut BytesMut, m: &Message) {
    put_key(buf, m.group, body_kind(&m.body));
    put_varint(buf, u64::from(m.sender.0));
    put_varint(buf, m.c.0);
    put_varint(buf, ldn_lag(m));
    match &m.body {
        MessageBody::App(p) => put_bytes(buf, p),
        MessageBody::Null | MessageBody::StartGroup | MessageBody::Depart => {}
        MessageBody::SeqRequest { origin_c, payload } => {
            put_varint(buf, origin_c.0);
            put_bytes(buf, payload);
        }
        MessageBody::Relay {
            origin,
            origin_c,
            payload,
        } => {
            put_varint(buf, u64::from(origin.0));
            put_varint(buf, origin_c.0);
            put_bytes(buf, payload);
        }
        MessageBody::Suspect(s) => put_suspicion(buf, s),
        MessageBody::Refute {
            suspicion,
            upto,
            recovered,
        } => {
            put_suspicion(buf, suspicion);
            put_varint(buf, upto.0);
            put_varint(buf, recovered.len() as u64);
            for r in recovered {
                put_message(buf, r);
            }
        }
        MessageBody::Confirmed { detection } | MessageBody::ViewCut { detection } => {
            put_detection(buf, detection);
        }
    }
}

/// Reads the rest of a group message whose key was `(group, kind)`.
fn get_message(buf: &mut Bytes, group: GroupId, kind: u8) -> Result<Message, DecodeError> {
    let sender = ProcessId(get_narrow(buf, "sender")?);
    let c = Msn(get_varint(buf)?);
    let ldn = Msn(c.0.wrapping_sub(get_varint(buf)?));
    let body = match kind {
        KIND_APP => MessageBody::App(get_bytes(buf)?),
        KIND_NULL => MessageBody::Null,
        KIND_SEQ_REQUEST => MessageBody::SeqRequest {
            origin_c: Msn(get_varint(buf)?),
            payload: get_bytes(buf)?,
        },
        KIND_RELAY => MessageBody::Relay {
            origin: ProcessId(get_narrow(buf, "origin")?),
            origin_c: Msn(get_varint(buf)?),
            payload: get_bytes(buf)?,
        },
        KIND_SUSPECT => MessageBody::Suspect(get_suspicion(buf)?),
        KIND_REFUTE => {
            let suspicion = get_suspicion(buf)?;
            let upto = Msn(get_varint(buf)?);
            let n = get_varint(buf)? as usize;
            let mut recovered = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let (group, kind) = get_key(buf)?;
                recovered.push(get_message(buf, group, kind)?);
            }
            MessageBody::Refute {
                suspicion,
                upto,
                recovered,
            }
        }
        KIND_CONFIRMED => MessageBody::Confirmed {
            detection: get_detection(buf)?,
        },
        KIND_START_GROUP => MessageBody::StartGroup,
        KIND_DEPART => MessageBody::Depart,
        KIND_VIEW_CUT => MessageBody::ViewCut {
            detection: get_detection(buf)?,
        },
        // Only a recovered message can get here: a control kind names
        // no message body.
        kind => {
            return Err(DecodeError::UnknownTag {
                tag: kind,
                context: "message body",
            })
        }
    };
    Ok(Message {
        group,
        sender,
        c,
        ldn,
        body,
    })
}

fn put_config(buf: &mut BytesMut, cfg: &GroupConfig) {
    buf.put_u8(match cfg.mode {
        OrderMode::Symmetric => 0,
        OrderMode::Asymmetric => 1,
    });
    buf.put_u8(match cfg.delivery {
        DeliveryMode::Total => 0,
        DeliveryMode::Atomic => 1,
    });
    put_varint(buf, cfg.omega.as_micros());
    put_varint(buf, cfg.big_omega.as_micros());
    match cfg.flow_window {
        None => buf.put_u8(0),
        Some(w) => {
            buf.put_u8(1);
            put_varint(buf, u64::from(w));
        }
    }
    match cfg.suspicion {
        SuspicionMode::FixedOmega => buf.put_u8(0),
        SuspicionMode::Accrual {
            window,
            factor,
            cap,
        } => {
            buf.put_u8(1);
            buf.put_u8(window);
            put_varint(buf, u64::from(factor));
            put_varint(buf, u64::from(cap));
        }
    }
}

fn get_config(buf: &mut Bytes) -> Result<GroupConfig, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let mode = match buf.get_u8() {
        0 => OrderMode::Symmetric,
        1 => OrderMode::Asymmetric,
        tag => {
            return Err(DecodeError::UnknownTag {
                tag,
                context: "order mode",
            })
        }
    };
    let delivery = match buf.get_u8() {
        0 => DeliveryMode::Total,
        1 => DeliveryMode::Atomic,
        tag => {
            return Err(DecodeError::UnknownTag {
                tag,
                context: "delivery mode",
            })
        }
    };
    let omega = Span::from_micros(get_varint(buf)?);
    let big_omega = Span::from_micros(get_varint(buf)?);
    if !buf.has_remaining() {
        return Err(DecodeError::Truncated);
    }
    let flow_window = match buf.get_u8() {
        0 => None,
        1 => Some(get_narrow(buf, "flow window")?),
        tag => {
            return Err(DecodeError::UnknownTag {
                tag,
                context: "flow window option",
            })
        }
    };
    if !buf.has_remaining() {
        return Err(DecodeError::Truncated);
    }
    let suspicion = match buf.get_u8() {
        0 => SuspicionMode::FixedOmega,
        1 => {
            if !buf.has_remaining() {
                return Err(DecodeError::Truncated);
            }
            let window = buf.get_u8();
            let factor = get_narrow(buf, "accrual factor")?;
            let cap = get_narrow(buf, "accrual cap")?;
            SuspicionMode::Accrual {
                window,
                factor,
                cap,
            }
        }
        tag => {
            return Err(DecodeError::UnknownTag {
                tag,
                context: "suspicion mode",
            })
        }
    };
    Ok(GroupConfig {
        mode,
        delivery,
        omega,
        big_omega,
        flow_window,
        suspicion,
    })
}

/// Encodes an envelope into a fresh, exactly sized buffer.
///
/// Thin wrapper over [`encode_into`]: the buffer is pre-allocated to
/// [`encoded_len`] bytes, so encoding never regrows it.
#[must_use]
pub fn encode(env: &Envelope) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(env));
    encode_into(env, &mut buf);
    buf.freeze()
}

/// Appends the encoding of `env` to `buf` (which is *not* cleared first —
/// hosts framing many envelopes into one buffer rely on that).
///
/// Callers that reuse a scratch buffer across frames should
/// `buf.clear()` between envelopes and [`BytesMut::reserve`] up front with
/// [`encoded_len`], after which encoding performs no allocation at all.
pub fn encode_into(env: &Envelope, buf: &mut BytesMut) {
    match env {
        Envelope::Group(m) => put_message(buf, m),
        Envelope::Control(ControlMessage::FormGroup {
            group,
            initiator,
            members,
            config,
        }) => {
            put_key(buf, *group, KIND_FORM_GROUP);
            put_varint(buf, u64::from(initiator.0));
            put_varint(buf, members.len() as u64);
            for m in members {
                put_varint(buf, u64::from(m.0));
            }
            put_config(buf, config);
        }
        Envelope::Control(ControlMessage::FormVote {
            group,
            voter,
            decision,
        }) => {
            put_key(buf, *group, KIND_FORM_VOTE);
            put_varint(buf, u64::from(voter.0));
            buf.put_u8(match decision {
                FormationDecision::Yes => 1,
                FormationDecision::No => 0,
            });
        }
    }
}

/// Decodes an envelope, consuming from `buf`.
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input; on error the buffer is left in an
/// unspecified partially consumed state.
pub fn decode(buf: &mut Bytes) -> Result<Envelope, DecodeError> {
    let (group, kind) = get_key(buf)?;
    match kind {
        KIND_FORM_GROUP => {
            let initiator = ProcessId(get_narrow(buf, "initiator")?);
            let n = get_varint(buf)? as usize;
            let mut members = BTreeSet::new();
            for _ in 0..n {
                members.insert(ProcessId(get_narrow(buf, "member")?));
            }
            let config = get_config(buf)?;
            Ok(Envelope::Control(ControlMessage::FormGroup {
                group,
                initiator,
                members,
                config,
            }))
        }
        KIND_FORM_VOTE => {
            let voter = ProcessId(get_narrow(buf, "voter")?);
            if !buf.has_remaining() {
                return Err(DecodeError::Truncated);
            }
            let decision = match buf.get_u8() {
                1 => FormationDecision::Yes,
                0 => FormationDecision::No,
                tag => {
                    return Err(DecodeError::UnknownTag {
                        tag,
                        context: "formation decision",
                    })
                }
            };
            Ok(Envelope::Control(ControlMessage::FormVote {
                group,
                voter,
                decision,
            }))
        }
        kind => Ok(Envelope::Group(Arc::new(get_message(buf, group, kind)?))),
    }
}

fn bytes_len(b: &Bytes) -> usize {
    varint_len(b.len() as u64) + b.len()
}

fn suspicion_len(s: &Suspicion) -> usize {
    varint_len(u64::from(s.suspect.0)) + varint_len(s.ln.0)
}

fn detection_len(d: &[Suspicion]) -> usize {
    varint_len(d.len() as u64) + d.iter().map(suspicion_len).sum::<usize>()
}

fn message_len(m: &Message) -> usize {
    let header = key_len(m.group)
        + varint_len(u64::from(m.sender.0))
        + varint_len(m.c.0)
        + varint_len(ldn_lag(m));
    header
        + match &m.body {
            MessageBody::App(p) => bytes_len(p),
            MessageBody::Null | MessageBody::StartGroup | MessageBody::Depart => 0,
            MessageBody::SeqRequest { origin_c, payload } => {
                varint_len(origin_c.0) + bytes_len(payload)
            }
            MessageBody::Relay {
                origin,
                origin_c,
                payload,
            } => varint_len(u64::from(origin.0)) + varint_len(origin_c.0) + bytes_len(payload),
            MessageBody::Suspect(s) => suspicion_len(s),
            MessageBody::Refute {
                suspicion,
                upto,
                recovered,
            } => {
                suspicion_len(suspicion)
                    + varint_len(upto.0)
                    + varint_len(recovered.len() as u64)
                    + recovered.iter().map(message_len).sum::<usize>()
            }
            MessageBody::Confirmed { detection } | MessageBody::ViewCut { detection } => {
                detection_len(detection)
            }
        }
}

fn config_len(cfg: &GroupConfig) -> usize {
    2 + varint_len(cfg.omega.as_micros())
        + varint_len(cfg.big_omega.as_micros())
        + match cfg.flow_window {
            None => 1,
            Some(w) => 1 + varint_len(u64::from(w)),
        }
        + match cfg.suspicion {
            SuspicionMode::FixedOmega => 1,
            SuspicionMode::Accrual {
                window: _,
                factor,
                cap,
            } => 2 + varint_len(u64::from(factor)) + varint_len(u64::from(cap)),
        }
}

/// Total encoded size of an envelope, in bytes.
///
/// Computed arithmetically — no buffer is materialised — so hosts can size
/// frames exactly before calling [`encode_into`], and the simulator's
/// `bytes_sent` accounting costs no allocation per message.
#[must_use]
pub fn encoded_len(env: &Envelope) -> usize {
    match env {
        Envelope::Group(m) => message_len(m),
        Envelope::Control(ControlMessage::FormGroup {
            group,
            initiator,
            members,
            config,
        }) => {
            key_len(*group)
                + varint_len(u64::from(initiator.0))
                + varint_len(members.len() as u64)
                + members
                    .iter()
                    .map(|m| varint_len(u64::from(m.0)))
                    .sum::<usize>()
                + config_len(config)
        }
        Envelope::Control(ControlMessage::FormVote { group, voter, .. }) => {
            key_len(*group) + varint_len(u64::from(voter.0)) + 1
        }
    }
}

/// Protocol-header overhead of a message in bytes: everything the codec
/// emits *except* the application payload itself.
///
/// This is the quantity compared against vector-clock headers in
/// experiment E1; for Newtop it is bounded by a constant regardless of group
/// size or how many groups the sender belongs to (§6).
#[must_use]
pub fn header_overhead(m: &Message) -> usize {
    let payload_len = match &m.body {
        MessageBody::App(p)
        | MessageBody::SeqRequest { payload: p, .. }
        | MessageBody::Relay { payload: p, .. } => p.len(),
        _ => 0,
    };
    message_len(m) - payload_len
}

/// Frames larger than this are rejected by [`FrameDecoder`] as corrupt
/// rather than buffered: no legitimate envelope in this workspace comes
/// within orders of magnitude of it, and honouring an adversarial length
/// prefix would let one peer pin arbitrary memory.
pub const MAX_FRAME_LEN: u64 = 64 * 1024 * 1024;

/// Appends `env` to `buf` as one length-prefixed wire frame: a LEB128
/// varint of the envelope's encoded length, then the [`encode_into`]
/// bytes. This is the unit the runtime's transport path ships between
/// shards (and what a byte-stream transport would write to a socket);
/// [`FrameDecoder`] performs the inverse, including reassembly of frames
/// that arrive split across reads.
///
/// A frame body may carry **one or more** envelopes back to back — this
/// helper emits the single-envelope case, [`frame_batch_into`] the
/// general one. The two produce byte-identical output for a one-element
/// batch.
pub fn frame_into(env: &Envelope, buf: &mut BytesMut) {
    let len = encoded_len(env);
    buf.reserve(varint_len(len as u64) + len);
    put_varint(buf, len as u64);
    encode_into(env, buf);
}

/// Appends `envs` to `buf` as **one** length-prefixed wire frame whose
/// body is the concatenated [`encode_into`] bytes of every envelope: N
/// envelopes to one destination cost one length prefix, one channel send
/// and one buffer — the core of the batched wire path. The receiving
/// [`FrameDecoder`] yields the envelopes back in order; a one-element
/// batch is byte-identical to [`frame_into`].
///
/// # Errors
///
/// [`DecodeError::EmptyFrame`] for an empty batch (the wire format has no
/// legitimate zero-envelope frame) and [`DecodeError::FrameTooLarge`] when
/// the combined body would exceed [`MAX_FRAME_LEN`] and be rejected by
/// every conforming decoder. On error `buf` is untouched.
pub fn frame_batch_into(envs: &[Envelope], buf: &mut BytesMut) -> Result<(), DecodeError> {
    if envs.is_empty() {
        return Err(DecodeError::EmptyFrame);
    }
    let body: usize = envs.iter().map(encoded_len).sum();
    if body as u64 > MAX_FRAME_LEN {
        return Err(DecodeError::FrameTooLarge { len: body as u64 });
    }
    buf.reserve(varint_len(body as u64) + body);
    put_varint(buf, body as u64);
    for env in envs {
        encode_into(env, buf);
    }
    Ok(())
}

/// Total on-wire size of `envs` as one batched frame: the shared length
/// varint plus every envelope's [`encoded_len`]. Arithmetic only, so
/// transports can account batched bytes exactly before (or without)
/// encoding; equals the bytes [`frame_batch_into`] appends, and
/// [`framed_len`] for a one-element batch.
#[must_use]
pub fn batched_len(envs: &[Envelope]) -> usize {
    let body: usize = envs.iter().map(encoded_len).sum();
    varint_len(body as u64) + body
}

/// Encodes `env` as one length-prefixed frame in a fresh, exactly sized
/// buffer. Thin wrapper over [`frame_into`].
#[must_use]
pub fn frame(env: &Envelope) -> Bytes {
    let mut buf = BytesMut::with_capacity(framed_len(env));
    frame_into(env, &mut buf);
    buf.freeze()
}

/// Total on-wire size of `env` as a length-prefixed frame: the length
/// varint plus [`encoded_len`] bytes. Arithmetic only — no buffer is
/// materialised — so transports can account bytes exactly before (or
/// without) encoding.
#[must_use]
pub fn framed_len(env: &Envelope) -> usize {
    let len = encoded_len(env);
    varint_len(len as u64) + len
}

/// Incremental decoder for a stream of length-prefixed frames.
///
/// Feed raw chunks with [`push`](FrameDecoder::push) in arrival order —
/// chunk boundaries need not align with frame boundaries — and drain
/// complete envelopes with [`next_frame`](FrameDecoder::next_frame). A
/// frame body holds one or more envelopes ([`frame_batch_into`]); the
/// decoder yields them individually, in order, before peeling the next
/// length prefix. A frame split across any number of reads reassembles
/// exactly; a frame that decodes overlong ([`DecodeError::Truncated`]),
/// announces no body ([`DecodeError::EmptyFrame`]) or carries a corrupt
/// length prefix ([`DecodeError::FrameTooLarge`]) is reported without
/// panicking.
///
/// # Examples
///
/// ```
/// use newtop_types::wire::{frame, FrameDecoder};
/// use newtop_types::{Envelope, GroupId, Message, MessageBody, Msn, ProcessId};
///
/// let env: Envelope = Message {
///     group: GroupId(1),
///     sender: ProcessId(2),
///     c: Msn(3),
///     ldn: Msn(2),
///     body: MessageBody::App(bytes::Bytes::from_static(b"hi")),
/// }
/// .into();
/// let wire = frame(&env);
/// let mut dec = FrameDecoder::new();
/// dec.push(&wire[..1]); // partial read
/// assert_eq!(dec.next_frame(), Ok(None));
/// dec.push(&wire[1..]);
/// assert_eq!(dec.next_frame(), Ok(Some(env)));
/// assert_eq!(dec.next_frame(), Ok(None));
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: BytesMut,
    /// Unconsumed remainder of the current frame's body: a batched frame
    /// drains envelope by envelope from here before the next length
    /// prefix is peeled off `buf`.
    body: Bytes,
}

impl FrameDecoder {
    /// An empty decoder.
    #[must_use]
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends a raw chunk of stream bytes.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.put_slice(chunk);
    }

    /// Bytes buffered but not yet consumed as a complete frame, including
    /// undrained envelopes of the frame currently being decoded.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() + self.body.len()
    }

    /// Pops the next complete envelope, or `Ok(None)` if the buffered
    /// bytes end mid-frame (push more and retry). Envelopes of a batched
    /// frame come out one call at a time, in encoding order.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on a malformed frame — including
    /// [`DecodeError::EmptyFrame`] for a zero-length body and whatever
    /// error the codec reports for junk between envelopes. After any
    /// error the stream has lost framing and the decoder should be
    /// discarded.
    pub fn next_frame(&mut self) -> Result<Option<Envelope>, DecodeError> {
        if self.body.has_remaining() {
            return decode(&mut self.body).map(Some);
        }
        let Some((len, prefix)) = peek_varint(&self.buf, 0)? else {
            return Ok(None); // mid-prefix: need more bytes
        };
        if len > MAX_FRAME_LEN {
            return Err(DecodeError::FrameTooLarge { len });
        }
        if len == 0 {
            return Err(DecodeError::EmptyFrame);
        }
        let len = len as usize;
        if self.buf.len() < prefix + len {
            return Ok(None); // mid-body: need more bytes
        }
        let _ = self.buf.split_to(prefix);
        self.body = self.buf.split_to(len).freeze();
        decode(&mut self.body).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(env: Envelope) {
        let mut b = encode(&env);
        let back = decode(&mut b).expect("decode");
        assert_eq!(env, back);
        assert!(!b.has_remaining(), "codec consumed exactly the frame");
    }

    fn app(c: u64, payload: &'static [u8]) -> Message {
        Message {
            group: GroupId(3),
            sender: ProcessId(2),
            c: Msn(c),
            ldn: Msn(c.saturating_sub(1)),
            body: MessageBody::App(Bytes::from_static(payload)),
        }
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut b = buf.freeze();
            assert_eq!(get_varint(&mut b).unwrap(), v);
            assert!(!b.has_remaining());
        }
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut b = Bytes::from_static(&[0x80]);
        assert_eq!(get_varint(&mut b), Err(DecodeError::Truncated));
    }

    #[test]
    fn varint_rejects_overflow() {
        let mut b =
            Bytes::from_static(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]);
        assert_eq!(get_varint(&mut b), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn all_bodies_roundtrip() {
        let s = Suspicion {
            suspect: ProcessId(9),
            ln: Msn(41),
        };
        let bodies = vec![
            MessageBody::App(Bytes::from_static(b"payload")),
            MessageBody::Null,
            MessageBody::SeqRequest {
                origin_c: Msn(5),
                payload: Bytes::from_static(b"q"),
            },
            MessageBody::Relay {
                origin: ProcessId(4),
                origin_c: Msn(5),
                payload: Bytes::from_static(b"r"),
            },
            MessageBody::Suspect(s),
            MessageBody::Refute {
                suspicion: s,
                upto: Msn(43),
                recovered: vec![app(42, b"lost")],
            },
            MessageBody::Confirmed { detection: vec![s] },
            MessageBody::StartGroup,
            MessageBody::Depart,
            MessageBody::ViewCut { detection: vec![s] },
        ];
        for body in bodies {
            roundtrip(Envelope::from(Message {
                group: GroupId(1),
                sender: ProcessId(300),
                c: Msn(1 << 20),
                ldn: Msn(1 << 19),
                body,
            }));
        }
    }

    #[test]
    fn control_messages_roundtrip() {
        roundtrip(Envelope::Control(ControlMessage::FormGroup {
            group: GroupId(7),
            initiator: ProcessId(1),
            members: [ProcessId(1), ProcessId(2), ProcessId(3)].into(),
            config: GroupConfig::default().with_flow_window(8),
        }));
        roundtrip(Envelope::Control(ControlMessage::FormVote {
            group: GroupId(7),
            voter: ProcessId(2),
            decision: FormationDecision::No,
        }));
    }

    #[test]
    fn header_overhead_is_small_and_payload_independent() {
        let small = header_overhead(&app(10, b""));
        let large = header_overhead(&app(10, b"0123456789012345678901234567890123456789"));
        // Payload length changes only the length varint, by at most a byte
        // or two; the protocol fields themselves are identical.
        assert!(small <= 16, "newtop header should be tiny, got {small}");
        assert!(large - small <= 2);
    }

    /// Bytes of `varints`, each LEB128-encoded. Every tag byte the codec
    /// writes is below 128, so it encodes as the same single byte.
    fn raw(varints: &[u64]) -> Bytes {
        let mut buf = BytesMut::new();
        for &v in varints {
            put_varint(&mut buf, v);
        }
        buf.freeze()
    }

    fn key(group: u64, kind: u8) -> u64 {
        group << KIND_BITS | u64::from(kind)
    }

    #[test]
    fn decode_rejects_unknown_envelope_tag() {
        // Kinds 12–15 name nothing, whatever the group; the key alone is
        // rejected before any further field is read.
        for group in [0, 1, 7, 8, u64::from(u32::MAX)] {
            for kind in 12..16 {
                assert_eq!(
                    decode(&mut raw(&[key(group, kind)])),
                    Err(DecodeError::UnknownTag {
                        tag: kind,
                        context: "envelope",
                    }),
                    "group {group} kind {kind}"
                );
            }
        }
        // A refute's recovered message carries a key too: an unknown kind
        // is refused there the same way, and a control kind names no
        // message body.
        let refute = |inner: u64| raw(&[key(1, KIND_REFUTE), 2, 9, 1, 4, 7, 8, 1, inner, 2, 3, 1]);
        assert_eq!(
            decode(&mut refute(key(1, 13))),
            Err(DecodeError::UnknownTag {
                tag: 13,
                context: "envelope",
            })
        );
        assert_eq!(
            decode(&mut refute(key(1, KIND_FORM_GROUP))),
            Err(DecodeError::UnknownTag {
                tag: KIND_FORM_GROUP,
                context: "message body",
            })
        );
    }

    /// 2³² + 1: read with `as u32` it would alias id 1.
    const WIDE: u64 = (1 << 32) + 1;

    fn out_of_range(field: &'static str) -> Result<Envelope, DecodeError> {
        Err(DecodeError::OutOfRange { value: WIDE, field })
    }

    #[test]
    fn group_above_u32_is_rejected_not_aliased() {
        for kind in [KIND_NULL, KIND_APP, KIND_FORM_VOTE] {
            let mut b = raw(&[key(WIDE, kind), 2, 3, 1, 0]);
            assert_eq!(decode(&mut b), out_of_range("group"), "kind {kind}");
        }
        // The widest key that still names a valid kind.
        let mut b = raw(&[u64::MAX - 4, 2, 3, 1]);
        assert_eq!(
            decode(&mut b),
            Err(DecodeError::OutOfRange {
                value: u64::MAX >> KIND_BITS,
                field: "group",
            })
        );
    }

    #[test]
    fn message_ids_above_u32_are_rejected() {
        let sender = raw(&[key(1, KIND_NULL), WIDE, 3, 1]);
        let origin = raw(&[key(1, KIND_RELAY), 2, 3, 1, WIDE, 5, 0]);
        let suspect = raw(&[key(1, KIND_SUSPECT), 2, 3, 1, WIDE, 4]);
        let detection = raw(&[key(1, KIND_CONFIRMED), 2, 3, 1, 2, 9, 4, WIDE, 4]);
        let recovered = raw(&[key(1, KIND_REFUTE), 2, 9, 1, 4, 7, 8, 1, 1, WIDE, 3, 1]);
        for (mut b, field) in [
            (sender, "sender"),
            (origin, "origin"),
            (suspect, "suspect"),
            (detection, "suspect"),
            (recovered, "sender"),
        ] {
            assert_eq!(decode(&mut b), out_of_range(field), "{field}");
        }
    }

    #[test]
    fn control_ids_above_u32_are_rejected() {
        let initiator = raw(&[key(1, KIND_FORM_GROUP), WIDE, 0]);
        let member = raw(&[key(1, KIND_FORM_GROUP), 1, 2, 1, WIDE]);
        let voter = raw(&[key(1, KIND_FORM_VOTE), WIDE, 1]);
        for (mut b, field) in [
            (initiator, "initiator"),
            (member, "member"),
            (voter, "voter"),
        ] {
            assert_eq!(decode(&mut b), out_of_range(field), "{field}");
        }
    }

    #[test]
    fn config_fields_are_range_checked() {
        // FormGroup in g1 from P1 with no members, then the config:
        // symmetric, total, ω, Ω, and the fields under test.
        let form = |tail: &[u64]| {
            let mut v = vec![key(1, KIND_FORM_GROUP), 1, 0, 0, 0, 5_000, 50_000];
            v.extend_from_slice(tail);
            raw(&v)
        };
        assert_eq!(decode(&mut form(&[1, WIDE])), out_of_range("flow window"));
        let wide16 = u64::from(u16::MAX) + 1;
        for (tail, field) in [
            ([0, 1, 8, wide16, 4], "accrual factor"),
            ([0, 1, 8, 4, wide16], "accrual cap"),
        ] {
            assert_eq!(
                decode(&mut form(&tail)),
                Err(DecodeError::OutOfRange {
                    value: wide16,
                    field,
                }),
                "{field}"
            );
        }
        // The same bytes with in-range values decode.
        assert!(decode(&mut form(&[1, 16, 1, 8, 4, 4])).is_ok());
    }

    #[test]
    fn decode_rejects_empty() {
        let mut b = Bytes::new();
        assert_eq!(decode(&mut b), Err(DecodeError::Truncated));
    }

    #[test]
    fn single_envelope_batch_matches_frame_into() {
        let env: Envelope = app(7, b"one").into();
        let mut single = BytesMut::new();
        frame_into(&env, &mut single);
        let mut batch = BytesMut::new();
        frame_batch_into(std::slice::from_ref(&env), &mut batch).unwrap();
        assert_eq!(&single[..], &batch[..]);
        assert_eq!(batch.len(), batched_len(std::slice::from_ref(&env)));
        assert_eq!(batch.len(), framed_len(&env));
    }

    #[test]
    fn batched_frame_roundtrips_in_order() {
        let envs: Vec<Envelope> = (0..5).map(|i| app(10 + i, b"payload").into()).collect();
        let mut buf = BytesMut::new();
        frame_batch_into(&envs, &mut buf).unwrap();
        assert_eq!(buf.len(), batched_len(&envs));
        let mut dec = FrameDecoder::new();
        dec.push(&buf);
        for env in &envs {
            assert_eq!(dec.next_frame(), Ok(Some(env.clone())));
        }
        assert_eq!(dec.next_frame(), Ok(None));
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn empty_batch_rejected_on_encode_and_decode() {
        let mut buf = BytesMut::new();
        assert_eq!(
            frame_batch_into(&[], &mut buf),
            Err(DecodeError::EmptyFrame)
        );
        assert!(buf.is_empty(), "failed encode must not touch the buffer");
        // A zero-length prefix on the wire is equally illegitimate.
        put_varint(&mut buf, 0);
        let mut dec = FrameDecoder::new();
        dec.push(&buf);
        assert_eq!(dec.next_frame(), Err(DecodeError::EmptyFrame));
    }

    #[test]
    fn oversized_batch_rejected_on_encode() {
        // One envelope whose payload alone exceeds MAX_FRAME_LEN: the
        // batch encoder must refuse before buffering anything.
        #[allow(clippy::cast_possible_truncation)]
        let huge = Message {
            group: GroupId(1),
            sender: ProcessId(2),
            c: Msn(3),
            ldn: Msn(2),
            body: MessageBody::App(Bytes::from(vec![0u8; MAX_FRAME_LEN as usize + 1])),
        };
        let envs = [Envelope::from(huge)];
        let mut buf = BytesMut::new();
        assert!(matches!(
            frame_batch_into(&envs, &mut buf),
            Err(DecodeError::FrameTooLarge { .. })
        ));
        assert!(buf.is_empty());
    }
}
