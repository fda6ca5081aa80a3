//! Peer-session wire format for the real-network TCP host.
//!
//! A peer connection carries the **same batched frames** as the
//! in-process wire path ([`crate::wire::frame_batch_into`] bytes,
//! decodable by [`crate::wire::FrameDecoder`]) — this module only adds
//! the session layer a socket needs and an in-process channel does not:
//!
//! * a fixed-size [`Hello`] handshake exchanged once per connection
//!   (protocol magic + version, the dialing peer's index, a session
//!   nonce distinguishing process restarts, and the cumulative resume
//!   point for retransmission after a reconnect);
//! * **addressed frame records** — `varint(dest) varint(seq)` followed
//!   by one complete length-prefixed frame — because a socket is
//!   per-peer while a frame is per-destination-*process*, and because
//!   recovery needs every frame sequenced per link;
//! * fixed 8-byte little-endian cumulative **acks** flowing the reverse
//!   direction, so a sender can prune its retransmission queue.
//!
//! Reliability contract: the sender numbers frames per link from 1 and
//! keeps everything unacknowledged; the receiver tracks the next
//! expected sequence per `(peer, nonce)`, drops duplicates
//! (`seq < expected`), and severs the connection on a gap
//! (`seq > expected`) so the dialer reconnects and resumes from the
//! receiver's `resume` point. Together with TCP's in-order bytes this
//! restores the reliable-FIFO-per-pair transport the protocol engine
//! assumes (§3 of the paper), even through a frame-dropping proxy.

use crate::wire::{narrow, peek_varint, put_varint, varint_len, MAX_FRAME_LEN};
use crate::{DecodeError, ProcessId};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Protocol magic opening every [`Hello`].
pub const PEER_MAGIC: [u8; 4] = *b"NTOP";

/// Peer-session protocol version carried in every [`Hello`]. It also
/// covers the frames' message encoding, so peers built with different
/// encodings refuse each other at the handshake (2: refutes carry
/// `upto`; 3: one key varint for group and kind, `ldn` sent as its lag
/// behind `c`).
pub const PEER_VERSION: u8 = 3;

/// Encoded size of a [`Hello`]: magic (4) + version (1) + peer (4)
/// + nonce (8) + resume (8).
pub const HELLO_LEN: usize = 25;

/// Encoded size of a cumulative ack record.
pub const ACK_LEN: usize = 8;

/// The fixed-size handshake opening each direction of a peer connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The sending peer's index in the cluster's peer list.
    pub peer: u32,
    /// Session nonce: fresh per process start, so a restarted peer is
    /// never mistaken for a resumed link (its sequence space restarts).
    pub nonce: u64,
    /// Cumulative resume point: the receiver has durably consumed every
    /// sequence `< resume` from this `(peer, nonce)` link; the sender
    /// retransmits from here. `0` on a first connection (and always `0`
    /// in the dialer's hello — only the acceptor has receive state).
    pub resume: u64,
}

/// Encodes `hello` into its fixed wire form.
#[must_use]
pub fn encode_hello(hello: &Hello) -> [u8; HELLO_LEN] {
    let mut raw = [0u8; HELLO_LEN];
    raw[..4].copy_from_slice(&PEER_MAGIC);
    raw[4] = PEER_VERSION;
    raw[5..9].copy_from_slice(&hello.peer.to_le_bytes());
    raw[9..17].copy_from_slice(&hello.nonce.to_le_bytes());
    raw[17..25].copy_from_slice(&hello.resume.to_le_bytes());
    raw
}

/// Decodes a fixed-size [`Hello`], validating magic and version.
///
/// # Errors
///
/// [`DecodeError::UnknownTag`] on a magic or version mismatch — the
/// byte that failed is reported so an accept loop can count and log
/// handshake rejects.
pub fn decode_hello(raw: &[u8; HELLO_LEN]) -> Result<Hello, DecodeError> {
    if raw[..4] != PEER_MAGIC {
        return Err(DecodeError::UnknownTag {
            tag: raw[0],
            context: "peer hello magic",
        });
    }
    if raw[4] != PEER_VERSION {
        return Err(DecodeError::UnknownTag {
            tag: raw[4],
            context: "peer hello version",
        });
    }
    let mut peer = [0u8; 4];
    peer.copy_from_slice(&raw[5..9]);
    let mut nonce = [0u8; 8];
    nonce.copy_from_slice(&raw[9..17]);
    let mut resume = [0u8; 8];
    resume.copy_from_slice(&raw[17..25]);
    Ok(Hello {
        peer: u32::from_le_bytes(peer),
        nonce: u64::from_le_bytes(nonce),
        resume: u64::from_le_bytes(resume),
    })
}

/// Encodes a cumulative ack: every sequence `< next_expected` is
/// acknowledged.
#[must_use]
pub fn encode_ack(next_expected: u64) -> [u8; ACK_LEN] {
    next_expected.to_le_bytes()
}

/// Decodes a cumulative ack record.
#[must_use]
pub fn decode_ack(raw: [u8; ACK_LEN]) -> u64 {
    u64::from_le_bytes(raw)
}

/// On-wire size of an addressed frame record wrapping a `frame_len`-byte
/// complete frame. Arithmetic only, for exact byte accounting.
#[must_use]
pub fn addressed_len(dest: ProcessId, seq: u64, frame_len: usize) -> usize {
    varint_len(u64::from(dest.0)) + varint_len(seq) + frame_len
}

/// Appends one addressed frame record: `varint(dest) varint(seq)` then
/// `frame` verbatim. `frame` must be a complete length-prefixed wire
/// frame ([`crate::wire::frame_into`] / [`crate::wire::frame_batch_into`]
/// output) — the record borrows its length prefix as the body delimiter.
pub fn addressed_frame_into(dest: ProcessId, seq: u64, frame: &[u8], buf: &mut BytesMut) {
    buf.reserve(addressed_len(dest, seq, frame.len()));
    put_varint(buf, u64::from(dest.0));
    put_varint(buf, seq);
    buf.put_slice(frame);
}

/// One addressed frame popped off a peer stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerFrame {
    /// Destination process on the receiving peer.
    pub dest: ProcessId,
    /// Link sequence number (per connection direction, from 1).
    pub seq: u64,
    /// The complete length-prefixed wire frame, ready for the standard
    /// frame path (prefix included).
    pub frame: Bytes,
}

/// Incremental decoder for a stream of addressed frame records.
///
/// Feed raw socket chunks with [`push`](PeerFrameDecoder::push) in
/// arrival order — chunk boundaries need not align with record
/// boundaries — and drain complete records with
/// [`next_record`](PeerFrameDecoder::next_record). The returned
/// [`PeerFrame::frame`] bytes are handed on to the standard
/// [`crate::wire::FrameDecoder`] path unchanged.
#[derive(Debug, Default)]
pub struct PeerFrameDecoder {
    buf: BytesMut,
}

impl PeerFrameDecoder {
    /// An empty decoder.
    #[must_use]
    pub fn new() -> PeerFrameDecoder {
        PeerFrameDecoder::default()
    }

    /// Appends a raw chunk of stream bytes.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.put_slice(chunk);
    }

    /// Bytes buffered but not yet consumed as a complete record.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete addressed frame record, or `Ok(None)` if
    /// the buffered bytes end mid-record (push more and retry).
    ///
    /// # Errors
    ///
    /// [`DecodeError::VarintOverflow`] on a malformed varint,
    /// [`DecodeError::OutOfRange`] for a destination above `u32::MAX`,
    /// [`DecodeError::FrameTooLarge`] when the embedded frame announces
    /// a body beyond [`MAX_FRAME_LEN`], and [`DecodeError::EmptyFrame`]
    /// for a zero-length body — all grounds to drop the connection.
    pub fn next_record(&mut self) -> Result<Option<PeerFrame>, DecodeError> {
        // Peek all three varints without consuming: a record split
        // across reads must leave the buffer intact for the next push.
        let Some((dest, dlen)) = peek_varint(&self.buf, 0)? else {
            return Ok(None);
        };
        let dest = ProcessId(narrow(dest, "peer frame dest")?);
        let Some((seq, slen)) = peek_varint(&self.buf, dlen)? else {
            return Ok(None);
        };
        let Some((body, blen)) = peek_varint(&self.buf, dlen + slen)? else {
            return Ok(None);
        };
        if body > MAX_FRAME_LEN {
            return Err(DecodeError::FrameTooLarge { len: body });
        }
        if body == 0 {
            return Err(DecodeError::EmptyFrame);
        }
        #[allow(clippy::cast_possible_truncation)]
        let frame_len = blen + body as usize;
        let total = dlen + slen + frame_len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let mut record = self.buf.split_to(total).freeze();
        record.advance(dlen + slen);
        Ok(Some(PeerFrame {
            dest,
            seq,
            frame: record,
        }))
    }
}

/// Reads the destination and sequence off a complete addressed record,
/// returning the embedded frame as well — the one-shot counterpart of
/// [`PeerFrameDecoder`] for tests and tools.
///
/// # Errors
///
/// Any [`DecodeError`] of the incremental path, plus
/// [`DecodeError::TrailingBytes`] if `record` holds more than one record
/// and [`DecodeError::Truncated`] if it ends mid-record.
pub fn decode_addressed(record: &[u8]) -> Result<PeerFrame, DecodeError> {
    let mut d = PeerFrameDecoder::new();
    d.push(record);
    let Some(frame) = d.next_record()? else {
        return Err(DecodeError::Truncated);
    };
    if d.pending() > 0 {
        return Err(DecodeError::TrailingBytes { extra: d.pending() });
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use crate::{Envelope, GroupId, Message, MessageBody, Msn};

    fn env(payload: &'static [u8]) -> Envelope {
        Message {
            group: GroupId(1),
            sender: ProcessId(2),
            c: Msn(3),
            ldn: Msn(0),
            body: MessageBody::App(Bytes::from_static(payload)),
        }
        .into()
    }

    #[test]
    fn hello_roundtrip() {
        let h = Hello {
            peer: 7,
            nonce: 0xdead_beef_cafe_f00d,
            resume: 42,
        };
        let raw = encode_hello(&h);
        assert_eq!(raw.len(), HELLO_LEN);
        assert_eq!(decode_hello(&raw).unwrap(), h);
    }

    #[test]
    fn hello_rejects_bad_magic_and_version() {
        let mut raw = encode_hello(&Hello {
            peer: 0,
            nonce: 1,
            resume: 0,
        });
        raw[0] = b'X';
        assert!(matches!(
            decode_hello(&raw),
            Err(DecodeError::UnknownTag { tag: b'X', .. })
        ));
        let mut raw = encode_hello(&Hello {
            peer: 0,
            nonce: 1,
            resume: 0,
        });
        raw[4] = 99;
        assert!(matches!(
            decode_hello(&raw),
            Err(DecodeError::UnknownTag { tag: 99, .. })
        ));
    }

    #[test]
    fn hello_from_a_version_2_peer_is_refused() {
        // Version 2 peers encode envelopes with separate envelope and body
        // tags and an absolute `ldn`; they must not reach the frame path.
        let mut raw = encode_hello(&Hello {
            peer: 1,
            nonce: 1,
            resume: 0,
        });
        raw[4] = 2;
        assert_eq!(
            decode_hello(&raw),
            Err(DecodeError::UnknownTag {
                tag: 2,
                context: "peer hello version",
            })
        );
    }

    #[test]
    fn ack_roundtrip() {
        assert_eq!(decode_ack(encode_ack(0)), 0);
        assert_eq!(decode_ack(encode_ack(u64::MAX)), u64::MAX);
    }

    #[test]
    fn addressed_record_roundtrip() {
        let frame = wire::frame(&env(b"hello over tcp"));
        let mut buf = BytesMut::new();
        addressed_frame_into(ProcessId(300), 129, &frame, &mut buf);
        assert_eq!(buf.len(), addressed_len(ProcessId(300), 129, frame.len()));
        let got = decode_addressed(&buf).unwrap();
        assert_eq!(got.dest, ProcessId(300));
        assert_eq!(got.seq, 129);
        assert_eq!(got.frame, frame);
    }

    #[test]
    fn decoder_handles_split_and_concatenated_records() {
        let frames = [
            wire::frame(&env(b"a")),
            wire::frame(&env(b"bb")),
            wire::frame(&env(b"ccc")),
        ];
        let mut stream = BytesMut::new();
        for (i, f) in frames.iter().enumerate() {
            addressed_frame_into(ProcessId(10 + i as u32), i as u64 + 1, f, &mut stream);
        }
        // Feed one byte at a time: every boundary is exercised.
        let mut d = PeerFrameDecoder::new();
        let mut got = Vec::new();
        for b in stream.iter() {
            d.push(std::slice::from_ref(b));
            while let Some(r) = d.next_record().unwrap() {
                got.push(r);
            }
        }
        assert_eq!(got.len(), 3);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.dest, ProcessId(10 + i as u32));
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.frame, frames[i]);
        }
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn decoder_rejects_oversized_and_empty_bodies() {
        let mut d = PeerFrameDecoder::new();
        let mut raw = BytesMut::new();
        put_varint(&mut raw, 1); // dest
        put_varint(&mut raw, 1); // seq
        put_varint(&mut raw, MAX_FRAME_LEN + 1); // body length
        d.push(&raw);
        assert!(matches!(
            d.next_record(),
            Err(DecodeError::FrameTooLarge { .. })
        ));
        let mut d = PeerFrameDecoder::new();
        let mut raw = BytesMut::new();
        put_varint(&mut raw, 1);
        put_varint(&mut raw, 1);
        put_varint(&mut raw, 0);
        d.push(&raw);
        assert!(matches!(d.next_record(), Err(DecodeError::EmptyFrame)));
    }

    #[test]
    fn decoder_rejects_dest_above_u32() {
        // 2^32 + 1 would alias P1 if truncated.
        let wide = (1u64 << 32) + 1;
        let mut raw = BytesMut::new();
        put_varint(&mut raw, wide);
        put_varint(&mut raw, 1);
        raw.put_slice(&wire::frame(&env(b"x")));
        let mut d = PeerFrameDecoder::new();
        d.push(&raw);
        assert_eq!(
            d.next_record(),
            Err(DecodeError::OutOfRange {
                value: wide,
                field: "peer frame dest",
            })
        );
    }

    #[test]
    fn decoder_waits_for_split_varint_prefix() {
        let frame = wire::frame(&env(b"payload"));
        let mut buf = BytesMut::new();
        // Large dest/seq so the varints are multi-byte.
        addressed_frame_into(ProcessId(1 << 20), 1 << 30, &frame, &mut buf);
        let mut d = PeerFrameDecoder::new();
        d.push(&buf[..2]); // mid-varint
        assert_eq!(d.next_record().unwrap(), None);
        assert_eq!(d.pending(), 2, "peek must not consume");
        d.push(&buf[2..]);
        let got = d.next_record().unwrap().unwrap();
        assert_eq!(got.dest, ProcessId(1 << 20));
        assert_eq!(got.seq, 1 << 30);
        assert_eq!(got.frame, frame);
    }
}
