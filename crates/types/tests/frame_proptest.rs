//! Property tests of the length-prefixed frame layer the runtime's
//! transport ships: every envelope round-trips through
//! `frame`/`FrameDecoder`, split and partial reads reassemble exactly,
//! back-to-back frames in one chunk all come out in order, and `framed_len`
//! matches the bytes actually produced.

use bytes::Bytes;
use newtop_types::wire::{self, FrameDecoder};
use newtop_types::{
    ControlMessage, DeliveryMode, Envelope, FormationDecision, GroupConfig, GroupId, Message,
    MessageBody, Msn, OrderMode, ProcessId, Span, Suspicion, SuspicionMode,
};
use proptest::prelude::*;

fn arb_suspicion() -> impl Strategy<Value = Suspicion> {
    (any::<u32>(), 0..u64::MAX / 2).prop_map(|(p, ln)| Suspicion {
        suspect: ProcessId(p),
        ln: Msn(ln),
    })
}

fn arb_payload() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..200).prop_map(Bytes::from)
}

fn arb_body() -> impl Strategy<Value = MessageBody> {
    prop_oneof![
        arb_payload().prop_map(MessageBody::App),
        Just(MessageBody::Null),
        (0..u64::MAX / 2, arb_payload()).prop_map(|(c, p)| MessageBody::SeqRequest {
            origin_c: Msn(c),
            payload: p,
        }),
        (any::<u32>(), 0..u64::MAX / 2, arb_payload()).prop_map(|(o, c, p)| {
            MessageBody::Relay {
                origin: ProcessId(o),
                origin_c: Msn(c),
                payload: p,
            }
        }),
        arb_suspicion().prop_map(MessageBody::Suspect),
        proptest::collection::vec(arb_suspicion(), 0..5)
            .prop_map(|detection| MessageBody::Confirmed { detection }),
        Just(MessageBody::StartGroup),
        Just(MessageBody::Depart),
        proptest::collection::vec(arb_suspicion(), 0..5)
            .prop_map(|detection| MessageBody::ViewCut { detection }),
    ]
}

fn arb_config() -> impl Strategy<Value = GroupConfig> {
    (
        any::<bool>(),
        any::<bool>(),
        1..10_000_000u64,
        1..100_000_000u64,
        proptest::option::of(1..1_000u32),
        prop_oneof![
            2 => Just(SuspicionMode::FixedOmega),
            1 => (2..32u8, 2..64u16, 1..32u16).prop_map(|(window, factor, cap)| {
                SuspicionMode::Accrual { window, factor, cap }
            }),
        ],
    )
        .prop_map(
            |(asym, atomic, omega, big, window, suspicion)| GroupConfig {
                mode: if asym {
                    OrderMode::Asymmetric
                } else {
                    OrderMode::Symmetric
                },
                delivery: if atomic {
                    DeliveryMode::Atomic
                } else {
                    DeliveryMode::Total
                },
                omega: Span::from_micros(omega),
                big_omega: Span::from_micros(big),
                flow_window: window,
                suspicion,
            },
        )
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    prop_oneof![
        6 => (any::<u32>(), any::<u32>(), 0..u64::MAX / 2, 0..u64::MAX / 2, arb_body())
            .prop_map(|(g, s, c, ldn, body)| Envelope::from(Message {
                group: GroupId(g),
                sender: ProcessId(s),
                c: Msn(c),
                ldn: Msn(ldn),
                body,
            })),
        1 => (any::<u32>(), any::<u32>(), proptest::collection::btree_set(any::<u32>(), 0..8), arb_config())
            .prop_map(|(g, i, members, config)| Envelope::Control(ControlMessage::FormGroup {
                group: GroupId(g),
                initiator: ProcessId(i),
                members: members.into_iter().map(ProcessId).collect(),
                config,
            })),
        1 => (any::<u32>(), any::<u32>(), any::<bool>()).prop_map(|(g, v, yes)| {
            Envelope::Control(ControlMessage::FormVote {
                group: GroupId(g),
                voter: ProcessId(v),
                decision: if yes { FormationDecision::Yes } else { FormationDecision::No },
            })
        }),
    ]
}

proptest! {
    #[test]
    fn frame_roundtrip_is_identity(env in arb_envelope()) {
        let wire_bytes = wire::frame(&env);
        prop_assert_eq!(wire_bytes.len(), wire::framed_len(&env));
        let mut dec = FrameDecoder::new();
        dec.push(&wire_bytes);
        prop_assert_eq!(dec.next_frame(), Ok(Some(env)));
        prop_assert_eq!(dec.next_frame(), Ok(None));
        prop_assert_eq!(dec.pending(), 0);
    }

    /// A frame delivered in two chunks reassembles exactly, wherever the
    /// cut lands (inside the length prefix or inside the body).
    #[test]
    fn split_read_reassembles(env in arb_envelope(), cut_raw in 0usize..4096) {
        let wire_bytes = wire::frame(&env);
        let cut = cut_raw % (wire_bytes.len() + 1);
        let mut dec = FrameDecoder::new();
        dec.push(&wire_bytes[..cut]);
        if cut < wire_bytes.len() {
            // Mid-frame: the decoder must hold its fire.
            prop_assert_eq!(dec.next_frame(), Ok(None));
        }
        dec.push(&wire_bytes[cut..]);
        prop_assert_eq!(dec.next_frame(), Ok(Some(env)));
        prop_assert_eq!(dec.next_frame(), Ok(None));
    }

    /// Byte-at-a-time delivery — the worst fragmentation a stream
    /// transport can produce — still yields exactly the one envelope.
    #[test]
    fn byte_at_a_time_reassembles(env in arb_envelope()) {
        let wire_bytes = wire::frame(&env);
        let mut dec = FrameDecoder::new();
        for (i, b) in wire_bytes.iter().enumerate() {
            dec.push(std::slice::from_ref(b));
            if i + 1 < wire_bytes.len() {
                prop_assert_eq!(dec.next_frame(), Ok(None));
            }
        }
        prop_assert_eq!(dec.next_frame(), Ok(Some(env)));
    }

    /// Several frames concatenated into one chunk (as a batching transport
    /// would write them) decode back in order.
    #[test]
    fn coalesced_frames_decode_in_order(
        envs in proptest::collection::vec(arb_envelope(), 1..6),
    ) {
        let mut chunk = bytes::BytesMut::new();
        for env in &envs {
            wire::frame_into(env, &mut chunk);
        }
        let mut dec = FrameDecoder::new();
        dec.push(&chunk);
        for env in &envs {
            prop_assert_eq!(dec.next_frame(), Ok(Some(env.clone())));
        }
        prop_assert_eq!(dec.next_frame(), Ok(None));
    }

    /// Arbitrary noise never panics the decoder; it either waits for more
    /// bytes or reports a clean error.
    #[test]
    fn decoder_never_panics_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        for _ in 0..8 {
            match dec.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// A batched frame yields its envelopes back in order, its byte size
    /// matches `batched_len` exactly, and a one-element batch is
    /// byte-identical to the single-envelope framing.
    #[test]
    fn batched_frame_roundtrip_is_identity(
        envs in proptest::collection::vec(arb_envelope(), 1..8),
    ) {
        let mut buf = bytes::BytesMut::new();
        wire::frame_batch_into(&envs, &mut buf).unwrap();
        prop_assert_eq!(buf.len(), wire::batched_len(&envs));
        if envs.len() == 1 {
            let mut single = bytes::BytesMut::new();
            wire::frame_into(&envs[0], &mut single);
            prop_assert_eq!(&single[..], &buf[..]);
        }
        let mut dec = FrameDecoder::new();
        dec.push(&buf);
        for env in &envs {
            prop_assert_eq!(dec.next_frame(), Ok(Some(env.clone())));
        }
        prop_assert_eq!(dec.next_frame(), Ok(None));
        prop_assert_eq!(dec.pending(), 0);
    }

    /// A stream of several batched frames cut at an arbitrary point —
    /// including inside a length prefix or across a batch boundary —
    /// reassembles into exactly the original envelope sequence.
    #[test]
    fn split_read_reassembles_across_batch_boundaries(
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_envelope(), 1..4), 1..4),
        cut_raw in 0usize..65536,
    ) {
        let mut stream = bytes::BytesMut::new();
        let mut expect = Vec::new();
        for batch in &batches {
            wire::frame_batch_into(batch, &mut stream).unwrap();
            expect.extend(batch.iter().cloned());
        }
        let cut = cut_raw % (stream.len() + 1);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        dec.push(&stream[..cut]);
        while let Some(env) = dec.next_frame().unwrap() {
            got.push(env);
        }
        dec.push(&stream[cut..]);
        while let Some(env) = dec.next_frame().unwrap() {
            got.push(env);
        }
        prop_assert_eq!(got, expect);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// Byte-at-a-time delivery of a batched frame still yields every
    /// envelope, each becoming available no earlier than its final byte.
    #[test]
    fn byte_at_a_time_reassembles_batched(
        envs in proptest::collection::vec(arb_envelope(), 2..5),
    ) {
        let mut buf = bytes::BytesMut::new();
        wire::frame_batch_into(&envs, &mut buf).unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in buf.iter() {
            dec.push(std::slice::from_ref(b));
            while let Some(env) = dec.next_frame().unwrap() {
                got.push(env);
            }
        }
        prop_assert_eq!(got, envs);
    }

    /// The empty batch is rejected symmetrically: the encoder refuses to
    /// emit it and the decoder refuses a zero-length prefix.
    #[test]
    fn empty_batch_rejected(junk in proptest::collection::vec(any::<u8>(), 0..16)) {
        let mut buf = bytes::BytesMut::new();
        prop_assert_eq!(
            wire::frame_batch_into(&[], &mut buf),
            Err(newtop_types::DecodeError::EmptyFrame)
        );
        prop_assert_eq!(buf.len(), 0);
        wire::put_varint(&mut buf, 0);
        bytes::BufMut::put_slice(&mut buf, &junk);
        let mut dec = FrameDecoder::new();
        dec.push(&buf);
        prop_assert_eq!(
            dec.next_frame(),
            Err(newtop_types::DecodeError::EmptyFrame)
        );
    }
}

#[test]
fn junk_between_envelopes_inside_frame_reported() {
    // A frame whose announced length overshoots its envelope encoding by
    // two junk bytes: since a frame body is a sequence of envelopes, the
    // junk is parsed as the start of a second envelope and must surface
    // as a clean decode error, not be silently skipped. (The pre-batching
    // decoder reported this as `TrailingBytes`.) The first junk byte is a
    // complete key, g1 with kind 15, which names no envelope.
    let env: Envelope = Message {
        group: GroupId(1),
        sender: ProcessId(2),
        c: Msn(3),
        ldn: Msn(2),
        body: MessageBody::Null,
    }
    .into();
    let body = wire::encode(&env);
    let mut buf = bytes::BytesMut::new();
    wire::put_varint(&mut buf, body.len() as u64 + 2);
    bytes::BufMut::put_slice(&mut buf, &body);
    bytes::BufMut::put_slice(&mut buf, &[0x1f, 0xbb]);
    let mut dec = FrameDecoder::new();
    dec.push(&buf);
    assert_eq!(dec.next_frame(), Ok(Some(env)));
    assert_eq!(
        dec.next_frame(),
        Err(newtop_types::DecodeError::UnknownTag {
            tag: 15,
            context: "envelope",
        })
    );
}

#[test]
fn oversized_length_prefix_rejected() {
    let mut buf = bytes::BytesMut::new();
    wire::put_varint(&mut buf, wire::MAX_FRAME_LEN + 1);
    let mut dec = FrameDecoder::new();
    dec.push(&buf);
    assert!(matches!(
        dec.next_frame(),
        Err(newtop_types::DecodeError::FrameTooLarge { .. })
    ));
}

#[test]
fn oversized_batch_rejected_on_encode() {
    // `FrameTooLarge` symmetry on the encode side: a batch whose combined
    // body exceeds the decoder limit is refused before any byte is
    // buffered, so no conforming sender can emit a frame its peer must
    // reject.
    let env: Envelope = Message {
        group: GroupId(1),
        sender: ProcessId(2),
        c: Msn(3),
        ldn: Msn(2),
        body: MessageBody::App(Bytes::from(vec![
            0u8;
            usize::try_from(wire::MAX_FRAME_LEN)
                .unwrap()
                + 1
        ])),
    }
    .into();
    let batch = [env];
    let mut buf = bytes::BytesMut::new();
    assert!(matches!(
        wire::frame_batch_into(&batch, &mut buf),
        Err(newtop_types::DecodeError::FrameTooLarge { .. })
    ));
    assert!(buf.is_empty());
}
