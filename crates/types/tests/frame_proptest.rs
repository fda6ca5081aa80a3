//! Property tests of the frame path the hosts ship: `wire::frame`
//! encodes one envelope, `wire::Batch` joins frames for one destination,
//! `wire::unframe_each` decodes a frame, and on a TCP link
//! `peer::PeerRecordDecoder` cuts the byte stream back into addressed
//! records. Every envelope round-trips, sizes match `framed_len` and
//! `batched_len`, records reassemble however the stream is cut, and
//! neither decoder panics on noise.

use bytes::{BufMut, Bytes, BytesMut};
use newtop_types::peer::{addressed_frame_into, PeerRecordDecoder};
use newtop_types::wire;
use newtop_types::{
    ControlMessage, DecodeError, DeliveryMode, Envelope, FormationDecision, GroupConfig, GroupId,
    Message, MessageBody, Msn, OrderMode, ProcessId, Span, Suspicion, SuspicionMode,
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

/// The one batched frame of `envs`, as a destination's egress queue
/// joins it.
fn batch_of(envs: &[Envelope]) -> Bytes {
    let mut batch = wire::Batch::default();
    for env in envs {
        batch.push(wire::frame(env));
    }
    batch.take().expect("at least one envelope")
}

/// `frames` as a peer link writes them: addressed records for P7,
/// sequenced from 1.
fn records(frames: &[Bytes]) -> BytesMut {
    let mut stream = BytesMut::new();
    for (seq, frame) in (1u64..).zip(frames) {
        addressed_frame_into(ProcessId(7), seq, frame, &mut stream);
    }
    stream
}

/// Decodes every complete record buffered in `dec` into `out`.
fn drain(dec: &mut PeerRecordDecoder, out: &mut Vec<Envelope>) {
    while let Some(rec) = dec.next_record().expect("well-formed records") {
        assert_eq!(rec.dest, ProcessId(7));
        wire::unframe_each(rec.frame, |e| out.push(e)).expect("well-formed frame");
    }
}

proptest! {
    #[test]
    fn frame_roundtrip_is_identity(env in arb_envelope()) {
        let framed = wire::frame(&env);
        prop_assert_eq!(framed.len(), wire::framed_len(&env));
        let mut got = Vec::new();
        prop_assert_eq!(wire::unframe_each(framed, |e| got.push(e)), Ok(1));
        prop_assert_eq!(got, vec![env]);
    }

    /// A record delivered in two chunks reassembles exactly, wherever the
    /// cut lands (inside a varint prefix or inside the frame).
    #[test]
    fn split_read_reassembles(env in arb_envelope(), cut_raw in 0usize..4096) {
        let stream = records(&[wire::frame(&env)]);
        let cut = cut_raw % (stream.len() + 1);
        let mut dec = PeerRecordDecoder::new();
        dec.push(&stream[..cut]);
        if cut < stream.len() {
            // Mid-record: the decoder must hold its fire.
            prop_assert_eq!(dec.next_record(), Ok(None));
        }
        dec.push(&stream[cut..]);
        let mut got = Vec::new();
        drain(&mut dec, &mut got);
        prop_assert_eq!(got, vec![env]);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// Byte-at-a-time delivery — the worst fragmentation a stream
    /// transport can produce — yields the record on its last byte only.
    #[test]
    fn byte_at_a_time_reassembles(env in arb_envelope()) {
        let stream = records(&[wire::frame(&env)]);
        let mut dec = PeerRecordDecoder::new();
        for (i, b) in stream.iter().enumerate() {
            dec.push(std::slice::from_ref(b));
            if i + 1 < stream.len() {
                prop_assert_eq!(dec.next_record(), Ok(None));
            }
        }
        let mut got = Vec::new();
        drain(&mut dec, &mut got);
        prop_assert_eq!(got, vec![env]);
    }

    /// Several records coalesced into one chunk (as a link writer bursts
    /// them) come out in order, with their sequence numbers.
    #[test]
    fn coalesced_frames_decode_in_order(
        envs in proptest::collection::vec(arb_envelope(), 1..6),
    ) {
        let frames: Vec<Bytes> = envs.iter().map(wire::frame).collect();
        let mut dec = PeerRecordDecoder::new();
        dec.push(&records(&frames));
        for (seq, frame) in (1u64..).zip(&frames) {
            let rec = dec.next_record().expect("well-formed").expect("complete");
            prop_assert_eq!(rec.seq, seq);
            prop_assert_eq!(&rec.frame, frame);
        }
        prop_assert_eq!(dec.next_record(), Ok(None));
    }

    /// Arbitrary noise never panics either decoder; each either waits for
    /// more bytes or reports a clean error.
    #[test]
    fn decoder_never_panics_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = wire::unframe_each(Bytes::from(bytes.clone()), drop);
        let mut dec = PeerRecordDecoder::new();
        dec.push(&bytes);
        for _ in 0..8 {
            match dec.next_record() {
                Ok(Some(rec)) => {
                    let _ = wire::unframe_each(rec.frame, drop);
                }
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// A batched frame yields its envelopes back in order, its byte size
    /// matches `batched_len` exactly, and a one-element batch is the
    /// single-envelope frame itself.
    #[test]
    fn batched_frame_roundtrip_is_identity(
        envs in proptest::collection::vec(arb_envelope(), 1..8),
    ) {
        let joined = batch_of(&envs);
        prop_assert_eq!(joined.len(), wire::batched_len(&envs));
        if envs.len() == 1 {
            prop_assert_eq!(&joined, &wire::frame(&envs[0]));
        }
        let mut got = Vec::new();
        prop_assert_eq!(wire::unframe_each(joined, |e| got.push(e)), Ok(envs.len() as u32));
        prop_assert_eq!(got, envs);
    }

    /// A stream of several batched records cut at an arbitrary point —
    /// including inside a prefix or across a batch boundary — reassembles
    /// into exactly the original envelope sequence.
    #[test]
    fn split_read_reassembles_across_batch_boundaries(
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_envelope(), 1..4), 1..4),
        cut_raw in 0usize..65536,
    ) {
        let frames: Vec<Bytes> = batches.iter().map(|b| batch_of(b)).collect();
        let expect: Vec<Envelope> = batches.concat();
        let stream = records(&frames);
        let cut = cut_raw % (stream.len() + 1);
        let mut dec = PeerRecordDecoder::new();
        let mut got = Vec::new();
        dec.push(&stream[..cut]);
        drain(&mut dec, &mut got);
        dec.push(&stream[cut..]);
        drain(&mut dec, &mut got);
        prop_assert_eq!(got, expect);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// Byte-at-a-time delivery of a batched record still yields every
    /// envelope, none before the record's final byte.
    #[test]
    fn byte_at_a_time_reassembles_batched(
        envs in proptest::collection::vec(arb_envelope(), 2..5),
    ) {
        let stream = records(&[batch_of(&envs)]);
        let mut dec = PeerRecordDecoder::new();
        let mut got = Vec::new();
        for (i, b) in stream.iter().enumerate() {
            dec.push(std::slice::from_ref(b));
            drain(&mut dec, &mut got);
            prop_assert_eq!(got.is_empty(), i + 1 < stream.len());
        }
        prop_assert_eq!(got, envs);
    }

    /// The empty batch is rejected symmetrically: the encoder emits no
    /// frame for it, and both decoders refuse a zero-length prefix.
    #[test]
    fn empty_batch_rejected(junk in proptest::collection::vec(any::<u8>(), 0..16)) {
        prop_assert_eq!(wire::Batch::default().take(), None);
        let mut frame = BytesMut::new();
        frame.put_u8(0);
        frame.put_slice(&junk);
        prop_assert_eq!(
            wire::unframe_each(frame.clone().freeze(), drop),
            Err(DecodeError::EmptyFrame)
        );
        let mut dec = PeerRecordDecoder::new();
        dec.push(&[7, 1]);
        dec.push(&frame);
        prop_assert_eq!(dec.next_record(), Err(DecodeError::EmptyFrame));
    }
}

#[test]
fn junk_between_envelopes_inside_frame_reported() {
    // A frame whose announced length overshoots its envelope encoding by
    // two junk bytes: since a frame body is a sequence of envelopes, the
    // junk is parsed as the start of a second envelope and must surface
    // as a clean decode error, not be silently skipped. The first junk
    // byte is a complete key, g1 with kind 15, which names no envelope.
    let env: Envelope = Message {
        group: GroupId(1),
        sender: ProcessId(2),
        c: Msn(3),
        ldn: Msn(2),
        body: MessageBody::Null,
    }
    .into();
    let body = wire::encode(&env);
    let mut buf = BytesMut::new();
    wire::put_varint(&mut buf, body.len() as u64 + 2);
    buf.put_slice(&body);
    buf.put_slice(&[0x1f, 0xbb]);
    let mut got = Vec::new();
    assert_eq!(
        wire::unframe_each(buf.freeze(), |e| got.push(e)),
        Err(DecodeError::UnknownTag {
            tag: 15,
            context: "envelope",
        })
    );
    assert_eq!(got, vec![env]);
}

#[test]
fn oversized_length_prefix_rejected() {
    let mut buf = BytesMut::new();
    wire::put_varint(&mut buf, 1); // dest
    wire::put_varint(&mut buf, 1); // seq
    wire::put_varint(&mut buf, wire::MAX_FRAME_LEN + 1);
    let mut dec = PeerRecordDecoder::new();
    dec.push(&buf);
    assert!(matches!(
        dec.next_record(),
        Err(DecodeError::FrameTooLarge { .. })
    ));
}

#[test]
fn oversized_batch_rejected_on_encode() {
    // A frame at the decoder limit fits only an empty batch, so no
    // conforming sender joins a frame its peer must reject.
    let big: Envelope = Message {
        group: GroupId(1),
        sender: ProcessId(2),
        c: Msn(3),
        ldn: Msn(2),
        body: MessageBody::App(Bytes::from(vec![
            0u8;
            usize::try_from(wire::MAX_FRAME_LEN)
                .unwrap()
                - 8
        ])),
    }
    .into();
    assert_eq!(wire::encoded_len(&big) as u64, wire::MAX_FRAME_LEN);
    let big = wire::frame(&big);
    let mut batch = wire::Batch::default();
    assert!(batch.fits(&big));
    batch.push(batch_of(&[Message {
        group: GroupId(1),
        sender: ProcessId(2),
        c: Msn(2),
        ldn: Msn(1),
        body: MessageBody::Null,
    }
    .into()]));
    assert!(!batch.fits(&big));
}
