//! Wire-codec robustness: every `MessageBody` and `ControlMessage` variant
//! round-trips through the codec, `encoded_len` predicts the frame size
//! exactly, and decoding any strict prefix of a valid frame returns
//! [`DecodeError::Truncated`] — it never panics and never loops.
//!
//! The prefix property holds because the codec writes no padding and the
//! decoder consumes exactly the bytes it needs: cutting the tail always
//! starves some later read. (Tags and varints in the prefix are unchanged,
//! so `UnknownTag`/`VarintOverflow` cannot fire on a prefix.)
//!
//! The last two tests pin the header layout itself: the exact bytes of a
//! null and an app envelope, and where the group-and-kind key grows.

use bytes::Bytes;
use newtop_types::wire;
use newtop_types::{
    ControlMessage, DecodeError, Envelope, FormationDecision, GroupConfig, GroupId, Message,
    MessageBody, Msn, ProcessId, Suspicion,
};

fn msg(body: MessageBody) -> Message {
    Message {
        group: GroupId(9),
        sender: ProcessId(300),
        c: Msn(1 << 21),
        ldn: Msn((1 << 21) - 3),
        body,
    }
}

/// One envelope per codec variant, with nonempty payloads/collections so
/// every length-prefixed field actually has a tail to cut.
fn all_variants() -> Vec<Envelope> {
    let s = Suspicion {
        suspect: ProcessId(7),
        ln: Msn(130),
    };
    let s2 = Suspicion {
        suspect: ProcessId(1000),
        ln: Msn(2),
    };
    vec![
        Envelope::from(msg(MessageBody::App(Bytes::from_static(b"payload-bytes")))),
        Envelope::from(msg(MessageBody::Null)),
        Envelope::from(msg(MessageBody::SeqRequest {
            origin_c: Msn(299),
            payload: Bytes::from_static(b"request"),
        })),
        Envelope::from(msg(MessageBody::Relay {
            origin: ProcessId(4),
            origin_c: Msn(299),
            payload: Bytes::from_static(b"relayed"),
        })),
        Envelope::from(msg(MessageBody::Suspect(s))),
        Envelope::from(msg(MessageBody::Refute {
            suspicion: s,
            upto: Msn(12),
            recovered: vec![
                msg(MessageBody::Null),
                msg(MessageBody::App(Bytes::from_static(b"recovered"))),
            ],
        })),
        Envelope::from(msg(MessageBody::Confirmed {
            detection: vec![s, s2],
        })),
        Envelope::from(msg(MessageBody::StartGroup)),
        Envelope::from(msg(MessageBody::Depart)),
        Envelope::from(msg(MessageBody::ViewCut {
            detection: vec![s2],
        })),
        Envelope::Control(ControlMessage::FormGroup {
            group: GroupId(3),
            initiator: ProcessId(1),
            members: [ProcessId(1), ProcessId(2), ProcessId(300)].into(),
            config: GroupConfig::default().with_flow_window(16),
        }),
        Envelope::Control(ControlMessage::FormVote {
            group: GroupId(3),
            voter: ProcessId(2),
            decision: FormationDecision::Yes,
        }),
    ]
    .into_iter()
    .chain(layout_edges(s))
    .collect()
}

/// Rows at the edges of the header layout. Groups 7/8 and 1023/1024 are
/// where the `group·16 + kind` key grows from one to two and from two to
/// three bytes; `u32::MAX` is the widest key. `ldn > c` and `c =
/// u64::MAX` exercise the wrapping lag.
fn layout_edges(s: Suspicion) -> Vec<Envelope> {
    let in_group = |g: u32, c: u64, ldn: u64, body: MessageBody| Message {
        group: GroupId(g),
        sender: ProcessId(u32::MAX),
        c: Msn(c),
        ldn: Msn(ldn),
        body,
    };
    let mut rows: Vec<Envelope> = [7, 8, 1023, 1024, u32::MAX]
        .into_iter()
        .flat_map(|g| {
            [
                Envelope::from(in_group(g, 40, 38, MessageBody::Null)),
                Envelope::from(in_group(
                    g,
                    41,
                    38,
                    MessageBody::ViewCut { detection: vec![s] },
                )),
                Envelope::Control(ControlMessage::FormVote {
                    group: GroupId(g),
                    voter: ProcessId(2),
                    decision: FormationDecision::No,
                }),
            ]
        })
        .collect();
    let app = |c, ldn| in_group(1, c, ldn, MessageBody::App(Bytes::from_static(b"edge")));
    rows.extend([
        Envelope::from(app(5, 900)),
        Envelope::from(app(0, u64::MAX)),
        Envelope::from(app(u64::MAX, 0)),
        Envelope::from(app(u64::MAX, u64::MAX)),
        // A refute whose recovered messages span key widths and lags,
        // one of them a refute itself.
        Envelope::from(in_group(
            1024,
            70,
            60,
            MessageBody::Refute {
                suspicion: s,
                upto: Msn(69),
                recovered: vec![
                    app(u64::MAX, 3),
                    in_group(8, 66, 70, MessageBody::Null),
                    in_group(
                        u32::MAX,
                        67,
                        0,
                        MessageBody::Refute {
                            suspicion: s,
                            upto: Msn(66),
                            recovered: vec![app(65, 64)],
                        },
                    ),
                ],
            },
        )),
    ]);
    rows
}

#[test]
fn every_variant_roundtrips_and_len_is_exact() {
    for env in all_variants() {
        let encoded = wire::encode(&env);
        assert_eq!(
            encoded.len(),
            wire::encoded_len(&env),
            "encoded_len must predict the frame size exactly for {env:?}"
        );
        let mut buf = encoded.clone();
        let decoded = wire::decode(&mut buf).expect("valid frame decodes");
        assert_eq!(decoded, env);
        assert!(buf.is_empty(), "decoder must consume exactly the frame");
    }
}

#[test]
fn every_strict_prefix_reports_truncated() {
    for env in all_variants() {
        let encoded = wire::encode(&env);
        for cut in 0..encoded.len() {
            let mut prefix = encoded.slice(0..cut);
            assert_eq!(
                wire::decode(&mut prefix),
                Err(DecodeError::Truncated),
                "prefix of {cut}/{} bytes of {env:?}",
                encoded.len()
            );
        }
    }
}

#[test]
fn encode_into_appends_without_clearing() {
    let envs = all_variants();
    let mut buf = bytes::BytesMut::new();
    let total: usize = envs.iter().map(wire::encoded_len).sum();
    buf.reserve(total);
    for env in &envs {
        wire::encode_into(env, &mut buf);
    }
    assert_eq!(buf.len(), total);
    // The concatenated frames decode back in order.
    let mut stream = buf.freeze();
    for env in &envs {
        assert_eq!(wire::decode(&mut stream).expect("frame"), *env);
    }
    assert!(stream.is_empty());
}

/// The exact bytes of one null and one application envelope. A change to
/// the header layout shows up here, in review, before it reaches a peer.
#[test]
fn golden_bytes_of_a_null_and_an_app_envelope() {
    let header = |c: u64, body| Message {
        group: GroupId(2),
        sender: ProcessId(5),
        c: Msn(c),
        ldn: Msn(1230),
        body,
    };
    // key 2·16 + 1, sender 5, c = 1234 (two bytes), lag 4.
    let null = Envelope::from(header(1234, MessageBody::Null));
    assert_eq!(&wire::encode(&null)[..], &[0x21, 0x05, 0xd2, 0x09, 0x04]);
    // key 2·16 + 0, sender 5, c = 1235, lag 5, payload length 3, payload.
    let app = Envelope::from(header(1235, MessageBody::App(Bytes::from_static(b"abc"))));
    assert_eq!(
        &wire::encode(&app)[..],
        &[0x20, 0x05, 0xd3, 0x09, 0x05, 0x03, b'a', b'b', b'c']
    );
}

/// The key grows by a byte at groups 8 and 1024, and only there.
#[test]
fn key_width_steps_at_groups_8_and_1024() {
    let null_len = |g| {
        wire::encoded_len(&Envelope::from(Message {
            group: GroupId(g),
            sender: ProcessId(1),
            c: Msn(2),
            ldn: Msn(1),
            body: MessageBody::Null,
        }))
    };
    assert_eq!(null_len(0), 4);
    assert_eq!(null_len(7), 4);
    assert_eq!(null_len(8), 5);
    assert_eq!(null_len(1023), 5);
    assert_eq!(null_len(1024), 6);
    assert_eq!(null_len(u32::MAX), 9);
}
