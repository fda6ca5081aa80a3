//! Wire-codec robustness: every `MessageBody` and `ControlMessage` variant
//! round-trips through the codec, `encoded_len` predicts the frame size
//! exactly, and decoding any strict prefix of a valid frame returns
//! [`DecodeError::Truncated`] — it never panics and never loops.
//!
//! The prefix property holds because the codec writes no padding and the
//! decoder consumes exactly the bytes it needs: cutting the tail always
//! starves some later read. (Tags and varints in the prefix are unchanged,
//! so `UnknownTag`/`VarintOverflow` cannot fire on a prefix.)

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
