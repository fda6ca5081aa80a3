//! Property tests of the wire codec: encode/decode is the identity for
//! every representable envelope, headers stay bounded, and decoding never
//! panics on arbitrary bytes.

use bytes::Bytes;
use newtop_types::wire;
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

fn arb_leaf_body() -> impl Strategy<Value = MessageBody> {
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

fn arb_message(body: impl Strategy<Value = MessageBody>) -> impl Strategy<Value = Message> {
    (
        any::<u32>(),
        any::<u32>(),
        0..u64::MAX / 2,
        0..u64::MAX / 2,
        body,
    )
        .prop_map(|(g, s, c, ldn, body)| Message {
            group: GroupId(g),
            sender: ProcessId(s),
            c: Msn(c),
            ldn: Msn(ldn),
            body,
        })
}

fn arb_body() -> impl Strategy<Value = MessageBody> {
    prop_oneof![
        4 => arb_leaf_body(),
        1 => (
            arb_suspicion(),
            (0..u64::MAX / 2).prop_map(Msn),
            proptest::collection::vec(arb_message(arb_leaf_body()), 0..4),
        )
            .prop_map(|(suspicion, upto, recovered)| MessageBody::Refute {
                suspicion,
                upto,
                recovered,
            }),
    ]
}

fn arb_suspicion_mode() -> impl Strategy<Value = SuspicionMode> {
    prop_oneof![
        2 => Just(SuspicionMode::FixedOmega),
        1 => (2..32u8, 2..64u16, 1..32u16).prop_map(|(window, factor, cap)| {
            SuspicionMode::Accrual { window, factor, cap }
        }),
    ]
}

fn arb_config() -> impl Strategy<Value = GroupConfig> {
    (
        any::<bool>(),
        any::<bool>(),
        1..10_000_000u64,
        1..100_000_000u64,
        proptest::option::of(1..1_000u32),
        arb_suspicion_mode(),
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
        6 => arb_message(arb_body()).prop_map(Envelope::from),
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
    fn roundtrip_is_identity(env in arb_envelope()) {
        let mut encoded = wire::encode(&env);
        let decoded = wire::decode(&mut encoded).expect("valid frame");
        prop_assert_eq!(env, decoded);
        prop_assert!(encoded.is_empty(), "codec must consume the whole frame");
    }

    #[test]
    fn decode_never_panics_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut buf = Bytes::from(bytes);
        let _ = wire::decode(&mut buf); // must return, never panic
    }

    #[test]
    fn app_header_overhead_is_bounded(
        g in any::<u32>(),
        sender in any::<u32>(),
        c in 0..u64::MAX / 2,
        lag in any::<u64>(),
        len in 0usize..4096,
    ) {
        let m = Message {
            group: GroupId(g),
            sender: ProcessId(sender),
            c: Msn(c),
            // The engine never sends `ldn` above `c`.
            ldn: Msn(c - lag % (c + 1)),
            body: MessageBody::App(Bytes::from(vec![0u8; len])),
        };
        // Key (a 32-bit group and 4 kind bits: <= 6B) + sender (<= 5B)
        // + c and its lag (each below 2^63: <= 9B) + length (<= 2B).
        prop_assert!(wire::header_overhead(&m) <= 6 + 5 + 2 * 9 + 2);
    }

    #[test]
    fn truncated_frames_error_cleanly(env in arb_envelope(), cut in 0usize..32) {
        let encoded = wire::encode(&env);
        if cut < encoded.len() && cut > 0 {
            let mut buf = encoded.slice(0..encoded.len() - cut);
            // Either a clean decode error, or (rarely) a shorter valid value
            // whose suffix we cut — never a panic.
            let _ = wire::decode(&mut buf);
        }
    }
}
