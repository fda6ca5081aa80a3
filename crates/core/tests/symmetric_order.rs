//! Integration tests of the symmetric total-order protocol (§4.1):
//! conditions safe1/safe1'/safe2, causality, ties, multi-group MD4'.

use newtop_harness::testnet::TestNet;
use newtop_types::{GroupConfig, GroupId, OrderMode, Span};

const G1: GroupId = GroupId(1);
const G2: GroupId = GroupId(2);

fn sym() -> GroupConfig {
    GroupConfig::new(OrderMode::Symmetric)
}

/// Delivery sequence of (c, origin, payload) at a process for a group.
fn seq(net: &TestNet, p: u32, g: GroupId) -> Vec<(u64, u32, String)> {
    net.deliveries(p)
        .into_iter()
        .filter(|d| d.group == g)
        .map(|d| {
            (
                d.c.0,
                d.origin.0,
                String::from_utf8_lossy(&d.payload).into_owned(),
            )
        })
        .collect()
}

#[test]
fn everyone_delivers_everything_in_identical_order() {
    let mut net = TestNet::new([1, 2, 3, 4]);
    net.bootstrap_group(G1, &[1, 2, 3, 4], sym());
    for round in 0..3 {
        for p in [1, 2, 3, 4] {
            net.multicast(p, G1, format!("m{p}-{round}").as_bytes());
        }
        net.run_to_quiescence();
    }
    net.advance_past_omega(G1);
    net.advance_past_omega(G1);
    let reference = seq(&net, 1, G1);
    assert_eq!(reference.len(), 12, "all 12 multicasts delivered");
    for p in [2, 3, 4] {
        assert_eq!(seq(&net, p, G1), reference, "MD4 violated at P{p}");
    }
}

#[test]
fn concurrent_sends_with_equal_numbers_tie_break_by_sender() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], sym());
    // Both multicast before seeing each other: both messages carry c = 1.
    net.multicast(2, G1, b"from2");
    net.multicast(1, G1, b"from1");
    net.run_to_quiescence();
    net.advance_past_omega(G1);
    for p in [1, 2, 3] {
        let s = seq(&net, p, G1);
        assert_eq!(
            s,
            vec![(1, 1, "from1".to_string()), (1, 2, "from2".to_string())],
            "safe2 fixed tie-break violated at P{p}"
        );
    }
}

#[test]
fn causal_order_is_respected() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], sym());
    net.multicast(1, G1, b"cause");
    net.run_to_quiescence();
    net.advance_past_omega(G1);
    assert_eq!(seq(&net, 2, G1).len(), 1, "P2 delivered the cause");
    // P2's reply is causally after: its number must exceed the cause's.
    net.multicast(2, G1, b"effect");
    net.run_to_quiescence();
    net.advance_past_omega(G1);
    for p in [1, 2, 3] {
        let s = seq(&net, p, G1);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].2, "cause");
        assert_eq!(s[1].2, "effect");
        assert!(s[1].0 > s[0].0, "pr2: effect numbered above cause");
    }
}

#[test]
fn sender_delivers_its_own_messages() {
    let mut net = TestNet::new([1, 2]);
    net.bootstrap_group(G1, &[1, 2], sym());
    net.multicast(1, G1, b"x");
    net.run_to_quiescence();
    net.advance_past_omega(G1);
    assert_eq!(
        seq(&net, 1, G1).len(),
        1,
        "§3: Pi delivers its own messages"
    );
}

#[test]
fn no_delivery_until_heard_from_every_member() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], sym());
    net.multicast(1, G1, b"x");
    net.run_to_quiescence();
    // Nobody else has sent anything: D is stuck below the message number.
    assert!(seq(&net, 2, G1).is_empty(), "safe1 must hold back delivery");
    assert_eq!(net.proc(2).buffered(G1), 1);
    net.advance_past_omega(G1); // time-silence nulls raise D
    assert_eq!(seq(&net, 2, G1).len(), 1);
    assert_eq!(net.proc(2).buffered(G1), 0);
}

#[test]
fn single_member_group_delivers_immediately() {
    let mut net = TestNet::new([1]);
    net.bootstrap_group(G1, &[1], sym());
    net.multicast(1, G1, b"solo");
    net.run_to_quiescence();
    assert_eq!(seq(&net, 1, G1).len(), 1);
}

/// MD4' — a process in two groups delivers the union of both groups'
/// messages in one global number order.
#[test]
fn multi_group_member_merges_orders() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2], sym());
    net.bootstrap_group(G2, &[2, 3], sym());
    net.multicast(1, G1, b"a");
    net.run_to_quiescence();
    net.advance_past_omega(G1);
    net.multicast(3, G2, b"b");
    net.run_to_quiescence();
    net.advance_past_omega(G2);
    net.advance_past_omega(G1);
    let at2 = net.deliveries(2);
    assert_eq!(at2.len(), 2);
    let numbers: Vec<u64> = at2.iter().map(|d| d.c.0).collect();
    let mut sorted = numbers.clone();
    sorted.sort_unstable();
    assert_eq!(numbers, sorted, "multi-group deliveries in number order");
}

/// MD4' pairwise agreement — two processes sharing two groups deliver the
/// common messages in the same relative order.
#[test]
fn two_shared_groups_agree_on_merged_order() {
    let mut net = TestNet::new([1, 2]);
    net.bootstrap_group(G1, &[1, 2], sym());
    net.bootstrap_group(G2, &[1, 2], sym());
    for i in 0..4 {
        let g = if i % 2 == 0 { G1 } else { G2 };
        let p = if i < 2 { 1 } else { 2 };
        net.multicast(p, g, format!("m{i}").as_bytes());
        net.run_to_quiescence();
    }
    net.advance_past_omega(G1);
    net.advance_past_omega(G2);
    let order = |p: u32| -> Vec<(u64, u32, u32)> {
        net.deliveries(p)
            .iter()
            .map(|d| (d.c.0, d.group.0, d.origin.0))
            .collect()
    };
    assert_eq!(order(1).len(), 4);
    assert_eq!(order(1), order(2), "MD4' violated across shared groups");
}

/// A quiet group a process belongs to must not block other groups forever —
/// its time-silence nulls keep the global D advancing.
#[test]
fn quiet_second_group_does_not_starve_first() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2], sym());
    net.bootstrap_group(G2, &[2, 3], sym()); // P3 never speaks
    net.multicast(1, G1, b"x");
    net.run_to_quiescence();
    // Delivery at P2 needs D(G2) to pass the message number too.
    net.advance_past_omega(G1);
    net.advance_past_omega(G2);
    assert_eq!(seq(&net, 2, G1).len(), 1);
}

#[test]
fn payloads_survive_round_trip_byte_exact() {
    let mut net = TestNet::new([1, 2]);
    net.bootstrap_group(G1, &[1, 2], sym());
    let payload: Vec<u8> = (0..=255u8).collect();
    net.multicast(1, G1, &payload);
    net.run_to_quiescence();
    net.advance_past_omega(G1);
    let d = net.deliveries(2);
    assert_eq!(d[0].payload.as_ref(), payload.as_slice());
}

#[test]
fn send_errors_for_unknown_group_and_after_departure() {
    let mut net = TestNet::new([1, 2]);
    net.bootstrap_group(G1, &[1, 2], sym());
    assert!(net.try_multicast(1, GroupId(99), b"x").is_err());
    net.depart(1, G1);
    assert!(net.try_multicast(1, G1, b"y").is_err());
}

#[test]
fn time_silence_interval_is_respected() {
    let mut net = TestNet::new([1, 2]);
    let cfg = sym()
        .with_omega(Span::from_millis(5))
        .with_big_omega(Span::from_millis(500));
    net.bootstrap_group(G1, &[1, 2], cfg);
    // Within ω nothing is sent; past ω both processes emit nulls.
    net.advance(Span::from_millis(2));
    assert_eq!(net.proc(1).stats().nulls_sent, 0);
    net.advance(Span::from_millis(4));
    assert!(net.proc(1).stats().nulls_sent >= 1);
    assert!(net.proc(2).stats().nulls_sent >= 1);
}
