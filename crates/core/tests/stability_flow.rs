//! Integration tests of message stability (§5.1), the flow-control window
//! (§7 / thesis [11]) and the atomic-only delivery mode (§2).

use newtop_harness::testnet::TestNet;
use newtop_types::{DeliveryMode, GroupConfig, GroupId, OrderMode, Span};

const G1: GroupId = GroupId(1);

fn sym() -> GroupConfig {
    GroupConfig::new(OrderMode::Symmetric)
}

#[test]
fn stable_messages_are_garbage_collected() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], sym());
    for i in 0..5 {
        net.multicast(1, G1, format!("m{i}").as_bytes());
    }
    net.run_to_quiescence();
    assert!(
        net.proc(2).retained_app(G1) >= 5,
        "unstable messages retained"
    );
    // Several time-silence rounds propagate ldn piggybacks until min(SV)
    // passes the messages.
    for _ in 0..4 {
        net.advance_past_omega(G1);
    }
    assert_eq!(
        net.proc(2).retained_app(G1),
        0,
        "stability must allow discarding every retained application message"
    );
    assert_eq!(net.proc(1).retained_app(G1), 0);
}

#[test]
fn retention_grows_while_a_member_is_cut_off() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], sym());
    net.advance_past_omega(G1);
    // P3 receives nothing (its inbound links are cut) so its ldn cannot
    // advance — messages stay unstable at P1 and P2.
    net.block_link(1, 3);
    net.block_link(2, 3);
    for i in 0..6 {
        net.multicast(1, G1, format!("m{i}").as_bytes());
    }
    net.run_to_quiescence();
    net.advance_past_omega(G1);
    assert!(
        net.proc(2).retained_app(G1) >= 6,
        "messages must stay retained while unstable"
    );
    // Reconnect; stability resumes and the retention drains.
    net.unblock_link(1, 3);
    net.unblock_link(2, 3);
    for _ in 0..5 {
        net.advance_past_omega(G1);
    }
    assert_eq!(net.proc(2).retained_app(G1), 0);
}

#[test]
fn flow_window_defers_sends_beyond_unstable_budget() {
    let mut net = TestNet::new([1, 2]);
    let cfg = sym().with_flow_window(2);
    net.bootstrap_group(G1, &[1, 2], cfg);
    // Burst five sends: at most 2 may be in flight unstable.
    for i in 0..5 {
        net.multicast(1, G1, format!("m{i}").as_bytes());
    }
    assert!(
        net.proc(1).deferred_len() >= 3,
        "window of 2 must defer the rest, got {}",
        net.proc(1).deferred_len()
    );
    assert!(net.proc(1).stats().deferred_total >= 3);
    // As stability advances the queue drains and everything is delivered.
    for _ in 0..8 {
        net.advance_past_omega(G1);
    }
    assert_eq!(net.proc(1).deferred_len(), 0);
    assert_eq!(
        net.delivered_payloads(2, G1),
        vec!["m0", "m1", "m2", "m3", "m4"],
        "deferred sends flow in submission order"
    );
}

#[test]
fn flow_window_never_blocks_nulls() {
    let mut net = TestNet::new([1, 2]);
    let cfg = sym().with_flow_window(1);
    net.bootstrap_group(G1, &[1, 2], cfg);
    for i in 0..4 {
        net.multicast(1, G1, format!("m{i}").as_bytes());
    }
    // Even with the window saturated, time-silence nulls keep flowing —
    // they are the liveness mechanism and exempt from flow control.
    let nulls_before = net.proc(1).stats().nulls_sent;
    net.advance_past_omega(G1);
    assert!(net.proc(1).stats().nulls_sent > nulls_before);
}

#[test]
fn atomic_mode_delivers_on_receipt_without_ordering_waits() {
    let mut net = TestNet::new([1, 2, 3]);
    let cfg = sym().with_delivery(DeliveryMode::Atomic);
    net.bootstrap_group(G1, &[1, 2, 3], cfg);
    net.multicast(1, G1, b"x");
    net.run_to_quiescence();
    // No advance_past_omega needed: atomic mode bypasses the logical-clock
    // ordering stage ("strictly speaking, the logical clock system can be
    // bypassed for providing just atomic delivery", §3).
    for p in [1, 2, 3] {
        assert_eq!(net.delivered_payloads(p, G1), vec!["x"], "at P{p}");
    }
}

#[test]
fn atomic_group_does_not_gate_total_order_groups() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2], sym());
    // P2 also belongs to an atomic group with a mute member P3.
    net.bootstrap_group(
        GroupId(2),
        &[2, 3],
        sym().with_delivery(DeliveryMode::Atomic),
    );
    net.multicast(1, G1, b"ordered");
    net.run_to_quiescence();
    net.advance_past_omega(G1);
    assert_eq!(
        net.delivered_payloads(2, G1),
        vec!["ordered"],
        "an atomic group must not constrain D_i"
    );
}

#[test]
fn atomic_mode_membership_still_excludes_crashed() {
    let mut net = TestNet::new([1, 2, 3]);
    let cfg = sym()
        .with_delivery(DeliveryMode::Atomic)
        .with_omega(Span::from_millis(10))
        .with_big_omega(Span::from_millis(100));
    net.bootstrap_group(G1, &[1, 2, 3], cfg);
    net.crash(3);
    net.advance_past_big_omega(G1);
    let v1 = net.proc(1).view(G1).expect("member").clone();
    let v2 = net.proc(2).view(G1).expect("member").clone();
    assert_eq!(v1, v2);
    assert_eq!(v1.members().len(), 2);
}

#[test]
fn ldn_piggyback_advances_stability_during_silence() {
    let mut net = TestNet::new([1, 2]);
    net.bootstrap_group(G1, &[1, 2], sym());
    net.multicast(1, G1, b"x");
    net.run_to_quiescence();
    let before = net.proc(1).retained_app(G1);
    assert!(before > 0);
    // Nothing but nulls flows from here on; their ldn fields alone must
    // drive stability to completion.
    for _ in 0..5 {
        net.advance_past_omega(G1);
    }
    assert_eq!(net.proc(1).retained_app(G1), 0);
}
