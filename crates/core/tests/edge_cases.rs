//! Edge-case and interaction tests: mode/feature combinations the main
//! suites do not cover — departures with outstanding unicasts, recovery of
//! departure announcements, flow control in asymmetric groups, bootstrap
//! validation, duplicate and stale traffic, payloads too large for one
//! wire frame.

use bytes::Bytes;
use newtop_core::testkit::{pid, TestNet};
use newtop_core::{Action, GroupError, Process};
use newtop_types::{
    wire, DeliveryMode, GroupConfig, GroupId, Instant, OrderMode, ProcessConfig, ProcessId,
    SendError, Span,
};
use std::collections::BTreeSet;

const G1: GroupId = GroupId(1);
const G2: GroupId = GroupId(2);

fn sym() -> GroupConfig {
    GroupConfig::new(OrderMode::Symmetric)
}

fn asym() -> GroupConfig {
    GroupConfig::new(OrderMode::Asymmetric)
}

#[test]
fn depart_waits_for_outstanding_unicasts() {
    // P3's departure from the symmetric group must trail its outstanding
    // asymmetric unicast, so the relay's number stays below the departure
    // cut and every member delivers it.
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], asym()); // sequencer P1
    net.bootstrap_group(G2, &[2, 3], sym());
    net.multicast(3, G1, b"last-asym");
    assert_eq!(net.proc(3).outstanding(G1), 1);
    net.depart(3, G2);
    // The Depart item is parked behind the outstanding unicast.
    assert!(net.proc(3).is_member(G2), "departure deferred");
    net.run_to_quiescence(); // relay returns; departure executes
    assert!(!net.proc(3).is_member(G2));
    net.advance_past_omega(G1);
    assert_eq!(net.delivered_payloads(1, G1), vec!["last-asym"]);
    net.advance_past_omega(G2);
    net.advance_past_omega(G2);
    let v2 = net.proc(2).view(G2).expect("member").clone();
    assert_eq!(v2.members().len(), 1, "P2 alone in g2 after the departure");
}

#[test]
fn departure_announcement_is_recoverable() {
    // P1 misses P3's departure (one-way outage); the refute piggyback
    // recovers the Depart message and P1 joins the agreement.
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], sym());
    net.advance_past_omega(G1);
    net.block_link(3, 1);
    net.depart(3, G1);
    net.run_to_quiescence();
    // P2 processed the departure; P1 suspects P3 with a stale ln and P2
    // refutes with the Depart message piggybacked.
    net.advance_past_big_omega(G1);
    net.advance_past_big_omega(G1);
    let v1 = net.view_history(1, G1);
    let v2 = net.view_history(2, G1);
    assert_eq!(v1, v2, "VC1 despite the missed announcement");
    assert!(!v1.last().expect("views installed").contains(pid(3)));
}

#[test]
fn flow_window_applies_to_asymmetric_requests() {
    let mut net = TestNet::new([1, 2]);
    net.bootstrap_group(G1, &[1, 2], asym().with_flow_window(2));
    // P2 (non-sequencer) bursts: outstanding unicasts count against the
    // window.
    for i in 0..5 {
        net.multicast(2, G1, format!("m{i}").as_bytes());
    }
    assert!(
        net.proc(2).deferred_len() >= 3,
        "window must defer the burst"
    );
    net.run_to_quiescence();
    for _ in 0..6 {
        net.advance_past_omega(G1);
    }
    assert_eq!(
        net.delivered_payloads(1, G1),
        vec!["m0", "m1", "m2", "m3", "m4"]
    );
}

#[test]
fn atomic_mode_in_asymmetric_group() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], asym().with_delivery(DeliveryMode::Atomic));
    net.multicast(3, G1, b"x");
    net.run_to_quiescence();
    for p in [1, 2, 3] {
        assert_eq!(net.delivered_payloads(p, G1), vec!["x"], "at P{p}");
    }
}

#[test]
fn bootstrap_validation_errors() {
    let mut p = Process::new(pid(1), ProcessConfig::new());
    let members: BTreeSet<ProcessId> = [pid(1), pid(2)].into();
    // Invalid config.
    let bad = GroupConfig::new(OrderMode::Symmetric)
        .with_omega(Span::from_millis(50))
        .with_big_omega(Span::from_millis(10));
    assert!(matches!(
        p.bootstrap_group(Instant::ZERO, G1, &members, bad),
        Err(GroupError::Config(_))
    ));
    // Not in member list.
    let others: BTreeSet<ProcessId> = [pid(2), pid(3)].into();
    assert!(matches!(
        p.bootstrap_group(Instant::ZERO, G1, &others, sym()),
        Err(GroupError::NotInMemberList { .. })
    ));
    // Empty membership.
    assert!(matches!(
        p.bootstrap_group(Instant::ZERO, G1, &BTreeSet::new(), sym()),
        Err(GroupError::EmptyMembership)
    ));
    // Duplicate group id.
    assert!(p
        .bootstrap_group(Instant::ZERO, G1, &members, sym())
        .is_ok());
    assert!(matches!(
        p.bootstrap_group(Instant::ZERO, G1, &members, sym()),
        Err(GroupError::AlreadyExists { .. })
    ));
}

#[test]
fn message_for_stale_group_is_ignored() {
    // After departing, traffic for the old group must not resurrect state.
    let mut net = TestNet::new([1, 2]);
    net.bootstrap_group(G1, &[1, 2], sym());
    net.depart(2, G1);
    net.run_to_quiescence();
    assert!(!net.proc(2).is_member(G1));
    // P1 is now alone; its sends go nowhere, but P2 may still receive
    // residual traffic — which must be dropped silently.
    net.multicast(1, G1, b"late");
    net.run_to_quiescence();
    assert!(!net.proc(2).is_member(G1));
    assert!(net.delivered_payloads(2, G1).is_empty());
}

#[test]
fn two_groups_same_members_different_modes() {
    // The same trio runs one symmetric and one asymmetric group; orders
    // merge consistently (the §4.3 generic version with full overlap).
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], sym());
    net.bootstrap_group(G2, &[1, 2, 3], asym());
    for i in 0..4 {
        net.multicast(1, G1, format!("s{i}").as_bytes());
        net.run_to_quiescence();
        net.multicast(1, G2, format!("a{i}").as_bytes());
        net.run_to_quiescence();
    }
    net.advance_past_omega(G1);
    net.advance_past_omega(G2);
    let order = |p: u32| -> Vec<(u64, u32)> {
        net.deliveries(p)
            .iter()
            .map(|d| (d.c.0, d.group.0))
            .collect()
    };
    assert_eq!(order(1).len(), 8);
    assert_eq!(order(1), order(2));
    assert_eq!(order(2), order(3));
}

#[test]
fn crash_of_two_members_in_asymmetric_group() {
    // Sequencer and an ordinary member crash near-simultaneously; the
    // survivor stabilises alone and keeps working.
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], asym());
    net.multicast(2, G1, b"pre");
    net.run_to_quiescence();
    net.crash(1);
    net.crash(2);
    net.advance_past_big_omega(G1);
    net.advance_past_big_omega(G1);
    let v = net.proc(3).view(G1).expect("member").clone();
    assert_eq!(v.members().len(), 1);
    assert_eq!(v.sequencer(), Some(pid(3)));
    net.multicast(3, G1, b"alone");
    net.run_to_quiescence();
    let got = net.delivered_payloads(3, G1);
    assert!(got.contains(&"alone".to_string()));
}

#[test]
fn suspected_then_refuted_messages_are_not_duplicated() {
    // Messages held pending during a suspicion must deliver exactly once
    // after the refutation (no duplicates from pending + recovery overlap).
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], sym());
    net.advance_past_omega(G1);
    net.block_link(3, 1);
    net.multicast(3, G1, b"while-blocked");
    net.run_to_quiescence();
    net.advance_past_big_omega(G1); // P1 suspects P3; P2 refutes + recovers
    net.unblock_link(3, 1);
    net.advance_past_omega(G1);
    net.advance_past_omega(G1);
    net.multicast(3, G1, b"after");
    net.run_to_quiescence();
    net.advance_past_omega(G1);
    net.advance_past_omega(G1);
    assert_eq!(
        net.delivered_payloads(1, G1),
        vec!["while-blocked", "after"],
        "exactly-once delivery through the pending/recovery path"
    );
}

#[test]
fn overlapping_partitioned_groups_converge_independently() {
    // P2 sits in two groups; a partition splits one group's members but not
    // the other's. Only the split group changes views.
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2], sym());
    net.bootstrap_group(G2, &[2, 3], sym());
    net.advance_past_omega(G1);
    net.advance_past_omega(G2);
    net.block_link(1, 2);
    net.block_link(2, 1);
    net.advance_past_big_omega(G1);
    net.advance_past_big_omega(G1);
    assert_eq!(
        net.proc(2).view(G1).expect("member").members().len(),
        1,
        "g1 shrank to P2 alone"
    );
    assert_eq!(
        net.proc(2).view(G2).expect("member").members().len(),
        2,
        "g2 untouched"
    );
    // And g2 still carries ordered traffic.
    net.multicast(3, G2, b"still-works");
    net.run_to_quiescence();
    net.advance_past_omega(G2);
    assert_eq!(net.delivered_payloads(2, G2), vec!["still-works"]);
}

#[test]
fn payload_too_large_for_one_frame_is_refused() {
    // A payload past `wire::MAX_PAYLOAD_LEN` would make an envelope no
    // peer link accepts; the engine refuses it at the call, sending
    // nothing, so every host and the simulator agree.
    let mut net = TestNet::new([1, 2]);
    net.bootstrap_group(G1, &[1, 2], sym());
    let now = net.now();
    let max = usize::try_from(wire::MAX_PAYLOAD_LEN).unwrap();
    assert_eq!(
        net.proc_mut(1)
            .multicast(now, G1, Bytes::from(vec![0u8; max + 1]))
            .map(|actions| actions.len()),
        Err(SendError::PayloadTooLarge { group: G1 })
    );
    let actions = net
        .proc_mut(1)
        .multicast(now, G1, Bytes::from(vec![0u8; max]))
        .expect("the largest payload is accepted");
    assert!(actions.iter().any(|a| matches!(a, Action::Send { .. })));
}
