//! The covering rule: a numbered multicast in group h stands in for the ω
//! null of every group g whose view h's view contains.
//!
//! A process numbers every send from one logical clock and its links are
//! FIFO across groups, so a message numbered `c` from `Pk` in h tells a
//! receiver that nothing of `Pk`'s numbered below `c` is still on its way
//! in any group — g's receive vector may advance exactly as a null would
//! advance it. These tests pin both ends of the rule, the messages that
//! must *not* count (refute piggyback copies), the refute's `upto`
//! watermark, and the sender-side stream position of a covered
//! asymmetric group's sequencer.

use bytes::Bytes;
use newtop_core::{Action, Process};
use newtop_harness::testnet::TestNet;
use newtop_types::{
    Envelope, GroupConfig, GroupId, Instant, Message, MessageBody, Msn, OrderMode, ProcessConfig,
    ProcessId, Span, Suspicion,
};
use std::collections::BTreeSet;

/// The covering group.
const G1: GroupId = GroupId(1);
/// The covered group.
const G2: GroupId = GroupId(2);

fn p(i: u32) -> ProcessId {
    ProcessId(i)
}

fn cfg(mode: OrderMode) -> GroupConfig {
    GroupConfig::new(mode)
        .with_omega(Span::from_millis(5))
        .with_big_omega(Span::from_millis(200))
}

fn ms(t: u64) -> Instant {
    Instant::from_micros(t * 1_000)
}

fn members(ids: &[u32]) -> BTreeSet<ProcessId> {
    ids.iter().copied().map(p).collect()
}

/// `id` as a member of G1 = {P1, P2, P3} and, unless it is P3, of the
/// covered G2 = {P1, P2}.
fn member(id: u32) -> Process {
    let mut proc = Process::new(p(id), ProcessConfig::new());
    proc.bootstrap_group(
        Instant::ZERO,
        G1,
        &members(&[1, 2, 3]),
        cfg(OrderMode::Symmetric),
    )
    .expect("bootstrap G1");
    if id != 3 {
        proc.bootstrap_group(
            Instant::ZERO,
            G2,
            &members(&[1, 2]),
            cfg(OrderMode::Symmetric),
        )
        .expect("bootstrap G2");
    }
    proc
}

fn msg(group: GroupId, sender: u32, c: u64, body: MessageBody) -> Message {
    Message {
        group,
        sender: p(sender),
        c: Msn(c),
        ldn: Msn(0),
        body,
    }
}

fn app(group: GroupId, sender: u32, c: u64, payload: &'static [u8]) -> Message {
    msg(
        group,
        sender,
        c,
        MessageBody::App(Bytes::from_static(payload)),
    )
}

/// The groups of the nulls among `actions`.
fn null_groups(actions: &[Action]) -> Vec<GroupId> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send {
                envelope: Envelope::Group(m),
                ..
            } if matches!(m.body, MessageBody::Null) => Some(m.group),
            _ => None,
        })
        .collect()
}

#[test]
fn covered_group_sends_no_null_while_its_covering_group_talks() {
    let mut p1 = member(1);
    // ω expires in both groups at once: the covering group ticks first, and
    // its null restarts the covered group's ω timer.
    let out = p1.tick(ms(5));
    assert_eq!(null_groups(&out), vec![G1, G1], "one null to P2 and P3");
    assert_eq!(p1.stats().nulls_sent, 1);
    assert_eq!(p1.stats().nulls_covered, 1);
    // An application multicast in G1 is G2's null as well.
    let _ = p1.multicast(ms(8), G1, Bytes::from_static(b"a")).unwrap();
    assert!(
        null_groups(&p1.tick(ms(12))).is_empty(),
        "both timers restarted at 8 ms"
    );
    assert_eq!(p1.stats().nulls_covered, 2);
    // Silence in G1 is broken by G1's null alone.
    assert_eq!(null_groups(&p1.tick(ms(13))), vec![G1, G1]);
    // A multicast in the covered group does not stand in for the covering
    // group's null.
    let _ = p1.multicast(ms(17), G2, Bytes::from_static(b"b")).unwrap();
    assert_eq!(null_groups(&p1.tick(ms(18))), vec![G1, G1]);
}

#[test]
fn covered_group_d_still_advances_at_every_receiver() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], cfg(OrderMode::Symmetric));
    net.bootstrap_group(G2, &[1, 2], cfg(OrderMode::Symmetric));
    net.multicast(1, G2, b"x");
    net.multicast(2, G2, b"y");
    let omega = Span::from_millis(5);
    let mut last = [Msn::ZERO; 2];
    for step in 0..10 {
        net.advance(omega);
        for (i, who) in [1u32, 2].into_iter().enumerate() {
            let d = net.proc(who).d_of(G2).expect("member of G2");
            assert!(d > last[i], "step {step}: P{who}'s D in G2 stuck at {d}");
            last[i] = d;
        }
    }
    for who in [1, 2] {
        assert_eq!(net.delivered_payloads(who, G2), vec!["x", "y"]);
        let stats = net.proc(who).stats();
        // Ten ω periods cost ten G1 nulls — not twenty, as two groups
        // with a silent ω each would.
        assert!(stats.nulls_sent <= 10, "P{who}: {stats:?}");
        assert!(stats.nulls_covered >= stats.nulls_sent, "P{who}: {stats:?}");
    }
}

#[test]
fn refute_piggyback_copy_yields_no_implicit_null() {
    let mut p2 = member(2);
    let before = p2.d_of(G2).unwrap();
    // P3 refutes a suspicion of P1 in G1, carrying a recovered G1 message
    // of P1. The copy did not come over P1's FIFO link, so it says nothing
    // about what else P1 has sent P2: G2 must not move.
    let refute = msg(
        G1,
        3,
        9,
        MessageBody::Refute {
            suspicion: Suspicion {
                suspect: p(1),
                ln: Msn(0),
            },
            upto: Msn(7),
            recovered: vec![app(G1, 1, 7, b"r")],
        },
    );
    let _ = p2.handle(ms(1), p(3), Envelope::from(refute));
    assert_eq!(p2.d_of(G2).unwrap(), before, "piggyback moved G2's D");
    // The same number straight from P1 is G2's null.
    let _ = p2.handle(
        ms(2),
        p(1),
        Envelope::from(msg(G1, 1, 8, MessageBody::Null)),
    );
    assert_eq!(p2.d_of(G2).unwrap(), Msn(8));
}

#[test]
fn upto_is_adopted_only_after_the_piggyback_is_integrated() {
    // A member of G1 alone: the refute's watermark is independent of
    // covering.
    let mut p2 = Process::new(p(2), ProcessConfig::new());
    p2.bootstrap_group(
        Instant::ZERO,
        G1,
        &members(&[1, 2, 3]),
        cfg(OrderMode::Symmetric),
    )
    .unwrap();
    let refute = msg(
        G1,
        3,
        5,
        MessageBody::Refute {
            suspicion: Suspicion {
                suspect: p(1),
                ln: Msn(0),
            },
            upto: Msn(3),
            recovered: vec![app(G1, 1, 2, b"x")],
        },
    );
    let out = p2.handle(ms(1), p(3), Envelope::from(refute));
    // Adopted first, the watermark would have dropped the recovered
    // message as a duplicate; never adopted, D would stop at 2.
    let delivered: Vec<&[u8]> = out
        .iter()
        .filter_map(Action::as_delivery)
        .map(|d| d.payload.as_ref())
        .collect();
    assert_eq!(delivered, vec![b"x".as_slice()]);
    assert_eq!(p2.d_of(G1).unwrap(), Msn(3));
}

#[test]
fn promoted_sequencer_of_a_covered_asymmetric_group_keeps_delivering() {
    // G2 = {P1, P2, P3} is asymmetric with sequencer P1 and covered by
    // G1 = {P1, P2, P3, P4}. P1 crashes; P2 becomes G2's sequencer and
    // from then on sends nothing in G2 but relays — its G1 traffic is
    // G2's null. Its own stream position in G2 must follow those sends,
    // or its D in G2 freezes at the last relay and every later delivery
    // at P2, in either group, waits behind it forever.
    let mut net = TestNet::new([1, 2, 3, 4]);
    net.bootstrap_group(G1, &[1, 2, 3, 4], cfg(OrderMode::Symmetric));
    net.bootstrap_group(G2, &[1, 2, 3], cfg(OrderMode::Asymmetric));
    net.crash(1);
    net.advance_past_big_omega(G1);
    net.advance_past_big_omega(G1);
    for who in [2, 3] {
        assert_eq!(
            net.proc(who).view(G2).map(|v| v.len()),
            Some(2),
            "P{who} excluded P1 from G2"
        );
    }
    net.multicast(3, G2, b"r1");
    net.advance_past_omega(G2);
    // Numbered above P2's last relay; nothing else P2 sends in G2 may
    // unblock it.
    net.multicast(4, G1, b"s1");
    net.advance_steps(Span::from_millis(30), Span::from_millis(5));
    for who in [2, 3] {
        assert_eq!(net.delivered_payloads(who, G2), vec!["r1"], "P{who}");
        assert_eq!(net.delivered_payloads(who, G1), vec!["s1"], "P{who}");
    }
    assert_eq!(net.delivered_payloads(4, G1), vec!["s1"]);
}

#[test]
fn a_group_still_forming_stands_in_for_no_null() {
    // G2 = {P1, P2} is active; G1 = {P1, P2, P3} is being formed, and P2
    // never hears P3's vote. P1 has every vote and awaits the start-group
    // messages, while P2 is still voting: it holds no G1 state and cannot
    // take G1's traffic as G2's null, so G2 must keep its own.
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G2, &[1, 2], cfg(OrderMode::Symmetric));
    net.block_link(3, 2);
    net.initiate(1, G1, &[1, 2, 3], cfg(OrderMode::Symmetric));
    net.run_to_quiescence();
    assert!(net.proc(1).is_member(G1) && !net.proc(1).is_active(G1));
    assert!(!net.proc(2).is_member(G1));
    let before = net.proc(2).d_of(G2).unwrap();
    net.advance_past_omega(G2);
    assert!(net.proc(2).d_of(G2).unwrap() > before);
}
