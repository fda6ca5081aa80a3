//! Integration tests of the asymmetric (sequencer) protocol (§4.2), the
//! mixed-mode blocking rule (§4.3) and sequencer fail-over (our completion
//! of the part the paper defers to its technical report).

use newtop_core::ProtocolEvent;
use newtop_harness::testnet::TestNet;
use newtop_types::{GroupConfig, GroupId, OrderMode, ProcessId, Span};

const GA: GroupId = GroupId(1);
const GS: GroupId = GroupId(2);

fn asym() -> GroupConfig {
    GroupConfig::new(OrderMode::Asymmetric)
}

fn sym() -> GroupConfig {
    GroupConfig::new(OrderMode::Symmetric)
}

fn payloads(net: &TestNet, p: u32, g: GroupId) -> Vec<String> {
    net.delivered_payloads(p, g)
}

#[test]
fn sequencer_relays_and_origin_is_preserved() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(GA, &[1, 2, 3], asym());
    // P3 is not the sequencer (P1 is, as the smallest id).
    net.multicast(3, GA, b"via-seq");
    net.run_to_quiescence();
    for p in [1, 2, 3] {
        let d = net.deliveries(p);
        assert_eq!(d.len(), 1, "P{p} delivered the relay");
        assert_eq!(d[0].origin, ProcessId(3), "origin is the requester");
    }
}

#[test]
fn asymmetric_delivery_is_immediate_no_wait_for_all() {
    // The §4.2 advantage: no time-silence round needed before delivery.
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(GA, &[1, 2, 3], asym());
    net.multicast(2, GA, b"x");
    net.run_to_quiescence(); // no advance_past_omega!
    for p in [1, 2, 3] {
        assert_eq!(payloads(&net, p, GA), vec!["x"], "at P{p}");
    }
}

#[test]
fn all_members_deliver_in_sequencer_order() {
    let mut net = TestNet::new([1, 2, 3, 4]);
    net.bootstrap_group(GA, &[1, 2, 3, 4], asym());
    // Concurrent requests from everyone, including the sequencer itself.
    for p in [4, 2, 1, 3] {
        net.multicast(p, GA, format!("m{p}").as_bytes());
    }
    net.run_to_quiescence();
    let reference = payloads(&net, 1, GA);
    assert_eq!(reference.len(), 4);
    for p in [2, 3, 4] {
        assert_eq!(payloads(&net, p, GA), reference, "divergent at P{p}");
    }
}

#[test]
fn sequencer_sends_are_delivered_too() {
    let mut net = TestNet::new([1, 2]);
    net.bootstrap_group(GA, &[1, 2], asym());
    net.multicast(1, GA, b"from-sequencer");
    net.run_to_quiescence();
    assert_eq!(payloads(&net, 1, GA), vec!["from-sequencer"]);
    assert_eq!(payloads(&net, 2, GA), vec!["from-sequencer"]);
}

/// §4.3 mixed-mode blocking rule: a send in another group is delayed while
/// a unicast to a sequencer is outstanding.
#[test]
fn mixed_mode_send_blocks_on_outstanding_unicast() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(GA, &[1, 2, 3], asym()); // sequencer P1
    net.bootstrap_group(GS, &[2, 3], sym());
    // P3 unicasts to the sequencer; before the relay returns, it multicasts
    // in the symmetric group. The multicast must wait.
    net.multicast(3, GA, b"first");
    assert_eq!(net.proc(3).outstanding(GA), 1);
    net.multicast(3, GS, b"second");
    assert_eq!(
        net.proc(3).deferred_len(),
        1,
        "blocking rule must defer the cross-group send"
    );
    assert!(net.proc(3).stats().deferred_total >= 1);
    net.run_to_quiescence(); // relay returns, deferred send flows
    assert_eq!(net.proc(3).outstanding(GA), 0);
    assert_eq!(net.proc(3).deferred_len(), 0);
    net.advance_past_omega(GS);
    assert_eq!(payloads(&net, 2, GS), vec!["second"]);
    // Causality across the two groups: P3's numbers grew monotonically, so
    // the relay's number is below the symmetric multicast's.
    let d3 = net.deliveries(3);
    let first = d3.iter().find(|d| d.group == GA).expect("relay delivered");
    let second = d3.iter().find(|d| d.group == GS).expect("sym delivered");
    assert!(first.c < second.c, "blocking rule preserves number order");
}

/// §7: "If only symmetric version is used, Newtop is totally non-blocking
/// on send operations."
#[test]
fn pure_symmetric_sends_never_block() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(GroupId(10), &[1, 2, 3], sym());
    net.bootstrap_group(GroupId(11), &[1, 2], sym());
    for i in 0..10 {
        let g = if i % 2 == 0 { GroupId(10) } else { GroupId(11) };
        net.multicast(1, g, b"x");
        assert_eq!(net.proc(1).deferred_len(), 0, "symmetric send blocked");
    }
    assert_eq!(net.proc(1).stats().deferred_total, 0);
}

/// Same-group consecutive unicasts need not wait for each other (the rule
/// quantifies over m'.g ≠ m.g only).
#[test]
fn same_group_unicasts_do_not_block_each_other() {
    let mut net = TestNet::new([1, 2]);
    net.bootstrap_group(GA, &[1, 2], asym());
    net.multicast(2, GA, b"a");
    net.multicast(2, GA, b"b");
    assert_eq!(net.proc(2).deferred_len(), 0);
    assert_eq!(net.proc(2).outstanding(GA), 2);
    net.run_to_quiescence();
    assert_eq!(payloads(&net, 1, GA), vec!["a", "b"]);
    assert_eq!(payloads(&net, 2, GA), vec!["a", "b"]);
}

#[test]
fn sequencer_crash_fails_over_and_resubmits() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(GA, &[1, 2, 3], asym()); // sequencer P1
    net.multicast(2, GA, b"pre");
    net.run_to_quiescence();
    assert_eq!(payloads(&net, 3, GA), vec!["pre"]);
    // P3's request reaches the dead sequencer: the unicast is lost.
    net.crash(1);
    net.multicast(3, GA, b"lost-then-resubmitted");
    net.run_to_quiescence();
    assert_eq!(net.proc(3).outstanding(GA), 1);
    // Membership detects the crash, installs {2,3}, new sequencer P2, and
    // P3 resubmits.
    net.advance_past_big_omega(GA);
    net.advance_past_big_omega(GA);
    let v2 = net.proc(2).view(GA).expect("member").clone();
    let v3 = net.proc(3).view(GA).expect("member").clone();
    assert_eq!(v2.members(), v3.members());
    assert!(!v2.contains(ProcessId(1)));
    assert_eq!(v2.sequencer(), Some(ProcessId(2)));
    assert_eq!(net.proc(3).outstanding(GA), 0, "resubmitted and sequenced");
    assert_eq!(
        payloads(&net, 2, GA),
        vec!["pre", "lost-then-resubmitted"],
        "post-fail-over delivery"
    );
    assert_eq!(payloads(&net, 3, GA), vec!["pre", "lost-then-resubmitted"]);
}

/// A member crash in an asymmetric group: survivors agree via the
/// sequencer's in-stream view cut, and the delivery stream never stalls.
#[test]
fn member_crash_in_asymmetric_group_uses_view_cut() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(GA, &[1, 2, 3], asym());
    net.multicast(3, GA, b"before");
    net.run_to_quiescence();
    net.crash(3);
    net.advance_past_big_omega(GA);
    net.advance_past_big_omega(GA);
    let v1 = net.proc(1).view(GA).expect("member").clone();
    let v2 = net.proc(2).view(GA).expect("member").clone();
    assert_eq!(v1, v2);
    assert!(!v1.contains(ProcessId(3)));
    // Traffic continues in the new view.
    net.multicast(2, GA, b"after");
    net.run_to_quiescence();
    assert_eq!(payloads(&net, 1, GA), vec!["before", "after"]);
    assert_eq!(payloads(&net, 2, GA), vec!["before", "after"]);
}

/// Mixed-mode process: asymmetric in one group, symmetric in another, with
/// consistent cross-group delivery order at the shared members (MD4' in the
/// generic version, §4.3).
#[test]
fn generic_version_mixes_modes_consistently() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(GA, &[1, 2, 3], asym());
    net.bootstrap_group(GS, &[1, 2, 3], sym());
    net.multicast(2, GA, b"a1");
    net.run_to_quiescence();
    net.multicast(2, GS, b"s1");
    net.run_to_quiescence();
    net.multicast(3, GA, b"a2");
    net.run_to_quiescence();
    net.advance_past_omega(GS);
    net.advance_past_omega(GA);
    let order = |p: u32| -> Vec<(u64, u32)> {
        net.deliveries(p)
            .iter()
            .map(|d| (d.c.0, d.group.0))
            .collect()
    };
    assert_eq!(order(1).len(), 3);
    assert_eq!(order(1), order(2));
    assert_eq!(order(1), order(3));
}

/// The detections `p` adopted in `g`, each as its sorted suspect ids.
fn adopted(net: &TestNet, p: u32, g: GroupId) -> Vec<Vec<u32>> {
    net.events(p)
        .into_iter()
        .filter_map(|e| match e {
            ProtocolEvent::DetectionAdopted { group, detection } if group == g => {
                Some(detection.iter().map(|s| s.suspect.0).collect())
            }
            _ => None,
        })
        .collect()
}

fn members(net: &TestNet, p: u32, g: GroupId) -> Vec<u32> {
    net.proc(p)
        .view(g)
        .expect("member")
        .iter()
        .map(|q| q.0)
        .collect()
}

/// Holds `held`'s installs in `GA` back: `GS = {held, 5}` is a symmetric
/// group whose `D` stays frozen at `held` while `5 → held` is cut (its
/// Ω is far beyond the test, so nobody is suspected there), and a relay
/// the sequencer P1 multicasts next is then buffered at `held` above
/// `D_i` — below any agreed bound on P1's stream, so the step-(viii)
/// barrier of P1's exclusion cannot pass until the link comes back.
fn net_with_held_member(held: u32) -> TestNet {
    let mut net = TestNet::new([1, 2, 3, 4, 5]);
    net.bootstrap_group(GA, &[1, 2, 3, 4], asym());
    net.bootstrap_group(GS, &[held, 5], sym().with_big_omega(Span::from_secs(60)));
    net.multicast(3, GA, b"warm");
    net.advance_past_omega(GS);
    net.advance_past_omega(GS);
    assert_eq!(payloads(&net, held, GA), vec!["warm"]);
    net.block_link(5, held);
    net.multicast(1, GA, b"held");
    net.advance_past_omega(GA);
    assert_eq!(payloads(&net, held, GA), vec!["warm"], "the relay is held");
    assert_eq!(payloads(&net, 4, GA), vec!["warm", "held"]);
    net
}

/// A detection adopted while an earlier install is still queued waits for
/// the sequencer's cut; if that install then promotes the very process
/// the detection names, the cut can never come and the member falls back
/// to the number barrier on the dead sequencer's agreed `ln` (the
/// seed-1401 wedge, pinned at the engine level).
#[test]
fn install_promoting_a_detected_process_falls_back_to_the_barrier() {
    let mut net = net_with_held_member(3);
    net.crash(1);
    net.advance_past_big_omega(GA);
    // P2 and P4 installed P1's exclusion (P2 now sequences); P3 holds it.
    assert_eq!(members(&net, 4, GA), vec![2, 3, 4]);
    assert_eq!(members(&net, 3, GA), vec![1, 2, 3, 4]);
    net.crash(2);
    net.advance_past_big_omega(GA);
    // P3 adopted {P2} under its still-queued install, whose sequencer P1
    // is not in it: the detection awaits a cut.
    assert_eq!(adopted(&net, 3, GA), vec![vec![1], vec![2]]);
    assert_eq!(members(&net, 3, GA), vec![1, 2, 3, 4]);
    net.unblock_link(5, 3);
    net.advance_past_omega(GS);
    net.advance_past_omega(GA);
    for p in [3, 4] {
        assert_eq!(members(&net, p, GA), vec![3, 4], "P{p}");
        assert_eq!(payloads(&net, p, GA), vec!["warm", "held"], "P{p}");
    }
    // P3 went through P2's short reign too.
    assert_eq!(net.view_history(3, GA).len(), 2);
    net.multicast(4, GA, b"after");
    net.advance_past_omega(GS);
    net.advance_past_omega(GS);
    assert_eq!(payloads(&net, 3, GA), vec!["warm", "held", "after"]);
}

/// The same queued-install race, but the install promotes the local
/// process: the group now awaits *its* cut for the detection adopted in
/// the meantime, so it emits it.
#[test]
fn install_promoting_the_local_process_emits_the_awaited_cut() {
    let mut net = net_with_held_member(2);
    net.crash(1);
    net.advance_past_big_omega(GA);
    assert_eq!(members(&net, 3, GA), vec![2, 3, 4]);
    assert_eq!(members(&net, 2, GA), vec![1, 2, 3, 4]);
    net.crash(4);
    net.advance_past_big_omega(GA);
    // Both survivors adopted {P4}; P3 awaits P2's cut, and P2 — not yet
    // the sequencer in its own view — awaited P1's.
    assert_eq!(adopted(&net, 2, GA), vec![vec![1], vec![4]]);
    assert_eq!(members(&net, 3, GA), vec![2, 3, 4]);
    net.unblock_link(5, 2);
    net.advance_past_omega(GS);
    net.advance_past_omega(GA);
    for p in [2, 3] {
        assert_eq!(members(&net, p, GA), vec![2, 3], "P{p}");
        assert_eq!(payloads(&net, p, GA), vec!["warm", "held"], "P{p}");
    }
    net.multicast(3, GA, b"after");
    net.advance_past_omega(GS);
    net.advance_past_omega(GS);
    assert_eq!(payloads(&net, 2, GA), vec!["warm", "held", "after"]);
}
