//! Integration tests of the membership service (§5.2): suspicion,
//! refutation with recovery, agreement, view installation, the step-(viii)
//! discard rule, departures, partitions — including the paper's worked
//! Examples 1, 2 and 3.

use newtop_core::ProtocolEvent;
use newtop_harness::testnet::{TestNet, TimelineEntry};
use newtop_types::{GroupConfig, GroupId, OrderMode, ProcessId, Span};

const G1: GroupId = GroupId(1);

fn sym() -> GroupConfig {
    GroupConfig::new(OrderMode::Symmetric)
        .with_omega(Span::from_millis(10))
        .with_big_omega(Span::from_millis(100))
}

#[test]
fn crash_is_detected_and_identical_views_installed() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], sym());
    net.multicast(3, G1, b"last words");
    net.run_to_quiescence();
    net.crash(3);
    net.advance_past_big_omega(G1);
    let v1 = net.view_history(1, G1);
    let v2 = net.view_history(2, G1);
    assert_eq!(v1.len(), 1, "exactly one view change at P1");
    assert_eq!(v1, v2, "VC1: identical view sequences");
    assert!(!v1[0].contains(ProcessId(3)));
    assert_eq!(v1[0].members().len(), 2);
    // The crashed member's final message was delivered before the view
    // change (it was agreed as part of the cut).
    net.advance_past_omega(G1);
    assert_eq!(net.delivered_payloads(1, G1), vec!["last words"]);
    assert_eq!(net.delivered_payloads(2, G1), vec!["last words"]);
}

#[test]
fn suspicion_of_slow_process_is_refuted_not_fatal() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], sym());
    net.advance_past_omega(G1); // everyone heard from everyone once
                                // P1 stops hearing P3 directly, but P2 still does.
    net.block_link(3, 1);
    net.advance_past_big_omega(G1);
    net.unblock_link(3, 1);
    net.advance_past_omega(G1);
    net.advance_past_omega(G1);
    // No view change anywhere: the suspicion was refuted by P2.
    assert!(net.view_history(1, G1).is_empty(), "P1 must not exclude P3");
    assert!(net.view_history(2, G1).is_empty());
    assert!(net.view_history(3, G1).is_empty());
    let suspected = net
        .events(1)
        .iter()
        .any(|e| matches!(e, ProtocolEvent::Suspected { .. }));
    let refuted = net
        .events(1)
        .iter()
        .any(|e| matches!(e, ProtocolEvent::Refuted { .. }));
    assert!(suspected, "P1 did suspect P3");
    assert!(refuted, "and the suspicion was withdrawn via a refute");
    assert!(net.proc(1).suspicions_of(G1).is_empty());
}

/// Withdrawing a refuted suspicion restarts the suspect's silence timer:
/// the suspect is still in the view, so its entry is there to restart (the
/// refute path never records a non-member), and the member tables stay
/// coherent.
#[test]
fn a_refuted_suspicion_restarts_the_suspects_silence() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], sym());
    net.advance_past_omega(G1);
    net.block_link(3, 1);
    net.advance_past_big_omega(G1);
    net.unblock_link(3, 1);
    net.advance_past_omega(G1);
    let withdrawn = net
        .events(1)
        .iter()
        .any(|e| matches!(e, ProtocolEvent::Refuted { pair, .. } if pair.suspect == ProcessId(3)));
    assert!(withdrawn, "P1 suspected P3 and withdrew it");
    assert!(net.proc(1).suspicions_of(G1).is_empty());
    let level = net.proc(1).suspicion_level(G1, ProcessId(3), net.now());
    assert!(
        level.is_some_and(|l| l < 1000),
        "P3's silence restarted: {level:?}"
    );
    net.proc(1)
        .check_invariants()
        .expect("member tables coherent");
}

/// Missing messages are recovered from the refute piggyback: P1 misses a
/// multicast during a transient one-way outage and still delivers it.
#[test]
fn refute_recovers_missing_messages() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], sym());
    net.advance_past_omega(G1);
    net.block_link(3, 1);
    net.multicast(3, G1, b"missed-by-P1"); // P2 receives it, P1 does not
    net.run_to_quiescence();
    // P1 eventually suspects P3; P2 refutes, piggybacking the message.
    net.advance_past_big_omega(G1);
    net.unblock_link(3, 1);
    net.advance_past_omega(G1);
    net.advance_past_omega(G1);
    assert_eq!(
        net.delivered_payloads(1, G1),
        vec!["missed-by-P1"],
        "recovery via refute piggyback must deliver the missed message"
    );
    assert!(net.view_history(1, G1).is_empty(), "nobody was excluded");
    assert!(net.proc(1).stats().recovered >= 1);
}

/// Paper Example 1: Pr crashes while multicasting m so only Ps receives it;
/// Ps delivers m, multicasts m' (m → m'), and crashes before refuting. The
/// survivors detect both together and the step-(viii) discard rule drops m'
/// — so no one delivers an effect whose cause is unrecoverable.
#[test]
fn example1_discard_rule_preserves_causal_atomicity() {
    let mut net = TestNet::new([1, 2, 3, 4]); // P4 = Pr, P3 = Ps
    net.bootstrap_group(G1, &[1, 2, 3, 4], sym());
    net.advance_past_omega(G1);
    // Pr multicasts m; only Ps receives it.
    net.multicast(4, G1, b"m");
    net.drop_in_flight(4, 1);
    net.drop_in_flight(4, 2);
    net.crash(4);
    // Ps needs the others' nulls to make m deliverable.
    net.advance_past_omega(G1);
    net.advance_past_omega(G1);
    assert_eq!(net.delivered_payloads(3, G1), vec!["m"], "Ps delivered m");
    assert!(net.delivered_payloads(1, G1).is_empty());
    // Ps multicasts m' (causally after m), received by the survivors…
    net.multicast(3, G1, b"m'");
    net.run_to_quiescence();
    // …and crashes before it can refute anyone's suspicion of Pr.
    net.crash(3);
    net.advance_past_big_omega(G1);
    net.advance_past_big_omega(G1);
    // Survivors agreed on one detection containing both, with lnmn below
    // m'.c, so m' was discarded: MD3/MD5 hold (m' is never delivered
    // without m).
    let v1 = net.view_history(1, G1);
    let v2 = net.view_history(2, G1);
    assert_eq!(v1, v2, "identical view sequences");
    assert_eq!(v1.len(), 1, "both failures in a single detection");
    assert_eq!(v1[0].members().len(), 2);
    assert!(
        net.delivered_payloads(1, G1).is_empty(),
        "m' must be discarded"
    );
    assert!(net.delivered_payloads(2, G1).is_empty());
    let discarded = net
        .events(1)
        .iter()
        .any(|e| matches!(e, ProtocolEvent::Discarded { .. }));
    assert!(discarded, "the step-(viii) discard fired");
}

/// Paper Example 2 / Fig. 2 essence (MD5'): a causal chain crosses groups,
/// its origin is lost to a partition, and the dependent message is
/// delivered only after the view excluding the origin's sender is
/// installed.
#[test]
fn example2_view_excludes_lost_sender_before_dependent_delivery() {
    // P1 = Pk (origin, g1), P4 relays through g2, P3 sends the dependent
    // message in g3, P2 = Pi is the common destination of g1 and g3.
    let g1 = GroupId(1);
    let g2 = GroupId(2);
    let g3 = GroupId(3);
    let mut net = TestNet::new([1, 2, 3, 4]);
    net.bootstrap_group(g1, &[1, 2, 4], sym());
    net.bootstrap_group(g2, &[3, 4], sym());
    net.bootstrap_group(g3, &[2, 3], sym());
    net.advance_past_omega(g1);
    net.advance_past_omega(g2);
    net.advance_past_omega(g3);
    // m1 in g1 reaches P4 but not P2; P1 is then partitioned away.
    net.multicast(1, g1, b"m1");
    net.drop_in_flight(1, 2);
    net.run_to_quiescence();
    net.partition(&[&[1], &[2, 3, 4]]);
    // P4 delivers m1, then sends m2 in g2 (m1 → m2).
    net.advance_past_omega(g1);
    net.advance_past_omega(g2);
    assert_eq!(net.delivered_payloads(4, g1), vec!["m1"]);
    net.multicast(4, g2, b"m2");
    net.advance_past_omega(g2);
    assert_eq!(net.delivered_payloads(3, g2), vec!["m2"]);
    // P3 delivers m2, then sends m3 in g3 (m1 → m2 → m3). P4 must now be
    // silenced in g1 towards P2 as well, or it would refute P2's suspicion
    // of P1 and recover m1 — that is the *other*, legal outcome. To force
    // the exclusion path of MD5', P4 is partitioned with P1.
    net.multicast(3, g3, b"m3");
    net.run_to_quiescence();
    net.partition(&[&[1, 4], &[2, 3]]);
    // P2 cannot deliver m3 while its g1 view still contains P1 (and P4):
    // D(g1) is stuck below m3's number.
    net.advance_past_omega(g3);
    assert!(
        net.delivered_payloads(2, g3).is_empty(),
        "MD5': m3 must wait for the g1 exclusion"
    );
    // The suspector eventually excludes P1 and P4 from g1; only then is m3
    // delivered.
    net.advance_past_big_omega(g1);
    net.advance_past_big_omega(g1);
    net.advance_past_omega(g3);
    assert_eq!(net.delivered_payloads(2, g3), vec!["m3"]);
    // Timeline at P2: the g1 view change precedes the m3 delivery.
    let tl = net.timeline(2);
    let view_pos = tl
        .iter()
        .position(
            |e| matches!(e, TimelineEntry::View(g, v) if *g == g1 && !v.contains(ProcessId(1))),
        )
        .expect("g1 view change recorded");
    let m3_pos = tl
        .iter()
        .position(|e| matches!(e, TimelineEntry::Delivered(d) if d.payload.as_ref() == b"m3"))
        .expect("m3 delivery recorded");
    assert!(
        view_pos < m3_pos,
        "the network failure is perceived to have happened before the multicast"
    );
    // m1 was never delivered to P2 — and that is consistent because its
    // sender is no longer in P2's g1 view.
    assert!(net.delivered_payloads(2, g1).is_empty());
}

/// Paper Example 3: a five-member group crashes one member and partitions
/// mid-agreement. The two sides install temporarily intersecting raw views
/// whose §6 *signed* forms never intersect, and stabilise into disjoint
/// subgroups.
#[test]
fn example3_subgroup_views_stabilise_non_intersecting() {
    let mut net = TestNet::new([1, 2, 3, 4, 5]);
    net.bootstrap_group(G1, &[1, 2, 3, 4, 5], sym());
    net.advance_past_omega(G1);
    net.crash(5); // Pm
                  // Keep the live members chatty (nulls every ω) while P5's silence
                  // approaches Ω, so that only P5 will be suspected at the probe instant.
    net.advance_steps(Span::from_millis(80), Span::from_millis(10));
    net.set_elapsed(Span::from_millis(25)); // P5 silent > Ω, live ones not
                                            // Let the suspicion of P5 form at P1 and P2 first and reach P3, P4.
    net.tick_one(1);
    net.tick_one(2);
    net.run_to_quiescence();
    // Now the network splits {1,2} | {3,4} before P3/P4's suspect messages
    // can reach P1/P2.
    net.partition(&[&[1, 2], &[3, 4]]);
    net.tick_one(3);
    net.tick_one(4);
    net.run_to_quiescence();
    // P3 and P4 have unanimous support for {P5}: they install {1,2,3,4}.
    let v3 = net.view_history(3, G1);
    assert_eq!(v3.len(), 1, "P3 installed the four-member view");
    assert_eq!(v3[0].members().len(), 4);
    // P1 and P2 cannot confirm {P5} (no support from 3,4); they eventually
    // exclude 5, 3 and 4 together. P3/P4 likewise exclude 1 and 2.
    net.advance_past_big_omega(G1);
    net.advance_past_big_omega(G1);
    let final1 = net.proc(1).view(G1).expect("member").clone();
    let final2 = net.proc(2).view(G1).expect("member").clone();
    let final3 = net.proc(3).view(G1).expect("member").clone();
    let final4 = net.proc(4).view(G1).expect("member").clone();
    assert_eq!(final1, final2, "VC1 within the 1-2 subgroup");
    assert_eq!(final3, final4, "VC1 within the 3-4 subgroup");
    let m12: Vec<u32> = final1.iter().map(|p| p.0).collect();
    let m34: Vec<u32> = final3.iter().map(|p| p.0).collect();
    assert_eq!(m12, vec![1, 2]);
    assert_eq!(m34, vec![3, 4]);
    // §6 signed views: the intermediate {1,2,3,4} view of P3 (one exclusion)
    // never intersects the final {1,2} view of P1 (three exclusions), even
    // though the raw member sets overlap.
    let signed3 = net.signed_view_history(3, G1);
    let signed1 = net.signed_view_history(1, G1);
    assert_eq!(signed3[0].excluded_count(), 1);
    let last1 = signed1.last().expect("P1 installed a view");
    assert_eq!(last1.excluded_count(), 3);
    assert!(
        !signed3[0].intersects(last1),
        "signed views never intersect"
    );
    let last3 = net.signed_view_history(3, G1);
    let last3 = last3.last().expect("P3 stabilised");
    assert_eq!(last3.excluded_count(), 3);
    assert!(!last3.intersects(last1));
}

#[test]
fn voluntary_departure_installs_shrunk_view_and_delivers_final_messages() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], sym());
    net.multicast(3, G1, b"farewell");
    net.depart(3, G1);
    net.run_to_quiescence();
    net.advance_past_omega(G1);
    net.advance_past_omega(G1);
    assert!(!net.proc(3).is_member(G1), "§3: no view after leaving");
    let v1 = net.view_history(1, G1);
    let v2 = net.view_history(2, G1);
    assert_eq!(v1, v2);
    assert_eq!(v1.len(), 1);
    assert!(!v1[0].contains(ProcessId(3)));
    // The farewell was sent before the departure cut: delivered everywhere.
    assert_eq!(net.delivered_payloads(1, G1), vec!["farewell"]);
    assert_eq!(net.delivered_payloads(2, G1), vec!["farewell"]);
}

#[test]
fn two_simultaneous_crashes_are_detected_together_or_sequentially_but_consistently() {
    let mut net = TestNet::new([1, 2, 3, 4, 5]);
    net.bootstrap_group(G1, &[1, 2, 3, 4, 5], sym());
    net.advance_past_omega(G1);
    net.crash(4);
    net.crash(5);
    net.advance_past_big_omega(G1);
    net.advance_past_big_omega(G1);
    let h1 = net.view_history(1, G1);
    let h2 = net.view_history(2, G1);
    let h3 = net.view_history(3, G1);
    assert_eq!(h1, h2, "VC1");
    assert_eq!(h1, h3, "VC1");
    let last = h1.last().expect("views installed");
    let members: Vec<u32> = last.iter().map(|p| p.0).collect();
    assert_eq!(members, vec![1, 2, 3]);
}

#[test]
fn sole_survivor_continues_operating() {
    let mut net = TestNet::new([1, 2]);
    net.bootstrap_group(G1, &[1, 2], sym());
    net.crash(2);
    net.advance_past_big_omega(G1);
    let v = net.proc(1).view(G1).expect("member").clone();
    assert_eq!(v.members().len(), 1);
    net.multicast(1, G1, b"alone");
    net.run_to_quiescence();
    assert_eq!(net.delivered_payloads(1, G1), vec!["alone"]);
}

/// VC2 liveness: a disconnected member is eventually excluded on both
/// sides (each side considers itself the survivors).
#[test]
fn permanent_partition_excludes_both_ways() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], sym());
    net.advance_past_omega(G1);
    net.partition(&[&[1, 2], &[3]]);
    net.advance_past_big_omega(G1);
    net.advance_past_big_omega(G1);
    let v1 = net.proc(1).view(G1).expect("member").clone();
    let v3 = net.proc(3).view(G1).expect("member").clone();
    let m1: Vec<u32> = v1.iter().map(|p| p.0).collect();
    let m3: Vec<u32> = v3.iter().map(|p| p.0).collect();
    assert_eq!(m1, vec![1, 2]);
    assert_eq!(m3, vec![3]);
    // Non-intersecting final views.
    assert!(m1.iter().all(|p| !m3.contains(p)));
}

/// VC3 / MD3: between identical consecutive views, identical delivery sets.
#[test]
fn delivery_sets_identical_between_views() {
    let mut net = TestNet::new([1, 2, 3, 4]);
    net.bootstrap_group(G1, &[1, 2, 3, 4], sym());
    net.multicast(1, G1, b"a");
    net.multicast(2, G1, b"b");
    net.run_to_quiescence();
    net.advance_past_omega(G1);
    net.crash(4);
    net.multicast(3, G1, b"c");
    net.advance_past_big_omega(G1);
    net.advance_past_big_omega(G1);
    net.advance_past_omega(G1);
    // Partition deliveries by the view they were delivered in.
    let by_view = |p: u32| -> Vec<(u32, String)> {
        net.deliveries(p)
            .iter()
            .filter(|d| d.group == G1)
            .map(|d| {
                (
                    d.view_seq.0,
                    String::from_utf8_lossy(&d.payload).into_owned(),
                )
            })
            .collect()
    };
    for p in [2, 3] {
        assert_eq!(by_view(1), by_view(p), "VC3 violated at P{p}");
    }
}

/// A `Depart` that makes a member suspect its sender at the `Depart`'s own
/// number must still refute a co-member's lower suspicion of that sender
/// (condition (iii)): otherwise the two hold different `ln` for the same
/// suspect, neither pair can become unanimous, and the departed member is
/// never excluded (churn seed 44047).
#[test]
fn departure_refutes_a_lower_suspicion_of_the_departing_member() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], sym());
    net.multicast(1, G1, b"m");
    net.advance_past_omega(G1);
    // P1 falls silent towards both; only P3's suspector fires, while P2
    // keeps P3 hearing from it.
    net.block_link(1, 2);
    net.block_link(1, 3);
    net.set_elapsed(Span::from_millis(101));
    net.multicast(2, G1, b"alive");
    net.run_to_quiescence();
    net.tick_one(3);
    net.run_to_quiescence();
    // P2 holds P1's stream up to exactly that ln: gossip, not a refute.
    let events = net.events(3);
    assert!(events.iter().any(|e| matches!(e,
        ProtocolEvent::Suspected { pair, .. } if pair.suspect == ProcessId(1))));
    assert!(!events
        .iter()
        .any(|e| matches!(e, ProtocolEvent::Refuted { .. })));
    // P1 departs; only P2 hears the Depart, and suspects P1 at its number.
    net.unblock_link(1, 2);
    net.depart(1, G1);
    net.run_to_quiescence();
    net.advance_past_big_omega(G1);
    for p in [2, 3] {
        let views = net.view_history(p, G1);
        assert_eq!(views.len(), 1, "P{p} installs once");
        assert_eq!(views[0].members().len(), 2, "P{p} excluded P1");
        assert!(!views[0].contains(ProcessId(1)));
    }
    assert_eq!(net.view_history(2, G1), net.view_history(3, G1));
}
