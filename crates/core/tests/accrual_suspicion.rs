//! Integration tests of the phi-accrual-style adaptive suspicion detector:
//! under [`SuspicionMode::Accrual`] a silence longer than Ω but within the
//! learned inter-arrival envelope must NOT trigger suspicion (no false
//! exclusion), while a genuinely crashed member is still excluded within
//! the Ω×cap ceiling.

use newtop_core::ProtocolEvent;
use newtop_harness::testnet::TestNet;
use newtop_types::{GroupConfig, GroupId, OrderMode, ProcessId, Span, SuspicionMode};

const G1: GroupId = GroupId(1);
const OMEGA: Span = Span::from_millis(30);

/// ω = 30ms, Ω = 100ms. With accrual (factor 6) and steady ω-null traffic
/// the learned timeout settles at ≈ 30ms × 6 = 180ms, above the fixed Ω.
fn cfg(suspicion: SuspicionMode) -> GroupConfig {
    GroupConfig::new(OrderMode::Symmetric)
        .with_omega(OMEGA)
        .with_big_omega(Span::from_millis(100))
        .with_suspicion(suspicion)
}

/// Several ω rounds of null traffic so every member's arrival window fills.
fn warm_up(net: &mut TestNet) {
    for _ in 0..12 {
        net.advance(OMEGA + Span::from_micros(1));
    }
}

/// P3 goes silent for 150ms (> Ω = 100ms, < learned ≈ 180ms), then resumes.
fn spike(net: &mut TestNet) {
    net.block_link(3, 1);
    net.block_link(3, 2);
    for _ in 0..5 {
        net.advance(OMEGA);
    }
    net.unblock_link(3, 1);
    net.unblock_link(3, 2);
    for _ in 0..4 {
        net.advance(OMEGA);
    }
}

#[test]
fn latency_spike_does_not_trip_accrual_detector() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], cfg(SuspicionMode::accrual()));
    warm_up(&mut net);
    spike(&mut net);
    for p in [1, 2, 3] {
        assert!(
            net.view_history(p, G1).is_empty(),
            "no exclusion at P{p} for a within-envelope spike"
        );
        assert!(
            !net.events(p)
                .iter()
                .any(|e| matches!(e, ProtocolEvent::Suspected { .. })),
            "accrual must not even suspect during a within-envelope spike (P{p})"
        );
    }
}

/// Control run: the very same silence schedule trips the fixed-Ω detector,
/// demonstrating the false positive the accrual mode removes.
#[test]
fn same_spike_trips_fixed_omega_detector() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], cfg(SuspicionMode::FixedOmega));
    warm_up(&mut net);
    spike(&mut net);
    assert!(
        net.events(1)
            .iter()
            .any(|e| matches!(e, ProtocolEvent::Suspected { .. })),
        "fixed-Ω control run must suspect during the same spike"
    );
}

#[test]
fn crashed_member_is_still_excluded_under_accrual() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], cfg(SuspicionMode::accrual()));
    warm_up(&mut net);
    net.crash(3);
    // The learned timeout is capped at Ω×cap = 800ms; give the membership
    // rounds room to run on top of it.
    net.advance_steps(Span::from_millis(1200), OMEGA);
    for p in [1, 2] {
        let views = net.view_history(p, G1);
        assert_eq!(views.len(), 1, "exactly one exclusion at P{p}");
        assert!(!views[0].contains(ProcessId(3)));
        assert_eq!(views[0].members().len(), 2);
    }
}

#[test]
fn suspicion_level_rises_with_silence() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], cfg(SuspicionMode::accrual()));
    warm_up(&mut net);
    let low = net
        .proc(1)
        .suspicion_level(G1, ProcessId(3), net.now())
        .expect("tracked member");
    net.set_elapsed(Span::from_millis(120));
    let high = net
        .proc(1)
        .suspicion_level(G1, ProcessId(3), net.now())
        .expect("tracked member");
    assert!(
        high > low,
        "silence must raise the suspicion level ({low} -> {high} permille)"
    );
}

/// The suspector watches co-members only: the level a process reports for
/// itself, for a process never in the group and for a member once it is
/// excluded is `None`, under either suspector mode.
#[test]
fn suspicion_level_is_none_for_self_and_for_an_excluded_member() {
    for mode in [SuspicionMode::FixedOmega, SuspicionMode::accrual()] {
        let mut net = TestNet::new([1, 2, 3]);
        net.bootstrap_group(G1, &[1, 2, 3], cfg(mode));
        warm_up(&mut net);
        let level = |net: &TestNet, q| net.proc(1).suspicion_level(G1, ProcessId(q), net.now());
        assert_eq!(level(&net, 1), None, "no level for oneself ({mode:?})");
        assert_eq!(level(&net, 9), None, "nor for a non-member");
        assert!(level(&net, 3).is_some());
        net.crash(3);
        net.advance_steps(Span::from_millis(1200), OMEGA);
        assert_eq!(net.view_history(1, G1).len(), 1, "P3 excluded ({mode:?})");
        assert_eq!(level(&net, 3), None, "no level for an excluded member");
        assert!(level(&net, 2).is_some());
        net.proc(1)
            .check_invariants()
            .expect("member tables pruned");
    }
}

#[test]
fn invariants_hold_throughout_accrual_run() {
    let mut net = TestNet::new([1, 2, 3]);
    net.bootstrap_group(G1, &[1, 2, 3], cfg(SuspicionMode::accrual()));
    for i in 0u32..20 {
        net.multicast(1 + (i % 3), G1, b"m");
        net.advance(OMEGA + Span::from_micros(1));
        for p in [1, 2, 3] {
            net.proc(p)
                .check_invariants()
                .expect("engine invariants must hold under accrual");
        }
    }
}
