//! Cross-crate integration tests reproducing the paper's figures and worked
//! examples end-to-end through the public facade (`newtop`), on the
//! deterministic simulator.
//!
//! (The `newtop-core` test suite drives the same scenarios through
//! `harness::testnet::TestNet`, the same simulator at zero latency with
//! test-driven timers; these run them under modelled network latency and
//! validate the full histories with the property checker.)

use newtop::harness::{
    check_all, CheckOptions, Command, HistoryEvent, MessageId, SimCluster, SimInput,
};
use newtop::sim::{LatencyModel, NetConfig};
use newtop::types::{GroupConfig, GroupId, Instant, OrderMode, ProcessId, Span};

fn net(seed: u64) -> NetConfig {
    NetConfig::new(seed).with_latency(LatencyModel::Uniform {
        lo: Span::from_micros(300),
        hi: Span::from_millis(2),
    })
}

fn cfg() -> GroupConfig {
    GroupConfig::new(OrderMode::Symmetric)
        .with_omega(Span::from_millis(5))
        .with_big_omega(Span::from_millis(60))
}

/// Figure 1 — online server migration via an overlapping group, driven
/// through dynamic formation and departures.
#[test]
fn fig1_server_migration_over_simulated_network() {
    let g1 = GroupId(1);
    let g2 = GroupId(2);
    let mut cluster = SimCluster::new(3, net(11));
    cluster.bootstrap_group(g1, &[1, 2], cfg());
    // Service traffic in g1 throughout.
    cluster.schedule_send(Instant::from_micros(5_000), 1, g1, MessageId(1));
    // P3 forms g2 = {1,2,3}; state transfer happens inside it.
    let initiate = Command::Initiate(g2, [1, 2, 3].map(ProcessId).into(), cfg());
    cluster.schedule(Instant::from_micros(10_000), SimInput::Command(3, initiate));
    cluster.schedule_send(Instant::from_micros(40_000), 1, g2, MessageId(2));
    cluster.schedule_send(Instant::from_micros(45_000), 1, g2, MessageId(3));
    cluster.schedule_send(Instant::from_micros(50_000), 2, g1, MessageId(4));
    // P2 departs both groups.
    cluster.schedule(
        Instant::from_micros(80_000),
        SimInput::Command(2, Command::Depart(g1)),
    );
    cluster.schedule(
        Instant::from_micros(85_000),
        SimInput::Command(2, Command::Depart(g2)),
    );
    // Post-migration service in g2.
    cluster.schedule_send(Instant::from_micros(200_000), 1, g2, MessageId(5));
    cluster.run_for(Span::from_millis(1_000));
    let h = cluster.history();
    let v = check_all(&h, &CheckOptions::default());
    assert!(v.is_empty(), "violations: {v:?}");
    // P3 received the ordered state transfer and the post-migration update.
    let p3 = ProcessId(3);
    assert_eq!(
        h.delivered_mids(p3, g2),
        vec![MessageId(2), MessageId(3), MessageId(5)]
    );
    // The surviving g2 view is {P1, P3} at both survivors.
    for p in [1, 3] {
        let view = cluster.proc(p).view(g2).expect("member").clone();
        let members: Vec<u32> = view.iter().map(|q| q.0).collect();
        assert_eq!(members, vec![1, 3], "at P{p}");
    }
    // P2 is gone from both groups and keeps no view (§3).
    assert!(!cluster.proc(2).is_member(g1));
    assert!(!cluster.proc(2).is_member(g2));
}

/// Figure 2 / Example 2 — the causal chain with an unrecoverable origin:
/// the dependent message is delivered only after the exclusion installs.
///
/// Cast: P1 = Pk (origin), P2 = Pq (the relay that *does* receive m1),
/// P3 = Ps, P4 = Pi (the common destination that misses m1). The first
/// partition is timed between m1's two arrivals — the crash-severed
/// multicast of the paper — and the sides never silently reunite, which is
/// the paper's transport model (a healed loss-mode gap would violate the
/// sequenced-transmission assumption; see DESIGN.md).
#[test]
fn fig2_causal_chain_exclusion_precedes_dependent_delivery() {
    let g1 = GroupId(1);
    let g2 = GroupId(2);
    let g3 = GroupId(3);
    let mut cluster = SimCluster::new(
        4,
        NetConfig::new(13).with_latency(LatencyModel::Fixed(Span::from_millis(1))),
    );
    cluster.bootstrap_group(g1, &[1, 2, 4], cfg());
    cluster.bootstrap_group(g2, &[2, 3], cfg());
    cluster.bootstrap_group(g3, &[3, 4], cfg());
    // m1's copies depart 5 µs apart (send overhead); the cut lands between
    // the arrivals: P2 receives m1, P4 does not.
    cluster.schedule_send(Instant::from_micros(30_000), 1, g1, MessageId(1));
    cluster.schedule_partition(Instant::from_micros(31_007), &[&[1], &[2, 3, 4]]);
    // P2 delivers m1, then relays the chain: m2 in g2, m3 in g3.
    cluster.schedule_send(Instant::from_micros(45_000), 2, g2, MessageId(2));
    cluster.schedule_send(Instant::from_micros(60_000), 3, g3, MessageId(3));
    // m1's only surviving holder (P2) is then cut off with P1 for good.
    cluster.schedule_partition(Instant::from_micros(62_000), &[&[1, 2], &[3, 4]]);
    cluster.run_for(Span::from_millis(1_000));
    let h = cluster.history();
    let opts = CheckOptions {
        liveness: false, // the partition makes global liveness unattainable
        ..CheckOptions::default()
    };
    let v = check_all(&h, &opts);
    assert!(v.is_empty(), "violations: {v:?}");
    // The chain was genuinely causal: P2 delivered m1 before sending m2.
    assert_eq!(h.delivered_mids(ProcessId(2), g1), vec![MessageId(1)]);
    assert_eq!(h.delivered_mids(ProcessId(3), g2), vec![MessageId(2)]);
    let pi = ProcessId(4);
    let evs = h.events.get(&pi).expect("log");
    let view_pos = evs
        .iter()
        .position(|e| {
            matches!(e, HistoryEvent::ViewChange { group, view, .. }
            if *group == g1 && !view.contains(ProcessId(1)))
        })
        .expect("Pi excludes Pk from g1");
    let m3_pos = evs
        .iter()
        .position(
            |e| matches!(e, HistoryEvent::Delivered { mid, .. } if *mid == Some(MessageId(3))),
        )
        .expect("m3 delivered, not orphaned");
    assert!(view_pos < m3_pos, "MD5' ordering");
    assert!(h.delivered_mids(pi, g1).is_empty(), "m1 lost for Pi");
}

/// Example 1 — the step-(viii) discard rule under modelled latency: the
/// crash-severed cause and its effect are erased together.
#[test]
fn example1_discard_rule_under_latency() {
    let g = GroupId(1);
    let mut cluster = SimCluster::new(
        4,
        NetConfig::new(17).with_latency(LatencyModel::Fixed(Span::from_millis(1))),
    );
    cluster.bootstrap_group(g, &[1, 2, 3, 4], cfg());
    // P4 multicasts m and crashes 6 µs later: with the 5 µs send overhead,
    // only the first destination's copy departs. Destinations of a
    // multicast are visited in ascending id order, so P1 receives m while
    // P2 and P3 do not — then P1 (the paper's Ps) relays the effect m'.
    cluster.schedule_send(Instant::from_micros(50_000), 4, g, MessageId(1));
    cluster.schedule_crash(Instant::from_micros(50_006), 4);
    cluster.schedule_send(Instant::from_micros(80_000), 1, g, MessageId(2));
    cluster.schedule_crash(Instant::from_micros(81_500), 1);
    cluster.run_for(Span::from_millis(1_500));
    let h = cluster.history();
    let opts = CheckOptions::default();
    let v = check_all(&h, &opts);
    assert!(v.is_empty(), "violations: {v:?}");
    // Survivors: neither m nor m' may surface (m unrecoverable, m' → m).
    for p in [2, 3] {
        assert!(
            h.delivered_mids(ProcessId(p), g).is_empty(),
            "P{p} must not deliver an orphaned effect"
        );
        let view = cluster.proc(p).view(g).expect("member").clone();
        let members: Vec<u32> = view.iter().map(|q| q.0).collect();
        assert_eq!(members, vec![2, 3], "at P{p}");
    }
}

/// Example 3 — partition with views stabilising into non-intersecting
/// subgroups whose signed forms never intersect.
#[test]
fn example3_partition_signed_views() {
    let g = GroupId(1);
    let mut cluster = SimCluster::new(
        5,
        NetConfig::new(19).with_latency(LatencyModel::Fixed(Span::from_millis(1))),
    );
    cluster.bootstrap_group(g, &[1, 2, 3, 4, 5], cfg());
    cluster.schedule_crash(Instant::from_micros(50_000), 5);
    cluster.schedule_partition(Instant::from_micros(130_000), &[&[1, 2], &[3, 4]]);
    cluster.run_for(Span::from_millis(1_500));
    let h = cluster.history();
    let opts = CheckOptions {
        liveness: false,
        ..CheckOptions::default()
    };
    let v = check_all(&h, &opts);
    assert!(v.is_empty(), "violations: {v:?}");
    let view = |p: u32| cluster.proc(p).view(g).expect("member").clone();
    assert_eq!(view(1), view(2));
    assert_eq!(view(3), view(4));
    assert!(view(1)
        .members()
        .intersection(view(3).members())
        .next()
        .is_none());
    let s1 = cluster.proc(1).signed_view(g).expect("member");
    let s3 = cluster.proc(3).signed_view(g).expect("member");
    assert!(!s1.intersects(&s3), "§6 signed views never intersect");
}

/// MD4' stress across three overlapping groups under random latency.
#[test]
fn md4_prime_across_three_overlapping_groups() {
    let mut cluster = SimCluster::new(5, net(23));
    cluster.bootstrap_group(GroupId(1), &[1, 2, 3], cfg());
    cluster.bootstrap_group(GroupId(2), &[2, 3, 4], cfg());
    cluster.bootstrap_group(GroupId(3), &[3, 4, 5], cfg());
    let mut k = 0u64;
    for round in 0..12u64 {
        for (g, sender) in [(1u32, 1u32), (2, 4), (3, 5), (1, 2), (2, 3), (3, 4)] {
            cluster.schedule_send(
                Instant::from_micros(10_000 + round * 6_000 + u64::from(g) * 700),
                sender,
                GroupId(g),
                MessageId(k),
            );
            k += 1;
        }
    }
    cluster.run_for(Span::from_millis(1_500));
    let h = cluster.history();
    let v = check_all(&h, &CheckOptions::default());
    assert!(v.is_empty(), "violations: {v:?}");
    // P3 sits in all three groups: it must have delivered everything.
    assert_eq!(h.delivered_mids_all(ProcessId(3)).len(), k as usize);
}

/// Departure mid-traffic keeps every property intact.
#[test]
fn departure_under_load() {
    let g = GroupId(1);
    let mut cluster = SimCluster::new(4, net(29));
    cluster.bootstrap_group(g, &[1, 2, 3, 4], cfg());
    for k in 0..20u64 {
        cluster.schedule_send(
            Instant::from_micros(5_000 + k * 3_000),
            (k % 4) as u32 + 1,
            g,
            MessageId(k),
        );
    }
    cluster.schedule(
        Instant::from_micros(33_000),
        SimInput::Command(4, Command::Depart(g)),
    );
    cluster.run_for(Span::from_millis(1_200));
    let h = cluster.history();
    let v = check_all(&h, &CheckOptions::default());
    assert!(v.is_empty(), "violations: {v:?}");
    let view = cluster.proc(1).view(g).expect("member").clone();
    assert!(!view.contains(ProcessId(4)));
    // Survivors delivered identical sequences.
    assert_eq!(
        h.delivered_mids(ProcessId(1), g),
        h.delivered_mids(ProcessId(2), g)
    );
}
