//! The property-test fleet: randomized workloads, overlapping-group
//! topologies and fault schedules, each full run validated against the
//! paper's properties (MD1, MD4/MD4', MD5/MD5', VC1, VC3, quiescent
//! liveness) by the history checker.
//!
//! Failures reproduce exactly from the printed seed — the simulator is
//! fully deterministic.

use newtop_harness::chaos::ChaosScenario;
use newtop_harness::checker::{check_all, CheckOptions};
use newtop_harness::{Command, MessageId, SimCluster, SimInput};
use newtop_sim::{LatencyModel, NetConfig};
use newtop_types::{GroupConfig, GroupId, Instant, OrderMode, ProcessId, Span};
use proptest::prelude::*;

fn opts_no_liveness() -> CheckOptions {
    CheckOptions {
        liveness: false,
        ..CheckOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case is a full multi-process simulation
        .. ProptestConfig::default()
    })]

    /// Fault-free runs over random overlapping topologies (the classic
    /// family with no fault budget: overlapping groups, mixed ordering
    /// modes, quiet windows past ω) satisfy every property including
    /// liveness.
    #[test]
    fn random_fault_free_runs_hold_all_properties(
        seed in 0u64..100_000,
        max_n in 3u32..7,
        max_groups in 1u32..4,
        max_sends in 8u32..30,
    ) {
        let plan = ChaosScenario {
            max_n,
            max_groups,
            max_sends,
            max_faults: 0,
            ..ChaosScenario::new(seed)
        }
        .plan();
        prop_assert!(plan.faults.is_empty());
        let v = plan.run_and_check(&plan.check_options());
        prop_assert!(plan.check_options().liveness);
        prop_assert!(v.is_empty(), "seed {}: {:?}", seed, v);
    }

    /// Churn-family runs — repeated crashes and departures, up to all but
    /// two processes — still satisfy every property (liveness is judged
    /// against final views, which exclude the crashed processes).
    #[test]
    fn random_crash_runs_hold_all_properties(seed in 0u64..100_000) {
        let plan = ChaosScenario::churn(seed).plan();
        let v = plan.run_and_check(&plan.check_options());
        prop_assert!(v.is_empty(), "churn seed {}: {:?}", seed, v);
    }

    /// A permanent random half/half partition never breaks safety (order,
    /// causality, views); liveness is per-side and not asserted globally.
    #[test]
    fn random_partition_runs_hold_safety(
        seed in 0u64..10_000,
        n in 4u32..8,
        cut_ms in 20u64..120,
    ) {
        let net = NetConfig::new(seed).with_latency(LatencyModel::Uniform {
            lo: Span::from_micros(100),
            hi: Span::from_millis(3),
        });
        let mut cluster = SimCluster::new(n, net);
        let cfg = GroupConfig::new(OrderMode::Symmetric)
            .with_omega(Span::from_millis(5))
            .with_big_omega(Span::from_millis(60));
        cluster.bootstrap_group(GroupId(1), &(1..=n).collect::<Vec<_>>(), cfg);
        for k in 0..15u64 {
            cluster.schedule_send(
                Instant::from_micros(2_000 + k * 4_000),
                (k % u64::from(n)) as u32 + 1,
                GroupId(1),
                MessageId(k),
            );
        }
        let half: Vec<u32> = (1..=n / 2).collect();
        let rest: Vec<u32> = (n / 2 + 1..=n).collect();
        cluster.schedule_partition(Instant::from_micros(cut_ms * 1_000), &[&half, &rest]);
        cluster.run_for(Span::from_millis(1_500));
        let h = cluster.history();
        let v = check_all(&h, &opts_no_liveness());
        prop_assert!(v.is_empty(), "seed {seed} cut {cut_ms}ms: {v:?}");
        // Final views are disjoint across the cut.
        let va = cluster.proc(1).view(GroupId(1)).expect("member").clone();
        let vb = cluster.proc(n).view(GroupId(1)).expect("member").clone();
        prop_assert!(
            va.members().intersection(vb.members()).next().is_none(),
            "seed {seed}: views still intersect: {va} vs {vb}"
        );
    }

    /// Departures at random instants preserve all properties.
    #[test]
    fn random_departures_hold_all_properties(
        seed in 0u64..10_000,
        n in 3u32..7,
        depart_ms in 5u64..60,
    ) {
        let net = NetConfig::new(seed).with_latency(LatencyModel::Uniform {
            lo: Span::from_micros(100),
            hi: Span::from_millis(2),
        });
        let mut cluster = SimCluster::new(n, net);
        let cfg = GroupConfig::new(OrderMode::Symmetric)
            .with_omega(Span::from_millis(5))
            .with_big_omega(Span::from_millis(60));
        cluster.bootstrap_group(GroupId(1), &(1..=n).collect::<Vec<_>>(), cfg);
        for k in 0..12u64 {
            cluster.schedule_send(
                Instant::from_micros(1_000 + k * 5_000),
                (k % u64::from(n)) as u32 + 1,
                GroupId(1),
                MessageId(k),
            );
        }
        let depart = SimInput::Command(n, Command::Depart(GroupId(1)));
        cluster.schedule(Instant::from_micros(depart_ms * 1_000), depart);
        cluster.run_for(Span::from_millis(1_200));
        let h = cluster.history();
        let v = check_all(&h, &CheckOptions::default());
        prop_assert!(v.is_empty(), "seed {seed} depart {depart_ms}ms: {v:?}");
    }

    /// Asymmetric groups with a random sequencer crash: fail-over preserves
    /// order and liveness among survivors.
    #[test]
    fn sequencer_crash_failover_holds_properties(
        seed in 0u64..10_000,
        n in 3u32..6,
        crash_ms in 10u64..80,
    ) {
        let net = NetConfig::new(seed).with_latency(LatencyModel::Uniform {
            lo: Span::from_micros(200),
            hi: Span::from_millis(2),
        });
        let mut cluster = SimCluster::new(n, net);
        let cfg = GroupConfig::new(OrderMode::Asymmetric)
            .with_omega(Span::from_millis(5))
            .with_big_omega(Span::from_millis(60));
        cluster.bootstrap_group(GroupId(1), &(1..=n).collect::<Vec<_>>(), cfg);
        for k in 0..12u64 {
            // Senders exclude P1 (the initial sequencer, which crashes), so
            // every tagged message has a surviving originator.
            cluster.schedule_send(
                Instant::from_micros(1_000 + k * 8_000),
                (k % u64::from(n - 1)) as u32 + 2,
                GroupId(1),
                MessageId(k),
            );
        }
        cluster.schedule_crash(Instant::from_micros(crash_ms * 1_000), 1);
        cluster.run_for(Span::from_millis(1_500));
        let h = cluster.history();
        let v = check_all(&h, &CheckOptions::default());
        prop_assert!(v.is_empty(), "seed {seed} crash {crash_ms}ms: {v:?}");
        // Survivors agree on a view without P1 and with a new sequencer.
        let view = cluster.proc(2).view(GroupId(1)).expect("member").clone();
        prop_assert!(!view.contains(ProcessId(1)));
        prop_assert_eq!(view.sequencer(), Some(ProcessId(2)));
    }
}
