//! Delay-mode partition heal: messages crossing the cut are parked by the
//! transport (modelling retransmission) and released, in order, at heal —
//! nobody need be excluded, every member converges on the same totally
//! ordered history, and the checker's full property set (including
//! quiescent liveness) holds.

use newtop_harness::checker::{check_all, CheckOptions};
use newtop_harness::{MessageId, SimCluster};
use newtop_sim::{LatencyModel, NetConfig, NetOp, PartitionMode, PartitionSpec};
use newtop_types::{GroupConfig, GroupId, Instant, OrderMode, ProcessId, Span};

fn run_delay_heal(mode: OrderMode, seed: u64) {
    let net = NetConfig::new(seed).with_latency(LatencyModel::Uniform {
        lo: Span::from_micros(100),
        hi: Span::from_millis(2),
    });
    let mut cluster = SimCluster::new(5, net);
    let cfg = GroupConfig::new(mode)
        .with_omega(Span::from_millis(5))
        .with_big_omega(Span::from_millis(60));
    cluster.bootstrap_group(GroupId(1), &[1, 2, 3, 4, 5], cfg);

    // Traffic before, during and after the partition window, from both
    // sides of the cut.
    for k in 0..12u64 {
        cluster.schedule_send(
            Instant::from_micros(2_000 + k * 4_000),
            (k % 5) as u32 + 1,
            GroupId(1),
            MessageId(k),
        );
    }
    // Cut {1,2} | {3,4,5} in delay mode at 10ms, heal at 30ms (< Ω: no
    // member may be excluded; the transport "retransmits" across the cut).
    let block = |ids: &[u32]| ids.iter().map(|i| ProcessId(*i)).collect();
    let cut = PartitionSpec::blocks(vec![block(&[1, 2]), block(&[3, 4, 5])]);
    let cut = NetOp::Partition(cut, PartitionMode::Delay);
    cluster.schedule(Instant::from_micros(10_000), cut);
    cluster.schedule(Instant::from_micros(30_000), NetOp::Heal);
    cluster.run_for(Span::from_millis(1_000));

    // The cut actually parked traffic, and the heal released it: every
    // member delivered every tagged message.
    let stats = cluster.net_stats();
    assert!(stats.parked > 0, "cut never parked anything (seed {seed})");
    for p in 1..=5u32 {
        let mids = cluster.history().delivered_mids(ProcessId(p), GroupId(1));
        assert_eq!(
            mids.len(),
            12,
            "P{p} missed deliveries after heal (seed {seed}): {mids:?}"
        );
    }
    // No member was excluded: everyone still holds the full initial view.
    for p in 1..=5u32 {
        let view = cluster.proc(p).view(GroupId(1)).expect("still a member");
        assert_eq!(view.len(), 5, "P{p} shrank its view (seed {seed}): {view}");
    }
    // And the full checker — causal/total order, views, exclusion barrier,
    // quiescent liveness — holds on the recorded history.
    let violations = check_all(&cluster.history(), &CheckOptions::default());
    assert!(violations.is_empty(), "seed {seed}: {violations:?}");
}

#[test]
fn delay_partition_heal_releases_parked_messages_symmetric() {
    for seed in [1u64, 7, 23] {
        run_delay_heal(OrderMode::Symmetric, seed);
    }
}

#[test]
fn delay_partition_heal_releases_parked_messages_asymmetric() {
    for seed in [3u64, 11, 31] {
        run_delay_heal(OrderMode::Asymmetric, seed);
    }
}
