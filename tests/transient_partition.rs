//! Transient partitions under *delay* semantics: the transport parks
//! crossing messages and releases them on heal — the paper's
//! sequenced-transmission assumption survives, so a partition shorter than
//! the suspicion timeout is pure delay and nobody gets excluded.

use newtop::harness::{check_all, CheckOptions, MessageId, SimCluster};
use newtop::sim::{LatencyModel, NetConfig, NetOp, PartitionMode, PartitionSpec, Sim, SimNode};
use newtop::types::{GroupConfig, GroupId, Instant, OrderMode, ProcessId, Span};

const G: GroupId = GroupId(1);

#[test]
fn short_delay_partition_is_invisible_to_membership() {
    // SimCluster uses loss-mode partitions; for delay semantics we drive
    // the sim directly through its public scheduling API. Here we verify
    // the equivalent at the protocol level: a partition shorter than Ω
    // under *delay* transport loses nothing and changes no views.
    let net = NetConfig::new(5).with_latency(LatencyModel::Fixed(Span::from_millis(1)));
    let mut cluster = SimCluster::new(3, net);
    let cfg = GroupConfig::new(OrderMode::Symmetric)
        .with_omega(Span::from_millis(5))
        .with_big_omega(Span::from_millis(200));
    cluster.bootstrap_group(G, &[1, 2, 3], cfg);
    cluster.schedule_send(Instant::from_micros(10_000), 1, G, MessageId(1));
    // Loss-mode would drop this mid-partition send; with a partition
    // shorter than Ω and no sends while cut, nothing is lost either way.
    cluster.schedule_partition(Instant::from_micros(20_000), &[&[1], &[2, 3]]);
    cluster.schedule(Instant::from_micros(60_000), NetOp::Heal);
    cluster.schedule_send(Instant::from_micros(80_000), 3, G, MessageId(2));
    cluster.run_for(Span::from_millis(800));
    let h = cluster.history();
    let v = check_all(&h, &CheckOptions::default());
    assert!(v.is_empty(), "violations: {v:?}");
    for p in 1..=3u32 {
        assert_eq!(
            h.delivered_mids(ProcessId(p), G),
            vec![MessageId(1), MessageId(2)],
            "at P{p}"
        );
        assert!(
            h.views_of(ProcessId(p), G).len() == 1,
            "no view changes expected at P{p}"
        );
    }
}

/// Raw simulator check that delay-mode partitions preserve FIFO without
/// loss — the transport property the protocol's assumptions rest on.
#[test]
fn delay_partition_preserves_fifo_without_loss() {
    struct Collector {
        got: Vec<u64>,
    }
    impl SimNode for Collector {
        type Msg = u64;
        fn on_message(
            &mut self,
            _now: Instant,
            _from: ProcessId,
            msg: u64,
            _out: &mut newtop::sim::Outbox<u64>,
        ) {
            self.got.push(msg);
        }
    }
    let mut sim: Sim<Collector> = Sim::new(NetConfig::new(9));
    sim.add_node(ProcessId(1), Collector { got: vec![] });
    sim.add_node(ProcessId(2), Collector { got: vec![] });
    sim.schedule(
        Instant::from_micros(5),
        NetOp::Partition(PartitionSpec::split([ProcessId(1)]), PartitionMode::Delay),
    );
    for k in 0..10u64 {
        sim.schedule_call(
            Instant::from_micros(10 + k),
            ProcessId(1),
            move |_n: &mut Collector, out| out.send(ProcessId(2), k),
        );
    }
    sim.schedule(Instant::from_micros(50_000), NetOp::Heal);
    sim.run_until(Instant::from_micros(200_000));
    assert_eq!(
        sim.node(ProcessId(2)).unwrap().got,
        (0..10).collect::<Vec<_>>(),
        "parked messages must arrive complete and in order after healing"
    );
}
