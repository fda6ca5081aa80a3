use newtop_harness::{Command, MessageId, SimCluster, SimInput};
use newtop_sim::{LatencyModel, NetConfig};
use newtop_types::{GroupConfig, GroupId, Instant, OrderMode, ProcessId, Span};
fn cfg() -> GroupConfig {
    GroupConfig::new(OrderMode::Symmetric)
        .with_omega(Span::from_millis(5))
        .with_big_omega(Span::from_millis(60))
}
fn main() {
    let g1 = GroupId(1);
    let g2 = GroupId(2);
    let net = NetConfig::new(11).with_latency(LatencyModel::Uniform {
        lo: Span::from_micros(300),
        hi: Span::from_millis(2),
    });
    let mut cluster = SimCluster::new(3, net);
    cluster.bootstrap_group(g1, &[1, 2], cfg());
    cluster.schedule_send(Instant::from_micros(5_000), 1, g1, MessageId(1));
    let initiate = Command::Initiate(g2, [1, 2, 3].map(ProcessId).into(), cfg());
    cluster.schedule(Instant::from_micros(10_000), SimInput::Command(3, initiate));
    cluster.schedule_send(Instant::from_micros(40_000), 1, g2, MessageId(2));
    cluster.schedule_send(Instant::from_micros(45_000), 1, g2, MessageId(3));
    cluster.schedule_send(Instant::from_micros(50_000), 2, g1, MessageId(4));
    cluster.schedule(
        Instant::from_micros(80_000),
        SimInput::Command(2, Command::Depart(g1)),
    );
    cluster.schedule(
        Instant::from_micros(85_000),
        SimInput::Command(2, Command::Depart(g2)),
    );
    cluster.schedule_send(Instant::from_micros(200_000), 1, g2, MessageId(5));
    cluster.run_for(Span::from_millis(1_000));
    let h = cluster.history();
    for p in 1..=3u32 {
        println!("P{p}: groups={:?}", cluster.proc(p).group_ids());
        for g in [g1, g2] {
            if cluster.proc(p).is_member(g) {
                println!(
                    "  {g:?}: view={} d={:?} buffered={} suspicions={:?}",
                    cluster.proc(p).view(g).unwrap(),
                    cluster.proc(p).d_of(g),
                    cluster.proc(p).buffered(g),
                    cluster.proc(p).suspicions_of(g)
                );
            }
        }
        println!(
            "  di={:?} delivered={:?}",
            cluster.proc(p).di(),
            h.delivered_mids_all(ProcessId(p))
        );
    }
}
