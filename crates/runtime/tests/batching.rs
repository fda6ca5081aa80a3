//! Integration coverage for the batched wire path: delivery order is the
//! send order whatever the egress coalesces, and the ω-null control
//! traffic of co-located groups really does coalesce into shared frames.

use bytes::Bytes;
use newtop_runtime::{Cluster, ClusterConfig};
use newtop_types::{GroupConfig, GroupId, OrderMode, ProcessId, Span};
use std::time::Duration;

fn p(i: u32) -> ProcessId {
    ProcessId(i)
}

fn cfg(omega_ms: u64) -> GroupConfig {
    GroupConfig::new(OrderMode::Symmetric)
        .with_omega(Span::from_millis(omega_ms))
        .with_big_omega(Span::from_millis(500))
}

/// One sender, one group: the delivered sequence is the send sequence at
/// every member, however the egress coalesced the traffic — aggregation
/// is a wire-level optimisation, not a semantic change. The receivers
/// never multicast, so delivery waits on their ω nulls: frames back to
/// the sender carry nothing else and must be counted as null frames.
#[test]
fn batched_delivery_matches_send_order() {
    let mut cluster = Cluster::new();
    for i in 1..=4 {
        cluster.add_process(p(i));
    }
    let g = GroupId(1);
    cluster
        .bootstrap_group(g, [p(1), p(2), p(3), p(4)], cfg(5))
        .unwrap();
    let cluster = cluster.start();
    for k in 0..20 {
        cluster
            .node(p(1))
            .unwrap()
            .multicast(g, Bytes::from(format!("m{k}")))
            .unwrap();
    }
    let expect: Vec<String> = (0..20).map(|k| format!("m{k}")).collect();
    for i in 2..=4 {
        let seq: Vec<String> = (0..20)
            .map(|_| {
                let d = cluster
                    .node(p(i))
                    .unwrap()
                    .await_delivery(Duration::from_secs(20))
                    .expect("delivery");
                String::from_utf8_lossy(&d.payload).into_owned()
            })
            .collect();
        assert_eq!(seq, expect);
    }
    let stats = cluster.wire_stats();
    cluster.shutdown();
    assert!(stats.frames > 0);
    assert!(stats.envelopes >= stats.frames);
    assert_eq!(stats.occupancy.iter().sum::<u64>(), stats.frames);
    assert!(
        stats.null_frames > 0,
        "null-only frames must be counted as such"
    );
}

/// Two groups with the same two members and a fast ω: each tick of a
/// node emits one null per group, both bound for the same peer, and the
/// egress must ship them as **one** two-envelope null-only frame. This
/// pins the batching observables the PR claims: mean occupancy above 1
/// and counted null-only frames.
#[test]
fn co_located_group_nulls_coalesce() {
    let mut cluster = Cluster::with_config(ClusterConfig::new().shards(1));
    cluster.add_process(p(1));
    cluster.add_process(p(2));
    cluster
        .bootstrap_group(GroupId(1), [p(1), p(2)], cfg(1))
        .unwrap();
    cluster
        .bootstrap_group(GroupId(2), [p(1), p(2)], cfg(1))
        .unwrap();
    let cluster = cluster.start();
    std::thread::sleep(Duration::from_millis(300));
    let stats = cluster.wire_stats();
    cluster.shutdown();
    assert!(stats.frames > 0, "idle ω traffic must flow");
    assert!(
        stats.mean_occupancy() > 1.5,
        "both groups' nulls should share frames (mean occupancy {:.2})",
        stats.mean_occupancy()
    );
    assert!(
        stats.null_frames > 0,
        "null-only frames must be counted as such"
    );
    assert!(
        stats.occupancy[1] > 0,
        "two-envelope frames expected in the occupancy histogram"
    );
}
