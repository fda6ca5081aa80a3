//! Host-level regression and stress coverage for the sharded runtime:
//! the `bootstrap_group` all-or-nothing guarantee, clean shutdown under
//! active multicast load (`Die` racing in-flight mesh frames), and
//! behavioural parity across shard counts.

use bytes::Bytes;
use newtop_core::GroupError;
use newtop_runtime::{Cluster, ClusterConfig};
use newtop_types::{GroupConfig, GroupId, OrderMode, ProcessId, SendError, Span};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn p(i: u32) -> ProcessId {
    ProcessId(i)
}

fn fast_cfg() -> GroupConfig {
    GroupConfig::new(OrderMode::Symmetric)
        .with_omega(Span::from_millis(5))
        .with_big_omega(Span::from_millis(200))
}

/// Regression (seed bug): `bootstrap_group` with an unknown member used to
/// return mid-iteration, leaving every *earlier* member bootstrapped. The
/// install must be all-or-nothing.
#[test]
fn bootstrap_with_unknown_member_installs_nothing() {
    let mut cluster = Cluster::new();
    for i in 1..=3 {
        cluster.add_process(p(i));
    }
    let g = GroupId(1);
    // p(9) was never added; p(1) and p(2) sort before it, so the seed host
    // would have installed the group at both before erroring out.
    let err = cluster
        .bootstrap_group(g, [p(1), p(2), p(9)], fast_cfg())
        .expect_err("unknown member must fail the bootstrap");
    assert!(matches!(err, GroupError::NotInMemberList { group } if group == g));
    // If nothing was installed, re-bootstrapping the corrected set works.
    // With the partial install, p(1)/p(2) would now report AlreadyExists.
    cluster
        .bootstrap_group(g, [p(1), p(2), p(3)], fast_cfg())
        .expect("no member may retain a partial install");
    // And the group actually functions end to end.
    let cluster = cluster.start();
    cluster
        .node(p(1))
        .unwrap()
        .multicast(g, Bytes::from_static(b"whole"))
        .unwrap();
    let d = cluster
        .node(p(3))
        .unwrap()
        .await_delivery(Duration::from_secs(10))
        .expect("delivery");
    assert_eq!(&d.payload[..], b"whole");
    cluster.shutdown();
}

/// An invalid config must also be rejected before any member is touched.
#[test]
fn bootstrap_with_invalid_config_installs_nothing() {
    let mut cluster = Cluster::new();
    for i in 1..=2 {
        cluster.add_process(p(i));
    }
    let g = GroupId(4);
    let inverted = GroupConfig::new(OrderMode::Symmetric)
        .with_omega(Span::from_millis(100))
        .with_big_omega(Span::from_millis(50)); // Ω < ω is invalid
    assert!(matches!(
        cluster.bootstrap_group(g, [p(1), p(2)], inverted),
        Err(GroupError::Config(_))
    ));
    cluster
        .bootstrap_group(g, [p(1), p(2)], fast_cfg())
        .expect("no partial install after config rejection");
}

/// Bootstrapping the same group twice fails without disturbing the first
/// install.
#[test]
fn bootstrap_twice_reports_already_exists() {
    let mut cluster = Cluster::new();
    for i in 1..=2 {
        cluster.add_process(p(i));
    }
    let g = GroupId(2);
    cluster
        .bootstrap_group(g, [p(1), p(2)], fast_cfg())
        .unwrap();
    assert!(matches!(
        cluster.bootstrap_group(g, [p(1), p(2)], fast_cfg()),
        Err(GroupError::AlreadyExists { .. })
    ));
}

/// Shutdown race (seed hazard): `Command::Die` arriving while mesh frames
/// are still in flight. Application threads hammer multicasts from every
/// node while the cluster is torn down node by node and then shut down;
/// nothing may panic, and post-shutdown sends must fail cleanly.
#[test]
fn shutdown_under_active_multicast_load() {
    const NODES: u32 = 8;
    // Cross-shard frames in flight during the teardown.
    let mut cluster = Cluster::with_config(ClusterConfig::new().shards(4));
    for i in 1..=NODES {
        cluster.add_process(p(i));
    }
    let g = GroupId(1);
    cluster
        .bootstrap_group(g, (1..=NODES).map(p), fast_cfg())
        .unwrap();
    let cluster = cluster.start();

    let stop = Arc::new(AtomicBool::new(false));
    let mut senders = Vec::new();
    for i in 1..=NODES {
        let handle = cluster.node(p(i)).unwrap().clone();
        let stop = Arc::clone(&stop);
        senders.push(std::thread::spawn(move || {
            let mut sent = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Once the node dies mid-run the send must return an
                // error, not panic or wedge.
                match handle.multicast(g, Bytes::from_static(b"load")) {
                    Ok(()) => sent += 1,
                    // Backpressure is transient: back off and retry.
                    Err(SendError::Overloaded { .. }) => std::thread::yield_now(),
                    Err(
                        SendError::NotMember { .. }
                        | SendError::Departed { .. }
                        | SendError::PayloadTooLarge { .. },
                    ) => break,
                }
            }
            sent
        }));
    }

    // Let traffic build up, then kill half the nodes under load, then let
    // the survivors keep multicasting through the membership churn.
    std::thread::sleep(Duration::from_millis(150));
    for i in 1..=NODES / 2 {
        cluster.kill(p(i));
    }
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    let total_sent: u64 = senders
        .into_iter()
        .map(|t| t.join().expect("sender thread must not panic"))
        .sum();
    assert!(total_sent > 0, "load generator never got a send through");
    cluster.shutdown(); // joins every shard; hangs (and times out) if Die is mishandled
}

/// Kill every node while frames are in flight, then shut down: shards must
/// drain or drop without panicking senders, and handles must observe
/// disconnection rather than hanging.
#[test]
fn kill_all_under_load_then_shutdown() {
    const NODES: u32 = 6;
    let mut cluster = Cluster::with_config(ClusterConfig::new().shards(3));
    for i in 1..=NODES {
        cluster.add_process(p(i));
    }
    let g = GroupId(1);
    cluster
        .bootstrap_group(g, (1..=NODES).map(p), fast_cfg())
        .unwrap();
    let cluster = cluster.start();
    for i in 1..=NODES {
        let _ = cluster
            .node(p(i))
            .unwrap()
            .multicast(g, Bytes::from_static(b"flood"));
    }
    for i in 1..=NODES {
        cluster.kill(p(i));
    }
    // All engines are dead: already-queued outputs stay readable (drain
    // semantics), then the channel reports disconnection instead of
    // blocking forever.
    let mut drained = 0u32;
    while cluster
        .node(p(1))
        .unwrap()
        .await_delivery(Duration::from_secs(5))
        .is_some()
    {
        drained += 1;
        assert!(drained < 10_000, "dead node keeps producing deliveries");
    }
    assert!(matches!(
        cluster
            .node(p(2))
            .unwrap()
            .multicast(g, Bytes::from_static(b"late")),
        Err(SendError::NotMember { .. })
    ));
    cluster.shutdown();
}

/// The same workload delivers the same messages whatever the shard count —
/// sharding is a scheduling choice, not a semantic one.
#[test]
fn delivery_agrees_across_shard_counts() {
    let run = |shards: usize| -> Vec<String> {
        let mut cluster = Cluster::with_config(ClusterConfig::new().shards(shards));
        for i in 1..=4 {
            cluster.add_process(p(i));
        }
        let g = GroupId(1);
        cluster
            .bootstrap_group(g, [p(1), p(2), p(3), p(4)], fast_cfg())
            .unwrap();
        let cluster = cluster.start();
        for k in 0..8 {
            let sender = p(1 + (k % 4));
            cluster
                .node(sender)
                .unwrap()
                .multicast(g, Bytes::from(format!("m{k}")))
                .unwrap();
        }
        let got: Vec<String> = (0..8)
            .map(|_| {
                let d = cluster
                    .node(p(2))
                    .unwrap()
                    .await_delivery(Duration::from_secs(10))
                    .expect("delivery");
                String::from_utf8_lossy(&d.payload).into_owned()
            })
            .collect();
        cluster.shutdown();
        got
    };
    let mut one = run(1);
    let mut four = run(4);
    // Total order may differ between runs (different timing), but the
    // delivered *set* is identical and complete.
    one.sort();
    four.sort();
    assert_eq!(one, four);
    assert_eq!(one.len(), 8);
}
