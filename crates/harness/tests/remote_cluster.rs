//! End-to-end tests of the real multi-process TCP stack, in-process:
//! several `serve` event loops on their own threads, a real
//! [`RemoteCluster`] client over loopback control connections, and the
//! chaos proxy interposed on the data plane.

use crossbeam::channel::unbounded;
use newtop_harness::proxy::{run_proxy, ProxyConfig, ProxyHandle};
use newtop_harness::remote::{members_of, serve, ClusterShape, RemoteCluster, ServeConfig};
use newtop_harness::{run_load, HostKind, LoadConfig};
use newtop_runtime::{ClusterConfig, Output};
use newtop_types::{GroupId, ProcessId, SendError, Span, SuspicionMode};
use std::collections::BTreeMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    // Hold all listeners while picking so the ports are distinct.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

/// `nodes` in `groups` with short nulls and a suspicion timeout no run
/// here reaches.
fn fast(nodes: u32, groups: u32) -> ClusterShape {
    let mut shape = ClusterShape {
        nodes,
        groups,
        ..ClusterShape::default()
    };
    shape.group.omega = Span::from_millis(5);
    shape.group.big_omega = Span::from_secs(30);
    shape
}

/// Drains every node's outputs until each group member has `expect`
/// deliveries of its group (or the deadline passes), returning the
/// per-node payload sequences.
fn collect_deliveries(
    remote: &RemoteCluster,
    groups: &[(GroupId, Vec<ProcessId>)],
    expect: usize,
    deadline: Duration,
) -> BTreeMap<ProcessId, Vec<Vec<u8>>> {
    let mut got: BTreeMap<ProcessId, Vec<Vec<u8>>> = BTreeMap::new();
    let rxs: Vec<(ProcessId, _)> = groups
        .iter()
        .flat_map(|(_, members)| members.iter().copied())
        .map(|m| (m, remote.outputs(m).expect("known node")))
        .collect();
    for &(m, _) in &rxs {
        got.insert(m, Vec::new());
    }
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        let mut all_done = true;
        for &(m, ref rx) in &rxs {
            while let Ok(out) = rx.try_recv() {
                if let Output::Delivery(d) = out {
                    got.get_mut(&m).expect("tracked").push(d.payload.to_vec());
                }
            }
            if got[&m].len() < expect {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    got
}

/// Three serve processes (as threads), two groups spanning all of them,
/// driven over the control plane: every member of a group sees every
/// group message, all members agree on the order, the wire moved real
/// frames, and shutdown tears all three down cleanly.
#[test]
fn three_peer_cluster_agrees_and_shuts_down() {
    let addrs = free_addrs(6);
    let (peers, ctrl) = (addrs[..3].to_vec(), addrs[3..].to_vec());
    let (nodes, groups) = (6u32, 2u32);
    let mut servers = Vec::new();
    for me in 0..3usize {
        let cfg = ServeConfig::new(fast(nodes, groups), peers.clone(), ctrl.clone(), me);
        servers.push(std::thread::spawn(move || serve(&cfg)));
    }
    let remote =
        RemoteCluster::connect(&ctrl, nodes, Duration::from_secs(15)).expect("client connects");
    let group_list: Vec<(GroupId, Vec<ProcessId>)> = (0..groups)
        .map(|g| (GroupId(g + 1), members_of(g, nodes, groups)))
        .collect();
    let per_group = 20usize;
    for (gid, members) in &group_list {
        for k in 0..per_group {
            let sender = members[k % members.len()];
            let payload = format!("g{}:{k:03}", gid.0).into_bytes();
            remote
                .multicast(sender, *gid, &payload)
                .expect("multicast accepted");
        }
    }
    let got = collect_deliveries(&remote, &group_list, per_group, Duration::from_secs(30));
    for (gid, members) in &group_list {
        let reference = &got[&members[0]];
        assert_eq!(
            reference.len(),
            per_group,
            "group {} member {} must deliver everything",
            gid.0,
            members[0].0
        );
        for m in &members[1..] {
            assert_eq!(
                &got[m], reference,
                "group {} members {} and {} disagree on delivery order",
                gid.0, members[0].0, m.0
            );
        }
    }
    let wire = remote.wire_stats().expect("stats answered");
    assert!(wire.frames > 0, "a real cluster ships frames");
    assert_eq!(wire.handshake_rejects, 0);
    assert!(remote.shards_used() >= 3, "each peer runs >= 1 shard");
    remote.shutdown_peers();
    for s in servers {
        s.join().expect("serve thread").expect("serve exits clean");
    }
}

/// Two peers whose data link runs through the chaos proxy with drops,
/// delay and reorder: every interference resolves through the
/// sever-and-resume path, so both members still deliver the complete
/// message sequence in the same order, and shutdown stays clean.
#[test]
fn chaos_proxy_drop_delay_roundtrip_stays_exact() {
    let addrs = free_addrs(5);
    let (data, ctrl) = (addrs[..2].to_vec(), addrs[2..4].to_vec());
    let proxy_listen = addrs[4];
    // Peer 0 dials peer 1 through the proxy; everything else is direct.
    let mut proxy_cfg = ProxyConfig::new(vec![(proxy_listen, data[1])]);
    proxy_cfg.seed = 42;
    proxy_cfg.drop_pct = 5;
    proxy_cfg.delay_ms = 2;
    proxy_cfg.reorder_pct = 5;
    let proxy = run_proxy(&proxy_cfg).expect("proxy binds");
    let (nodes, groups) = (2u32, 1u32);
    let mut servers = Vec::new();
    for me in 0..2usize {
        let peers_view = if me == 0 {
            vec![data[0], proxy_listen]
        } else {
            data.clone()
        };
        let cfg = ServeConfig::new(fast(nodes, groups), peers_view, ctrl.clone(), me);
        servers.push(std::thread::spawn(move || serve(&cfg)));
    }
    let remote =
        RemoteCluster::connect(&ctrl, nodes, Duration::from_secs(15)).expect("client connects");
    let gid = GroupId(1);
    let members = members_of(0, nodes, groups);
    let total = 30usize;
    for k in 0..total {
        let sender = members[k % members.len()];
        let payload = format!("m{k:03}").into_bytes();
        remote
            .multicast(sender, gid, &payload)
            .expect("multicast accepted");
    }
    let group_list = vec![(gid, members.clone())];
    let got = collect_deliveries(&remote, &group_list, total, Duration::from_secs(45));
    let reference = &got[&members[0]];
    assert_eq!(
        reference.len(),
        total,
        "chaos must not lose application messages (got {} of {total})",
        reference.len()
    );
    assert_eq!(
        &got[&members[1]], reference,
        "chaos must not break delivery-order agreement"
    );
    let wire = remote.wire_stats().expect("stats answered");
    assert!(wire.frames > 0);
    remote.shutdown_peers();
    for s in servers {
        s.join().expect("serve thread").expect("serve exits clean");
    }
    proxy.stop();
}

/// A two-peer cluster of four nodes in one group (nodes 1 and 2 on serve
/// 0, nodes 3 and 4 on serve 1) whose data links both run through one
/// proxy: each serve reaches the other only through it, so the proxy's
/// interference acts on the link in both directions.
struct ProxiedPair {
    ctrl: Vec<SocketAddr>,
    servers: Vec<JoinHandle<Result<(), String>>>,
    proxy: ProxyHandle,
}

impl ProxiedPair {
    /// Joins both serves, which must exit clean once told to shut down,
    /// then stops the proxy.
    fn join(self) {
        for s in self.servers {
            s.join().expect("serve thread").expect("serve exits clean");
        }
        self.proxy.stop();
    }
}

/// Starts a [`ProxiedPair`]; `proxy` and `tune` adjust the proxy's and
/// each serve's config.
fn proxied_pair(
    proxy: impl FnOnce(&mut ProxyConfig),
    tune: impl Fn(&mut ServeConfig),
) -> ProxiedPair {
    let addrs = free_addrs(6);
    let (data, ctrl, via) = (&addrs[..2], addrs[2..4].to_vec(), &addrs[4..]);
    let mut proxy_cfg = ProxyConfig::new(vec![(via[0], data[1]), (via[1], data[0])]);
    proxy(&mut proxy_cfg);
    let proxy = run_proxy(&proxy_cfg).expect("proxy binds");
    let views = [vec![data[0], via[0]], vec![via[1], data[1]]];
    let servers = views
        .into_iter()
        .enumerate()
        .map(|(me, view)| {
            let shape = ClusterShape {
                nodes: 4,
                ..ClusterShape::default()
            };
            let mut cfg = ServeConfig::new(shape, view, ctrl.clone(), me);
            tune(&mut cfg);
            std::thread::spawn(move || serve(&cfg))
        })
        .collect();
    ProxiedPair {
        ctrl,
        servers,
        proxy,
    }
}

/// Waits until `node` installs a view of `group` with exactly `size`
/// members and returns its member ids.
fn await_view_of_size(
    remote: &RemoteCluster,
    node: ProcessId,
    group: GroupId,
    size: usize,
    deadline: Instant,
) -> Vec<u32> {
    let rx = remote.outputs(node).expect("known node");
    loop {
        let left = deadline
            .checked_duration_since(Instant::now())
            .unwrap_or_else(|| panic!("node {} never installed a {size}-member view", node.0));
        match rx.recv_timeout(left) {
            Ok(Output::ViewChange { group: g, view, .. })
                if g == group && view.members().len() == size =>
            {
                return view.iter().map(|q| q.0).collect();
            }
            Ok(_) => {}
            Err(e) => panic!("node {}: output stream ended: {e:?}", node.0),
        }
    }
}

/// A proxy partition window longer than Ω cuts both data links of a
/// two-peer cluster, and each side excludes the other: the nodes of
/// serve 0 install the view {1, 2}, those of serve 1 the view {3, 4}.
#[test]
fn proxy_partition_splits_views_both_ways() {
    let pair = proxied_pair(
        |p| {
            p.partition_at = Some(Duration::from_secs(1));
            p.partition_for = Duration::from_secs(3);
        },
        |s| {
            s.shape.group.omega = Span::from_millis(5);
            s.shape.group.big_omega = Span::from_millis(500);
        },
    );
    let remote =
        RemoteCluster::connect(&pair.ctrl, 4, Duration::from_secs(15)).expect("client connects");
    let g = GroupId(1);
    let deadline = Instant::now() + Duration::from_secs(15);
    assert_eq!(
        await_view_of_size(&remote, ProcessId(1), g, 2, deadline),
        [1, 2]
    );
    assert_eq!(
        await_view_of_size(&remote, ProcessId(3), g, 2, deadline),
        [3, 4]
    );
    // The window cut working links: records crossed the proxy before it
    // opened (ω nulls flow from the start).
    assert!(pair.proxy.forwarded.load(Ordering::Relaxed) > 0);
    remote.shutdown_peers();
    pair.join();
}

/// A congested but healthy link is latency, not a crash: behind a
/// 200 KB/s proxy cap on both data links, a closed-loop run with the
/// accrual detector on delivers and installs no new view.
#[test]
fn capped_links_deliver_without_view_changes() {
    let pair = proxied_pair(
        |p| p.rate_kbps = Some(200),
        |s| s.shape.group.suspicion = SuspicionMode::accrual(),
    );
    let report = run_load(&LoadConfig {
        shape: ClusterShape {
            nodes: 4,
            ..ClusterShape::default()
        },
        secs: 1.0,
        window: 32,
        host: HostKind::Tcp,
        peers: pair.ctrl.clone(),
        stop_peers: true,
        ..LoadConfig::default()
    })
    .expect("capped run completes");
    assert!(report.delivered > 0, "congestion must not stall delivery");
    assert_eq!(
        report.view_changes, 0,
        "congestion must raise latency, not exclusions"
    );
    pair.join();
}

/// The control plane pipelines multicasts — every op of a read is
/// submitted to its shard before any verdict is awaited — yet each
/// reply slot still gets its own op's verdict. One burst mixes accepted
/// sends from nodes on different shards of both serves (whose verdicts
/// can race back out of order) with `NotMember` refusals, and a group
/// formation sits in the middle of it.
#[test]
fn pipelined_verdicts_keep_their_slots() {
    let addrs = free_addrs(4);
    let (peers, ctrl) = (addrs[..2].to_vec(), addrs[2..].to_vec());
    let (nodes, groups) = (8u32, 2u32);
    let mut servers = Vec::new();
    for me in 0..2usize {
        let mut cfg = ServeConfig::new(fast(nodes, groups), peers.clone(), ctrl.clone(), me);
        // Serve 0 puts nodes 1 and 3 on shard 0, nodes 2 and 4 on shard 1.
        cfg.cluster = ClusterConfig::new().shards(2);
        servers.push(std::thread::spawn(move || serve(&cfg)));
    }
    let remote =
        RemoteCluster::connect(&ctrl, nodes, Duration::from_secs(15)).expect("client connects");
    let group_of = |node: u32| GroupId((node - 1) % groups + 1);
    let other = |g: GroupId| GroupId(g.0 % groups + 1);
    // (sender, group, accepted?): every node sends once to its own group
    // and once to the group it is not in, alternating.
    let ops: Vec<(ProcessId, GroupId, bool)> = (0..3)
        .flat_map(|round| {
            (1..=nodes).flat_map(move |n| {
                let own = (ProcessId(n), group_of(n), true);
                let foreign = (ProcessId(n), other(group_of(n)), false);
                if (n + round) % 2 == 0 {
                    [own, foreign]
                } else {
                    [foreign, own]
                }
            })
        })
        .collect();
    let half = ops.len() / 2;
    let submit = |ops: &[(ProcessId, GroupId, bool)]| {
        ops.iter()
            .enumerate()
            .map(|(k, &(node, group, _))| {
                let (tx, rx) = unbounded();
                let payload = format!("{}:{k}", node.0).into_bytes();
                assert!(remote.multicast_pipelined(node, group, &payload, &tx));
                rx
            })
            .collect::<Vec<_>>()
    };
    let mut slots = submit(&ops[..half]);
    let formed = remote.form_group(
        ProcessId(1),
        GroupId(groups + 1),
        &[ProcessId(1), ProcessId(2), ProcessId(5), ProcessId(6)],
    );
    slots.extend(submit(&ops[half..]));
    assert_eq!(formed, Ok(()), "the formation gets its own verdict");
    for (k, (rx, &(node, group, accepted))) in slots.iter().zip(&ops).enumerate() {
        let verdict = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("every slot answered");
        if accepted {
            assert_eq!(verdict, Ok(()), "op {k}: node {} to {}", node.0, group.0);
        } else {
            assert!(
                matches!(verdict, Err(SendError::NotMember { .. })),
                "op {k}: node {} to {} must be refused, got {verdict:?}",
                node.0,
                group.0
            );
        }
        assert!(rx.try_recv().is_err(), "op {k}: exactly one verdict");
    }
    // The accepted sends really went out, and only those.
    let group_list: Vec<(GroupId, Vec<ProcessId>)> = (0..groups)
        .map(|g| (GroupId(g + 1), members_of(g, nodes, groups)))
        .collect();
    let per_group = ops.iter().filter(|op| op.2).count() / groups as usize;
    let got = collect_deliveries(&remote, &group_list, per_group, Duration::from_secs(30));
    for (node, seq) in &got {
        assert_eq!(seq.len(), per_group, "node {} delivery count", node.0);
    }
    remote.shutdown_peers();
    for s in servers {
        s.join().expect("serve thread").expect("serve exits clean");
    }
}

/// Four threads submit to one peer at once, interleaving accepted sends
/// with `NotMember` refusals: each reply slot still gets its own op's
/// verdict, because a slot is registered in the same critical section
/// that queues its record.
#[test]
fn concurrent_submitters_keep_their_slots() {
    let addrs = free_addrs(2);
    let (nodes, groups) = (4u32, 2u32);
    let cfg = ServeConfig::new(fast(nodes, groups), vec![addrs[0]], vec![addrs[1]], 0);
    let server = std::thread::spawn(move || serve(&cfg));
    let remote = RemoteCluster::connect(&[addrs[1]], nodes, Duration::from_secs(15))
        .expect("client connects");
    let start = Barrier::new(nodes as usize);
    std::thread::scope(|scope| {
        for n in 1..=nodes {
            let (remote, start) = (&remote, &start);
            scope.spawn(move || {
                let own = GroupId((n - 1) % groups + 1);
                let foreign = GroupId(own.0 % groups + 1);
                let ops: Vec<(GroupId, bool)> = (0..400)
                    .map(|k| {
                        if k % 2 == 0 {
                            (own, true)
                        } else {
                            (foreign, false)
                        }
                    })
                    .collect();
                start.wait();
                let slots: Vec<_> = ops
                    .iter()
                    .map(|&(group, _)| {
                        let (tx, rx) = unbounded();
                        assert!(remote.multicast_pipelined(ProcessId(n), group, b"x", &tx));
                        rx
                    })
                    .collect();
                for (k, (rx, &(group, accepted))) in slots.iter().zip(&ops).enumerate() {
                    let verdict = rx
                        .recv_timeout(Duration::from_secs(30))
                        .expect("every slot answered");
                    assert_eq!(
                        verdict.is_ok(),
                        accepted,
                        "node {n} op {k} to {}: {verdict:?}",
                        group.0
                    );
                }
            });
        }
    });
    remote.shutdown_peers();
    server
        .join()
        .expect("serve thread")
        .expect("serve exits clean");
}

/// A serve that dies with an op in flight: the blocking multicast gets
/// `NotMember` at once instead of waiting out its timeout, and every op
/// after it is refused without being sent.
#[test]
fn a_dead_control_connection_fails_what_it_owes() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        // Reads records until the first multicast op (tag 0x01), then
        // closes. These records are short, so each length prefix is a
        // one-byte varint.
        loop {
            let mut len = [0u8; 1];
            conn.read_exact(&mut len).expect("record length");
            let mut body = vec![0u8; usize::from(len[0])];
            conn.read_exact(&mut body).expect("record body");
            if body.first() == Some(&0x01) {
                return;
            }
        }
    });
    let remote =
        RemoteCluster::connect(&[addr], 1, Duration::from_secs(5)).expect("client connects");
    let t0 = Instant::now();
    let verdict = remote.multicast(ProcessId(1), GroupId(1), b"x");
    assert!(
        matches!(verdict, Err(SendError::NotMember { .. })),
        "{verdict:?}"
    );
    assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
    peer.join().expect("peer thread");
    let (tx, _rx) = unbounded();
    assert!(!remote.multicast_pipelined(ProcessId(1), GroupId(1), b"y", &tx));
    assert!(remote.wire_stats().is_none());
    assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
}
