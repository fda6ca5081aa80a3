//! Integration coverage for the TCP host: two real peers on loopback
//! exchanging the exact in-process frame bytes, connection loss healed by
//! reconnect + resume retransmission (no duplicate, no loss), handshake
//! rejection of garbage connections, and the dead-peer buffering cap.

use bytes::Bytes;
use newtop_runtime::{Cluster, ClusterConfig, TcpConfig};
use newtop_types::{GroupConfig, GroupId, OrderMode, ProcessId, Span};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn p(i: u32) -> ProcessId {
    ProcessId(i)
}

/// A group config tolerant of TCP dial/reconnect stalls: nulls keep
/// flowing every 5 ms, but suspicion needs seconds of silence.
fn tcp_cfg() -> GroupConfig {
    GroupConfig::new(OrderMode::Symmetric)
        .with_omega(Span::from_millis(5))
        .with_big_omega(Span::from_secs(5))
}

/// Reserves a loopback address by binding port 0 and dropping the
/// listener. Racy in principle; fine for single-process tests.
fn free_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .expect("bind ephemeral")
        .local_addr()
        .expect("local addr")
}

/// Two peers, one group spanning both: multicasts cross the real socket
/// in both directions and arrive complete and in send order.
#[test]
fn two_peer_multicast_roundtrip() {
    let a0 = free_addr();
    let a1 = free_addr();
    let owners = vec![(p(1), 0), (p(2), 1)];
    let g = GroupId(1);

    let mut peer1 = Cluster::new();
    peer1.add_process(p(2));
    peer1
        .bootstrap_group_local(g, [p(1), p(2)], tcp_cfg())
        .unwrap();
    let peer1 = peer1
        .start_tcp(TcpConfig::new(vec![a0, a1], 1, owners.clone()))
        .expect("peer 1 binds");

    let mut peer0 = Cluster::with_config(ClusterConfig::new().shards(1));
    peer0.add_process(p(1));
    peer0
        .bootstrap_group_local(g, [p(1), p(2)], tcp_cfg())
        .unwrap();
    let peer0 = peer0
        .start_tcp(TcpConfig::new(vec![a0, a1], 0, owners))
        .expect("peer 0 binds");

    for k in 0..10 {
        peer0
            .node(p(1))
            .unwrap()
            .multicast(g, Bytes::from(format!("m{k}")))
            .unwrap();
    }
    let at_p2: Vec<String> = (0..10)
        .map(|_| {
            let d = peer1
                .node(p(2))
                .unwrap()
                .await_delivery(Duration::from_secs(20))
                .expect("delivery at P2");
            String::from_utf8_lossy(&d.payload).into_owned()
        })
        .collect();
    let want: Vec<String> = (0..10).map(|k| format!("m{k}")).collect();
    assert_eq!(at_p2, want, "P2 must see P1's multicasts in send order");

    // And the reverse direction over the other peer's links.
    for k in 0..5 {
        peer1
            .node(p(2))
            .unwrap()
            .multicast(g, Bytes::from(format!("r{k}")))
            .unwrap();
    }
    let mut at_p1: Vec<String> = (0..15)
        .map(|_| {
            let d = peer0
                .node(p(1))
                .unwrap()
                .await_delivery(Duration::from_secs(20))
                .expect("delivery at P1");
            String::from_utf8_lossy(&d.payload).into_owned()
        })
        .collect();
    let replies: Vec<String> = at_p1
        .iter()
        .filter(|s| s.starts_with('r'))
        .cloned()
        .collect();
    assert_eq!(replies, vec!["r0", "r1", "r2", "r3", "r4"]);
    at_p1.sort();
    assert_eq!(at_p1.len(), 15, "P1 delivers its own 10 plus P2's 5");

    let s0 = peer0.wire_stats();
    assert!(s0.frames > 0 && s0.bytes > 0);
    assert_eq!(s0.handshake_rejects, 0);
    peer0.shutdown();
    peer1.shutdown();
}

/// A byte pump standing between one peer pair, with a kill switch that
/// severs every live connection (both directions) on demand.
struct Pump {
    conns: Arc<Mutex<Vec<TcpStream>>>,
    stop: Arc<AtomicBool>,
}

impl Pump {
    fn start(listen: SocketAddr, upstream: SocketAddr) -> Pump {
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let listener = TcpListener::bind(listen).expect("pump bind");
        listener.set_nonblocking(true).expect("pump nonblocking");
        {
            let conns = Arc::clone(&conns);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                match listener.accept() {
                    Ok((client, _)) => {
                        let Ok(server) = TcpStream::connect(upstream) else {
                            continue;
                        };
                        client.set_nonblocking(false).ok();
                        for (mut from, mut to) in [
                            (client.try_clone().unwrap(), server.try_clone().unwrap()),
                            (server.try_clone().unwrap(), client.try_clone().unwrap()),
                        ] {
                            std::thread::spawn(move || {
                                let mut buf = [0u8; 8192];
                                loop {
                                    match from.read(&mut buf) {
                                        Ok(0) | Err(_) => break,
                                        Ok(n) => {
                                            if to.write_all(&buf[..n]).is_err() {
                                                break;
                                            }
                                        }
                                    }
                                }
                                let _ = to.shutdown(Shutdown::Both);
                            });
                        }
                        let mut held = conns.lock().unwrap();
                        held.push(client);
                        held.push(server);
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            });
        }
        Pump { conns, stop }
    }

    /// Severs every live proxied connection; new dials still succeed.
    fn sever(&self) {
        for c in self.conns.lock().unwrap().drain(..) {
            let _ = c.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for Pump {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.sever();
    }
}

/// Kill the socket mid-multicast: the link manager must reconnect, the
/// resume handshake must retransmit exactly the unacknowledged frames,
/// and the receiving engine must see every message once, in order.
#[test]
fn reconnect_resumes_delivery_without_loss_or_duplicates() {
    let a0 = free_addr();
    let a1 = free_addr();
    let proxied_a1 = free_addr();
    let pump = Pump::start(proxied_a1, a1);
    let owners = vec![(p(1), 0), (p(2), 1)];
    let g = GroupId(1);

    let mut peer1 = Cluster::new();
    peer1.add_process(p(2));
    peer1
        .bootstrap_group_local(g, [p(1), p(2)], tcp_cfg())
        .unwrap();
    let peer1 = peer1
        .start_tcp(TcpConfig::new(vec![a0, a1], 1, owners.clone()))
        .expect("peer 1 binds");

    // Peer 0 reaches peer 1 only through the pump.
    let mut peer0 = Cluster::new();
    peer0.add_process(p(1));
    peer0
        .bootstrap_group_local(g, [p(1), p(2)], tcp_cfg())
        .unwrap();
    let peer0 = peer0
        .start_tcp(TcpConfig::new(vec![a0, proxied_a1], 0, owners))
        .expect("peer 0 binds");

    let deliver = |n: usize| -> Vec<String> {
        (0..n)
            .map(|_| {
                let d = peer1
                    .node(p(2))
                    .unwrap()
                    .await_delivery(Duration::from_secs(20))
                    .expect("delivery at P2");
                String::from_utf8_lossy(&d.payload).into_owned()
            })
            .collect()
    };

    for k in 0..10 {
        peer0
            .node(p(1))
            .unwrap()
            .multicast(g, Bytes::from(format!("m{k}")))
            .unwrap();
    }
    let first = deliver(10);

    // Sever while the link is hot, then keep multicasting immediately:
    // some of these frames race the reconnect and must be buffered or
    // retransmitted, never lost.
    pump.sever();
    for k in 10..25 {
        peer0
            .node(p(1))
            .unwrap()
            .multicast(g, Bytes::from(format!("m{k}")))
            .unwrap();
    }
    let rest = deliver(15);

    let got: Vec<String> = first.into_iter().chain(rest).collect();
    let want: Vec<String> = (0..25).map(|k| format!("m{k}")).collect();
    assert_eq!(
        got, want,
        "no loss, no duplicate, no reordering across the sever"
    );

    // The link manager must have actually reconnected (not ridden one
    // miraculous connection).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if peer0.wire_stats().reconnects >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "reconnect never counted");
        std::thread::sleep(Duration::from_millis(20));
    }
    peer0.shutdown();
    peer1.shutdown();
}

/// Connections that do not open with a valid hello are dropped and
/// counted, and never disturb the running cluster.
#[test]
fn garbage_handshake_is_rejected_and_counted() {
    let a0 = free_addr();
    let g = GroupId(1);
    let mut peer0 = Cluster::new();
    peer0.add_process(p(1));
    peer0.bootstrap_group_local(g, [p(1)], tcp_cfg()).unwrap();
    let peer0 = peer0
        .start_tcp(TcpConfig::new(vec![a0], 0, vec![(p(1), 0)]))
        .expect("peer 0 binds");

    // Wrong magic, right length.
    let mut garbage = TcpStream::connect(a0).expect("connect");
    garbage.write_all(&[0xFF; 25]).expect("write garbage");
    let mut sink = [0u8; 16];
    let _ = garbage.read(&mut sink); // acceptor closes on us
    drop(garbage);

    // Truncated hello (connection closed mid-handshake).
    let mut short = TcpStream::connect(a0).expect("connect");
    short.write_all(&[0x4E; 5]).expect("write short");
    drop(short);

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if peer0.wire_stats().handshake_rejects >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "rejects never counted");
        std::thread::sleep(Duration::from_millis(20));
    }
    // The cluster still works.
    peer0
        .node(p(1))
        .unwrap()
        .multicast(g, Bytes::from_static(b"alive"))
        .unwrap();
    assert!(peer0
        .node(p(1))
        .unwrap()
        .await_delivery(Duration::from_secs(10))
        .is_some());
    peer0.shutdown();
}

/// Frames for a peer that never comes up stop accumulating at the
/// dead-peer cap and are dropped *before* sequencing — the engine and
/// the rest of the cluster keep running.
#[test]
fn dead_peer_overflow_is_dropped_and_counted() {
    let a0 = free_addr();
    let dead = free_addr(); // nothing ever listens here
    let g = GroupId(1);
    // Suspicion must fire quickly so P1 can carry on without P2.
    let cfg = GroupConfig::new(OrderMode::Symmetric)
        .with_omega(Span::from_millis(5))
        .with_big_omega(Span::from_millis(200));
    let mut peer0 = Cluster::new();
    peer0.add_process(p(1));
    peer0.bootstrap_group_local(g, [p(1), p(2)], cfg).unwrap();
    let mut tcp = TcpConfig::new(vec![a0, dead], 0, vec![(p(1), 0), (p(2), 1)]);
    tcp.dead_cap = 4;
    let peer0 = peer0.start_tcp(tcp).expect("peer 0 binds");

    for k in 0..50 {
        peer0
            .node(p(1))
            .unwrap()
            .multicast(g, Bytes::from(format!("m{k}")))
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if peer0.wire_stats().dropped_dead > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "dead-peer drops never counted");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Only frames the link accepted are counted. P1's one group peer is
    // P2, and the engine never sends to itself, so every counted frame
    // sits in P2's link backlog, which the dead-peer cap bounds.
    let stats = peer0.wire_stats();
    assert!(
        stats.frames <= 4,
        "frames={} dropped_dead={}",
        stats.frames,
        stats.dropped_dead
    );
    // Ω suspicion eventually removes the unreachable member and the
    // local engine delivers on its own.
    let view = peer0
        .node(p(1))
        .unwrap()
        .await_view_change(g, Duration::from_secs(20))
        .expect("view change");
    assert_eq!(view.members().len(), 1);
    assert!(peer0
        .node(p(1))
        .unwrap()
        .await_delivery(Duration::from_secs(20))
        .is_some());
    peer0.shutdown();
}
