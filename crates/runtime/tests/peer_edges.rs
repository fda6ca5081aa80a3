//! Edge-case coverage for the `types::peer` session protocol as the TCP
//! host drives it: handshake rejection of out-of-range peer indices, a
//! previous session version and stale (retired) incarnation nonces,
//! acceptor sever on a sequence gap (never a silent skip) or on a frame
//! that does not decode, and dialer sever on a resume point beyond its
//! retained window.

use bytes::{Bytes, BytesMut};
use newtop_runtime::{Cluster, TcpConfig};
use newtop_types::peer::{
    addressed_frame_into, decode_hello, encode_hello, Hello, PeerRecordDecoder, HELLO_LEN,
};
use newtop_types::{GroupConfig, GroupId, OrderMode, ProcessId, Span};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn p(i: u32) -> ProcessId {
    ProcessId(i)
}

fn tcp_cfg() -> GroupConfig {
    GroupConfig::new(OrderMode::Symmetric)
        .with_omega(Span::from_millis(5))
        .with_big_omega(Span::from_secs(5))
}

fn free_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .expect("bind ephemeral")
        .local_addr()
        .expect("local addr")
}

/// Connects and handshakes as fake peer `peer` with session `nonce`.
/// Returns the stream and the acceptor's reply hello.
fn fake_dial(addr: SocketAddr, peer: u32, nonce: u64) -> (TcpStream, Hello) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(&encode_hello(&Hello {
        peer,
        nonce,
        resume: 0,
    }))
    .expect("write hello");
    let mut raw = [0u8; HELLO_LEN];
    s.read_exact(&mut raw).expect("read reply hello");
    let reply = decode_hello(&raw).expect("decode reply");
    (s, reply)
}

/// Reads until EOF (acceptor severed) or panics at the deadline.
/// Intervening bytes (cumulative acks) are discarded.
fn await_eof(s: &mut TcpStream, why: &str) {
    s.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut sink = [0u8; 256];
    loop {
        match s.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(_) => {}
        }
        assert!(Instant::now() < deadline, "never severed: {why}");
    }
}

fn wait_rejects(cluster: &newtop_runtime::RunningCluster, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.wire_stats().handshake_rejects < want {
        assert!(
            Instant::now() < deadline,
            "handshake_rejects never reached {want} (now {})",
            cluster.wire_stats().handshake_rejects
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One real peer (index 0 of 2); fake connections play peer 1.
fn one_peer_cluster(a0: SocketAddr, a1: SocketAddr) -> newtop_runtime::RunningCluster {
    let mut c = Cluster::new();
    c.add_process(p(1));
    c.bootstrap_group_local(GroupId(1), [p(1)], tcp_cfg())
        .unwrap();
    c.start_tcp(TcpConfig::new(vec![a0, a1], 0, vec![(p(1), 0), (p(2), 1)]))
        .expect("peer 0 binds")
}

/// A hello whose peer index is outside the cluster — or names the
/// acceptor itself — is rejected and counted, with no reply written.
#[test]
fn out_of_range_and_self_peer_hellos_are_rejected() {
    let (a0, a1) = (free_addr(), free_addr());
    let cluster = one_peer_cluster(a0, a1);

    for bogus in [5u32, 0u32] {
        // 5 is outside the 2-peer cluster; 0 is the acceptor itself.
        let mut s = TcpStream::connect(a0).expect("connect");
        s.write_all(&encode_hello(&Hello {
            peer: bogus,
            nonce: 1,
            resume: 0,
        }))
        .expect("write hello");
        await_eof(&mut s, "bogus-peer hello");
    }
    wait_rejects(&cluster, 2);
    cluster.shutdown();
}

/// A peer built at the previous session version (2: separate envelope
/// and body tags, absolute `ldn`) is refused at the handshake and
/// counted, before any of its frames is decoded.
#[test]
fn previous_version_hello_is_rejected() {
    let (a0, a1) = (free_addr(), free_addr());
    let cluster = one_peer_cluster(a0, a1);

    let mut raw = encode_hello(&Hello {
        peer: 1,
        nonce: 1,
        resume: 0,
    });
    raw[4] = 2;
    let mut s = TcpStream::connect(a0).expect("connect");
    s.write_all(&raw).expect("write hello");
    await_eof(&mut s, "version-2 hello");
    wait_rejects(&cluster, 1);
    cluster.shutdown();
}

/// Once a newer incarnation of a peer has handshaked, a connection
/// bearing the superseded nonce (a delayed dial from the dead
/// incarnation) is rejected instead of resumed.
#[test]
fn stale_nonce_hello_is_rejected_after_restart() {
    let (a0, a1) = (free_addr(), free_addr());
    let cluster = one_peer_cluster(a0, a1);

    let (_s1, r1) = fake_dial(a0, 1, 100);
    assert_eq!(r1.peer, 0);
    // "Restart": same peer index, fresh nonce. Nonce 100 is retired.
    let (_s2, r2) = fake_dial(a0, 1, 200);
    assert_eq!(
        r2.resume, 1,
        "fresh incarnation starts a new sequence space"
    );
    assert_eq!(cluster.wire_stats().handshake_rejects, 0);

    // The zombie redials with the retired nonce: no reply, severed.
    let mut s3 = TcpStream::connect(a0).expect("connect");
    s3.write_all(&encode_hello(&Hello {
        peer: 1,
        nonce: 100,
        resume: 0,
    }))
    .expect("write stale hello");
    await_eof(&mut s3, "stale-nonce hello");
    wait_rejects(&cluster, 1);

    // Reconnecting with the *current* nonce still resumes fine.
    let (_s4, r4) = fake_dial(a0, 1, 200);
    assert_eq!(r4.resume, 1);
    assert_eq!(cluster.wire_stats().handshake_rejects, 1);
    cluster.shutdown();
}

/// A sequence gap severs the connection; the gapped record is not
/// consumed (the resume point on reconnect proves nothing was skipped).
#[test]
fn sequence_gap_severs_and_is_not_silently_skipped() {
    let (a0, a1) = (free_addr(), free_addr());
    let cluster = one_peer_cluster(a0, a1);

    let (mut s, reply) = fake_dial(a0, 1, 77);
    assert_eq!(reply.resume, 1);

    // A minimal but complete length-prefixed frame (len 3 + body),
    // addressed to a process this peer does not host: sequence
    // accounting applies, the payload is dropped after it.
    let frame = [3u8, b'x', b'y', b'z'];
    let mut buf = BytesMut::new();
    addressed_frame_into(p(9), 1, &frame, &mut buf);
    addressed_frame_into(p(9), 5, &frame, &mut buf); // gap: 2..=4 missing
    s.write_all(&buf).expect("write records");
    await_eof(&mut s, "gapped record");

    // Same (peer, nonce): the resume point shows seq 1 was consumed and
    // seq 5 was NOT — a skip would have advanced it past 5.
    let (_s2, r2) = fake_dial(a0, 1, 77);
    assert_eq!(r2.resume, 2, "gap must sever, not skip ahead");
    cluster.shutdown();
}

/// A record for a hosted node whose frame does not decode severs the
/// link before its sequence is consumed, and the node survives it.
#[test]
fn malformed_frame_severs_and_the_node_survives() {
    let (a0, a1) = (free_addr(), free_addr());
    let cluster = one_peer_cluster(a0, a1);

    let (mut s, reply) = fake_dial(a0, 1, 55);
    assert_eq!(reply.resume, 1);
    // A 3-byte body holding one unterminated varint, for hosted P1.
    let mut buf = BytesMut::new();
    addressed_frame_into(p(1), 1, &[3, 0xff, 0xff, 0xff], &mut buf);
    s.write_all(&buf).expect("write record");
    await_eof(&mut s, "malformed frame");

    let (_s2, r2) = fake_dial(a0, 1, 55);
    assert_eq!(r2.resume, 1, "a malformed frame must not be consumed");

    let node = cluster.node(p(1)).expect("hosted");
    node.multicast(GroupId(1), Bytes::from_static(b"still here"))
        .expect("the node still accepts multicasts");
    let d = node
        .await_delivery(Duration::from_secs(10))
        .expect("the node still delivers");
    assert_eq!(&d.payload[..], b"still here");
    cluster.shutdown();
}

/// Plays the *acceptor* against a real dialing peer: a reply whose
/// resume point lies beyond anything the dialer ever sent makes the
/// dialer sever and redial instead of pruning its queue and
/// blackholing the link.
#[test]
fn resume_beyond_retained_window_severs_dialer() {
    let (a0, a1) = (free_addr(), free_addr());
    let listener = TcpListener::bind(a1).expect("bind fake acceptor");

    // Peer 0 hosts p(1); the group spans p(2) owned by peer 1 (us), so
    // ω-nulls give the link steady traffic.
    let mut c = Cluster::new();
    c.add_process(p(1));
    c.bootstrap_group_local(GroupId(1), [p(1), p(2)], tcp_cfg())
        .unwrap();
    let cluster = c
        .start_tcp(TcpConfig::new(vec![a0, a1], 0, vec![(p(1), 0), (p(2), 1)]))
        .expect("peer 0 binds");

    // First dial: claim sequences far beyond the dialer's window.
    let (mut conn, _) = listener.accept().expect("dialer connects");
    conn.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut raw = [0u8; HELLO_LEN];
    conn.read_exact(&mut raw).expect("dialer hello");
    let hello = decode_hello(&raw).expect("decode dialer hello");
    assert_eq!(hello.peer, 0);
    assert_eq!(hello.resume, 0, "dialers carry no receive state");
    conn.write_all(&encode_hello(&Hello {
        peer: 1,
        nonce: 999,
        resume: 1_000,
    }))
    .expect("write poisoned reply");
    await_eof(&mut conn, "poisoned resume point");
    drop(conn);

    // Redial: answer honestly and the link comes up from sequence 1 —
    // nothing was pruned by the poisoned handshake.
    let (mut conn, _) = listener.accept().expect("dialer redials");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut raw = [0u8; HELLO_LEN];
    conn.read_exact(&mut raw).expect("dialer hello again");
    conn.write_all(&encode_hello(&Hello {
        peer: 1,
        nonce: 999,
        resume: 1,
    }))
    .expect("write honest reply");

    let mut dec = PeerRecordDecoder::new();
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    let first = loop {
        match conn.read(&mut chunk) {
            Ok(0) => panic!("dialer severed an honest link"),
            Ok(n) => {
                dec.push(&chunk[..n]);
                if let Some(rec) = dec.next_record().expect("well-formed records") {
                    break rec;
                }
            }
            Err(_) => {}
        }
        assert!(Instant::now() < deadline, "no traffic from the dialer");
    };
    assert_eq!(first.seq, 1, "retained window survived the bad handshake");
    assert_eq!(first.dest, p(2));
    cluster.shutdown();
}
