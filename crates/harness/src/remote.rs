//! Control plane for real multi-process clusters: the `newtop-exp serve`
//! node process and the [`RemoteCluster`] client the load generator
//! drives it with.
//!
//! A TCP cluster splits into two planes. The **data plane** is the
//! runtime's own peer protocol (`newtop_runtime::TcpConfig`): every
//! `serve` process speaks the batched frame format to every other over
//! reliable resumable links. The **control plane** is this module: each
//! `serve` process also listens on a control address where a client —
//! `newtop-exp load --host tcp`, or a test — submits multicasts for the
//! nodes that process hosts, subscribes to their outputs, samples wire
//! statistics and requests shutdown.
//!
//! Control connections carry varint-length-prefixed records; the first
//! payload byte is the record tag. Multicast verdicts are returned in
//! submission order per connection, so a pipelined client can match
//! them FIFO. Delivery records preserve every field of the engine's
//! [`Delivery`]; view-change records carry the installed member set
//! (the client rebuilds a `View` from it — sequence numbers are not
//! preserved across the control plane, which only ever counts these).
//!
//! # Topology
//!
//! All processes agree on the cluster shape by construction: node `i`
//! of `N` lives on peer [`peer_of`]`(i, N, P)` — contiguous blocks, so
//! peers own cache-friendly ranges — while group `g` takes every node
//! with `(i-1) % groups == g`, exactly like the in-process load
//! generator. Round-robin groups over block-assigned nodes guarantee
//! that every group spans every peer: all application traffic crosses
//! real sockets.

use bytes::{BufMut, Bytes, BytesMut};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use newtop_core::Delivery;
use newtop_runtime::{Cluster, ClusterConfig, Output, RunningCluster, TcpConfig, WireStats};
use newtop_types::wire::{peek_varint, put_varint};
use newtop_types::{
    GroupConfig, GroupId, Msn, OrderMode, ProcessId, SendError, SignedView, Span, SuspicionMode,
    View, ViewSeq,
};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which peer hosts node `i` (1-based) of `nodes`, across `peers`
/// processes: contiguous blocks whose sizes differ by at most one.
#[must_use]
pub fn peer_of(i: u32, nodes: u32, peers: u32) -> u32 {
    assert!(i >= 1 && i <= nodes && peers >= 1, "peer_of out of range");
    ((i - 1) * peers) / nodes
}

/// Members of group `g` (0-based): every node with `(i-1) % groups == g`,
/// the same round-robin assignment the in-process load generator uses.
#[must_use]
pub fn members_of(g: u32, nodes: u32, groups: u32) -> Vec<ProcessId> {
    (1..=nodes)
        .filter(|i| (i - 1) % groups == g)
        .map(ProcessId)
        .collect()
}

/// Everything one `serve` process needs to know about the cluster.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Protocol participants cluster-wide (numbered 1..=nodes).
    pub nodes: u32,
    /// Groups; node `i` joins group `(i-1) % groups`.
    pub groups: u32,
    /// Data-plane addresses of every peer, cluster order.
    pub peers: Vec<SocketAddr>,
    /// Control-plane addresses of every peer, same order.
    pub ctrl: Vec<SocketAddr>,
    /// This process's index into both address lists.
    pub me: usize,
    /// Ordering variant every group runs.
    pub mode: OrderMode,
    /// Time-silence interval ω.
    pub omega: Span,
    /// Suspicion timeout Ω.
    pub big_omega: Span,
    /// Failure-suspicion mode every group runs: fixed Ω silence or the
    /// accrual detector.
    pub suspicion: SuspicionMode,
    /// Whether to bootstrap the initial groups at startup. A process
    /// restarted after a crash starts with `false`: the survivors
    /// excluded its old incarnation's nodes, so it comes up with no
    /// group state and re-enters through the §5.3 formation path (a
    /// client's form op, typically issued by the supervisor).
    pub bootstrap: bool,
    /// Host knobs (shards, egress batching) for the local shard set.
    pub cluster: ClusterConfig,
}

impl ServeConfig {
    /// A config with load-generator-friendly protocol defaults.
    #[must_use]
    pub fn new(
        nodes: u32,
        groups: u32,
        peers: Vec<SocketAddr>,
        ctrl: Vec<SocketAddr>,
        me: usize,
    ) -> ServeConfig {
        ServeConfig {
            nodes,
            groups,
            peers,
            ctrl,
            me,
            mode: OrderMode::Symmetric,
            omega: Span::from_millis(25),
            big_omega: Span::from_secs(10),
            suspicion: SuspicionMode::FixedOmega,
            bootstrap: true,
            cluster: ClusterConfig::new(),
        }
    }

    /// The group configuration every group of this cluster runs.
    #[must_use]
    pub fn group_config(&self) -> GroupConfig {
        GroupConfig::new(self.mode)
            .with_omega(self.omega)
            .with_big_omega(self.big_omega)
            .with_suspicion(self.suspicion)
    }

    #[allow(clippy::cast_possible_truncation)]
    fn npeers(&self) -> u32 {
        self.peers.len() as u32
    }

    fn hosted(&self) -> Vec<ProcessId> {
        #[allow(clippy::cast_possible_truncation)]
        let me = self.me as u32;
        (1..=self.nodes)
            .filter(|&i| peer_of(i, self.nodes, self.npeers()) == me)
            .map(ProcessId)
            .collect()
    }

    fn owners(&self) -> Vec<(ProcessId, u32)> {
        (1..=self.nodes)
            .map(|i| (ProcessId(i), peer_of(i, self.nodes, self.npeers())))
            .collect()
    }

    /// Checks the address lists, the peer index and the node and group
    /// counts. [`serve`] runs it before anything else.
    ///
    /// # Errors
    ///
    /// What is wrong with the configuration, in words.
    pub fn validate(&self) -> Result<(), String> {
        if self.peers.is_empty() || self.peers.len() != self.ctrl.len() {
            return Err("need matching non-empty peer and ctrl address lists".into());
        }
        if self.me >= self.peers.len() {
            return Err(format!(
                "peer index {} out of range ({} peers)",
                self.me,
                self.peers.len()
            ));
        }
        if self.nodes == 0 || self.groups == 0 || self.groups > self.nodes {
            return Err("need 1 <= groups <= nodes".into());
        }
        Ok(())
    }
}

// Control record tags. Client→server ops:
const OP_MULTICAST: u8 = 0x01;
const OP_SUBSCRIBE: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x04;
const OP_FORM: u8 = 0x05;
// Server→client records:
const REC_VERDICT: u8 = 0x81;
const REC_DELIVERY: u8 = 0x82;
const REC_VIEW: u8 = 0x83;
const REC_STATS: u8 = 0x84;
const REC_BYE: u8 = 0x85;
const REC_ACTIVE: u8 = 0x86;

/// Control records may carry an application payload but never a frame
/// batch; 16 MiB is far above any legitimate record.
const MAX_RECORD: u64 = 16 * 1024 * 1024;

/// Incremental varint-length-prefixed record parser for the control
/// stream (the control-plane sibling of the peer links'
/// `PeerRecordDecoder`). Records are read in place behind the offset `at`
/// and the consumed prefix is dropped once per push, so a read holding k
/// records costs O(read size), not O(k × read size).
struct RecordDecoder {
    buf: Vec<u8>,
    at: usize,
}

impl RecordDecoder {
    fn new() -> RecordDecoder {
        RecordDecoder {
            buf: Vec::new(),
            at: 0,
        }
    }

    fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.at);
        self.at = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete record payload, if one is buffered.
    fn next_record(&mut self) -> Result<Option<&[u8]>, String> {
        let Some((len, used)) =
            peek_varint(&self.buf, self.at).map_err(|e| format!("control record length: {e}"))?
        else {
            return Ok(None);
        };
        if len > MAX_RECORD {
            return Err(format!("control record of {len} bytes exceeds the cap"));
        }
        #[allow(clippy::cast_possible_truncation)]
        let body_len = len as usize;
        let start = self.at + used;
        if self.buf.len() < start + body_len {
            return Ok(None);
        }
        self.at = start + body_len;
        Ok(Some(&self.buf[start..self.at]))
    }
}

/// Appends one length-prefixed record to `buf`.
fn put_record(buf: &mut BytesMut, payload: &[u8]) {
    put_varint(buf, payload.len() as u64);
    buf.put_slice(payload);
}

/// Writes one length-prefixed record under the connection's write lock.
fn write_record(writer: &Mutex<TcpStream>, payload: &[u8]) -> std::io::Result<()> {
    let mut buf = BytesMut::with_capacity(payload.len() + 5);
    put_record(&mut buf, payload);
    write_batch(writer, &buf)
}

/// Writes a buffer of whole records under the connection's write lock.
fn write_batch(writer: &Mutex<TcpStream>, batch: &[u8]) -> std::io::Result<()> {
    writer.lock().expect("ctrl write lock").write_all(batch)
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }

    fn u32(&mut self) -> Result<u32, String> {
        let raw: [u8; 4] = self
            .buf
            .get(self.at..self.at + 4)
            .ok_or("truncated control record")?
            .try_into()
            .expect("sized slice");
        self.at += 4;
        Ok(u32::from_le_bytes(raw))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let raw: [u8; 8] = self
            .buf
            .get(self.at..self.at + 8)
            .ok_or("truncated control record")?
            .try_into()
            .expect("sized slice");
        self.at += 8;
        Ok(u64::from_le_bytes(raw))
    }

    fn rest(self) -> &'a [u8] {
        &self.buf[self.at.min(self.buf.len())..]
    }
}

fn encode_stats(stats: &WireStats, shards: u64) -> Vec<u8> {
    let mut rec = vec![REC_STATS];
    put_u64(&mut rec, stats.frames);
    put_u64(&mut rec, stats.envelopes);
    put_u64(&mut rec, stats.bytes);
    put_u64(&mut rec, stats.null_frames);
    for bucket in &stats.occupancy {
        put_u64(&mut rec, *bucket);
    }
    put_u64(&mut rec, stats.reconnects);
    put_u64(&mut rec, stats.dropped_dead);
    put_u64(&mut rec, stats.handshake_rejects);
    put_u64(&mut rec, stats.shed_multicasts);
    put_u64(&mut rec, shards);
    rec
}

fn decode_stats(body: &[u8]) -> Result<(WireStats, u64), String> {
    let mut c = Cursor::new(body);
    let mut stats = WireStats {
        frames: c.u64()?,
        envelopes: c.u64()?,
        bytes: c.u64()?,
        null_frames: c.u64()?,
        ..WireStats::default()
    };
    for bucket in &mut stats.occupancy {
        *bucket = c.u64()?;
    }
    stats.reconnects = c.u64()?;
    stats.dropped_dead = c.u64()?;
    stats.handshake_rejects = c.u64()?;
    stats.shed_multicasts = c.u64()?;
    let shards = c.u64()?;
    Ok((stats, shards))
}

// ---------------------------------------------------------------------
// Server side: `newtop-exp serve`.
// ---------------------------------------------------------------------

/// Runs one peer process of a TCP cluster: hosts its block of nodes on
/// the sharded runtime, joins the data plane, and serves control
/// connections until a client sends the shutdown op. Returns after the
/// cluster is fully torn down.
///
/// # Errors
///
/// Invalid topology, a bind failure on either plane, or a group
/// bootstrap rejection — all as one readable string.
pub fn serve(cfg: &ServeConfig) -> Result<(), String> {
    cfg.validate()?;
    let mut cluster = Cluster::with_config(cfg.cluster);
    let hosted = cfg.hosted();
    for &node in &hosted {
        cluster.add_process(node);
    }
    let group_cfg = cfg.group_config();
    if cfg.bootstrap {
        for g in 0..cfg.groups {
            cluster
                .bootstrap_group_local(
                    GroupId(g + 1),
                    members_of(g, cfg.nodes, cfg.groups),
                    group_cfg,
                )
                .map_err(|e| format!("bootstrap group {}: {e}", g + 1))?;
        }
    }
    let mut tcp = TcpConfig::new(cfg.peers.clone(), cfg.me, cfg.owners());
    if !cfg.bootstrap {
        // A rejoining process binds the address its old incarnation just
        // vacated; ride out any lingering TIME_WAIT sockets.
        tcp.bind_retry = Duration::from_secs(10);
    }
    let running = Arc::new(
        cluster
            .start_tcp(tcp)
            .map_err(|e| format!("bind data plane {}: {e}", cfg.peers[cfg.me]))?,
    );
    let listener = TcpListener::bind(cfg.ctrl[cfg.me])
        .map_err(|e| format!("bind control plane {}: {e}", cfg.ctrl[cfg.me]))?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        // Blocking accept: the shutdown op raises `stop` and then dials
        // this listener once to wake it.
        match listener.accept() {
            Ok(_) if stop.load(Ordering::Relaxed) => break,
            Ok((conn, _)) => {
                let running = Arc::clone(&running);
                let hosted = hosted.clone();
                let stop = Arc::clone(&stop);
                handlers.push(
                    std::thread::Builder::new()
                        .name("newtop-ctrl".into())
                        .spawn(move || ctrl_conn_main(&running, &hosted, group_cfg, conn, &stop))
                        .expect("spawn ctrl handler"),
                );
            }
            // A transient failure (say, out of descriptors): back off.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    match Arc::try_unwrap(running) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => return Err("a control handler leaked the cluster handle".into()),
    }
    Ok(())
}

/// Serves one control connection: ops in, verdicts + subscribed
/// outputs out. A shutdown op flips the server-wide stop flag.
fn ctrl_conn_main(
    running: &Arc<RunningCluster>,
    hosted: &[ProcessId],
    group_cfg: GroupConfig,
    conn: TcpStream,
    stop: &Arc<AtomicBool>,
) {
    let _ = conn.set_nodelay(true);
    // Stop-flag poll only: ops wake the read as soon as they arrive.
    let _ = conn.set_read_timeout(Some(Duration::from_millis(50)));
    let writer = Arc::new(Mutex::new(match conn.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    }));
    let mut reader = conn;
    let mut dec = RecordDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    let mut forwarders: Vec<JoinHandle<()>> = Vec::new();
    let mut subscribed = false;
    let mut verdicts = Verdicts::default();
    'conn: loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match reader.read(&mut buf) {
            Ok(0) => break, // client gone; the cluster keeps running
            Ok(n) => {
                dec.push(&buf[..n]);
                loop {
                    let record = match dec.next_record() {
                        Ok(Some(r)) => r,
                        Ok(None) => break,
                        Err(_) => break 'conn, // malformed client
                    };
                    if record.first() == Some(&OP_MULTICAST) {
                        verdicts.submit(running, record);
                        continue;
                    }
                    // Every other op answers after the multicasts
                    // submitted before it (verdicts are FIFO).
                    if verdicts.flush(&writer).is_err()
                        || !handle_op(
                            running,
                            hosted,
                            group_cfg,
                            &writer,
                            stop,
                            &mut forwarders,
                            &mut subscribed,
                            record,
                        )
                    {
                        break 'conn;
                    }
                }
                if verdicts.flush(&writer).is_err() {
                    break;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    // Unblock the forwarders (they poll both flags) and reap them.
    for f in forwarders {
        let _ = f.join();
    }
}

/// One multicast verdict a control connection still owes its client.
enum Owed {
    /// A malformed op: the parse error.
    Malformed(String),
    /// A multicast to the group: its own reply slot at the node's
    /// shard, or `None` when the op never reached one (node not hosted
    /// here, or terminated), which reports as `NotMember`.
    Verdict(GroupId, Option<Receiver<Result<(), SendError>>>),
}

/// The multicasts a control connection has submitted but not yet
/// answered, in submission order. Every multicast of one read is
/// submitted before any verdict is awaited, so the shard round trips
/// overlap instead of queueing one behind another; the verdicts then go
/// out in order, in one write.
#[derive(Default)]
struct Verdicts {
    owed: VecDeque<Owed>,
    /// The outgoing batch, reused across flushes.
    out: BytesMut,
}

impl Verdicts {
    /// Submits one `OP_MULTICAST` record to its node's shard.
    fn submit(&mut self, running: &RunningCluster, record: &[u8]) {
        let (node, group, payload) = match parse_multicast(&record[1..]) {
            Ok(op) => op,
            Err(e) => {
                self.owed.push_back(Owed::Malformed(e));
                return;
            }
        };
        let slot = running.node(node).and_then(|n| {
            let (tx, rx) = bounded(1);
            n.multicast_pipelined(group, Bytes::from(payload.to_vec()), &tx)
                .then_some(rx)
        });
        self.owed.push_back(Owed::Verdict(group, slot));
    }

    /// Awaits every owed verdict in submission order and writes them
    /// all with one write.
    fn flush(&mut self, writer: &Mutex<TcpStream>) -> std::io::Result<()> {
        if self.owed.is_empty() {
            return Ok(());
        }
        self.out.clear();
        while let Some(owed) = self.owed.pop_front() {
            let (code, text) = match owed {
                Owed::Malformed(e) => (1, e),
                Owed::Verdict(group, slot) => {
                    match slot
                        .and_then(|rx| rx.recv().ok())
                        .unwrap_or(Err(SendError::NotMember { group }))
                    {
                        Ok(()) => (0, String::new()),
                        Err(e) => (verdict_code(&e), e.to_string()),
                    }
                }
            };
            put_varint(&mut self.out, 2 + text.len() as u64);
            self.out.put_slice(&[REC_VERDICT, code]);
            self.out.put_slice(text.as_bytes());
        }
        write_batch(writer, &self.out)
    }
}

/// The verdict record's code for a refused multicast, from which the
/// client rebuilds the error kind ([`dispatch_record`]). A shed at the
/// host's admission boundary has its own code, so the client counts
/// backpressure separately from refusals.
fn verdict_code(e: &SendError) -> u8 {
    match e {
        SendError::NotMember { .. } | SendError::Departed { .. } => 1,
        SendError::Overloaded { .. } => 2,
        SendError::PayloadTooLarge { .. } => 3,
    }
}

/// Reads an `OP_MULTICAST` body: sending node, group, payload.
fn parse_multicast(body: &[u8]) -> Result<(ProcessId, GroupId, &[u8]), String> {
    let mut c = Cursor::new(body);
    let node = ProcessId(c.u32()?);
    let group = GroupId(c.u32()?);
    Ok((node, group, c.rest()))
}

/// Reads an `OP_FORM` body: initiator, new group id, member list.
fn parse_form(body: &[u8]) -> Result<(ProcessId, GroupId, Vec<ProcessId>), String> {
    let mut c = Cursor::new(body);
    let initiator = ProcessId(c.u32()?);
    let group = GroupId(c.u32()?);
    let count = c.u32()?;
    let mut members = Vec::new();
    for _ in 0..count {
        members.push(ProcessId(c.u32()?));
    }
    Ok((initiator, group, members))
}

/// Dispatches one control op other than a multicast (those go through
/// [`Verdicts`]); `false` ends the connection.
#[allow(clippy::too_many_arguments)]
fn handle_op(
    running: &Arc<RunningCluster>,
    hosted: &[ProcessId],
    group_cfg: GroupConfig,
    writer: &Arc<Mutex<TcpStream>>,
    stop: &Arc<AtomicBool>,
    forwarders: &mut Vec<JoinHandle<()>>,
    subscribed: &mut bool,
    record: &[u8],
) -> bool {
    match record.first().copied() {
        Some(OP_FORM) => {
            // §5.3 formation, driven over the control plane: the named
            // hosted node acts as initiator; invitees (on any peer,
            // including a freshly rejoined one) vote over the data
            // plane. This is how crash recovery re-admits a restarted
            // process — a *new* group with fresh identifiers (§3), not
            // a same-id re-entry.
            let verdict = parse_form(&record[1..]).and_then(|(initiator, group, members)| {
                match running.node(initiator) {
                    Some(n) => n
                        .initiate_group(group, members, group_cfg)
                        .map_err(|e| e.to_string()),
                    None => Err(format!("initiator {initiator} is not hosted here")),
                }
            });
            let mut rec = vec![REC_VERDICT];
            match verdict {
                Ok(()) => rec.push(0),
                Err(e) => {
                    rec.push(1);
                    rec.extend_from_slice(e.as_bytes());
                }
            }
            write_record(writer, &rec).is_ok()
        }
        Some(OP_SUBSCRIBE) => {
            if !*subscribed {
                *subscribed = true;
                for &node in hosted {
                    let rx = running.node(node).expect("hosted node").outputs().clone();
                    let writer = Arc::clone(writer);
                    let stop = Arc::clone(stop);
                    forwarders.push(
                        std::thread::Builder::new()
                            .name(format!("newtop-fwd-{}", node.0))
                            .spawn(move || forward_outputs(node, &rx, &writer, &stop))
                            .expect("spawn output forwarder"),
                    );
                }
            }
            true
        }
        Some(OP_STATS) => {
            let rec = encode_stats(&running.wire_stats(), running.shard_count() as u64);
            write_record(writer, &rec).is_ok()
        }
        Some(OP_SHUTDOWN) => {
            let _ = write_record(writer, &[REC_BYE]);
            stop.store(true, Ordering::Relaxed);
            // Wake the blocking accept in `serve`: this connection's own
            // local address is the control listener's.
            let listener = writer
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .local_addr();
            if let Ok(addr) = listener {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
            }
            false
        }
        _ => false, // unknown op: drop the connection
    }
}

/// How many bytes of output records one forwarder wake may gather
/// before writing them out.
const FORWARD_BATCH: usize = 64 * 1024;

/// Streams one hosted node's engine outputs to the subscribed client:
/// each wake drains what is already queued (up to [`FORWARD_BATCH`]
/// bytes) and writes it as one buffer.
fn forward_outputs(
    node: ProcessId,
    rx: &Receiver<Output>,
    writer: &Mutex<TcpStream>,
    stop: &AtomicBool,
) {
    let mut rec = Vec::new();
    let mut batch = BytesMut::new();
    while !stop.load(Ordering::Relaxed) {
        let mut next = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(out) => Some(out),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
        };
        batch.clear();
        while let Some(out) = next {
            if encode_output(node, &out, &mut rec) {
                put_record(&mut batch, &rec);
            }
            next = if batch.len() < FORWARD_BATCH {
                rx.try_recv().ok()
            } else {
                None
            };
        }
        if !batch.is_empty() && write_batch(writer, &batch).is_err() {
            return;
        }
    }
}

/// Encodes one engine output as a control record body into `rec`;
/// `false` for outputs the control plane does not forward.
fn encode_output(node: ProcessId, out: &Output, rec: &mut Vec<u8>) -> bool {
    rec.clear();
    let (tag, group, view) = match out {
        Output::Delivery(d) => {
            rec.push(REC_DELIVERY);
            put_u32(rec, node.0);
            put_u32(rec, d.group.0);
            put_u32(rec, d.origin.0);
            put_u64(rec, d.c.0);
            put_u32(rec, d.view_seq.0);
            rec.extend_from_slice(&d.payload);
            return true;
        }
        Output::ViewChange { group, view, .. } => (REC_VIEW, group, view),
        Output::GroupActive { group, view } => (REC_ACTIVE, group, view),
        // Failed formations and trace events stay local; the control
        // plane forwards what the generator and supervisor consume.
        _ => return false,
    };
    rec.push(tag);
    put_u32(rec, node.0);
    put_u32(rec, group.0);
    #[allow(clippy::cast_possible_truncation)]
    put_u32(rec, view.len() as u32);
    for m in view.iter() {
        put_u32(rec, m.0);
    }
    true
}

// ---------------------------------------------------------------------
// Client side: RemoteCluster.
// ---------------------------------------------------------------------

/// Reply slots a control connection is still owed, in submission order.
#[derive(Default)]
struct PendingReplies {
    verdicts: Mutex<VecDeque<Sender<Result<(), SendError>>>>,
    stats: Mutex<VecDeque<Sender<(WireStats, u64)>>>,
    byes: Mutex<VecDeque<Sender<()>>>,
}

struct CtrlPeer {
    writer: Mutex<TcpStream>,
    pending: Arc<PendingReplies>,
    reader: Option<JoinHandle<()>>,
}

/// Client handle to a running multi-process cluster: one control
/// connection per `serve` process, presenting the same surface the load
/// generator uses against an in-process host.
pub struct RemoteCluster {
    peers: Vec<CtrlPeer>,
    /// Node `i` (1-based) lives on `peers[home[i-1]]`.
    home: Vec<usize>,
    outputs: Vec<Receiver<Output>>,
    /// Kept for re-subscribing after a peer reconnect.
    txs: Vec<Sender<Output>>,
    shards: AtomicU64,
}

/// Dials one peer's control address (retrying until `deadline`),
/// subscribes, and spawns its record reader.
fn dial_ctrl(
    addr: SocketAddr,
    deadline: Instant,
    txs: &[Sender<Output>],
) -> std::io::Result<CtrlPeer> {
    let conn = loop {
        match TcpStream::connect(addr) {
            Ok(c) => break c,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                // A freshly spawned serve binds within milliseconds; a
                // coarse step would make every cold connect lose one.
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    };
    let _ = conn.set_nodelay(true);
    let writer = Mutex::new(conn.try_clone()?);
    write_record(&writer, &[OP_SUBSCRIBE])
        .map_err(|e| std::io::Error::new(e.kind(), format!("subscribe {addr}: {e}")))?;
    let pending = Arc::new(PendingReplies::default());
    let reader = {
        let pending = Arc::clone(&pending);
        let txs = txs.to_vec();
        std::thread::Builder::new()
            .name("newtop-ctrl-rx".into())
            .spawn(move || ctrl_reader_main(conn, &pending, &txs))
            .expect("spawn ctrl reader")
    };
    Ok(CtrlPeer {
        writer,
        pending,
        reader: Some(reader),
    })
}

impl RemoteCluster {
    /// Connects to every peer's control address and subscribes to its
    /// hosted nodes' outputs. Peers still binding are retried for
    /// `timeout` before the whole connect fails.
    ///
    /// # Errors
    ///
    /// The last connection error of a peer that never became reachable,
    /// or a handshake write failure.
    pub fn connect(
        ctrl: &[SocketAddr],
        nodes: u32,
        timeout: Duration,
    ) -> std::io::Result<RemoteCluster> {
        if ctrl.is_empty() || nodes == 0 {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "need at least one control address and one node",
            ));
        }
        #[allow(clippy::cast_possible_truncation)]
        let npeers = ctrl.len() as u32;
        let mut txs: Vec<Sender<Output>> = Vec::new();
        let mut outputs: Vec<Receiver<Output>> = Vec::new();
        for _ in 0..nodes {
            let (tx, rx) = unbounded();
            txs.push(tx);
            outputs.push(rx);
        }
        let home: Vec<usize> = (1..=nodes)
            .map(|i| peer_of(i, nodes, npeers) as usize)
            .collect();
        let deadline = Instant::now() + timeout;
        let mut peers = Vec::new();
        for &addr in ctrl {
            peers.push(dial_ctrl(addr, deadline, &txs)?);
        }
        Ok(RemoteCluster {
            peers,
            home,
            outputs,
            txs,
            shards: AtomicU64::new(0),
        })
    }

    /// Re-establishes the control connection to peer `peer` at `addr`
    /// after its process restarted, re-subscribing to its hosted nodes'
    /// outputs. The old connection's reader is reaped; verdicts it
    /// still owed are abandoned.
    ///
    /// # Errors
    ///
    /// The last connection error if the peer never became reachable
    /// within `timeout`.
    pub fn reconnect_peer(
        &mut self,
        peer: usize,
        addr: SocketAddr,
        timeout: Duration,
    ) -> std::io::Result<()> {
        if peer >= self.peers.len() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                format!(
                    "peer index {peer} out of range ({} peers)",
                    self.peers.len()
                ),
            ));
        }
        {
            let old = &mut self.peers[peer];
            let _ = old
                .writer
                .lock()
                .expect("ctrl writer")
                .shutdown(std::net::Shutdown::Both);
            if let Some(reader) = old.reader.take() {
                let _ = reader.join();
            }
        }
        self.peers[peer] = dial_ctrl(addr, Instant::now() + timeout, &self.txs)?;
        Ok(())
    }

    /// Asks the peer hosting `initiator` to initiate §5.3 formation of
    /// `group` with the given membership, and waits for the engine's
    /// verdict. This is the crash-recovery re-entry path: after a
    /// restarted peer reconnects, a surviving member initiates a fresh
    /// group spanning the survivors and the rejoined nodes.
    ///
    /// # Errors
    ///
    /// [`SendError::NotMember`] if the engine rejected the formation,
    /// the initiator is unknown, or the control connection died.
    pub fn form_group(
        &self,
        initiator: ProcessId,
        group: GroupId,
        members: &[ProcessId],
    ) -> Result<(), SendError> {
        let Some(peer) = self.peer_for(initiator) else {
            return Err(SendError::NotMember { group });
        };
        let mut rec = vec![OP_FORM];
        put_u32(&mut rec, initiator.0);
        put_u32(&mut rec, group.0);
        #[allow(clippy::cast_possible_truncation)]
        put_u32(&mut rec, members.len() as u32);
        for m in members {
            put_u32(&mut rec, m.0);
        }
        let (tx, rx) = unbounded();
        peer.pending
            .verdicts
            .lock()
            .expect("verdict queue")
            .push_back(tx);
        if write_record(&peer.writer, &rec).is_err() {
            let _ = peer
                .pending
                .verdicts
                .lock()
                .expect("verdict queue")
                .pop_back();
            return Err(SendError::NotMember { group });
        }
        rx.recv_timeout(Duration::from_secs(30))
            .unwrap_or(Err(SendError::NotMember { group }))
    }

    /// Waits up to `timeout` for `group` to report active on `node`,
    /// consuming (and discarding) other outputs of that node meanwhile.
    #[must_use]
    pub fn await_group_active(
        &self,
        node: ProcessId,
        group: GroupId,
        timeout: Duration,
    ) -> Option<View> {
        let rx = self.outputs(node)?;
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            match rx.recv_timeout(left) {
                Ok(Output::GroupActive { group: g, view }) if g == group => return Some(view),
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
    }

    fn peer_for(&self, node: ProcessId) -> Option<&CtrlPeer> {
        let home = *self.home.get(node.0.checked_sub(1)? as usize)?;
        self.peers.get(home)
    }

    /// Submits a multicast and hands the engine's eventual verdict to
    /// `reply`; `false` if the op could not be submitted at all.
    pub fn multicast_pipelined(
        &self,
        node: ProcessId,
        group: GroupId,
        payload: &[u8],
        reply: &Sender<Result<(), SendError>>,
    ) -> bool {
        let Some(peer) = self.peer_for(node) else {
            return false;
        };
        let mut rec = vec![OP_MULTICAST];
        put_u32(&mut rec, node.0);
        put_u32(&mut rec, group.0);
        rec.extend_from_slice(payload);
        // Queue the reply slot before writing: the verdict may race back
        // before this thread would otherwise get around to it.
        peer.pending
            .verdicts
            .lock()
            .expect("verdict queue")
            .push_back(reply.clone());
        if write_record(&peer.writer, &rec).is_ok() {
            return true;
        }
        let _ = peer
            .pending
            .verdicts
            .lock()
            .expect("verdict queue")
            .pop_back();
        false
    }

    /// Blocking multicast: submits and waits for the verdict.
    ///
    /// # Errors
    ///
    /// The engine's verdict; a dead control connection reports as
    /// [`SendError::NotMember`].
    pub fn multicast(
        &self,
        node: ProcessId,
        group: GroupId,
        payload: &[u8],
    ) -> Result<(), SendError> {
        let (tx, rx) = unbounded();
        if !self.multicast_pipelined(node, group, payload, &tx) {
            return Err(SendError::NotMember { group });
        }
        rx.recv_timeout(Duration::from_secs(30))
            .unwrap_or(Err(SendError::NotMember { group }))
    }

    /// This node's engine outputs (deliveries and view changes), as
    /// streamed by its host process.
    #[must_use]
    pub fn outputs(&self, node: ProcessId) -> Option<Receiver<Output>> {
        self.outputs.get(node.0.checked_sub(1)? as usize).cloned()
    }

    /// Cluster-wide wire statistics: the sum over every peer's local
    /// accounting. Also refreshes the cached shard total.
    #[must_use]
    pub fn wire_stats(&self) -> Option<WireStats> {
        let mut sum = WireStats::default();
        let mut shards_total = 0u64;
        for peer in &self.peers {
            let (tx, rx) = unbounded();
            peer.pending
                .stats
                .lock()
                .expect("stats queue")
                .push_back(tx);
            write_record(&peer.writer, &[OP_STATS]).ok()?;
            let (stats, shards) = rx.recv_timeout(Duration::from_secs(10)).ok()?;
            sum.frames += stats.frames;
            sum.envelopes += stats.envelopes;
            sum.bytes += stats.bytes;
            sum.null_frames += stats.null_frames;
            for (acc, bucket) in sum.occupancy.iter_mut().zip(stats.occupancy.iter()) {
                *acc += bucket;
            }
            sum.reconnects += stats.reconnects;
            sum.dropped_dead += stats.dropped_dead;
            sum.handshake_rejects += stats.handshake_rejects;
            sum.shed_multicasts += stats.shed_multicasts;
            shards_total += shards;
        }
        self.shards.store(shards_total, Ordering::Relaxed);
        Some(sum)
    }

    /// Total shards across all peers, as of the last
    /// [`RemoteCluster::wire_stats`] call.
    #[must_use]
    pub fn shards_used(&self) -> usize {
        usize::try_from(self.shards.load(Ordering::Relaxed)).unwrap_or(usize::MAX)
    }

    /// Asks every peer process to shut down its cluster and exit, and
    /// waits for each acknowledgement.
    pub fn shutdown_peers(mut self) {
        let mut acks = Vec::new();
        for peer in &self.peers {
            let (tx, rx) = unbounded();
            peer.pending.byes.lock().expect("bye queue").push_back(tx);
            if write_record(&peer.writer, &[OP_SHUTDOWN]).is_ok() {
                acks.push(rx);
            }
        }
        for rx in acks {
            let _ = rx.recv_timeout(Duration::from_secs(10));
        }
        for peer in &mut self.peers {
            // Closing the write half unblocks the reader at EOF.
            let _ = peer
                .writer
                .lock()
                .expect("ctrl writer")
                .shutdown(std::net::Shutdown::Both);
            if let Some(reader) = peer.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

/// Demultiplexes one control connection's inbound records.
fn ctrl_reader_main(mut conn: TcpStream, pending: &PendingReplies, txs: &[Sender<Output>]) {
    let mut dec = RecordDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => {
                dec.push(&buf[..n]);
                loop {
                    let record = match dec.next_record() {
                        Ok(Some(r)) => r,
                        Ok(None) => break,
                        Err(_) => return,
                    };
                    if dispatch_record(record, pending, txs).is_none() {
                        return;
                    }
                }
            }
        }
    }
}

fn dispatch_record(record: &[u8], pending: &PendingReplies, txs: &[Sender<Output>]) -> Option<()> {
    match record.first().copied()? {
        REC_VERDICT => {
            let verdict = match record.get(1).copied()? {
                0 => Ok(()),
                // Admission-boundary shed: preserved as Overloaded so
                // the generator counts backpressure, not churn.
                2 => Err(SendError::Overloaded { group: GroupId(0) }),
                3 => Err(SendError::PayloadTooLarge { group: GroupId(0) }),
                // The group id is not echoed in the error record; the
                // generator only branches on the error kind.
                _ => Err(SendError::NotMember { group: GroupId(0) }),
            };
            let slot = pending
                .verdicts
                .lock()
                .expect("verdict queue")
                .pop_front()?;
            let _ = slot.send(verdict);
        }
        REC_DELIVERY => {
            let mut c = Cursor::new(&record[1..]);
            let node = c.u32().ok()?;
            let group = GroupId(c.u32().ok()?);
            let origin = ProcessId(c.u32().ok()?);
            let msn = Msn(c.u64().ok()?);
            let view_seq = ViewSeq(c.u32().ok()?);
            let payload = Bytes::from(c.rest().to_vec());
            let tx = txs.get(node.checked_sub(1)? as usize)?;
            let _ = tx.send(Output::Delivery(Delivery {
                group,
                origin,
                c: msn,
                view_seq,
                payload,
            }));
        }
        REC_VIEW => {
            let mut c = Cursor::new(&record[1..]);
            let node = c.u32().ok()?;
            let group = GroupId(c.u32().ok()?);
            let count = c.u32().ok()?;
            let mut members = Vec::new();
            for _ in 0..count {
                members.push(ProcessId(c.u32().ok()?));
            }
            let tx = txs.get(node.checked_sub(1)? as usize)?;
            // Sequence numbers are not carried over the control plane;
            // the generator counts view changes, it never orders them.
            let _ = tx.send(Output::ViewChange {
                group,
                view: View::initial(members.clone()),
                signed: SignedView::new(members, 0),
            });
        }
        REC_ACTIVE => {
            let mut c = Cursor::new(&record[1..]);
            let node = c.u32().ok()?;
            let group = GroupId(c.u32().ok()?);
            let count = c.u32().ok()?;
            let mut members = Vec::new();
            for _ in 0..count {
                members.push(ProcessId(c.u32().ok()?));
            }
            let tx = txs.get(node.checked_sub(1)? as usize)?;
            let _ = tx.send(Output::GroupActive {
                group,
                view: View::initial(members),
            });
        }
        REC_STATS => {
            let (stats, shards) = decode_stats(&record[1..]).ok()?;
            let slot = pending.stats.lock().expect("stats queue").pop_front()?;
            let _ = slot.send((stats, shards));
        }
        REC_BYE => {
            let slot = pending.byes.lock().expect("bye queue").pop_front()?;
            let _ = slot.send(());
        }
        _ => return None, // unknown record: sever
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Block assignment: contiguous, exhaustive, balanced within one.
    #[test]
    fn peer_of_blocks_are_contiguous_and_balanced() {
        for (nodes, peers) in [(6u32, 3u32), (7, 3), (9, 4), (3, 3), (5, 1), (4, 4)] {
            let assignment: Vec<u32> = (1..=nodes).map(|i| peer_of(i, nodes, peers)).collect();
            let mut sorted = assignment.clone();
            sorted.sort_unstable();
            assert_eq!(assignment, sorted, "blocks must be contiguous");
            let mut counts = vec![0u32; peers as usize];
            for &p in &assignment {
                counts[p as usize] += 1;
            }
            assert!(counts.iter().all(|&c| c > 0), "every peer hosts something");
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(max - min <= 1, "block sizes differ by at most one");
        }
    }

    /// Round-robin groups over block-assigned nodes span every peer —
    /// the property that makes the loopback smoke test exercise real
    /// sockets.
    #[test]
    fn every_group_spans_every_peer() {
        let (nodes, groups, peers) = (6u32, 2u32, 3u32);
        for g in 0..groups {
            let owners: std::collections::BTreeSet<u32> = members_of(g, nodes, groups)
                .iter()
                .map(|m| peer_of(m.0, nodes, peers))
                .collect();
            assert_eq!(
                owners.len(),
                peers as usize,
                "group {g} must span all peers"
            );
        }
    }

    /// Stats survive the control encoding byte-exactly.
    #[test]
    fn stats_roundtrip() {
        let mut stats = WireStats {
            frames: 7,
            envelopes: 21,
            bytes: 12345,
            null_frames: 2,
            reconnects: 1,
            dropped_dead: 4,
            handshake_rejects: 5,
            shed_multicasts: 9,
            ..WireStats::default()
        };
        for (i, bucket) in stats.occupancy.iter_mut().enumerate() {
            *bucket = i as u64 * 10;
        }
        let rec = encode_stats(&stats, 6);
        assert_eq!(rec[0], REC_STATS);
        let (back, shards) = decode_stats(&rec[1..]).expect("decodes");
        assert_eq!(back, stats);
        assert_eq!(shards, 6);
    }

    /// The record decoder reassembles records across arbitrary splits.
    #[test]
    fn record_decoder_handles_partial_pushes() {
        // Three odd sizes, then a thousand small records that one push
        // carries whole.
        let small = (0..1000u32).map(|i| i.to_le_bytes().to_vec());
        let payloads: Vec<Vec<u8>> = [vec![1], vec![2; 300], vec![3; 5]]
            .into_iter()
            .chain(small)
            .collect();
        let mut encoded = BytesMut::new();
        for p in &payloads {
            put_varint(&mut encoded, p.len() as u64);
            encoded.put_slice(p);
        }
        for chunk_len in [7, 4096, encoded.len()] {
            let mut dec = RecordDecoder::new();
            let mut got = Vec::new();
            for chunk in encoded.chunks(chunk_len) {
                dec.push(chunk);
                while let Some(r) = dec.next_record().expect("well-formed") {
                    got.push(r.to_vec());
                }
            }
            assert_eq!(got, payloads, "chunks of {chunk_len}");
        }
    }

    /// Each refusal kind the client tells apart survives the verdict
    /// record (the group id is not echoed).
    #[test]
    fn verdict_codes_keep_the_refusal_kind() {
        let g = GroupId(0);
        for e in [
            SendError::NotMember { group: g },
            SendError::Overloaded { group: g },
            SendError::PayloadTooLarge { group: g },
        ] {
            let pending = PendingReplies::default();
            let (tx, rx) = bounded(1);
            pending.verdicts.lock().unwrap().push_back(tx);
            let record = [REC_VERDICT, verdict_code(&e)];
            assert!(dispatch_record(&record, &pending, &[]).is_some());
            assert_eq!(rx.try_recv().unwrap(), Err(e));
        }
    }

    /// Seeded random control streams, cut into random chunks, never panic
    /// the record decoder, the client's record dispatch or the server's
    /// op parsing: each record is handled or rejected.
    #[test]
    fn random_control_streams_never_panic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const TAGS: [u8; 11] = [
            OP_MULTICAST,
            OP_SUBSCRIBE,
            OP_STATS,
            OP_SHUTDOWN,
            OP_FORM,
            REC_VERDICT,
            REC_DELIVERY,
            REC_VIEW,
            REC_STATS,
            REC_BYE,
            REC_ACTIVE,
        ];
        let (tx, _rx) = unbounded();
        let txs = vec![tx.clone(), tx];
        let (mut handled, mut rejected, mut severed) = (0u32, 0u32, 0u32);
        for seed in 0..2000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pending = PendingReplies::default();
            for _ in 0..4 {
                pending.verdicts.lock().unwrap().push_back(bounded(1).0);
                pending.stats.lock().unwrap().push_back(bounded(1).0);
                pending.byes.lock().unwrap().push_back(bounded(1).0);
            }
            // Records with mostly honest length prefixes and known tags,
            // so the parsers see both well-formed and truncated bodies;
            // now and then a junk or overlong prefix.
            let mut stream = BytesMut::new();
            for _ in 0..rng.gen_range(1usize..12) {
                let len = rng.gen_range(0usize..48);
                let mut body: Vec<u8> = (0..len)
                    .map(|_| match rng.gen_range(0u8..3) {
                        0 => rng.gen_range(0u8..=255),
                        _ => rng.gen_range(0u8..3),
                    })
                    .collect();
                if let Some(tag) = body.first_mut() {
                    *tag = TAGS[rng.gen_range(0usize..TAGS.len())];
                }
                match rng.gen_range(0u8..16) {
                    0 => stream.put_slice(&[0xFF; 10]),
                    1 => put_varint(&mut stream, rng.gen_range(0u64..=u64::MAX)),
                    _ => put_varint(&mut stream, body.len() as u64),
                }
                stream.put_slice(&body);
            }
            let mut dec = RecordDecoder::new();
            let mut rest: &[u8] = &stream;
            'stream: while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(rng.gen_range(1..=rest.len()));
                rest = tail;
                dec.push(chunk);
                loop {
                    let record = match dec.next_record() {
                        Ok(Some(r)) => r,
                        Ok(None) => break,
                        Err(_) => {
                            severed += 1;
                            break 'stream;
                        }
                    };
                    let body = record.get(1..).unwrap_or_default();
                    let _ = parse_multicast(body);
                    let _ = parse_form(body);
                    match dispatch_record(record, &pending, &txs) {
                        Some(()) => handled += 1,
                        None => rejected += 1,
                    }
                }
            }
        }
        assert!(
            handled > 0 && rejected > 0 && severed > 0,
            "{handled}/{rejected}/{severed}"
        );
    }
}
