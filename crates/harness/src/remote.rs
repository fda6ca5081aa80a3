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
//! Every process of a cluster holds the same [`ClusterShape`]: the node
//! and group counts and the one [`GroupConfig`] all groups run. A serve
//! process gets it from its flags, and a spawner renders those flags with
//! [`ClusterShape::serve_args`], which refuses a shape they cannot say
//! rather than rounding it. Node `i` of `N` lives on peer
//! [`peer_of`]`(i, N, P)` — contiguous blocks, so peers own
//! cache-friendly ranges — while group `g` takes every node with
//! `(i-1) % groups == g` ([`members_of`]), on the sharded host too.
//! Round-robin groups over block-assigned nodes guarantee that every
//! group spans every peer: all application traffic crosses real sockets.

use bytes::{BufMut, Bytes, BytesMut};
use crossbeam::channel::{bounded, unbounded, Receiver, Select, Sender, TryRecvError};
use newtop_core::{Delivery, FormationFailure};
use newtop_runtime::{Cluster, ClusterConfig, Output, RunningCluster, TcpConfig, WireStats};
use newtop_types::wire::{peek_varint, put_varint};
use newtop_types::{
    DeliveryMode, GroupConfig, GroupId, Msn, OrderMode, ProcessId, SendError, SignedView, Span,
    SuspicionMode, View, ViewSeq,
};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which peer hosts node `i` (1-based) of `nodes`, across `peers`
/// processes: contiguous blocks whose sizes differ by at most one.
#[must_use]
pub fn peer_of(i: u32, nodes: u32, peers: u32) -> u32 {
    assert!(i >= 1 && i <= nodes && peers >= 1, "peer_of out of range");
    ((i - 1) * peers) / nodes
}

/// Members of group `g` (0-based): every node with `(i-1) % groups == g`.
#[must_use]
pub fn members_of(g: u32, nodes: u32, groups: u32) -> Vec<ProcessId> {
    (1..=nodes)
        .filter(|i| (i - 1) % groups == g)
        .map(ProcessId)
        .collect()
}

/// The cluster every member must agree on before the first message
/// (§3–§4): the nodes, their round-robin groups, and the one
/// configuration every group runs. `serve`, `load` and the supervisor
/// each hold one, and the supervisor hands its own to the processes it
/// spawns through [`ClusterShape::serve_args`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterShape {
    /// Protocol participants cluster-wide (numbered 1..=nodes).
    pub nodes: u32,
    /// Groups; node `i` joins group `(i-1) % groups`.
    pub groups: u32,
    /// What every group runs.
    pub group: GroupConfig,
}

impl Default for ClusterShape {
    /// `serve`'s defaults: no nodes yet, one group, symmetric order,
    /// ω 25 ms, Ω 10 s, fixed-Ω suspicion.
    fn default() -> ClusterShape {
        ClusterShape {
            nodes: 0,
            groups: 1,
            group: GroupConfig::new(OrderMode::Symmetric)
                .with_omega(Span::from_millis(25))
                .with_big_omega(Span::from_secs(10)),
        }
    }
}

impl ClusterShape {
    /// Members of group `g` (0-based).
    #[must_use]
    pub fn members(&self, g: u32) -> Vec<ProcessId> {
        members_of(g, self.nodes, self.groups)
    }

    /// Checks `1 <= groups <= nodes` and the group configuration.
    ///
    /// # Errors
    ///
    /// What is wrong with the shape, in words.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 || self.groups == 0 || self.groups > self.nodes {
            return Err("need 1 <= groups <= nodes".into());
        }
        self.group.validate().map_err(|e| e.to_string())
    }

    /// The `serve` flags that reproduce this shape.
    ///
    /// # Errors
    ///
    /// The shape is invalid, or the flags cannot say it: a timeout that
    /// is not a whole number of milliseconds, accrual parameters other
    /// than [`SuspicionMode::accrual`], a flow window, or atomic
    /// delivery.
    pub fn serve_args(&self) -> Result<Vec<String>, String> {
        self.validate()?;
        let g = &self.group;
        let ms = |flag: &str, span: Span| match span.as_micros() % 1000 {
            0 => Ok((span.as_micros() / 1000).to_string()),
            _ => Err(format!("{flag} cannot express {} µs", span.as_micros())),
        };
        if g.flow_window.is_some() || g.delivery != DeliveryMode::Total {
            return Err("serve has no flags for a flow window or atomic delivery".into());
        }
        let mut args: Vec<String> = [
            "--nodes",
            &self.nodes.to_string(),
            "--groups",
            &self.groups.to_string(),
            "--mode",
            match g.mode {
                OrderMode::Symmetric => "sym",
                OrderMode::Asymmetric => "asym",
            },
            "--omega-ms",
            &ms("--omega-ms", g.omega)?,
            "--big-omega-ms",
            &ms("--big-omega-ms", g.big_omega)?,
        ]
        .map(String::from)
        .into();
        match g.suspicion {
            SuspicionMode::FixedOmega => {}
            s if s == SuspicionMode::accrual() => args.push("--accrual".into()),
            s => return Err(format!("--accrual cannot express {s:?}")),
        }
        Ok(args)
    }
}

/// Everything one `serve` process needs to know about the cluster.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The nodes, groups and group configuration every peer agrees on.
    pub shape: ClusterShape,
    /// Data-plane addresses of every peer, cluster order.
    pub peers: Vec<SocketAddr>,
    /// Control-plane addresses of every peer, same order.
    pub ctrl: Vec<SocketAddr>,
    /// This process's index into both address lists.
    pub me: usize,
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
    /// A bootstrapping peer of `shape` with the default host knobs.
    #[must_use]
    pub fn new(
        shape: ClusterShape,
        peers: Vec<SocketAddr>,
        ctrl: Vec<SocketAddr>,
        me: usize,
    ) -> ServeConfig {
        ServeConfig {
            shape,
            peers,
            ctrl,
            me,
            bootstrap: true,
            cluster: ClusterConfig::new(),
        }
    }

    #[allow(clippy::cast_possible_truncation)]
    fn npeers(&self) -> u32 {
        self.peers.len() as u32
    }

    fn hosted(&self) -> Vec<ProcessId> {
        #[allow(clippy::cast_possible_truncation)]
        let me = self.me as u32;
        (1..=self.shape.nodes)
            .filter(|&i| peer_of(i, self.shape.nodes, self.npeers()) == me)
            .map(ProcessId)
            .collect()
    }

    fn owners(&self) -> Vec<(ProcessId, u32)> {
        (1..=self.shape.nodes)
            .map(|i| (ProcessId(i), peer_of(i, self.shape.nodes, self.npeers())))
            .collect()
    }

    /// Checks the address lists, the peer index and the shape. [`serve`]
    /// runs it before anything else.
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
        self.shape.validate()
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
const REC_FAILED: u8 = 0x87;
/// The kinds of a [`REC_FAILED`] record's reason.
const FAILED_VETOED: u8 = 0;
const FAILED_TIMED_OUT: u8 = 1;

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

/// The most bytes a control connection queues unwritten: a producer
/// whose records would overfill the queue waits for room (unless the
/// queue is empty, so an oversized record still goes alone). A forwarder
/// wake gathers at most about this much output, too.
const FORWARD_BATCH: usize = 64 * 1024;

/// Reply slots a control connection is still owed, in submission order.
/// Only the client registers any; a serve's connection leaves them empty.
#[derive(Default)]
struct PendingReplies {
    verdicts: VecDeque<Sender<Result<(), SendError>>>,
    stats: VecDeque<Sender<(WireStats, u64)>>,
    byes: VecDeque<Sender<()>>,
}

impl PendingReplies {
    /// Answers every owed verdict with `NotMember`; dropping the stats
    /// and bye slots disconnects their waiters.
    fn fail(self) {
        for slot in self.verdicts {
            let _ = slot.send(Err(SendError::NotMember { group: GroupId(0) }));
        }
    }
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum LinkState {
    #[default]
    Open,
    /// Takes no more records; what is queued still goes out.
    Closing,
    /// The socket failed or was shut: nothing more is sent.
    Dead,
}

/// What a [`CtrlWriter`] guards with its lock.
#[derive(Default)]
struct Outbox {
    /// Whole framed records not yet handed to the kernel.
    buf: BytesMut,
    /// Registered in the same critical section that queues the record
    /// asking for them, so slot order is wire order.
    owed: PendingReplies,
    /// The buffer `buf` was last swapped with, kept for its capacity.
    spare: BytesMut,
    /// Producers waiting for room in `buf`.
    waiting: usize,
    /// The writer thread waits for records (so `buf` is empty).
    idle: bool,
    /// A thread is writing a batch swapped out of `buf`, and clears this
    /// only once `buf` is empty: records appended meanwhile go out in its
    /// next write. On a combining writer `buf` is never left non-empty
    /// without it.
    writing: bool,
    state: LinkState,
}

/// The write half of one control connection, on either end — every
/// record the connection sends goes through it. Producers (any thread)
/// append framed records to one buffer under a lock, and [`drain`]
/// swaps the buffer out and hands it to the kernel with one `write_all`,
/// so every record queued while the previous write was in the kernel
/// goes out in the next one. A batch is whatever queued meanwhile: there
/// is no timer, and the only bound is the [`FORWARD_BATCH`] backpressure
/// cap.
///
/// Who drains depends on the end. A serve's writer combines (flat
/// combining): the producer that appends while no write is in flight
/// drains, and one that finds a write in flight only appends. A client's
/// writer has a writer thread, which producers wake when it is idle: the
/// client's one producer, the generator, has no point at which to flush,
/// so combining would write once per multicast.
///
/// [`drain`]: CtrlWriter::drain
struct CtrlWriter {
    stream: TcpStream,
    outbox: Mutex<Outbox>,
    /// Wakes the writer thread when records arrive, producers when room
    /// frees, and all of them (and a closer waiting for a write in
    /// flight) when the connection closes.
    wake: Condvar,
    /// Producers drain after they append, instead of waking a writer
    /// thread.
    combining: bool,
}

impl CtrlWriter {
    /// A combining writer over `stream`: no thread of its own.
    fn new(stream: TcpStream) -> CtrlWriter {
        CtrlWriter {
            stream,
            outbox: Mutex::default(),
            wake: Condvar::new(),
            combining: true,
        }
    }

    /// Takes over `stream` for writing and starts its writer thread.
    fn spawn(stream: TcpStream) -> (Arc<CtrlWriter>, JoinHandle<()>) {
        let writer = Arc::new(CtrlWriter {
            combining: false,
            ..CtrlWriter::new(stream)
        });
        let thread = {
            let writer = Arc::clone(&writer);
            std::thread::Builder::new()
                .name("newtop-ctrl-tx".into())
                .spawn(move || writer.run())
                .expect("spawn ctrl writer")
        };
        (writer, thread)
    }

    /// Every update leaves the outbox whole, and `kill` runs from `Drop`,
    /// so a panicked holder's lock is taken over rather than propagated.
    fn lock(&self) -> MutexGuard<'_, Outbox> {
        self.outbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues one record and, in the same critical section, registers
    /// with `owe` the replies it asks for. `false` once the connection
    /// is closing or dead.
    fn send_record(&self, body: &[u8], owe: impl FnOnce(&mut PendingReplies)) -> bool {
        // A varint length prefix takes at most 10 bytes.
        self.append(body.len() + 10, |out| {
            put_record(&mut out.buf, body);
            owe(&mut out.owed);
        })
    }

    /// Queues a buffer of whole framed records that owe no replies.
    fn send_records(&self, records: &[u8]) -> bool {
        self.append(records.len(), |out| out.buf.put_slice(records))
    }

    /// Waits until `len` more bytes fit under the cap, then runs `fill`
    /// and drains (combining) or wakes an idle writer thread.
    fn append(&self, len: usize, fill: impl FnOnce(&mut Outbox)) -> bool {
        let mut out = self.lock();
        while out.state == LinkState::Open
            && !out.buf.is_empty()
            && out.buf.len() + len > FORWARD_BATCH
        {
            out.waiting += 1;
            out = self.wait(out);
            out.waiting -= 1;
        }
        if out.state != LinkState::Open {
            return false;
        }
        fill(&mut out);
        if self.combining {
            drop(self.drain(out));
        } else if out.idle {
            self.wake.notify_all();
        }
        true
    }

    fn wait<'a>(&self, out: MutexGuard<'a, Outbox>) -> MutexGuard<'a, Outbox> {
        self.wake.wait(out).unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes the outbox out, one `write_all` per swapped-out batch,
    /// until it is empty — unless a write is already in flight: the
    /// thread making it sends these records too, since it clears
    /// `writing` only under the lock that finds the outbox empty. Takes
    /// and returns the lock; the write itself runs outside it.
    fn drain<'a>(&'a self, mut out: MutexGuard<'a, Outbox>) -> MutexGuard<'a, Outbox> {
        if out.writing {
            return out;
        }
        out.writing = true;
        let mut batch = std::mem::take(&mut out.spare);
        while !out.buf.is_empty() {
            std::mem::swap(&mut out.buf, &mut batch);
            if out.waiting > 0 {
                self.wake.notify_all();
            }
            drop(out);
            let sent = (&self.stream).write_all(&batch).is_ok();
            batch.clear();
            if !sent {
                self.kill();
            }
            out = self.lock();
        }
        out.spare = batch;
        out.writing = false;
        if out.state != LinkState::Open {
            // A closer may be waiting for this write.
            self.wake.notify_all();
        }
        out
    }

    /// The writer thread: drains each burst of queued records.
    fn run(&self) {
        let mut out = self.lock();
        loop {
            // A closer may be draining; its write ends with a wake.
            while out.writing || (out.buf.is_empty() && out.state == LinkState::Open) {
                out.idle = true;
                out = self.wait(out);
                out.idle = false;
            }
            if out.state == LinkState::Dead || out.buf.is_empty() {
                return;
            }
            out = self.drain(out);
        }
    }

    /// Whether the connection still takes records.
    fn is_open(&self) -> bool {
        self.lock().state == LinkState::Open
    }

    /// Takes no more records and returns once what is queued has been
    /// sent (or the connection died), including by a write already in
    /// flight on another thread.
    fn close(&self) {
        let mut out = self.lock();
        if out.state == LinkState::Open {
            out.state = LinkState::Closing;
        }
        // Producers waiting for room give up; an idle writer thread exits.
        self.wake.notify_all();
        out = self.drain(out);
        while out.writing {
            out = self.wait(out);
        }
    }

    /// Ends the connection now: queued records are dropped, every reply
    /// still owed fails at once, later sends return `false`, and the
    /// socket shuts both ways, so the peer and this end's reader see EOF.
    fn kill(&self) {
        let owed = {
            let mut out = self.lock();
            out.state = LinkState::Dead;
            out.buf.clear();
            std::mem::take(&mut out.owed)
        };
        self.wake.notify_all();
        let _ = self.stream.shutdown(Shutdown::Both);
        owed.fail();
    }

    /// Pops one owed reply slot, for the connection's reader.
    fn take_owed<T>(&self, pop: impl FnOnce(&mut PendingReplies) -> Option<T>) -> Option<T> {
        pop(&mut self.lock().owed)
    }
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
    let group_cfg = cfg.shape.group;
    if cfg.bootstrap {
        for g in 0..cfg.shape.groups {
            cluster
                .bootstrap_group_local(GroupId(g + 1), cfg.shape.members(g), group_cfg)
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
                reap_finished(&mut handlers);
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

/// Joins the handlers that have exited, so a long-lived serve does not
/// keep a dead thread's stack for every connection it ever accepted.
fn reap_finished(handlers: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < handlers.len() {
        if handlers[i].is_finished() {
            let _ = handlers.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Serves one control connection: ops in, verdicts + subscribed
/// outputs out. A shutdown op flips the server-wide stop flag.
///
/// The connection has two threads: this one, which reads ops, and after
/// a subscribe one forwarder. Both write what they produce themselves
/// through the connection's combining [`CtrlWriter`]. That cannot
/// deadlock against a client that is itself blocked writing ops: the
/// client's reader ([`ctrl_reader_main`]) never writes, so it keeps
/// reading, every write here completes, and this thread then resumes
/// reading ops.
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
    let Ok(write_half) = conn.try_clone() else {
        return;
    };
    let writer = Arc::new(CtrlWriter::new(write_half));
    let mut reader = conn;
    let mut dec = RecordDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    let mut forwarder: Option<JoinHandle<()>> = None;
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
                    if !verdicts.flush(&writer)
                        || !handle_op(
                            running,
                            hosted,
                            group_cfg,
                            &writer,
                            stop,
                            &mut forwarder,
                            record,
                        )
                    {
                        break 'conn;
                    }
                }
                if !verdicts.flush(&writer) {
                    break;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    // Sends what is still queued (a shutdown's bye), after any write the
    // forwarder has in flight; the forwarder's next append then fails.
    writer.close();
    if let Some(f) = forwarder {
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

impl Owed {
    /// Waits for the verdict if the shard has not answered yet; returns
    /// the verdict record's code and text.
    fn settle(self) -> (u8, String) {
        match self {
            Owed::Malformed(e) => (1, e),
            Owed::Verdict(group, slot) => match slot
                .and_then(|rx| rx.recv().ok())
                .unwrap_or(Err(SendError::NotMember { group }))
            {
                Ok(()) => (0, String::new()),
                Err(e) => (verdict_code(&e), e.to_string()),
            },
        }
    }
}

/// The multicasts a control connection has submitted but not yet
/// answered, in submission order. Every multicast of one read is
/// submitted before any verdict is awaited, so the shard round trips
/// overlap instead of queueing one behind another; the verdicts then go
/// to the writer in order, in one append.
#[derive(Default)]
struct Verdicts {
    owed: Vec<Owed>,
    /// The outgoing batch, reused across flushes.
    out: BytesMut,
}

impl Verdicts {
    /// Submits one `OP_MULTICAST` record to its node's shard.
    fn submit(&mut self, running: &RunningCluster, record: &[u8]) {
        let (node, group, payload) = match parse_multicast(&record[1..]) {
            Ok(op) => op,
            Err(e) => {
                self.owed.push(Owed::Malformed(e));
                return;
            }
        };
        let slot = running.node(node).and_then(|n| {
            let (tx, rx) = bounded(1);
            n.multicast_pipelined(group, Bytes::from(payload.to_vec()), &tx)
                .then_some(rx)
        });
        self.owed.push(Owed::Verdict(group, slot));
    }

    /// Awaits every owed verdict and queues them all, in submission
    /// order, with one append; `false` once the connection is closing or
    /// dead.
    ///
    /// The verdicts are awaited newest first. A shard answers its
    /// commands in order, so once the newest verdict owed by a shard is
    /// in, every older one there is too: the control thread parks at
    /// most once per shard, not once per op.
    fn flush(&mut self, writer: &CtrlWriter) -> bool {
        if self.owed.is_empty() {
            return true;
        }
        let settled: Vec<(u8, String)> = self.owed.drain(..).rev().map(Owed::settle).collect();
        self.out.clear();
        for (code, text) in settled.iter().rev() {
            put_varint(&mut self.out, 2 + text.len() as u64);
            self.out.put_slice(&[REC_VERDICT, *code]);
            self.out.put_slice(text.as_bytes());
        }
        writer.send_records(&self.out)
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
    writer: &Arc<CtrlWriter>,
    stop: &Arc<AtomicBool>,
    forwarder: &mut Option<JoinHandle<()>>,
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
            writer.send_record(&rec, |_| {})
        }
        Some(OP_SUBSCRIBE) => {
            if forwarder.is_none() {
                let outputs: Vec<(ProcessId, Receiver<Output>)> = hosted
                    .iter()
                    .map(|&node| {
                        let rx = running.node(node).expect("hosted node").outputs();
                        (node, rx.clone())
                    })
                    .collect();
                let writer = Arc::clone(writer);
                let stop = Arc::clone(stop);
                *forwarder = Some(
                    std::thread::Builder::new()
                        .name("newtop-fwd".into())
                        .spawn(move || forward_outputs(outputs, &writer, &stop))
                        .expect("spawn output forwarder"),
                );
            }
            true
        }
        Some(OP_STATS) => {
            let rec = encode_stats(&running.wire_stats(), running.shard_count() as u64);
            writer.send_record(&rec, |_| {})
        }
        Some(OP_SHUTDOWN) => {
            // Sent by this append's drain, or by the write in flight.
            let _ = writer.send_record(&[REC_BYE], |_| {});
            stop.store(true, Ordering::Relaxed);
            // Wake the blocking accept in `serve`: this connection's own
            // local address is the control listener's.
            if let Ok(addr) = writer.stream.local_addr() {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
            }
            false
        }
        _ => false, // unknown op: drop the connection
    }
}

/// Streams every hosted node's engine outputs to the subscribed client
/// from one thread that waits on all their output channels at once.
/// Each wake drains what is already queued on every channel without
/// blocking (up to [`FORWARD_BATCH`] bytes, starting one node further on
/// each time so that none is starved) and hands it to the writer as one
/// append. Returns once the connection closes, the serve stops, or every
/// channel has disconnected.
fn forward_outputs(
    mut outputs: Vec<(ProcessId, Receiver<Output>)>,
    writer: &CtrlWriter,
    stop: &AtomicBool,
) {
    let mut rec = Vec::new();
    let mut batch = BytesMut::new();
    let mut first = 0;
    while !outputs.is_empty() {
        let mut sel = Select::new();
        for (_, rx) in &outputs {
            sel.recv(rx);
        }
        let gone = loop {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            // The timeout only polls the stop flag and the connection.
            if sel.ready_timeout(Duration::from_millis(50)).is_err() {
                if !writer.is_open() {
                    return;
                }
                continue;
            }
            batch.clear();
            let mut gone = None;
            for k in 0..outputs.len() {
                let i = (first + k) % outputs.len();
                let (node, rx) = &outputs[i];
                while batch.len() < FORWARD_BATCH {
                    match rx.try_recv() {
                        Ok(out) => {
                            if encode_output(*node, &out, &mut rec) {
                                put_record(&mut batch, &rec);
                            }
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            gone = Some(i);
                            break;
                        }
                    }
                }
            }
            first = (first + 1) % outputs.len();
            if !batch.is_empty() && !writer.send_records(&batch) {
                return;
            }
            if let Some(i) = gone {
                break i;
            }
        };
        // A disconnected channel is always ready: select without it.
        drop(sel);
        outputs.remove(gone);
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
        Output::FormationFailed { group, reason } => {
            rec.push(REC_FAILED);
            put_u32(rec, node.0);
            put_u32(rec, group.0);
            // A veto names its voter; a timed-out collection, the members
            // whose vote never arrived.
            let (kind, pids) = match reason {
                FormationFailure::Vetoed { by } => (FAILED_VETOED, std::slice::from_ref(by)),
                FormationFailure::TimedOut { missing } => (FAILED_TIMED_OUT, &missing[..]),
            };
            rec.push(kind);
            pids.iter().for_each(|p| put_u32(rec, p.0));
            return true;
        }
        // Trace events stay local; the control plane forwards what the
        // generator and supervisor consume.
        Output::Event(_) => return false,
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

/// One control connection of a [`RemoteCluster`]: the writer every op
/// goes through, and its reader and writer threads.
struct CtrlPeer {
    writer: Arc<CtrlWriter>,
    threads: Vec<JoinHandle<()>>,
}

impl Drop for CtrlPeer {
    /// Closes the connection (the replies it still owes fail at once)
    /// and joins its threads.
    fn drop(&mut self) {
        self.writer.kill();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Client handle to a running multi-process cluster: one control
/// connection per `serve` process, presenting the same surface the load
/// generator uses against an in-process host. Dropping it closes every
/// control connection and joins their threads.
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
/// subscribes, and spawns its writer and record reader.
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
    let (writer, writer_thread) = CtrlWriter::spawn(conn.try_clone()?);
    // A fresh writer is open; a peer that died meanwhile shows at the
    // reader's EOF.
    writer.send_record(&[OP_SUBSCRIBE], |_| {});
    let reader = {
        let writer = Arc::clone(&writer);
        let txs = txs.to_vec();
        std::thread::Builder::new()
            .name("newtop-ctrl-rx".into())
            .spawn(move || ctrl_reader_main(conn, &writer, &txs))
            .expect("spawn ctrl reader")
    };
    Ok(CtrlPeer {
        writer,
        threads: vec![reader, writer_thread],
    })
}

impl RemoteCluster {
    /// Connects to every peer's control address and subscribes to its
    /// hosted nodes' outputs. Peers still binding are retried for
    /// `timeout` before the whole connect fails.
    ///
    /// # Errors
    ///
    /// The last connection error of a peer that never became reachable.
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
    /// outputs. The old connection is closed first: the replies it still
    /// owed fail at once, and its threads are reaped.
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
        self.peers[peer].writer.kill();
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
        if !peer
            .writer
            .send_record(&rec, |owed| owed.verdicts.push_back(tx))
        {
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
        let len = 9 + payload.len();
        // The record is framed straight into the outbox, and its slot is
        // queued with it in one critical section: concurrent submitters
        // cannot swap their verdicts. A varint length prefix takes at most
        // 10 bytes.
        peer.writer.append(len + 10, |out| {
            put_varint(&mut out.buf, len as u64);
            out.buf.put_u8(OP_MULTICAST);
            out.buf.put_slice(&node.0.to_le_bytes());
            out.buf.put_slice(&group.0.to_le_bytes());
            out.buf.put_slice(payload);
            out.owed.verdicts.push_back(reply.clone());
        })
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
        for peer in 0..self.peers.len() {
            let (stats, shards) = self.peer_stats(peer)?;
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

    /// Peer `peer`'s own wire statistics and shard count; `None` when
    /// its control connection is down or it does not answer.
    pub(crate) fn peer_stats(&self, peer: usize) -> Option<(WireStats, u64)> {
        let (tx, rx) = unbounded();
        if !self
            .peers
            .get(peer)?
            .writer
            .send_record(&[OP_STATS], |owed| owed.stats.push_back(tx))
        {
            return None;
        }
        rx.recv_timeout(Duration::from_secs(10)).ok()
    }

    /// Total shards across all peers, as of the last
    /// [`RemoteCluster::wire_stats`] call.
    #[must_use]
    pub fn shards_used(&self) -> usize {
        usize::try_from(self.shards.load(Ordering::Relaxed)).unwrap_or(usize::MAX)
    }

    /// Asks every peer process to shut down its cluster and exit, and
    /// waits for each acknowledgement; then closes the connections.
    pub fn shutdown_peers(self) {
        let mut acks = Vec::new();
        for peer in &self.peers {
            let (tx, rx) = unbounded();
            if peer
                .writer
                .send_record(&[OP_SHUTDOWN], |owed| owed.byes.push_back(tx))
            {
                acks.push(rx);
            }
        }
        for rx in acks {
            let _ = rx.recv_timeout(Duration::from_secs(10));
        }
    }
}

/// Demultiplexes one control connection's inbound records. When the
/// stream ends, fails or turns malformed, the connection is killed, so
/// every reply it still owes fails at once.
fn ctrl_reader_main(mut conn: TcpStream, writer: &CtrlWriter, txs: &[Sender<Output>]) {
    let mut dec = RecordDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    'conn: loop {
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                dec.push(&buf[..n]);
                loop {
                    let record = match dec.next_record() {
                        Ok(Some(r)) => r,
                        Ok(None) => break,
                        Err(_) => break 'conn,
                    };
                    if dispatch_record(record, writer, txs).is_none() {
                        break 'conn;
                    }
                }
            }
        }
    }
    writer.kill();
}

fn dispatch_record(record: &[u8], writer: &CtrlWriter, txs: &[Sender<Output>]) -> Option<()> {
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
            let slot = writer.take_owed(|owed| owed.verdicts.pop_front())?;
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
        REC_FAILED => {
            let mut c = Cursor::new(&record[1..]);
            let node = c.u32().ok()?;
            let group = GroupId(c.u32().ok()?);
            let (kind, pids) = c.rest().split_first()?;
            if pids.len() % 4 != 0 {
                return None;
            }
            let mut pids = pids
                .chunks_exact(4)
                .map(|b| ProcessId(u32::from_le_bytes(b.try_into().expect("4 bytes"))));
            let reason = match (*kind, pids.len()) {
                (FAILED_VETOED, 1) => FormationFailure::Vetoed { by: pids.next()? },
                (FAILED_TIMED_OUT, _) => FormationFailure::TimedOut {
                    missing: pids.collect(),
                },
                _ => return None,
            };
            let tx = txs.get(node.checked_sub(1)? as usize)?;
            let _ = tx.send(Output::FormationFailed { group, reason });
        }
        REC_STATS => {
            let (stats, shards) = decode_stats(&record[1..]).ok()?;
            let slot = writer.take_owed(|owed| owed.stats.pop_front())?;
            let _ = slot.send((stats, shards));
        }
        REC_BYE => {
            let slot = writer.take_owed(|owed| owed.byes.pop_front())?;
            let _ = slot.send(());
        }
        _ => return None, // unknown record: sever
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Both ends of one loopback connection.
    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let near = TcpStream::connect(listener.local_addr().expect("local addr")).expect("dial");
        let (far, _) = listener.accept().expect("accept");
        (near, far)
    }

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

    /// A failed formation survives the control plane with its node,
    /// group and reason, for both reasons.
    #[test]
    fn formation_failures_roundtrip() {
        let (tx, rx) = unbounded();
        let txs = vec![unbounded().0, tx];
        let writer = CtrlWriter::new(loopback_pair().0);
        for reason in [
            FormationFailure::TimedOut { missing: vec![] },
            FormationFailure::TimedOut {
                missing: vec![ProcessId(1), ProcessId(3)],
            },
            FormationFailure::Vetoed { by: ProcessId(3) },
        ] {
            let out = Output::FormationFailed {
                group: GroupId(7),
                reason: reason.clone(),
            };
            let mut rec = Vec::new();
            assert!(encode_output(ProcessId(2), &out, &mut rec));
            assert_eq!(rec[0], REC_FAILED);
            assert!(dispatch_record(&rec, &writer, &txs).is_some());
            match rx.try_recv().expect("dispatched to node 2") {
                Output::FormationFailed { group, reason: got } => {
                    assert_eq!(group, GroupId(7));
                    assert_eq!(got, reason);
                }
                other => panic!("unexpected output {other:?}"),
            }
        }
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
            let writer = CtrlWriter::new(loopback_pair().0);
            let (tx, rx) = bounded(1);
            writer.lock().owed.verdicts.push_back(tx);
            let record = [REC_VERDICT, verdict_code(&e)];
            assert!(dispatch_record(&record, &writer, &[]).is_some());
            assert_eq!(rx.try_recv().unwrap(), Err(e));
        }
    }

    /// One read's burst of multicasts is answered in submission order,
    /// though its verdicts are awaited newest first: accepted and refused
    /// ops for nodes on both shards, a malformed op (code 1 with its parse
    /// error) and an op for a node this serve does not host (`NotMember`).
    #[test]
    fn a_burst_of_verdicts_keeps_submission_order() {
        let mut cluster = Cluster::with_config(ClusterConfig::new().shards(2));
        for n in 1..=4 {
            cluster.add_process(ProcessId(n));
        }
        let (g1, g2) = (GroupId(1), GroupId(2));
        let cfg = GroupConfig::new(OrderMode::Symmetric);
        cluster
            .bootstrap_group(g1, (1..=4).map(ProcessId), cfg)
            .expect("bootstrap g1");
        cluster
            .bootstrap_group(g2, [ProcessId(1), ProcessId(2)], cfg)
            .expect("bootstrap g2");
        // Nodes 1 and 3 land on shard 0, nodes 2 and 4 on shard 1.
        let running = cluster.start();
        assert_eq!(running.shard_count(), 2);
        let op = |node: u32, group: GroupId| {
            let mut rec = vec![OP_MULTICAST];
            put_u32(&mut rec, node);
            put_u32(&mut rec, group.0);
            rec.extend_from_slice(b"payload");
            rec
        };
        let accepted = (0, String::new());
        let refused = |group| (1, SendError::NotMember { group }.to_string());
        let malformed = vec![OP_MULTICAST, 7, 0];
        let parse_error = parse_multicast(&malformed[1..]).expect_err("truncated");
        let burst = [
            (op(1, g1), accepted.clone()),
            (op(2, g1), accepted.clone()),
            (malformed, (1, parse_error)),
            (op(3, g2), refused(g2)),
            (op(9, g1), refused(g1)),
            (op(4, g1), accepted.clone()),
            (op(2, g2), accepted.clone()),
            (op(4, g2), refused(g2)),
            (op(1, g2), accepted),
        ];
        let (near, mut far) = loopback_pair();
        let writer = CtrlWriter::new(near);
        let mut verdicts = Verdicts::default();
        for (record, _) in &burst {
            verdicts.submit(&running, record);
        }
        assert!(verdicts.flush(&writer));
        // The flush drained itself; the peer reads every verdict.
        writer.close();
        drop(writer);
        let mut wire = Vec::new();
        far.read_to_end(&mut wire).expect("read verdicts");
        let mut dec = RecordDecoder::new();
        dec.push(&wire);
        let mut got = Vec::new();
        while let Some(r) = dec.next_record().expect("well-formed") {
            assert_eq!(r[0], REC_VERDICT);
            got.push((r[1], String::from_utf8(r[2..].to_vec()).expect("utf-8")));
        }
        let want: Vec<(u8, String)> = burst.into_iter().map(|(_, v)| v).collect();
        assert_eq!(got, want);
        running.shutdown();
    }

    /// Runs `producers` threads that send 4 KiB records through `writer`
    /// to `silent_peer`, which never reads, until none has made progress
    /// for 200 ms while one waits for room; checks meanwhile that the
    /// outbox never holds more than `FORWARD_BATCH` bytes. Then closes
    /// the peer and returns what each producer's last send returned.
    fn send_to_a_silent_peer(
        writer: &CtrlWriter,
        silent_peer: TcpStream,
        producers: usize,
    ) -> Vec<bool> {
        const RECORD: usize = 4096;
        // Far beyond what loopback socket buffers absorb.
        const TOTAL: usize = 64 << 20;
        let queued = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..producers)
                .map(|_| {
                    scope.spawn(|| {
                        let body = vec![0u8; RECORD];
                        for _ in 0..TOTAL / RECORD {
                            if !writer.send_record(&body, |_| {}) {
                                return false;
                            }
                            queued.fetch_add(1, Ordering::Relaxed);
                        }
                        true
                    })
                })
                .collect();
            let deadline = Instant::now() + Duration::from_secs(30);
            let (mut last, mut still) = (usize::MAX, 0);
            while still < 20 {
                assert!(Instant::now() < deadline, "the producers never blocked");
                std::thread::sleep(Duration::from_millis(10));
                let out = writer.lock();
                assert!(
                    out.buf.len() <= FORWARD_BATCH,
                    "{} bytes queued",
                    out.buf.len()
                );
                let now = queued.load(Ordering::Relaxed);
                still = if out.waiting == 1 && now == last {
                    still + 1
                } else {
                    0
                };
                last = now;
            }
            assert!(queued.load(Ordering::Relaxed) * RECORD < producers * TOTAL);
            drop(silent_peer);
            threads
                .into_iter()
                .map(|t| t.join().expect("producer"))
                .collect()
        })
    }

    /// Against a peer that never reads, a producer blocks once the
    /// kernel's buffers and the outbox are full, the outbox never holds
    /// more than `FORWARD_BATCH` bytes, and a failed write releases the
    /// producer with `false`.
    #[test]
    fn a_full_outbox_blocks_its_producer() {
        let (near, silent_peer) = loopback_pair();
        let (writer, writer_thread) = CtrlWriter::spawn(near);
        let finished = send_to_a_silent_peer(&writer, silent_peer, 1);
        assert_eq!(finished, [false], "the producer is released with `false`");
        assert!(!writer.send_records(&[0]), "a dead writer takes nothing");
        writer_thread.join().expect("writer thread");
    }

    /// The same with two producers and no writer thread: one blocks in
    /// the write it makes for both, the other waits for room at the cap,
    /// and both are released with `false` once the peer closes.
    #[test]
    fn a_full_combining_outbox_blocks_both_producers() {
        let (near, silent_peer) = loopback_pair();
        let writer = CtrlWriter::new(near);
        let finished = send_to_a_silent_peer(&writer, silent_peer, 2);
        assert_eq!(finished, [false, false], "both are released with `false`");
        assert!(!writer.lock().writing, "no write is left in flight");
        assert!(!writer.send_records(&[0]), "a dead writer takes nothing");
    }

    /// Handlers that have exited are joined and dropped; running ones
    /// stay.
    #[test]
    fn reaping_joins_only_finished_handlers() {
        let (release_tx, release_rx) = bounded::<()>(1);
        let mut handlers = vec![
            std::thread::spawn(|| {}),
            std::thread::spawn(move || {
                let _ = release_rx.recv();
            }),
            std::thread::spawn(|| {}),
        ];
        let deadline = Instant::now() + Duration::from_secs(5);
        while !(handlers[0].is_finished() && handlers[2].is_finished()) {
            assert!(Instant::now() < deadline, "the short handlers never exited");
            std::thread::sleep(Duration::from_millis(1));
        }
        reap_finished(&mut handlers);
        assert_eq!(handlers.len(), 1);
        drop(release_tx);
        while !handlers[0].is_finished() {
            assert!(
                Instant::now() < deadline,
                "the released handler never exited"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        reap_finished(&mut handlers);
        assert!(handlers.is_empty());
    }

    /// Threads of this process named `name`; `None` where the platform
    /// does not list them under `/proc`.
    fn threads_named(name: &str) -> Option<usize> {
        let tasks = std::fs::read_dir("/proc/self/task").ok()?;
        Some(
            tasks
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                .filter(|comm| comm.trim_end() == name)
                .count(),
        )
    }

    /// Waits up to 5 s until exactly `n` threads are named `name`,
    /// failing at once if more are. A new thread names itself once it
    /// runs, and an exited one leaves the list shortly after its join.
    fn await_threads_named(name: &str, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while let Some(now) = threads_named(name) {
            assert!(now <= n.max(1), "{now} threads named {name}");
            if now == n {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "{now} threads named {name}, not {n}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Dropping a `RemoteCluster` closes its control connections, so the
    /// serve's handler for one (subscribed, so with its one forwarder
    /// running for all three hosted nodes) sees EOF, joins the forwarder
    /// and exits while the serve itself keeps running.
    #[test]
    fn dropping_the_client_ends_the_serve_handler() {
        let hosted = [ProcessId(1), ProcessId(2), ProcessId(3)];
        let mut cluster = Cluster::new();
        for node in hosted {
            cluster.add_process(node);
        }
        let running = Arc::new(cluster.start());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("local addr");
        let stop = Arc::new(AtomicBool::new(false));
        let (done_tx, done_rx) = bounded(1);
        let handler = {
            let (running, stop) = (Arc::clone(&running), Arc::clone(&stop));
            std::thread::spawn(move || {
                let (conn, _) = listener.accept().expect("accept");
                let cfg = GroupConfig::new(OrderMode::Symmetric);
                ctrl_conn_main(&running, &hosted, cfg, conn, &stop);
                let _ = done_tx.send(());
            })
        };
        let remote = RemoteCluster::connect(&[addr], 3, Duration::from_secs(5)).expect("connect");
        // Answered after the subscription before it (replies are FIFO).
        assert!(remote.wire_stats().is_some());
        // One forwarder for all hosted nodes. No other test in this
        // binary starts a serve handler.
        await_threads_named("newtop-fwd", 1);
        drop(remote);
        assert!(
            done_rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "the control handler must see EOF, join its forwarder and exit"
        );
        // The forwarder was joined.
        await_threads_named("newtop-fwd", 0);
        handler.join().expect("handler thread");
        assert!(!stop.load(Ordering::Relaxed));
        match Arc::try_unwrap(running) {
            Ok(cluster) => cluster.shutdown(),
            Err(_) => panic!("the handler leaked the cluster handle"),
        }
    }

    /// Seeded random control streams, cut into random chunks, never panic
    /// the record decoder, the client's record dispatch or the server's
    /// op parsing: each record is handled or rejected.
    #[test]
    fn random_control_streams_never_panic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const TAGS: [u8; 12] = [
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
            REC_FAILED,
        ];
        let (tx, _rx) = unbounded();
        let txs = vec![tx.clone(), tx];
        let writer = CtrlWriter::new(loopback_pair().0);
        let (mut handled, mut rejected, mut severed) = (0u32, 0u32, 0u32);
        for seed in 0..2000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            {
                let owed = &mut writer.lock().owed;
                *owed = PendingReplies::default();
                for _ in 0..4 {
                    owed.verdicts.push_back(bounded(1).0);
                    owed.stats.push_back(bounded(1).0);
                    owed.byes.push_back(bounded(1).0);
                }
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
                    match dispatch_record(record, &writer, &txs) {
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
