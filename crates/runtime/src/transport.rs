//! Framed wire transport between shards, with batched egress.
//!
//! Every protocol message crossing the host travels inside a
//! length-prefixed wire frame; since PR 7 a frame carries one **or more**
//! envelopes ([`newtop_types::wire::frame_batch_into`] format), so the
//! frame — not the envelope — is the unit of transport. Each shard owns
//! an [`Egress`] of per-destination queues: under load, envelopes bound
//! for the same node coalesce into one frame (bounded by a byte/count
//! budget and an adaptive flush window); the moment the shard would
//! otherwise idle, everything pending flushes immediately, so batching
//! never trades latency for throughput at low offered load. The
//! [`FrameCache`] still turns multicast fan-out into refcount bumps of
//! one encoding, and the router counts frames, envelopes and exact bytes
//! — plus a batch-occupancy histogram and the ω-null traffic that
//! batching suppressed or coalesced.

use crate::Command;
use bytes::{BufMut, Bytes, BytesMut};
use crossbeam::channel::Sender;
use newtop_types::{
    wire, DecodeError, Envelope, GroupId, Instant, Message, MessageBody, Msn, ProcessId, Span,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One wire frame in flight between shards (or peer processes): a
/// length-prefixed batch of `envelopes` encoded envelopes bound for one
/// destination node. `nulls` of them are ω time-silence nulls (kept for
/// exact accounting of null-only frames at the counting site).
pub struct Frame {
    /// Destination process.
    pub to: ProcessId,
    /// The complete length-prefixed wire bytes
    /// ([`newtop_types::wire::frame_batch_into`] format).
    pub bytes: Bytes,
    /// How many envelopes the frame carries.
    pub envelopes: u32,
    /// How many of them are ω time-silence nulls.
    pub nulls: u32,
}

/// Where a destination process lives, relative to one transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Hosted by a local shard (the index) of this process.
    Local(u32),
    /// Hosted by another OS process, reached over a peer link.
    Remote,
}

/// The seam between the sharded event loop and whatever moves frames.
///
/// Shards are written against this trait only: they ask where a
/// destination lives ([`route_of`](Transport::route_of)), hand frames
/// over ([`ship`](Transport::ship) /
/// [`ship_local_batch`](Transport::ship_local_batch)), and read the
/// cumulative counters back ([`stats`](Transport::stats)). The
/// in-process [`Cluster::start`](crate::Cluster::start) path plugs in
/// the channel-backed `Router`; [`Cluster::start_tcp`](crate::Cluster::start_tcp)
/// plugs in the socket-backed TCP transport, which routes
/// [`Route::Local`] destinations through the very same router and
/// [`Route::Remote`] ones onto per-peer connections. Both carry
/// identical frame bytes, so the wire format is bit-compatible across
/// hosts.
pub trait Transport: Send + Sync {
    /// Where `to` lives — `None` for unknown destinations (which drop,
    /// crash semantics).
    fn route_of(&self, to: ProcessId) -> Option<Route>;

    /// Ships one frame toward its destination, counting it. Unknown
    /// destinations and exited shards drop the frame silently.
    fn ship(&self, frame: Frame);

    /// Ships one flush worth of frames to a single **local** shard as
    /// one inbox message, counting each.
    fn ship_local_batch(&self, shard: u32, frames: Vec<Frame>);

    /// Books one frame into the counters without moving it — for frames
    /// committed outside the transport (a shard's same-shard ring).
    fn count_frame(&self, frame: &Frame);

    /// Books `n` ω nulls suppressed at an egress.
    fn note_suppressed(&self, n: u64);

    /// Cumulative wire counters.
    fn stats(&self) -> WireStats;
}

/// Everything a shard's inbox can receive.
pub(crate) enum ShardMsg {
    /// A single wire frame (a budget-overflow flush, or one frame off a
    /// TCP peer link).
    Frame(Frame),
    /// One egress flush worth of frames for nodes on this shard.
    Batch(Vec<Frame>),
    /// An application command for one of the shard's nodes.
    Command {
        /// The addressed node.
        to: ProcessId,
        /// The command (carries its own reply channel where applicable).
        cmd: Command,
    },
}

/// Number of batch-occupancy histogram buckets in [`WireStats`].
pub const OCCUPANCY_BUCKETS: usize = 6;

/// Human-readable envelope-count ranges for the occupancy buckets.
pub const OCCUPANCY_LABELS: [&str; OCCUPANCY_BUCKETS] = ["1", "2", "3-4", "5-8", "9-16", "17+"];

fn occupancy_bucket(envelopes: u32) -> usize {
    match envelopes {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        _ => 5,
    }
}

/// Cumulative wire-level counters for a running cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames handed to the transport (after partition filtering).
    pub frames: u64,
    /// Envelopes carried inside those frames.
    pub envelopes: u64,
    /// Total frame bytes, length prefixes included.
    pub bytes: u64,
    /// Frames whose every envelope was an ω time-silence null.
    pub null_frames: u64,
    /// ω nulls dropped at the egress because a later message from the
    /// same sender and group shared the flush (their receive effects are
    /// subsumed — see `newtop_core::supersedes_omega_null`).
    pub suppressed_nulls: u64,
    /// Batch-occupancy histogram: frames by envelope count, bucketed as
    /// [`OCCUPANCY_LABELS`].
    pub occupancy: [u64; OCCUPANCY_BUCKETS],
    /// Peer connections re-established after a loss (TCP host; always 0
    /// in-process).
    pub reconnects: u64,
    /// Frames dropped because a peer's link buffer was full while it was
    /// unreachable (TCP host). Dropped frames are never sequenced, so a
    /// recovered link resumes without a gap.
    pub dropped_dead: u64,
    /// Inbound connections rejected at the handshake (bad magic,
    /// version, or peer index; TCP host).
    pub handshake_rejects: u64,
    /// Application multicasts shed at the host's admission boundary
    /// because the destination shard's inbox was at capacity
    /// ([`crate::ClusterConfig::inbox_cap`]). Only new client traffic is
    /// ever shed; protocol frames (nulls, suspicions, views) always
    /// enqueue, so overload degrades offered load instead of liveness.
    pub shed_multicasts: u64,
}

impl WireStats {
    /// Mean envelopes per frame (1.0 when the host is idle).
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        if self.frames == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.envelopes as f64 / self.frames as f64
        }
    }
}

/// The host's admission gate: client multicasts are shed (with an exact
/// count) once the destination shard's inbox depth reaches `cap`.
///
/// This is deliberately *not* a bounded channel on the inbox itself: a
/// hard bound on protocol traffic would deadlock two mutually-full
/// shards (A blocked shipping to B, B blocked shipping to A). Instead
/// the bound is enforced where load enters the system — the application
/// multicast boundary — and protocol frames always enqueue, so the
/// engine's Ω-liveness obligations survive overload.
#[derive(Debug)]
pub(crate) struct Admission {
    /// Inbox depth at or above which new client multicasts are shed.
    /// `0` closes the valve entirely (every multicast sheds) — a
    /// degenerate setting used by tests and emergency load shedding.
    cap: usize,
    shed: AtomicU64,
}

impl Admission {
    pub(crate) fn new(cap: usize) -> Admission {
        Admission {
            cap,
            shed: AtomicU64::new(0),
        }
    }

    /// Whether a client multicast may enter a shard whose inbox holds
    /// `queued` messages; a refusal is counted as a shed.
    pub(crate) fn try_admit(&self, queued: usize) -> bool {
        if queued >= self.cap {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    pub(crate) fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// A wall-clock token bucket pacing the host's whole egress to a
/// configured uplink capacity ([`crate::ClusterConfig::uplink_kbps`] —
/// the WAN profile). The gate sits at the frame-counting commit point,
/// so every path that books a frame (cross-shard channel, same-shard
/// ring, TCP peer link) pays the transfer time of its bytes. A shard
/// over its budget *stalls*: egress latency rises exactly as it would on
/// a saturated real uplink, and the suspicion layer must absorb that as
/// latency rather than as silence.
pub(crate) struct RateGate {
    bytes_per_sec: f64,
    /// Token burst ceiling: ~50 ms of capacity, floored at 8 KiB so tiny
    /// rates still admit one whole frame without an initial stall.
    burst: f64,
    state: parking_lot::Mutex<GateState>,
}

struct GateState {
    tokens: f64,
    last: std::time::Instant,
}

impl RateGate {
    pub(crate) fn new(bytes_per_sec: u64) -> RateGate {
        #[allow(clippy::cast_precision_loss)]
        let rate = (bytes_per_sec.max(1)) as f64;
        RateGate {
            bytes_per_sec: rate,
            burst: (rate / 20.0).max(8_192.0),
            state: parking_lot::Mutex::new(GateState {
                tokens: (rate / 20.0).max(8_192.0),
                last: std::time::Instant::now(),
            }),
        }
    }

    /// Charges `len` bytes against the bucket, sleeping off any deficit.
    /// The sleep happens outside the lock, so concurrent shards serialise
    /// only on the accounting, not on each other's stalls.
    pub(crate) fn pace(&self, len: usize) {
        #[allow(clippy::cast_precision_loss)]
        let cost = len as f64;
        let deficit = {
            let mut st = self.state.lock();
            let now = std::time::Instant::now();
            let refill = now.duration_since(st.last).as_secs_f64() * self.bytes_per_sec;
            st.tokens = (st.tokens + refill).min(self.burst);
            st.last = now;
            st.tokens -= cost;
            -st.tokens
        };
        if deficit > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(
                deficit / self.bytes_per_sec,
            ));
        }
    }
}

/// Routes frames and commands to the shard owning each destination node.
pub(crate) struct Router {
    /// Sorted `(process, shard)` pairs — node placement is fixed at
    /// [`Cluster::start`](crate::Cluster::start).
    addrs: Vec<(ProcessId, u32)>,
    inboxes: Vec<Sender<ShardMsg>>,
    frames: AtomicU64,
    envelopes: AtomicU64,
    bytes: AtomicU64,
    null_frames: AtomicU64,
    suppressed_nulls: AtomicU64,
    occupancy: [AtomicU64; OCCUPANCY_BUCKETS],
    admission: Arc<Admission>,
    gate: Option<RateGate>,
}

impl Router {
    pub(crate) fn new(
        mut addrs: Vec<(ProcessId, u32)>,
        inboxes: Vec<Sender<ShardMsg>>,
        admission: Arc<Admission>,
        gate: Option<RateGate>,
    ) -> Router {
        addrs.sort_unstable();
        Router {
            addrs,
            inboxes,
            frames: AtomicU64::new(0),
            envelopes: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            null_frames: AtomicU64::new(0),
            suppressed_nulls: AtomicU64::new(0),
            occupancy: std::array::from_fn(|_| AtomicU64::new(0)),
            admission,
            gate,
        }
    }

    pub(crate) fn shard_of(&self, id: ProcessId) -> Option<u32> {
        self.addrs
            .binary_search_by_key(&id, |&(p, _)| p)
            .ok()
            .map(|i| self.addrs[i].1)
    }

    /// Books one frame into the counters. Every frame is counted exactly
    /// once, at the site that commits it to a queue — the channel for
    /// cross-shard frames, the local ring for same-shard ones — which
    /// makes this the one point where a WAN-profile [`RateGate`] can pace
    /// the host's whole egress without missing a path.
    pub(crate) fn count_frame(&self, frame: &Frame) {
        if let Some(gate) = &self.gate {
            gate.pace(frame.bytes.len());
        }
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.envelopes
            .fetch_add(u64::from(frame.envelopes), Ordering::Relaxed);
        self.bytes
            .fetch_add(frame.bytes.len() as u64, Ordering::Relaxed);
        if frame.nulls > 0 && frame.nulls == frame.envelopes {
            self.null_frames.fetch_add(1, Ordering::Relaxed);
        }
        self.occupancy[occupancy_bucket(frame.envelopes)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_suppressed(&self, n: u64) {
        self.suppressed_nulls.fetch_add(n, Ordering::Relaxed);
    }

    /// Ships one frame. Unknown destinations and exited shards drop the
    /// frame silently — crash semantics, and never a panicking sender.
    pub(crate) fn send_frame(&self, frame: Frame) {
        let Some(shard) = self.shard_of(frame.to) else {
            return;
        };
        self.count_frame(&frame);
        let _ = self.inboxes[shard as usize].send(ShardMsg::Frame(frame));
    }

    /// Ships one flush worth of frames to a single shard as one inbox
    /// message — the channel is touched once per (flush, shard), not once
    /// per envelope.
    pub(crate) fn send_batch(&self, shard: u32, frames: Vec<Frame>) {
        for f in &frames {
            self.count_frame(f);
        }
        let _ = self.inboxes[shard as usize].send(ShardMsg::Batch(frames));
    }

    pub(crate) fn stats(&self) -> WireStats {
        WireStats {
            frames: self.frames.load(Ordering::Relaxed),
            envelopes: self.envelopes.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            null_frames: self.null_frames.load(Ordering::Relaxed),
            suppressed_nulls: self.suppressed_nulls.load(Ordering::Relaxed),
            occupancy: std::array::from_fn(|i| self.occupancy[i].load(Ordering::Relaxed)),
            reconnects: 0,
            dropped_dead: 0,
            handshake_rejects: 0,
            shed_multicasts: self.admission.shed_count(),
        }
    }
}

impl Transport for Router {
    fn route_of(&self, to: ProcessId) -> Option<Route> {
        self.shard_of(to).map(Route::Local)
    }

    fn ship(&self, frame: Frame) {
        self.send_frame(frame);
    }

    fn ship_local_batch(&self, shard: u32, frames: Vec<Frame>) {
        self.send_batch(shard, frames);
    }

    fn count_frame(&self, frame: &Frame) {
        Router::count_frame(self, frame);
    }

    fn note_suppressed(&self, n: u64) {
        Router::note_suppressed(self, n);
    }

    fn stats(&self) -> WireStats {
        Router::stats(self)
    }
}

/// How many recently encoded envelopes the [`FrameCache`] remembers.
/// Multicasts to different groups interleave at the egress (a node in g
/// groups emits g distinct messages per ω tick), so one slot per recent
/// message keeps the fan-out of each one to a single encode.
const CACHE_SLOTS: usize = 4;

struct CacheSlot {
    msg: Arc<Message>,
    framed: Bytes,
    body_len: u32,
}

/// Encode cache for multicast fan-out.
///
/// The engine emits one `Send` action per destination, all carrying the
/// same `Arc<Message>`; envelopes matching a cached slot reuse the
/// already-encoded frame (a `Bytes` refcount bump), so an n-member
/// multicast costs **one** encode, not n.
///
/// A hit requires the cached message to be the *same allocation* *and*
/// to agree on the `(group, sender, c)` identity fields. Pointer equality
/// alone is not a safe key: a slot whose `Arc` were ever released (or a
/// future `Message` with interior mutability) could see the allocator
/// hand the same address to a different message of equal backing length,
/// and the cache would replay stale bytes. The field check makes that
/// aliasing observable-impossible — `(group, sender, c)` uniquely names
/// a message on the wire (clock numbers never repeat per sender).
#[derive(Default)]
pub(crate) struct FrameCache {
    slots: Vec<CacheSlot>,
    cursor: usize,
}

impl FrameCache {
    /// The length-prefixed wire frame for `env` plus its body length
    /// (the frame minus its varint prefix), cached across recently seen
    /// group envelopes.
    pub(crate) fn frame_for(&mut self, env: &Envelope) -> (Bytes, u32) {
        let Envelope::Group(m) = env else {
            // Control messages are rare; no caching.
            let body = wire::encoded_len(env);
            #[allow(clippy::cast_possible_truncation)]
            return (wire::frame(env), body as u32);
        };
        for slot in &self.slots {
            if Arc::ptr_eq(&slot.msg, m)
                && slot.msg.group == m.group
                && slot.msg.sender == m.sender
                && slot.msg.c == m.c
            {
                return (slot.framed.clone(), slot.body_len);
            }
        }
        let body = wire::encoded_len(env);
        let framed = wire::frame(env);
        #[allow(clippy::cast_possible_truncation)]
        let slot = CacheSlot {
            msg: Arc::clone(m),
            framed: framed.clone(),
            body_len: body as u32,
        };
        if self.slots.len() < CACHE_SLOTS {
            self.slots.push(slot);
        } else {
            self.slots[self.cursor] = slot;
            self.cursor = (self.cursor + 1) % CACHE_SLOTS;
        }
        #[allow(clippy::cast_possible_truncation)]
        (framed, body as u32)
    }
}

/// Decodes every envelope in one complete wire frame, verifying the
/// length prefix spans the bytes exactly. Returns the envelope count.
pub(crate) fn unframe_each(
    bytes: Bytes,
    mut sink: impl FnMut(Envelope),
) -> Result<u32, DecodeError> {
    use bytes::Buf;
    let mut buf = bytes;
    let len = wire::get_varint(&mut buf)? as usize;
    if len == 0 {
        return Err(DecodeError::EmptyFrame);
    }
    if buf.remaining() < len {
        return Err(DecodeError::Truncated);
    }
    if buf.remaining() > len {
        return Err(DecodeError::TrailingBytes {
            extra: buf.remaining() - len,
        });
    }
    let mut n = 0u32;
    while buf.has_remaining() {
        sink(wire::decode(&mut buf)?);
        n += 1;
    }
    Ok(n)
}

/// Egress batching budgets. Hosts always run [`BatchPolicy::default`];
/// unit tests build tighter budgets directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchPolicy {
    /// Maximum time an envelope may wait in the egress under sustained
    /// load. (When the shard runs out of input it flushes immediately
    /// regardless, so this bounds added latency only at saturation.)
    pub(crate) window: Span,
    /// Flush a destination's queue once it holds this many envelopes.
    pub(crate) max_envelopes: u32,
    /// Flush a destination's queue once its body bytes reach this.
    pub(crate) max_bytes: usize,
}

impl Default for BatchPolicy {
    fn default() -> BatchPolicy {
        BatchPolicy {
            window: Span::from_micros(200),
            max_envelopes: 128,
            max_bytes: 64 * 1024,
        }
    }
}

/// One envelope waiting in a destination queue. `framed` is the complete
/// single-envelope frame from the [`FrameCache`]; the flush either ships
/// it untouched (sole survivor: zero copy) or splices its body — the
/// trailing `body_len` bytes — into a multi-envelope frame.
struct PendingPart {
    framed: Bytes,
    body_len: u32,
    /// `Some((sender, group, c))` iff this is an ω null — the key a later
    /// message must match to supersede it.
    null_key: Option<(ProcessId, GroupId, Msn)>,
    dead: bool,
}

/// The pending batch for one destination node.
struct DestBatch {
    to: ProcessId,
    route: Route,
    parts: Vec<PendingPart>,
    live: u32,
    live_nulls: u32,
    body_bytes: usize,
}

impl DestBatch {
    /// Drains this destination's queue into one wire frame.
    fn take_frame(&mut self) -> Option<Frame> {
        if self.live == 0 {
            self.parts.clear();
            return None;
        }
        let envelopes = self.live;
        let nulls = self.live_nulls;
        let bytes = if self.parts.len() == 1 {
            // The common idle-path case: one envelope, already a complete
            // frame — ship the cached encoding without copying.
            self.parts[0].framed.clone()
        } else {
            let body = self.body_bytes;
            let mut buf = BytesMut::with_capacity(wire::varint_len(body as u64) + body);
            wire::put_varint(&mut buf, body as u64);
            for part in self.parts.iter().filter(|p| !p.dead) {
                let start = part.framed.len() - part.body_len as usize;
                buf.put_slice(&part.framed[start..]);
            }
            buf.freeze()
        };
        self.parts.clear();
        self.live = 0;
        self.live_nulls = 0;
        self.body_bytes = 0;
        Some(Frame {
            to: self.to,
            bytes,
            envelopes,
            nulls,
        })
    }
}

/// Per-destination egress queues for one shard.
///
/// `enqueue` parks each outbound envelope under its destination node;
/// `flush_all` turns every non-empty queue into one frame and ships the
/// frames — one inbox message per destination *shard*, or straight onto
/// the caller's local ring for same-shard destinations (no channel at
/// all). Enqueuing a message that supersedes a queued ω null (same
/// sender and group, higher number, not a sequencer request) kills the
/// null in place: its receive effects are monotone maxima the newer
/// message re-establishes in the same frame, so the receiver's protocol
/// state is unchanged — `crates/core/tests/null_suppression.rs` pins
/// that argument against the state digest.
pub(crate) struct Egress {
    policy: BatchPolicy,
    dests: HashMap<u32, DestBatch>,
    /// Destinations with live parts, in first-enqueue order.
    dirty: Vec<u32>,
    /// When the oldest pending envelope was enqueued.
    opened: Option<Instant>,
    /// Flush scratch: frames grouped by destination shard.
    by_shard: Vec<Vec<Frame>>,
    suppressed: u64,
}

impl Egress {
    pub(crate) fn new(policy: BatchPolicy, shard_count: usize) -> Egress {
        Egress {
            policy,
            dests: HashMap::new(),
            dirty: Vec::new(),
            opened: None,
            by_shard: (0..shard_count).map(|_| Vec::new()).collect(),
            suppressed: 0,
        }
    }

    /// Whether any destination has parked envelopes awaiting a flush.
    pub(crate) fn has_pending(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Whether the oldest pending envelope has waited at least the flush
    /// window.
    pub(crate) fn window_expired(&self, now: Instant) -> bool {
        self.opened
            .is_some_and(|t| now.saturating_since(t) >= self.policy.window)
    }

    /// Parks `env` for `to` (which the transport resolved to `route`).
    /// Returns `true` when this destination hit its batch budget and
    /// should be flushed immediately.
    pub(crate) fn enqueue(
        &mut self,
        now: Instant,
        to: ProcessId,
        route: Route,
        env: &Envelope,
        cache: &mut FrameCache,
    ) -> bool {
        let (framed, body_len) = cache.frame_for(env);
        if self.dirty.is_empty() {
            self.opened = Some(now);
        }
        let entry = self.dests.entry(to.0).or_insert_with(|| DestBatch {
            to,
            route,
            parts: Vec::new(),
            live: 0,
            live_nulls: 0,
            body_bytes: 0,
        });
        if entry.live == 0 {
            self.dirty.push(to.0);
        }
        if entry.live_nulls > 0 {
            // Kill queued nulls this message supersedes (the predicate —
            // and its soundness proof — live in the protocol crate).
            for part in &mut entry.parts {
                if part.dead {
                    continue;
                }
                let Some((s, g, c)) = part.null_key else {
                    continue;
                };
                if newtop_core::supersedes_omega_null(env, s, g, c) {
                    part.dead = true;
                    entry.live -= 1;
                    entry.live_nulls -= 1;
                    entry.body_bytes -= part.body_len as usize;
                    self.suppressed += 1;
                }
            }
        }
        let null_key = match env {
            Envelope::Group(m) if matches!(m.body, MessageBody::Null) => {
                Some((m.sender, m.group, m.c))
            }
            _ => None,
        };
        if null_key.is_some() {
            entry.live_nulls += 1;
        }
        entry.live += 1;
        entry.body_bytes += body_len as usize;
        entry.parts.push(PendingPart {
            framed,
            body_len,
            null_key,
            dead: false,
        });
        entry.live >= self.policy.max_envelopes || entry.body_bytes >= self.policy.max_bytes
    }

    /// Flushes one destination (budget overflow). Same-shard frames go on
    /// `local`; everything else ships through the transport.
    pub(crate) fn flush_dest(
        &mut self,
        key: u32,
        me: u32,
        transport: &dyn Transport,
        local: &mut VecDeque<Frame>,
    ) {
        let Some(entry) = self.dests.get_mut(&key) else {
            return;
        };
        let route = entry.route;
        if let Some(frame) = entry.take_frame() {
            if route == Route::Local(me) {
                transport.count_frame(&frame);
                local.push_back(frame);
            } else {
                transport.ship(frame);
            }
        }
        self.dirty.retain(|&k| k != key);
        if self.dirty.is_empty() {
            self.opened = None;
        }
        self.drain_suppressed(transport);
    }

    /// Flushes every pending destination: same-shard frames onto `local`,
    /// other local shards as one batch message per destination shard, and
    /// remote destinations frame by frame onto their peer links.
    pub(crate) fn flush_all(
        &mut self,
        me: u32,
        transport: &dyn Transport,
        local: &mut VecDeque<Frame>,
    ) {
        if self.dirty.is_empty() {
            return;
        }
        self.opened = None;
        for key in self.dirty.drain(..) {
            let entry = self.dests.get_mut(&key).expect("dirty dest exists");
            let route = entry.route;
            if let Some(frame) = entry.take_frame() {
                match route {
                    Route::Local(shard) if shard == me => {
                        transport.count_frame(&frame);
                        local.push_back(frame);
                    }
                    Route::Local(shard) => self.by_shard[shard as usize].push(frame),
                    Route::Remote => transport.ship(frame),
                }
            }
        }
        #[allow(clippy::cast_possible_truncation)]
        for s in 0..self.by_shard.len() {
            if !self.by_shard[s].is_empty() {
                transport.ship_local_batch(s as u32, std::mem::take(&mut self.by_shard[s]));
            }
        }
        self.drain_suppressed(transport);
    }

    fn drain_suppressed(&mut self, transport: &dyn Transport) {
        if self.suppressed > 0 {
            transport.note_suppressed(self.suppressed);
            self.suppressed = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use newtop_types::{GroupId, Message, MessageBody, Msn};

    fn env_from(sender: u32, c: u64, payload: &'static [u8]) -> Envelope {
        Message {
            group: GroupId(1),
            sender: ProcessId(sender),
            c: Msn(c),
            ldn: Msn(0),
            body: MessageBody::App(Bytes::from_static(payload)),
        }
        .into()
    }

    fn null_from(sender: u32, c: u64) -> Envelope {
        Message {
            group: GroupId(1),
            sender: ProcessId(sender),
            c: Msn(c),
            ldn: Msn(0),
            body: MessageBody::Null,
        }
        .into()
    }

    fn env(payload: &'static [u8]) -> Envelope {
        env_from(2, 3, payload)
    }

    /// A two-node, two-shard router whose inboxes we can inspect.
    fn test_router() -> (Arc<Router>, crossbeam::channel::Receiver<ShardMsg>) {
        let (tx0, rx0) = unbounded();
        let (tx1, _rx1) = unbounded();
        let router = Router::new(
            vec![(ProcessId(1), 0), (ProcessId(2), 1)],
            vec![tx0, tx1],
            Arc::new(Admission::new(1024)),
            None,
        );
        (Arc::new(router), rx0)
    }

    /// The admission gate sheds at capacity and counts exactly.
    #[test]
    fn admission_sheds_at_cap_and_counts() {
        let gate = Admission::new(2);
        assert!(gate.try_admit(0));
        assert!(gate.try_admit(1));
        assert!(!gate.try_admit(2));
        assert!(!gate.try_admit(100));
        assert_eq!(gate.shed_count(), 2);
        // A closed valve (cap 0) sheds everything.
        let closed = Admission::new(0);
        assert!(!closed.try_admit(0));
        assert_eq!(closed.shed_count(), 1);
    }

    #[test]
    fn frame_unframe_roundtrip() {
        let e = env(b"hello");
        let mut cache = FrameCache::default();
        let (bytes, body_len) = cache.frame_for(&e);
        assert_eq!(bytes.len(), wire::framed_len(&e));
        assert_eq!(body_len as usize, wire::encoded_len(&e));
        let mut got = Vec::new();
        let n = unframe_each(bytes, |d| got.push(d)).unwrap();
        assert_eq!(n, 1);
        assert_eq!(got, vec![e]);
    }

    #[test]
    fn fanout_reuses_encoded_frame() {
        let e = env(b"shared");
        let mut cache = FrameCache::default();
        let (a, _) = cache.frame_for(&e);
        let (b, _) = cache.frame_for(&e.clone()); // same Arc<Message> inside
        assert_eq!(a, b);
        let other = env(b"different");
        assert_ne!(cache.frame_for(&other).0, a);
    }

    /// Regression (PR 7): a *different* message with the same backing
    /// length must never alias a cached frame. We churn allocations so a
    /// new `Arc<Message>` can land at a recycled address and assert every
    /// returned frame matches a fresh encoding of exactly that message.
    #[test]
    fn changed_envelope_with_equal_length_never_aliases() {
        let mut cache = FrameCache::default();
        for round in 0..64u64 {
            // Same payload length every round, different identity/content.
            let payloads: [&'static [u8]; 4] = [b"aaaa", b"bbbb", b"cccc", b"dddd"];
            let e = env_from(
                1 + (round % 3) as u32,
                round + 1,
                payloads[(round % 4) as usize],
            );
            let (framed, _) = cache.frame_for(&e);
            assert_eq!(
                framed,
                wire::frame(&e),
                "stale cache alias at round {round}"
            );
            // Fan-out repeat is a hit and still correct.
            let (again, _) = cache.frame_for(&e);
            assert_eq!(again, wire::frame(&e));
        }
    }

    #[test]
    fn unframe_rejects_length_mismatch() {
        let e = env(b"x");
        let full = wire::frame(&e);
        let short = full.slice(0..full.len() - 1);
        assert_eq!(unframe_each(short, |_| {}), Err(DecodeError::Truncated));
        let mut long = BytesMut::new();
        long.put_slice(&full);
        long.put_u8(0xee);
        assert_eq!(
            unframe_each(long.freeze(), |_| {}),
            Err(DecodeError::TrailingBytes { extra: 1 })
        );
    }

    /// Coalesced egress arithmetic pinned against the codec's own
    /// [`wire::batched_len`]: frames, envelopes and bytes all match what
    /// an offline batch encode of the same envelopes would produce.
    #[test]
    fn egress_flush_matches_batched_len_exactly() {
        let (router, rx0) = test_router();
        let mut cache = FrameCache::default();
        let mut egress = Egress::new(BatchPolicy::default(), 2);
        let mut local = VecDeque::new();
        let now = Instant::ZERO;
        let envs = [
            env_from(2, 1, b"a"),
            env_from(2, 2, b"bb"),
            env_from(2, 3, b"ccc"),
        ];
        for e in &envs {
            assert!(!egress.enqueue(now, ProcessId(1), Route::Local(0), e, &mut cache));
        }
        egress.flush_all(1, router.as_ref(), &mut local); // me=1: dest shard 0 is cross-shard
        assert!(local.is_empty());
        let ShardMsg::Batch(frames) = rx0.try_recv().expect("one batch message") else {
            panic!("expected a batch");
        };
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].envelopes, 3);
        assert_eq!(frames[0].bytes.len(), wire::batched_len(&envs));
        let stats = router.stats();
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.envelopes, 3);
        assert_eq!(stats.bytes, wire::batched_len(&envs) as u64);
        assert_eq!(stats.occupancy, [0, 0, 1, 0, 0, 0]);
        // The frame decodes back to exactly the enqueued envelopes.
        let mut got = Vec::new();
        let n = unframe_each(frames[0].bytes.clone(), |e| got.push(e)).unwrap();
        assert_eq!(n, 3);
        assert_eq!(got, envs);
    }

    /// Same-shard destinations bypass the channel but are still counted.
    #[test]
    fn local_flush_counts_frames_without_channel() {
        let (router, rx0) = test_router();
        let mut cache = FrameCache::default();
        let mut egress = Egress::new(BatchPolicy::default(), 2);
        let mut local = VecDeque::new();
        egress.enqueue(
            Instant::ZERO,
            ProcessId(1),
            Route::Local(0),
            &env(b"x"),
            &mut cache,
        );
        egress.flush_all(0, router.as_ref(), &mut local); // me=0: dest is local
        assert_eq!(local.len(), 1);
        assert!(
            rx0.try_recv().is_err(),
            "no channel traffic for local frames"
        );
        let stats = router.stats();
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.envelopes, 1);
        assert_eq!(stats.occupancy[0], 1);
    }

    /// A queued ω null dies when a later message from the same sender and
    /// group joins the same flush; unrelated nulls survive.
    #[test]
    fn superseded_null_is_suppressed_in_flush() {
        let (router, rx0) = test_router();
        let mut cache = FrameCache::default();
        let mut egress = Egress::new(BatchPolicy::default(), 2);
        let mut local = VecDeque::new();
        let now = Instant::ZERO;
        egress.enqueue(
            now,
            ProcessId(1),
            Route::Local(0),
            &null_from(2, 1),
            &mut cache,
        );
        egress.enqueue(
            now,
            ProcessId(1),
            Route::Local(0),
            &null_from(3, 1),
            &mut cache,
        ); // other sender
        egress.enqueue(
            now,
            ProcessId(1),
            Route::Local(0),
            &env_from(2, 2, b"data"),
            &mut cache,
        );
        egress.flush_all(1, router.as_ref(), &mut local);
        let ShardMsg::Batch(frames) = rx0.try_recv().expect("batch") else {
            panic!("expected a batch");
        };
        assert_eq!(frames[0].envelopes, 2, "null from 2 suppressed");
        assert_eq!(frames[0].nulls, 1, "null from 3 coalesced, not suppressed");
        let expect = [null_from(3, 1), env_from(2, 2, b"data")];
        assert_eq!(frames[0].bytes.len(), wire::batched_len(&expect));
        let mut got = Vec::new();
        unframe_each(frames[0].bytes.clone(), |e| got.push(e)).unwrap();
        assert_eq!(got, expect);
        let stats = router.stats();
        assert_eq!(stats.suppressed_nulls, 1);
        assert_eq!(stats.null_frames, 0);
    }

    /// A flush whose every envelope is a null books a null-only frame.
    #[test]
    fn null_only_frame_is_counted() {
        let (router, _rx0) = test_router();
        let mut cache = FrameCache::default();
        let mut egress = Egress::new(BatchPolicy::default(), 2);
        let mut local = VecDeque::new();
        egress.enqueue(
            Instant::ZERO,
            ProcessId(1),
            Route::Local(0),
            &null_from(2, 1),
            &mut cache,
        );
        egress.enqueue(
            Instant::ZERO,
            ProcessId(1),
            Route::Local(0),
            &null_from(3, 1),
            &mut cache,
        );
        egress.flush_all(1, router.as_ref(), &mut local);
        let stats = router.stats();
        assert_eq!(stats.null_frames, 1);
        assert_eq!(stats.envelopes, 2);
        assert_eq!(stats.occupancy[1], 1); // bucket "2"
    }

    /// The envelope-count budget requests an immediate flush.
    #[test]
    fn budget_overflow_requests_flush() {
        let mut cache = FrameCache::default();
        let policy = BatchPolicy {
            max_envelopes: 2,
            ..BatchPolicy::default()
        };
        let mut egress = Egress::new(policy, 2);
        assert!(!egress.enqueue(
            Instant::ZERO,
            ProcessId(1),
            Route::Local(0),
            &env_from(2, 1, b"a"),
            &mut cache
        ));
        assert!(egress.enqueue(
            Instant::ZERO,
            ProcessId(1),
            Route::Local(0),
            &env_from(2, 2, b"b"),
            &mut cache
        ));
        let (router, rx0) = test_router();
        let mut local = VecDeque::new();
        egress.flush_dest(1, 1, router.as_ref(), &mut local);
        assert!(!egress.has_pending());
        let ShardMsg::Frame(frame) = rx0.try_recv().expect("frame") else {
            panic!("expected a single frame");
        };
        assert_eq!(frame.envelopes, 2);
    }

    #[test]
    fn window_expiry_tracks_oldest_enqueue() {
        let mut cache = FrameCache::default();
        let mut egress = Egress::new(BatchPolicy::default(), 1);
        assert!(!egress.window_expired(Instant::from_micros(10_000)));
        egress.enqueue(
            Instant::from_micros(100),
            ProcessId(1),
            Route::Local(0),
            &env(b"x"),
            &mut cache,
        );
        assert!(!egress.window_expired(Instant::from_micros(250)));
        assert!(egress.window_expired(Instant::from_micros(300)));
    }

    /// A gate over its budget stalls the caller for at least the transfer
    /// time of the excess bytes.
    #[test]
    fn rate_gate_paces_to_capacity() {
        let gate = RateGate::new(100_000); // 100 KB/s, burst 8 KiB
        let start = std::time::Instant::now();
        // 28 KiB through an 8 KiB burst: ≥ 20 KiB must be paid for at
        // 100 KB/s — at least ~200 ms of stall across the calls.
        for _ in 0..7 {
            gate.pace(4 * 1024);
        }
        assert!(start.elapsed() >= std::time::Duration::from_millis(180));
    }

    /// A huge rate never sleeps: the burst covers every frame.
    #[test]
    fn rate_gate_is_free_below_capacity() {
        let gate = RateGate::new(1_000_000_000); // 1 GB/s
        let start = std::time::Instant::now();
        for _ in 0..100 {
            gate.pace(1024);
        }
        assert!(start.elapsed() < std::time::Duration::from_millis(50));
    }
}
