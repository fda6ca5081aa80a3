//! Framed wire transport between shards, with batched egress.
//!
//! Every protocol message crossing the host travels inside a
//! length-prefixed wire frame carrying one **or more** envelopes, so the
//! frame — not the envelope — is the unit of transport. The frame layout
//! belongs to `newtop_types::wire`: [`wire::frame`] encodes one envelope,
//! [`wire::Batch`] joins frames bound for one node, and
//! [`wire::unframe_each`] decodes them at the receiving shard. Each shard
//! owns an [`Egress`] of per-destination queues: under load, envelopes
//! bound for the same node coalesce into one frame (bounded by a
//! byte/count budget and an adaptive flush window); the moment the shard
//! would otherwise idle, everything pending flushes immediately, so
//! batching never trades latency for throughput at low offered load. The
//! egress ships every envelope the engine emits, as the simulator does.
//! The [`FrameCache`] turns multicast fan-out into refcount bumps of one
//! encoding, and the router counts frames, envelopes and exact bytes —
//! plus a batch-occupancy histogram and the null-only frames.

use crate::Command;
use bytes::Bytes;
use crossbeam::channel::Sender;
use newtop_types::{wire, Envelope, Instant, Message, MessageBody, ProcessId, Span};
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
    /// The complete length-prefixed wire bytes ([`wire::Batch`] output).
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
    /// Always 0: the egress ships every envelope the engine emits. Kept
    /// only because the benchmark still reads it.
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
            suppressed_nulls: 0,
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
    /// The length-prefixed wire frame for `env`, cached across recently
    /// seen group envelopes.
    pub(crate) fn frame_for(&mut self, env: &Envelope) -> Bytes {
        let Envelope::Group(m) = env else {
            // Control messages are rare; no caching.
            return wire::frame(env);
        };
        for slot in &self.slots {
            if Arc::ptr_eq(&slot.msg, m)
                && slot.msg.group == m.group
                && slot.msg.sender == m.sender
                && slot.msg.c == m.c
            {
                return slot.framed.clone();
            }
        }
        let framed = wire::frame(env);
        let slot = CacheSlot {
            msg: Arc::clone(m),
            framed: framed.clone(),
        };
        if self.slots.len() < CACHE_SLOTS {
            self.slots.push(slot);
        } else {
            self.slots[self.cursor] = slot;
            self.cursor = (self.cursor + 1) % CACHE_SLOTS;
        }
        framed
    }
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
    pub(crate) max_envelopes: usize,
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

/// The pending batch for one destination node.
struct DestBatch {
    to: ProcessId,
    route: Route,
    batch: wire::Batch,
    /// How many of the batched envelopes are ω nulls.
    nulls: u32,
    /// A frame closed early because the next envelope would have taken
    /// it past [`wire::MAX_FRAME_LEN`]; it ships ahead of `batch`.
    sealed: Option<Frame>,
}

impl DestBatch {
    /// Drains this destination's queue into one wire frame.
    fn take_frame(&mut self) -> Option<Frame> {
        #[allow(clippy::cast_possible_truncation)]
        let envelopes = self.batch.len() as u32;
        let bytes = self.batch.take()?;
        Some(Frame {
            to: self.to,
            bytes,
            envelopes,
            nulls: std::mem::take(&mut self.nulls),
        })
    }

    /// Drains the sealed frame, then the queue, in that order.
    fn take_frames(&mut self) -> [Option<Frame>; 2] {
        [self.sealed.take(), self.take_frame()]
    }
}

/// Per-destination egress queues for one shard.
///
/// `enqueue` parks each outbound envelope under its destination node;
/// `flush_all` turns every non-empty queue into one frame and ships the
/// frames — one inbox message per destination *shard*, or straight onto
/// the caller's local ring for same-shard destinations (no channel at
/// all).
pub(crate) struct Egress {
    policy: BatchPolicy,
    dests: HashMap<u32, DestBatch>,
    /// Destinations with queued envelopes, in first-enqueue order.
    dirty: Vec<u32>,
    /// When the oldest pending envelope was enqueued.
    opened: Option<Instant>,
    /// Flush scratch: frames grouped by destination shard.
    by_shard: Vec<Vec<Frame>>,
}

impl Egress {
    pub(crate) fn new(policy: BatchPolicy, shard_count: usize) -> Egress {
        Egress {
            policy,
            dests: HashMap::new(),
            dirty: Vec::new(),
            opened: None,
            by_shard: (0..shard_count).map(|_| Vec::new()).collect(),
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
    /// Returns `true` when this destination should be flushed now: it hit
    /// its batch budget, or `env` did not fit the open frame.
    pub(crate) fn enqueue(
        &mut self,
        now: Instant,
        to: ProcessId,
        route: Route,
        env: &Envelope,
        cache: &mut FrameCache,
    ) -> bool {
        let framed = cache.frame_for(env);
        if self.dirty.is_empty() {
            self.opened = Some(now);
        }
        let entry = self.dests.entry(to.0).or_insert_with(|| DestBatch {
            to,
            route,
            batch: wire::Batch::default(),
            nulls: 0,
            sealed: None,
        });
        if entry.batch.is_empty() {
            self.dirty.push(to.0);
        } else if !entry.batch.fits(&framed) {
            entry.sealed = entry.take_frame();
        }
        if matches!(env, Envelope::Group(m) if matches!(m.body, MessageBody::Null)) {
            entry.nulls += 1;
        }
        entry.batch.push(framed);
        entry.sealed.is_some()
            || entry.batch.len() >= self.policy.max_envelopes
            || entry.batch.body_len() >= self.policy.max_bytes
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
        for frame in entry.take_frames().into_iter().flatten() {
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
            for frame in entry.take_frames().into_iter().flatten() {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use newtop_types::{GroupId, Msn};

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
    fn fanout_reuses_encoded_frame() {
        let e = env(b"shared");
        let mut cache = FrameCache::default();
        let a = cache.frame_for(&e);
        let b = cache.frame_for(&e.clone()); // same Arc<Message> inside
        assert_eq!(a, b);
        let other = env(b"different");
        assert_ne!(cache.frame_for(&other), a);
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
            let framed = cache.frame_for(&e);
            assert_eq!(
                framed,
                wire::frame(&e),
                "stale cache alias at round {round}"
            );
            // Fan-out repeat is a hit and still correct.
            let again = cache.frame_for(&e);
            assert_eq!(again, wire::frame(&e));
        }
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
        let n = wire::unframe_each(frames[0].bytes.clone(), |e| got.push(e)).unwrap();
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

    /// An envelope that would take a queued frame past
    /// `wire::MAX_FRAME_LEN` closes it instead: both frames ship, in
    /// order, and neither outgrows the limit.
    #[test]
    fn a_frame_never_outgrows_max_frame_len() {
        let mut cache = FrameCache::default();
        let mut egress = Egress::new(BatchPolicy::default(), 2);
        #[allow(clippy::cast_possible_truncation)]
        let big: Envelope = Message {
            group: GroupId(1),
            sender: ProcessId(2),
            c: Msn(2),
            ldn: Msn(0),
            body: MessageBody::App(Bytes::from(vec![0u8; wire::MAX_PAYLOAD_LEN as usize])),
        }
        .into();
        let small = env_from(2, 1, &[b'a'; 100]);
        assert!(!egress.enqueue(
            Instant::ZERO,
            ProcessId(1),
            Route::Local(0),
            &small,
            &mut cache
        ));
        assert!(egress.enqueue(
            Instant::ZERO,
            ProcessId(1),
            Route::Local(0),
            &big,
            &mut cache
        ));
        let (router, rx0) = test_router();
        let mut local = VecDeque::new();
        egress.flush_dest(1, 1, router.as_ref(), &mut local);
        let mut got = Vec::new();
        for want in [&small, &big] {
            let ShardMsg::Frame(frame) = rx0.try_recv().expect("frame") else {
                panic!("expected a single frame");
            };
            assert_eq!(frame.bytes.len(), wire::framed_len(want));
            assert_eq!(frame.envelopes, 1);
            wire::unframe_each(frame.bytes, |e| got.push(e)).unwrap();
        }
        assert_eq!(got, [small, big]);
        assert!(rx0.try_recv().is_err());
        assert!(!egress.has_pending());
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
