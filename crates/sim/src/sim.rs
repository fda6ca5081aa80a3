//! The discrete-event engine.
//!
//! Nodes are addressed internally by a dense compact index (assigned at
//! [`Sim::add_node`] time) into an index-parallel node table. Each
//! directed link `src → dst` is one entry of a dense `n × n` link table:
//! its FIFO clamp and its in-flight messages in send order. A frontier
//! heap orders the link heads and the nodes' wake-ups by `(at, seq)`;
//! scripted inputs, network changes and WAN completions wait in a second
//! heap, and the run loop fires the earlier of the two tops. Entries left
//! stale by [`Sim::fire`], crashes, partitions or cancelled timers are
//! skipped when they surface. One scratch [`Outbox`] is reused across
//! dispatches. The public API stays [`ProcessId`]-keyed.

use crate::model::{LatencyModel, NetConfig, NetStats, PartitionMode, PartitionSpec};
use crate::wan::{DoneOutcome, Sched, WanConfig, WanLinkSpec, WanState};
use newtop_types::digest::DigestHasher;
use newtop_types::{ConfigError, Instant, ProcessId, Span};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::hash::{Hash, Hasher};

/// Behaviour of one simulated node.
///
/// Implementations receive messages and timer wake-ups and respond by
/// writing sends into the provided [`Outbox`]. The engine owns scheduling:
/// after every callback it consults [`SimNode::next_deadline`] and arranges
/// the next [`SimNode::on_tick`] accordingly.
pub trait SimNode {
    /// The message type this node exchanges.
    type Msg;

    /// A message has arrived on the (reliable, FIFO) link from `from`.
    fn on_message(
        &mut self,
        now: Instant,
        from: ProcessId,
        msg: Self::Msg,
        out: &mut Outbox<Self::Msg>,
    );

    /// The engine woke the node at (or after) its requested deadline.
    fn on_tick(&mut self, now: Instant, out: &mut Outbox<Self::Msg>) {
        let _ = (now, out);
    }

    /// The next instant at which the node wants [`SimNode::on_tick`] to run,
    /// or `None` if it has no pending timer.
    fn next_deadline(&self) -> Option<Instant> {
        None
    }
}

/// Collects the sends a node produces while handling one event.
#[derive(Debug, Clone)]
pub struct Outbox<M> {
    sends: Vec<(ProcessId, M)>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Outbox<M> {
        Outbox::new()
    }
}

impl<M> Outbox<M> {
    /// An empty outbox. Mostly useful for driving a [`SimNode`]
    /// implementation directly in unit tests; inside a simulation the
    /// engine provides the outbox.
    #[must_use]
    pub fn new() -> Outbox<M> {
        Outbox { sends: Vec::new() }
    }

    /// Drains the queued `(destination, message)` pairs (test helper; the
    /// engine consumes the outbox internally).
    pub fn drain(&mut self) -> impl Iterator<Item = (ProcessId, M)> + '_ {
        self.sends.drain(..)
    }

    /// Queues a unicast to `dst`. A multicast is a sequence of these; the
    /// engine spaces consecutive sends by the configured send overhead, so
    /// a crash can sever the sequence between destinations (Example 1 of
    /// the paper needs exactly this failure mode).
    pub fn send(&mut self, dst: ProcessId, msg: M) {
        self.sends.push((dst, msg));
    }

    /// Number of sends queued so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// Whether no sends are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }
}

/// An input to one node, queued by [`Sim::schedule_input`] and applied to
/// the node when its instant comes. A type whose values are plain data
/// (and `Clone`) keeps the whole [`Sim`] cloneable.
pub trait NodeInput<N: SimNode> {
    /// Applies the input to `node` at `now`, writing its sends to `out`.
    fn apply_to(self, now: Instant, node: &mut N, out: &mut Outbox<N::Msg>);
}

/// The default node input: an arbitrary call into the node. A closure
/// cannot be cloned, so a `Sim` that queues calls cannot be forked.
pub type Call<N> = Box<dyn FnOnce(&mut N, &mut Outbox<<N as SimNode>::Msg>)>;

impl<N: SimNode> NodeInput<N> for Call<N> {
    fn apply_to(self, _now: Instant, node: &mut N, out: &mut Outbox<N::Msg>) {
        self(node, out);
    }
}

/// A change to the network, as data: scheduled with [`Sim::schedule`] or
/// applied at the current instant with [`Sim::apply`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetOp {
    /// Crash a node: messages that have not yet departed its send pipeline
    /// are lost, and so is everything later addressed to it.
    Crash(ProcessId),
    /// Install a partition: in-flight messages crossing the new cut are
    /// lost (Loss) or parked until heal (Delay).
    Partition(PartitionSpec, PartitionMode),
    /// Reconnect everyone; parked messages are released in link order.
    /// Links cut by [`Sim::cut_link`] stay cut.
    Heal,
    /// Change the link latency model — fault scripts use this for
    /// congestion phases (a latency spike past ω stresses the time-silence
    /// machinery without severing any link). Messages already in flight
    /// keep their sampled arrival times. Under the WAN model this governs
    /// intra-region propagation (routes carry their own latency).
    Latency(LatencyModel),
    /// `WanLink(from, to, spec)`: change the directed inter-region route
    /// `from → to` (capacity and propagation latency); transfers in flight
    /// on the trunk are re-shared at the new capacity. A no-op while the
    /// WAN model is off.
    WanLink(u32, u32, WanLinkSpec),
    /// `WanUplink(p, bps)`: change `p`'s uplink capacity (bytes per
    /// second), re-sharing its in-flight transfers. A no-op while the WAN
    /// model is off.
    WanUplink(ProcessId, u64),
}

impl NetOp {
    /// Panics on an operation that could only fail mid-run: inverted
    /// uniform latency bounds or a zero capacity.
    fn validate(&self) {
        let (latency, capacity) = match self {
            NetOp::Latency(latency) => (Some(latency), 1),
            NetOp::WanLink(_, _, spec) => (Some(&spec.latency), spec.capacity_bps),
            NetOp::WanUplink(_, bps) => (None, *bps),
            NetOp::Crash(_) | NetOp::Partition(..) | NetOp::Heal => (None, 1),
        };
        assert!(capacity > 0, "WAN capacity must be positive");
        if let Some(Err(e)) = latency.map(LatencyModel::validate) {
            panic!("invalid latency model: {e}");
        }
    }
}

/// One schedulable event on the current frontier, as exposed by
/// [`Sim::pending_events`] for externally controlled scheduling (the model
/// checker). Identity is by link or node — [`Sim::fire`] resolves a
/// `Deliver` to the FIFO head of that link and a `Wake` to the node's
/// current (non-stale) wake-up, so a strategy cannot violate the FIFO
/// transport assumption by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PendingEvent {
    /// The head-of-line message on the FIFO link `src → dst` is deliverable.
    Deliver {
        /// Sending node.
        src: ProcessId,
        /// Receiving node (not crashed).
        dst: ProcessId,
        /// Scheduled arrival instant of the head message.
        at: Instant,
    },
    /// `node`'s pending timer wake-up can fire.
    Wake {
        /// The node whose [`SimNode::on_tick`] would run.
        node: ProcessId,
        /// The scheduled wake instant.
        at: Instant,
    },
}

/// Compact per-`Sim` node index (position in the dense node table).
type NodeIdx = u32;

/// A scripted event carrying node inputs of type `I`.
#[derive(Clone)]
enum EventKind<I> {
    /// A WAN transfer's scheduled completion. Stale when the transfer was
    /// re-shared or dropped since (epoch mismatch / freed slot).
    TransferDone {
        id: u32,
        epoch: u64,
    },
    Net(NetOp),
    Input(ProcessId, I),
}

#[derive(Clone)]
struct Event<I> {
    at: Instant,
    seq: u64,
    kind: EventKind<I>,
}

impl<I> PartialEq for Event<I> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<I> Eq for Event<I> {}
impl<I> PartialOrd for Event<I> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<I> Ord for Event<I> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A message on the wire: its arrival instant and event sequence number
/// (its place in the global `(at, seq)` dispatch order), the instant it
/// left the sender, and the payload.
#[derive(Clone)]
struct InFlight<M> {
    at: Instant,
    seq: u64,
    departed: Instant,
    msg: M,
}

/// One directed link `src → dst`. The clamp is the latest arrival ever
/// scheduled on it; every new arrival lands strictly after it, so both
/// `at` and `seq` strictly increase along `inflight`.
#[derive(Clone)]
struct Link<M> {
    clamp: Instant,
    inflight: VecDeque<InFlight<M>>,
}

impl<M> Link<M> {
    /// The frontier entry for this link's head message, if it has one.
    fn head(&self, src: NodeIdx, dst: NodeIdx) -> Option<Reverse<Head>> {
        let m = self.inflight.front()?;
        let (at, seq, slot) = (m.at, m.seq, Slot::Link(src, dst));
        Some(Reverse(Head { at, seq, slot }))
    }
}

/// What a frontier entry fires: the head of the link `src → dst`, or a
/// node's wake-up.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Slot {
    Link(NodeIdx, NodeIdx),
    Wake(NodeIdx),
}

/// A frontier heap entry. It is live while it names its link's current
/// head or its node's current wake-up (the same `(at, seq)`); otherwise it
/// is stale and skipped when it reaches the top. Every non-empty link has
/// exactly one live entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Head {
    at: Instant,
    seq: u64,
    slot: Slot,
}

#[derive(Clone)]
struct NodeEntry<N> {
    id: ProcessId,
    node: N,
    crashed: bool,
    /// The live wake-up: its instant and its event sequence number.
    wake: Option<(Instant, u64)>,
    /// Connectivity block under the current partition (`BLOCK_RESIDUAL` for
    /// nodes in the implicit residual block). Recomputed on every partition
    /// change so the per-send connectivity test is one integer compare.
    block: u32,
}

/// Block id of nodes not named by any partition block.
const BLOCK_RESIDUAL: u32 = u32::MAX;

/// Messages parked on a severed link, keyed by ordered (from, to) pair,
/// with their original send instants. Kept id-ordered (not index-ordered)
/// so heal-time release order is independent of node insertion order.
type ParkedLinks<M> = BTreeMap<(ProcessId, ProcessId), VecDeque<(Instant, M)>>;

/// Reports the wire size of a message for the `bytes_sent` counter and
/// the WAN model's transfer sizes.
type MsgSizer<M> = fn(&M) -> usize;

/// The deterministic discrete-event simulator, generic over the node
/// behaviour `N` and the [`NodeInput`] type `I` its scheduled node inputs
/// take (by default a [`Call`]). Every other queued event is data, so a
/// `Sim` is `Clone` — forkable mid-run — whenever `N`, its messages and
/// `I` are.
///
/// See the [crate documentation](crate) for an overview and an example.
#[derive(Clone)]
pub struct Sim<N: SimNode, I = Call<N>> {
    now: Instant,
    seq: u64,
    /// Scripted inputs, network changes and WAN transfer completions.
    queue: BinaryHeap<Event<I>>,
    /// The link heads and wake-ups, earliest first (stale entries
    /// included, see [`Head`]).
    frontier: BinaryHeap<Reverse<Head>>,
    /// The link table: `links[src * n + dst]` for node indices. Exactly
    /// `n²` entries, however many partition or heal cycles a run sees.
    links: Vec<Link<N::Msg>>,
    /// Dense node table, indexed by [`NodeIdx`] in insertion order.
    nodes: Vec<NodeEntry<N>>,
    /// `(id, idx)` sorted by id — the public-API translation table.
    lookup: Vec<(ProcessId, NodeIdx)>,
    rng: StdRng,
    config: NetConfig,
    partition: PartitionSpec,
    partition_mode: PartitionMode,
    parked: ParkedLinks<N::Msg>,
    /// Directed links cut by [`Sim::cut_link`], by `(src, dst)` id.
    cut: BTreeSet<(ProcessId, ProcessId)>,
    /// The scratch outbox every callback writes into; flush drains it and
    /// keeps its capacity, so the hot path allocates nothing after warm-up.
    outbox: Outbox<N::Msg>,
    stats: NetStats,
    sizer: Option<MsgSizer<N::Msg>>,
    /// The WAN model, when enabled via [`Sim::set_wan`]; `None` keeps the
    /// default constant-latency transport bit-identical.
    wan: Option<WanState<N::Msg>>,
    /// Recycled scratch buffer for WAN completion schedules.
    wan_sched: Sched,
}

impl<N: SimNode, I: NodeInput<N>> Sim<N, I> {
    /// Creates an empty simulation, validating the network configuration.
    ///
    /// # Errors
    ///
    /// Any [`ConfigError`] from [`NetConfig::validate`] (e.g. inverted
    /// uniform latency bounds) — caught here, once, instead of panicking
    /// per sample mid-run.
    pub fn try_new(config: NetConfig) -> Result<Sim<N, I>, ConfigError> {
        config.validate()?;
        Ok(Sim {
            now: Instant::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            frontier: BinaryHeap::new(),
            links: Vec::new(),
            nodes: Vec::new(),
            lookup: Vec::new(),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            partition: PartitionSpec::connected_all(),
            partition_mode: PartitionMode::Loss,
            parked: BTreeMap::new(),
            cut: BTreeSet::new(),
            outbox: Outbox::new(),
            stats: NetStats::default(),
            sizer: None,
            wan: None,
            wan_sched: Sched::new(),
        })
    }

    /// Creates an empty simulation with the given network configuration.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; [`Sim::try_new`] returns the
    /// error instead.
    #[must_use]
    pub fn new(config: NetConfig) -> Sim<N, I> {
        match Sim::try_new(config) {
            Ok(sim) => sim,
            Err(e) => panic!("invalid network configuration: {e}"),
        }
    }

    /// Installs a function that reports the wire size of a message, enabling
    /// the `bytes_sent` counter.
    pub fn set_sizer(&mut self, sizer: fn(&N::Msg) -> usize) {
        self.sizer = Some(sizer);
    }

    /// Enables the topology-aware WAN model (see [`WanConfig`]): every send
    /// issued after this call transmits through fair-shared uplink and
    /// trunk pipes instead of taking one latency draw. `sizer` sizes every
    /// transfer and is installed as by [`Sim::set_sizer`]. Nodes already
    /// added are attached per the config; nodes added later attach on
    /// insertion.
    ///
    /// # Errors
    ///
    /// Any [`ConfigError`] from [`WanConfig::validate`].
    pub fn set_wan(
        &mut self,
        cfg: WanConfig,
        sizer: fn(&N::Msg) -> usize,
    ) -> Result<(), ConfigError> {
        cfg.validate()?;
        let ids: Vec<ProcessId> = self.nodes.iter().map(|e| e.id).collect();
        self.wan = Some(WanState::new(cfg, &ids));
        self.sizer = Some(sizer);
        Ok(())
    }

    fn idx_of(&self, id: ProcessId) -> Option<NodeIdx> {
        self.lookup
            .binary_search_by_key(&id, |(pid, _)| *pid)
            .ok()
            .map(|pos| self.lookup[pos].1)
    }

    /// Adds a node. Panics if the id is already present.
    ///
    /// # Panics
    ///
    /// Panics on duplicate `id`.
    pub fn add_node(&mut self, id: ProcessId, node: N) {
        let pos = match self.lookup.binary_search_by_key(&id, |(pid, _)| *pid) {
            Ok(_) => panic!("duplicate node id {id}"),
            Err(pos) => pos,
        };
        let idx = self.nodes.len() as NodeIdx;
        let deadline = node.next_deadline();
        let block = partition_block(&self.partition, id);
        self.nodes.push(NodeEntry {
            id,
            node,
            crashed: false,
            wake: None,
            block,
        });
        self.lookup.insert(pos, (id, idx));
        self.grow_links();
        if let Some(wan) = &mut self.wan {
            wan.attach_node(id);
        }
        if deadline.is_some() {
            self.refresh_wake(idx);
        }
    }

    /// Re-dimensions the link table after a node was added, keeping every
    /// existing link. Frontier entries name links by node index, so they
    /// stay valid.
    fn grow_links(&mut self) {
        let n = self.nodes.len();
        let mut old = std::mem::take(&mut self.links).into_iter();
        self.links = (0..n * n)
            .map(|l| {
                if l / n < n - 1 && l % n < n - 1 {
                    old.next().expect("the old table is (n-1)²")
                } else {
                    let (clamp, inflight) = (Instant::ZERO, VecDeque::new());
                    Link { clamp, inflight }
                }
            })
            .collect();
    }

    /// Position of the link `src → dst` in the link table.
    fn link_index(&self, src: NodeIdx, dst: NodeIdx) -> usize {
        src as usize * self.nodes.len() + dst as usize
    }

    /// Immutable access to a node's behaviour.
    #[must_use]
    pub fn node(&self, id: ProcessId) -> Option<&N> {
        self.idx_of(id).map(|i| &self.nodes[i as usize].node)
    }

    /// Mutable access to a node's behaviour (for inspection between runs;
    /// sends produced outside callbacks are not observed). After mutating a
    /// node this way, call [`Sim::poke`] so the engine re-reads its timer.
    pub fn node_mut(&mut self, id: ProcessId) -> Option<&mut N> {
        self.idx_of(id).map(|i| &mut self.nodes[i as usize].node)
    }

    /// Re-reads `id`'s [`SimNode::next_deadline`] and (re)schedules its
    /// wake-up. Required after mutating a node through [`Sim::node_mut`],
    /// because the engine otherwise only refreshes timers after events.
    pub fn poke(&mut self, id: ProcessId) {
        if let Some(idx) = self.idx_of(id) {
            self.refresh_wake(idx);
        }
    }

    /// Iterates over `(id, node)` pairs in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (ProcessId, &N)> {
        self.lookup
            .iter()
            .map(|(id, idx)| (*id, &self.nodes[*idx as usize].node))
    }

    /// Whether `id` has crashed.
    #[must_use]
    pub fn crashed(&self, id: ProcessId) -> bool {
        self.idx_of(id)
            .is_some_and(|i| self.nodes[i as usize].crashed)
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Network counters.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Size of the link table, in entries — a memory proxy for tests: it
    /// must stay exactly `n²` no matter how many partition, heal or
    /// latency episodes a long run goes through.
    #[must_use]
    pub fn fifo_state_entries(&self) -> usize {
        self.links.len()
    }

    /// Whether every non-empty link has exactly one live frontier entry,
    /// keyed by its head, and every link's queue strictly increases in
    /// arrival and send order with no arrival past the link's clamp.
    /// Audit hook; O(links × frontier).
    #[must_use]
    pub fn links_coherent(&self) -> bool {
        let n = self.nodes.len();
        self.links.iter().enumerate().all(|(l, link)| {
            let q = &link.inflight;
            let head = link.head((l / n) as NodeIdx, (l % n) as NodeIdx);
            let live = self.frontier.iter().filter(|h| Some(**h) == head).count();
            live == usize::from(head.is_some())
                && q.iter()
                    .zip(q.iter().skip(1))
                    .all(|(a, b)| a.at < b.at && a.seq < b.seq)
                && q.iter().all(|m| m.at <= link.clamp)
        })
    }

    fn push(&mut self, at: Instant, kind: EventKind<I>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { at, seq, kind });
    }

    /// Queues an outside input at `at` — the one path every scheduled
    /// input takes. An instant already passed means now: the clock never
    /// runs backwards.
    fn schedule_event(&mut self, at: Instant, kind: EventKind<I>) {
        self.push(at.max(self.now), kind);
    }

    /// Schedules a network change at `at` (see [`NetOp`]).
    ///
    /// # Panics
    ///
    /// Panics at schedule time on an invalid operation (inverted uniform
    /// latency bounds, a zero capacity) — never mid-run.
    pub fn schedule(&mut self, at: Instant, op: NetOp) {
        op.validate();
        self.schedule_event(at, EventKind::Net(op));
    }

    /// Schedules a crash of `p` at `at`: [`NetOp::Crash`].
    pub fn schedule_crash(&mut self, at: Instant, p: ProcessId) {
        self.schedule(at, NetOp::Crash(p));
    }

    /// Schedules an input to node `p` at `at` — the hook through which
    /// experiment scripts trigger application sends. It is ignored if `p`
    /// is unknown or crashed by then.
    pub fn schedule_input(&mut self, at: Instant, p: ProcessId, input: I) {
        self.schedule_event(at, EventKind::Input(p, input));
    }

    /// Runs the simulation up to and including events at `until`, then
    /// advances the clock to `until` (an `until` already passed leaves the
    /// clock where it is).
    pub fn run_until(&mut self, until: Instant) {
        while self.step_until(until) {}
        self.now = self.now.max(until);
    }

    /// Runs for `span` beyond the current clock.
    pub fn run_for(&mut self, span: Span) {
        self.run_until(self.now + span);
    }

    /// Processes exactly one event, returning `false` when none is left.
    pub fn step(&mut self) -> bool {
        self.step_until(Instant::FAR_FUTURE)
    }

    /// Dispatches the earliest live event due at or before `until`: the
    /// smaller `(at, seq)` of the two heap tops, skipping stale frontier
    /// entries. Returns `false` when no event is due.
    fn step_until(&mut self, until: Instant) -> bool {
        loop {
            let scripted = self.queue.peek().map(|e| (e.at, e.seq));
            let head = self.frontier.peek().map(|h| (h.0.at, h.0.seq));
            let next = head.into_iter().chain(scripted).min();
            if next.is_none_or(|(at, _)| at > until) {
                return false;
            }
            if next == scripted {
                let ev = self.queue.pop().expect("peeked");
                self.now = self.now.max(ev.at);
                self.dispatch(ev.kind);
                return true;
            }
            if self.fire_frontier_top() {
                return true;
            }
        }
    }

    /// Fires the frontier's top entry: delivers its link's head, re-keying
    /// the entry in place to the link's next message, or runs its wake-up.
    /// Returns `false` (popping the entry) if it is stale.
    fn fire_frontier_top(&mut self) -> bool {
        let n = self.nodes.len();
        let mut top = self.frontier.peek_mut().expect("caller peeked");
        let Reverse(head) = *top;
        let (src, dst) = match head.slot {
            Slot::Link(src, dst) => (src, dst),
            Slot::Wake(node) => {
                PeekMut::pop(top);
                return self.wake(node, (head.at, head.seq));
            }
        };
        let link = &mut self.links[src as usize * n + dst as usize];
        if link.inflight.front().map(|m| m.seq) != Some(head.seq) {
            PeekMut::pop(top);
            return false;
        }
        let m = link.inflight.pop_front().expect("live head");
        if let Some(next) = link.head(src, dst) {
            *top = next; // re-keyed in place: one sift instead of a pop and a push
            drop(top);
        } else {
            PeekMut::pop(top);
        }
        self.deliver(src, dst, m);
        true
    }

    /// Runs one callback on node `idx`, puts the sends it queued on the
    /// wire and re-reads the node's timer. Callbacks never nest, so one
    /// scratch outbox serves every dispatch.
    fn run_node(&mut self, idx: NodeIdx, f: impl FnOnce(&mut N, &mut Outbox<N::Msg>)) {
        f(&mut self.nodes[idx as usize].node, &mut self.outbox);
        if !self.outbox.is_empty() {
            self.flush_outbox(idx);
        }
        self.refresh_wake(idx);
    }

    fn dispatch(&mut self, kind: EventKind<I>) {
        match kind {
            EventKind::TransferDone { id, epoch } => self.wan_transfer_done(id, epoch),
            EventKind::Net(op) => self.apply(op),
            EventKind::Input(p, input) => {
                self.apply_input(p, input);
            }
        }
    }

    /// Delivers `m`, just taken off the link `src → dst`, at its arrival
    /// instant (or now, if that is later).
    fn deliver(&mut self, src: NodeIdx, dst: NodeIdx, m: InFlight<N::Msg>) {
        self.now = self.now.max(m.at); // under `fire` an event may run late
        if self.nodes[dst as usize].crashed {
            self.stats.dropped_crash_dst += 1;
            return;
        }
        self.stats.delivered += 1;
        let from = self.nodes[src as usize].id;
        let now = self.now;
        self.run_node(dst, |n, out| n.on_message(now, from, m.msg, out));
    }

    /// Runs `node`'s wake-up if `key` is still its live one; `false` for a
    /// stale or dead wake-up.
    fn wake(&mut self, node: NodeIdx, key: (Instant, u64)) -> bool {
        let entry = &mut self.nodes[node as usize];
        if entry.crashed || entry.wake != Some(key) {
            return false;
        }
        entry.wake = None;
        self.now = self.now.max(key.0);
        let now = self.now;
        self.run_node(node, |n, out| n.on_tick(now, out));
        true
    }

    /// Applies an input to node `p` at the current instant (the
    /// synchronous counterpart of [`Sim::schedule_input`]). Returns `false`
    /// (dropping the input) for an unknown or crashed node.
    pub fn apply_input(&mut self, p: ProcessId, input: I) -> bool {
        let now = self.now;
        self.invoke(p, |n, out| input.apply_to(now, n, out))
    }

    /// Applies a network change at the current instant (see [`NetOp`]);
    /// one naming an unknown node does nothing.
    ///
    /// # Panics
    ///
    /// Panics on an invalid operation, as [`Sim::schedule`] does.
    pub fn apply(&mut self, op: NetOp) {
        op.validate();
        match op {
            NetOp::Crash(p) => self.crash_node(p),
            NetOp::Partition(spec, mode) => self.install_partition(spec, mode),
            NetOp::Heal => self.heal(),
            NetOp::Latency(latency) => self.config.latency = latency,
            NetOp::WanLink(from, to, spec) => {
                self.with_wan(|wan, now, sched| wan.set_route(from, to, spec, now, sched));
            }
            NetOp::WanUplink(p, bps) => {
                if let Some(idx) = self.idx_of(p) {
                    self.with_wan(|wan, now, sched| wan.set_uplink(idx, bps, now, sched));
                }
            }
        }
    }

    /// Runs `f` on the WAN model, if it is on, and queues the transfer
    /// completions it schedules.
    fn with_wan<R>(
        &mut self,
        f: impl FnOnce(&mut WanState<N::Msg>, Instant, &mut Sched) -> R,
    ) -> Option<R> {
        let mut wan = self.wan.take()?;
        let mut sched = std::mem::take(&mut self.wan_sched);
        let r = f(&mut wan, self.now, &mut sched);
        self.wan = Some(wan);
        self.push_transfer_events(sched);
        Some(r)
    }

    /// Installs a partition: in-flight messages crossing the new cut are
    /// lost (Loss) or parked until heal (Delay).
    fn install_partition(&mut self, spec: PartitionSpec, mode: PartitionMode) {
        self.partition = spec;
        self.partition_mode = mode;
        for entry in &mut self.nodes {
            entry.block = partition_block(&self.partition, entry.id);
        }
        if self.partition.is_trivial() {
            return;
        }
        let blocks: Vec<u32> = self.nodes.iter().map(|e| e.block).collect();
        let crossing = self.take_inflight(|s, d| blocks[s as usize] != blocks[d as usize]);
        for (key, departed, msg) in crossing {
            match self.partition_mode {
                PartitionMode::Loss => self.stats.dropped_partition += 1,
                PartitionMode::Delay => {
                    self.stats.parked += 1;
                    self.parked
                        .entry(key)
                        .or_default()
                        .push_back((departed, msg));
                }
            }
        }
    }

    /// Removes the in-flight messages of every link `severed` selects:
    /// link by link, each in send order, then WAN transfers in per-flow
    /// send order, flows by id. The links' frontier entries go stale.
    fn take_inflight(
        &mut self,
        severed: impl Fn(NodeIdx, NodeIdx) -> bool,
    ) -> Vec<((ProcessId, ProcessId), Instant, N::Msg)> {
        let n = self.nodes.len();
        let mut taken = Vec::new();
        for (l, link) in self.links.iter_mut().enumerate() {
            if !link.inflight.is_empty() && severed((l / n) as NodeIdx, (l % n) as NodeIdx) {
                let key = (self.nodes[l / n].id, self.nodes[l % n].id);
                taken.extend(link.inflight.drain(..).map(|m| (key, m.departed, m.msg)));
            }
        }
        let flows = self.with_wan(|wan, now, sched| wan.take_crossing(now, sched, &severed));
        let ids = |s: NodeIdx, d: NodeIdx| (self.nodes[s as usize].id, self.nodes[d as usize].id);
        let Some(flows) = flows else {
            return taken;
        };
        let mut flows: Vec<_> = flows
            .into_iter()
            .map(|(s, d, departed, msg, size)| (ids(s, d), departed, msg, size))
            .collect();
        // Canonical order: per-flow send order, flows by id — the same
        // discipline the link walk follows.
        flows.sort_by_key(|t| (t.0, t.1));
        for (key, departed, msg, size) in flows {
            self.stats.wan_inflight = self.stats.wan_inflight.saturating_sub(1);
            self.stats.wan_backlog_bytes = self.stats.wan_backlog_bytes.saturating_sub(size);
            taken.push((key, departed, msg));
        }
        taken
    }

    /// Heals the network: everyone reconnects and parked messages are
    /// released in link order. Cut links stay cut.
    fn heal(&mut self) {
        self.partition = PartitionSpec::connected_all();
        for entry in &mut self.nodes {
            entry.block = BLOCK_RESIDUAL;
        }
        // Released messages take a fresh latency draw from now; under the
        // WAN model they re-enter as fresh transfers, so crossing a healed
        // cut costs a full re-transmission through the uplink (and trunk)
        // — a heal-time burst congests real capacity.
        for ((src_id, dst_id), queue) in std::mem::take(&mut self.parked) {
            let Some(src) = self.idx_of(src_id) else {
                continue;
            };
            let dst = self.idx_of(dst_id);
            for (departed, msg) in queue {
                self.transmit(src, dst, self.now, departed, msg);
            }
        }
    }

    /// Puts `msg` on the link `src → dst` to arrive at `arrival`, clamped
    /// past the link's latest arrival so the link stays FIFO. A message
    /// that becomes the link's head enters the frontier.
    fn enqueue(
        &mut self,
        src: NodeIdx,
        dst: NodeIdx,
        arrival: Instant,
        departed: Instant,
        msg: N::Msg,
    ) {
        let seq = self.seq;
        self.seq += 1;
        let l = self.link_index(src, dst);
        let link = &mut self.links[l];
        let at = arrival.max(link.clamp + Span::from_micros(1));
        link.clamp = at;
        link.inflight.push_back(InFlight {
            at,
            seq,
            departed,
            msg,
        });
        if link.inflight.len() == 1 {
            self.frontier.extend(link.head(src, dst));
        }
    }

    fn flush_outbox(&mut self, src: NodeIdx) {
        let mut sends = std::mem::take(&mut self.outbox.sends);
        let src_block = self.nodes[src as usize].block;
        for (i, (dst_id, msg)) in sends.drain(..).enumerate() {
            let departed = self.now + self.config.send_overhead.saturating_mul(i as u64 + 1);
            self.stats.sent += 1;
            if let Some(sizer) = &self.sizer {
                self.stats.bytes_sent += sizer(&msg) as u64;
            }
            // A destination that was never added still goes through the
            // partition check and latency draw (and then vanishes), so the
            // RNG stream matches the map-based engine byte for byte.
            let dst = self.idx_of(dst_id);
            let dst_block = match dst {
                Some(d) => self.nodes[d as usize].block,
                None => partition_block(&self.partition, dst_id),
            };
            if src_block != dst_block {
                match self.partition_mode {
                    PartitionMode::Loss => {
                        self.stats.dropped_partition += 1;
                        continue;
                    }
                    PartitionMode::Delay => {
                        self.stats.parked += 1;
                        let key = (self.nodes[src as usize].id, dst_id);
                        self.parked
                            .entry(key)
                            .or_default()
                            .push_back((departed, msg));
                        continue;
                    }
                }
            }
            self.transmit(src, dst, departed, departed, msg);
        }
        self.outbox.sends = sends;
    }

    /// Puts one message on the link `src → dst` (`None`: a node never
    /// added): into the WAN pipes, or one latency draw after `from`. The
    /// draw is taken even when an unknown destination or a cut link then
    /// loses the message, so neither perturbs the other links' RNG stream.
    fn transmit(
        &mut self,
        src: NodeIdx,
        dst: Option<NodeIdx>,
        from: Instant,
        departed: Instant,
        msg: N::Msg,
    ) {
        let arrival = self
            .wan
            .is_none()
            .then(|| from + self.config.latency.sample(&mut self.rng));
        let Some(dst) = dst else { return };
        let ids = (self.nodes[src as usize].id, self.nodes[dst as usize].id);
        if !self.cut.is_empty() && self.cut.contains(&ids) {
            self.stats.dropped_partition += 1;
            return;
        }
        let Some(arrival) = arrival else {
            self.wan_admit(src, dst, departed, msg);
            return;
        };
        self.enqueue(src, dst, arrival, departed, msg);
    }

    /// Pushes a WAN completion schedule as `TransferDone` events, returning
    /// the scratch buffer.
    fn push_transfer_events(&mut self, mut sched: Sched) {
        for (at, id, epoch) in sched.drain(..) {
            self.push(at, EventKind::TransferDone { id, epoch });
        }
        self.wan_sched = sched;
    }

    /// Admits one send into the WAN model (uplink stage), maintaining the
    /// in-flight and backlog counters.
    fn wan_admit(&mut self, src: NodeIdx, dst: NodeIdx, departed: Instant, msg: N::Msg) {
        let sizer = self.sizer.expect("set_wan installs the sizer");
        let size = (sizer(&msg) as u64).max(1);
        self.stats.wan_inflight += 1;
        self.stats.wan_inflight_peak = self.stats.wan_inflight_peak.max(self.stats.wan_inflight);
        self.stats.wan_backlog_bytes += size;
        self.stats.wan_backlog_peak_bytes = self
            .stats
            .wan_backlog_peak_bytes
            .max(self.stats.wan_backlog_bytes);
        self.with_wan(|wan, now, sched| wan.start(src, dst, departed, msg, size, now, sched))
            .expect("WAN model present");
    }

    /// Resolves a fired `TransferDone` event: advance the transfer to its
    /// trunk stage, or apply latency and the reorder hold, then deliver.
    fn wan_transfer_done(&mut self, id: u32, epoch: u64) {
        let outcome = self
            .with_wan(|wan, now, sched| wan.on_done(id, epoch, now, sched))
            .expect("transfer event without WAN model");
        match outcome {
            DoneOutcome::Stale => {}
            DoneOutcome::Trunked { size_bytes } => self.stats.wan_uplink_bytes += size_bytes,
            DoneOutcome::Final {
                src,
                dst,
                departed,
                msg,
                size_bytes,
                route,
                from_uplink,
            } => {
                if from_uplink {
                    self.stats.wan_uplink_bytes += size_bytes;
                }
                self.stats.wan_inflight = self.stats.wan_inflight.saturating_sub(1);
                self.stats.wan_backlog_bytes =
                    self.stats.wan_backlog_bytes.saturating_sub(size_bytes);
                self.wan_deliver(src, dst, departed, msg, route);
            }
        }
    }

    /// Applies propagation latency and the seeded reorder knob to a
    /// transfer that cleared its last pipe, then schedules delivery.
    fn wan_deliver(
        &mut self,
        src: NodeIdx,
        dst: NodeIdx,
        departed: Instant,
        msg: N::Msg,
        route: Option<(u32, u32)>,
    ) {
        let (latency, reorder_pm, hold_us) = {
            let wan = self.wan.as_ref().expect("WAN model present");
            let latency = match route {
                Some((from, to)) => wan.route_latency(from, to),
                // Intra-region propagation follows the sim's global latency
                // model, so SetLatency spikes keep working under WAN.
                None => self.config.latency,
            };
            let cfg = wan.cfg();
            (
                latency,
                cfg.reorder_permille,
                cfg.reorder_hold.as_micros().max(1),
            )
        };
        let mut arrival = self.now + latency.sample(&mut self.rng);
        if reorder_pm > 0 && self.rng.gen_range(0..1000u32) < reorder_pm {
            // An out-of-order arrival surfaces as reorder-induced queueing
            // delay: the FIFO clamp models the head-of-line blocking a
            // resequencing transport would impose (see `crate::wan` docs).
            arrival += Span::from_micros(self.rng.gen_range(1..=hold_us));
        }
        self.enqueue(src, dst, arrival, departed, msg);
    }

    fn refresh_wake(&mut self, idx: NodeIdx) {
        let entry = &mut self.nodes[idx as usize];
        if entry.crashed {
            return;
        }
        let Some(d) = entry.node.next_deadline() else {
            entry.wake = None; // its frontier entry goes stale
            return;
        };
        let d = d.max(self.now + Span::from_micros(1));
        if entry.wake.is_some_and(|(at, _)| at == d) {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        entry.wake = Some((d, seq));
        let slot = Slot::Wake(idx);
        self.frontier.push(Reverse(Head { at: d, seq, slot }));
    }

    /// Cuts the directed link `src → dst`: its in-flight and parked
    /// messages are dropped, and so is every send on it until
    /// [`Sim::restore_link`]. The reverse direction is unaffected. Returns
    /// `false` if the link was already cut.
    pub fn cut_link(&mut self, src: ProcessId, dst: ProcessId) -> bool {
        if !self.cut.insert((src, dst)) {
            return false;
        }
        let lost = match (self.idx_of(src), self.idx_of(dst)) {
            (Some(si), Some(di)) => self.take_inflight(|s, d| (s, d) == (si, di)).len(),
            _ => 0,
        };
        let parked = self.parked.remove(&(src, dst)).map_or(0, |q| q.len());
        self.stats.dropped_partition += (lost + parked) as u64;
        true
    }

    /// Restores a link cut by [`Sim::cut_link`]; messages dropped while it
    /// was cut stay lost. Returns `false` if the link was not cut.
    pub fn restore_link(&mut self, src: ProcessId, dst: ProcessId) -> bool {
        self.cut.remove(&(src, dst))
    }

    fn crash_node(&mut self, p: ProcessId) {
        let Some(idx) = self.idx_of(p) else {
            return;
        };
        self.nodes[idx as usize].crashed = true;
        // Messages still in p's send pipeline (departure after the crash
        // instant) never make it onto the wire.
        let now = self.now;
        for dst in 0..self.nodes.len() as NodeIdx {
            let l = self.link_index(idx, dst);
            let link = &mut self.links[l];
            let (head, before) = (link.inflight.front().map(|m| m.seq), link.inflight.len());
            link.inflight.retain(|m| m.departed <= now);
            self.stats.dropped_crash_src += (before - link.inflight.len()) as u64;
            if link.inflight.front().map(|m| m.seq) != head {
                self.frontier.extend(link.head(idx, dst));
            }
        }
        // Uplink-stage transfers of the crashed sender were still
        // transmitting out of the host — they never fully departed,
        // whatever their nominal departure instant. Trunk-stage transfers
        // have already left the host and keep flowing.
        if let Some((count, bytes)) = self.with_wan(|wan, now, _| wan.drop_crashed_src(idx, now)) {
            self.stats.dropped_crash_src += count;
            self.stats.wan_inflight = self.stats.wan_inflight.saturating_sub(count);
            self.stats.wan_backlog_bytes = self.stats.wan_backlog_bytes.saturating_sub(bytes);
        }
    }

    /// Calls into node `p` synchronously: sends the callback produces
    /// are flushed onto the wire at the current virtual time, and the node's
    /// timer is re-read. Returns `false` (without invoking `f`) for an
    /// unknown or crashed node.
    pub fn invoke(&mut self, p: ProcessId, f: impl FnOnce(&mut N, &mut Outbox<N::Msg>)) -> bool {
        let Some(idx) = self.idx_of(p) else {
            return false;
        };
        if self.nodes[idx as usize].crashed {
            return false;
        }
        self.run_node(idx, f);
        true
    }

    /// The frontier of schedulable events: the FIFO head of every link with
    /// a live (non-crashed) destination, plus every live node's pending
    /// timer wake-up. Returned in deterministic order (delivers by link
    /// `(src id, dst id)`, then wakes by node id). An external strategy
    /// picks one and hands it to [`Sim::fire`].
    ///
    /// Repeatedly firing the earliest entry replays [`Sim::run_until`]
    /// exactly as long as no two entries share an instant: at a tie
    /// `run_until` fires the event scheduled first, while this list orders
    /// tied entries by link and node id. Scheduled inputs and network
    /// changes are not on the frontier, nor are messages to a crashed
    /// destination, which `run_until` drops on arrival.
    #[must_use]
    pub fn pending_events(&self) -> Vec<PendingEvent> {
        let mut out = Vec::new();
        for &(src, s) in &self.lookup {
            for &(dst, d) in &self.lookup {
                let head = self.links[self.link_index(s, d)].inflight.front();
                if let (Some(m), false) = (head, self.nodes[d as usize].crashed) {
                    out.push(PendingEvent::Deliver { src, dst, at: m.at });
                }
            }
        }
        for (id, idx) in &self.lookup {
            let entry = &self.nodes[*idx as usize];
            if entry.crashed {
                continue;
            }
            if let Some((at, _)) = entry.wake {
                out.push(PendingEvent::Wake { node: *id, at });
            }
        }
        out
    }

    /// Fires one frontier event chosen by an external strategy, advancing
    /// the clock to `max(now, event time)` — under external control events
    /// may fire out of timestamp order, which models arbitrary asynchrony:
    /// a "late" event simply executes at the later current time.
    ///
    /// A `Deliver` fires the FIFO-head message of the named link; a `Wake`
    /// fires the node's current pending wake-up. Returns `false` (state
    /// unchanged) if no matching event is pending — e.g. a stale choice
    /// replayed against a shrunk schedule.
    pub fn fire(&mut self, ev: PendingEvent) -> bool {
        match ev {
            PendingEvent::Deliver { src, dst, .. } => {
                let (Some(s), Some(d)) = (self.idx_of(src), self.idx_of(dst)) else {
                    return false;
                };
                let l = self.link_index(s, d);
                let link = &mut self.links[l];
                let Some(m) = link.inflight.pop_front() else {
                    return false;
                };
                // The popped head's entry goes stale; the new head's enters.
                self.frontier.extend(link.head(s, d));
                self.deliver(s, d, m);
                true
            }
            PendingEvent::Wake { node, .. } => {
                let Some(idx) = self.idx_of(node) else {
                    return false;
                };
                match self.nodes[idx as usize].wake {
                    Some(key) => self.wake(idx, key),
                    None => false,
                }
            }
        }
    }
}

impl<N: SimNode> Sim<N> {
    /// Schedules an arbitrary call into node `p` at `at` (a [`Call`] input,
    /// see [`Sim::schedule_input`]).
    pub fn schedule_call(
        &mut self,
        at: Instant,
        p: ProcessId,
        f: impl FnOnce(&mut N, &mut Outbox<N::Msg>) + 'static,
    ) {
        self.schedule_input(at, p, Box::new(f));
    }
}

impl<N, I> Sim<N, I>
where
    N: SimNode + Hash,
    N::Msg: Hash,
{
    /// Canonical hash of the full observable system state, for the model
    /// checker's visited-state dedup: virtual time, every node's protocol
    /// state (via the node's own [`Hash`]), crash flags, pending
    /// wake-ups, in-flight messages in canonical link-then-arrival order,
    /// parked (partitioned-away) messages, partition blocks, the per-link
    /// FIFO clamp matrix, and the cut links while any is cut.
    ///
    /// Excluded by design: event sequence numbers, the scratch outbox, network
    /// statistics, and the RNG — the digest is therefore sound for dedup
    /// only under a latency model that draws no randomness
    /// ([`LatencyModel::Fixed`]) and a fixed [`NetConfig`], which is what
    /// the model checker runs. Scheduled inputs ([`NetOp`]s and node
    /// inputs) are folded in only as a count; externally controlled
    /// exploration injects those through [`Sim::apply`] and
    /// [`Sim::invoke`] instead of the queue. The WAN model is excluded for
    /// the same reason (its deliveries draw randomness): the model checker
    /// never enables it, so delay semantics under exploration are
    /// unchanged by congestion modelling.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut h = DigestHasher::new();
        self.now.hash(&mut h);
        self.nodes.len().hash(&mut h);
        for (id, idx) in &self.lookup {
            let entry = &self.nodes[*idx as usize];
            let wake_at = entry.wake.map(|(at, _)| at);
            (id, entry.crashed, wake_at, entry.block, &entry.node).hash(&mut h);
        }
        self.partition_mode.hash(&mut h);
        // In-flight messages link by link in `(src id, dst id)` order, each
        // link in arrival order, hashed as one length-prefixed sequence.
        let (n, inflight) = (
            self.nodes.len(),
            self.links.iter().map(|l| l.inflight.len()),
        );
        inflight.sum::<usize>().hash(&mut h);
        for &(src, s) in &self.lookup {
            for &(dst, d) in &self.lookup {
                for m in &self.links[s as usize * n + d as usize].inflight {
                    (src, dst, m.at, m.departed, &m.msg).hash(&mut h);
                }
            }
        }
        // Only each node's live wake-up is pending, digested above.
        (self.queue.len() as u64).hash(&mut h);
        self.parked.hash(&mut h);
        // The clamps in link-table order, as one length-prefixed sequence.
        self.links.len().hash(&mut h);
        for link in &self.links {
            link.clamp.hash(&mut h);
        }
        self.cut.hash(&mut h);
        h.finish()
    }
}

/// `p`'s connectivity block under `spec` (see [`NodeEntry::block`]).
fn partition_block(spec: &PartitionSpec, p: ProcessId) -> u32 {
    match spec.block_of(p) {
        Some(b) => b as u32,
        None => BLOCK_RESIDUAL,
    }
}

impl<N: SimNode, I> std::fmt::Debug for Sim<N, I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("queued", &self.queue.len())
            .field("frontier", &self.frontier.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LatencyModel;

    /// Records every message it receives, tagged with arrival time.
    #[derive(Hash)]
    struct Recorder {
        seen: Vec<(Instant, ProcessId, u64)>,
        ticks: u32,
        deadline: Option<Instant>,
    }

    impl Recorder {
        fn new() -> Recorder {
            Recorder {
                seen: Vec::new(),
                ticks: 0,
                deadline: None,
            }
        }
    }

    impl SimNode for Recorder {
        type Msg = u64;
        fn on_message(&mut self, now: Instant, from: ProcessId, msg: u64, _out: &mut Outbox<u64>) {
            self.seen.push((now, from, msg));
        }
        fn on_tick(&mut self, _now: Instant, _out: &mut Outbox<u64>) {
            self.ticks += 1;
            self.deadline = None;
        }
        fn next_deadline(&self) -> Option<Instant> {
            self.deadline
        }
    }

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn two_node_sim(seed: u64, latency: LatencyModel) -> Sim<Recorder> {
        let mut sim = Sim::new(NetConfig::new(seed).with_latency(latency));
        sim.add_node(p(1), Recorder::new());
        sim.add_node(p(2), Recorder::new());
        sim
    }

    #[test]
    fn fifo_preserved_under_random_latency() {
        let mut sim = two_node_sim(
            42,
            LatencyModel::Uniform {
                lo: Span::from_micros(10),
                hi: Span::from_micros(5_000),
            },
        );
        sim.schedule_call(Instant::ZERO, p(1), |_, out| {
            for k in 0..100u64 {
                out.send(p(2), k);
            }
        });
        sim.run_until(Instant::from_micros(1_000_000));
        let seen: Vec<u64> = sim.node(p(2)).unwrap().seen.iter().map(|s| s.2).collect();
        assert_eq!(seen, (0..100).collect::<Vec<_>>(), "link must be FIFO");
    }

    #[test]
    fn crash_drops_undeparted_sends_only() {
        // Send overhead 10µs; crash at 25µs severs a 5-destination multicast
        // after the second departure.
        let mut sim: Sim<Recorder> = Sim::new(
            NetConfig::new(1)
                .with_latency(LatencyModel::Fixed(Span::from_micros(100)))
                .with_send_overhead(Span::from_micros(10)),
        );
        for i in 1..=6 {
            sim.add_node(p(i), Recorder::new());
        }
        sim.schedule_call(Instant::ZERO, p(1), |_, out| {
            for i in 2..=6 {
                out.send(p(i), 7);
            }
        });
        sim.schedule_crash(Instant::from_micros(25), p(1));
        sim.run_until(Instant::from_micros(10_000));
        let received: Vec<bool> = (2..=6)
            .map(|i| !sim.node(p(i)).unwrap().seen.is_empty())
            .collect();
        assert_eq!(received, vec![true, true, false, false, false]);
        assert_eq!(sim.stats().dropped_crash_src, 3);
        assert!(sim.crashed(p(1)));
    }

    #[test]
    fn messages_to_crashed_node_are_dropped() {
        let mut sim = two_node_sim(3, LatencyModel::Fixed(Span::from_millis(1)));
        sim.schedule_crash(Instant::from_micros(10), p(2));
        sim.schedule_call(Instant::from_micros(100), p(1), |_, out| {
            out.send(p(2), 1);
        });
        sim.run_until(Instant::from_micros(100_000));
        assert!(sim.node(p(2)).unwrap().seen.is_empty());
        assert_eq!(sim.stats().dropped_crash_dst, 1);
    }

    #[test]
    fn loss_partition_drops_crossing_sends_and_inflight() {
        let mut sim = two_node_sim(4, LatencyModel::Fixed(Span::from_millis(10)));
        // In-flight message at partition time is lost.
        sim.schedule_call(Instant::ZERO, p(1), |_, out| out.send(p(2), 1));
        sim.schedule(
            Instant::from_micros(1_000),
            NetOp::Partition(PartitionSpec::split([p(1)]), PartitionMode::Loss),
        );
        // Message sent during the partition is lost too.
        sim.schedule_call(Instant::from_micros(2_000), p(1), |_, out| {
            out.send(p(2), 2)
        });
        sim.schedule(Instant::from_micros(50_000), NetOp::Heal);
        // After healing, traffic flows again.
        sim.schedule_call(Instant::from_micros(60_000), p(1), |_, out| {
            out.send(p(2), 3)
        });
        sim.run_until(Instant::from_micros(200_000));
        let seen: Vec<u64> = sim.node(p(2)).unwrap().seen.iter().map(|s| s.2).collect();
        assert_eq!(seen, vec![3]);
        assert_eq!(sim.stats().dropped_partition, 2);
    }

    #[test]
    fn delay_partition_parks_and_releases_in_order() {
        let mut sim = two_node_sim(5, LatencyModel::Fixed(Span::from_millis(1)));
        sim.schedule(
            Instant::ZERO,
            NetOp::Partition(PartitionSpec::split([p(1)]), PartitionMode::Delay),
        );
        sim.schedule_call(Instant::from_micros(10), p(1), |_, out| {
            out.send(p(2), 1);
            out.send(p(2), 2);
        });
        sim.schedule_call(Instant::from_micros(20), p(1), |_, out| {
            out.send(p(2), 3);
        });
        sim.schedule(Instant::from_micros(5_000), NetOp::Heal);
        sim.run_until(Instant::from_micros(100_000));
        let seen: Vec<u64> = sim.node(p(2)).unwrap().seen.iter().map(|s| s.2).collect();
        assert_eq!(seen, vec![1, 2, 3]);
        assert!(sim.node(p(2)).unwrap().seen[0].0 >= Instant::from_micros(5_000));
        assert_eq!(sim.stats().parked, 3);
    }

    #[test]
    fn scheduled_latency_change_applies_to_later_sends() {
        let mut sim = two_node_sim(11, LatencyModel::Fixed(Span::from_micros(100)));
        sim.schedule_call(Instant::ZERO, p(1), |_, out| out.send(p(2), 1));
        sim.schedule(
            Instant::from_micros(1_000),
            NetOp::Latency(LatencyModel::Fixed(Span::from_millis(50))),
        );
        sim.schedule_call(Instant::from_micros(2_000), p(1), |_, out| {
            out.send(p(2), 2)
        });
        sim.run_until(Instant::from_micros(200_000));
        let seen = &sim.node(p(2)).unwrap().seen;
        assert_eq!(seen.len(), 2);
        assert!(
            seen[0].0 < Instant::from_micros(1_000),
            "pre-change latency"
        );
        assert!(
            seen[1].0 >= Instant::from_micros(52_000),
            "post-change send must take the new 50ms latency, arrived at {:?}",
            seen[1].0
        );
    }

    #[test]
    fn wake_fires_at_deadline_once() {
        let mut sim: Sim<Recorder> = Sim::new(NetConfig::new(6));
        sim.add_node(p(1), Recorder::new());
        sim.schedule_call(Instant::ZERO, p(1), |n, _| {
            n.deadline = Some(Instant::from_micros(500));
        });
        sim.run_until(Instant::from_micros(10_000));
        assert_eq!(sim.node(p(1)).unwrap().ticks, 1);
    }

    #[test]
    fn deterministic_replay_with_same_seed() {
        let run = |seed: u64| {
            let mut sim = two_node_sim(
                seed,
                LatencyModel::Uniform {
                    lo: Span::from_micros(5),
                    hi: Span::from_micros(900),
                },
            );
            sim.schedule_call(Instant::ZERO, p(1), |_, out| {
                for k in 0..20 {
                    out.send(p(2), k);
                }
            });
            sim.run_until(Instant::from_micros(100_000));
            sim.node(p(2)).unwrap().seen.clone()
        };
        assert_eq!(run(99), run(99));
        // Different seeds should (overwhelmingly) differ in timing.
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn call_on_crashed_node_is_ignored() {
        let mut sim = two_node_sim(7, LatencyModel::default());
        sim.schedule_crash(Instant::ZERO, p(1));
        sim.schedule_call(Instant::from_micros(5), p(1), |_, out| {
            out.send(p(2), 1);
        });
        sim.run_until(Instant::from_micros(10_000));
        assert!(sim.node(p(2)).unwrap().seen.is_empty());
        assert_eq!(sim.stats().sent, 0);
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut sim: Sim<Recorder> = Sim::new(NetConfig::new(8));
        sim.run_until(Instant::from_micros(1234));
        assert_eq!(sim.now(), Instant::from_micros(1234));
        assert!(!sim.step());
    }

    #[test]
    fn the_clock_never_runs_backwards() {
        let mut sim = two_node_sim(14, LatencyModel::Fixed(Span::from_micros(100)));
        sim.run_until(Instant::from_micros(1_000));
        sim.run_until(Instant::from_micros(500));
        assert_eq!(sim.now(), Instant::from_micros(1_000), "run_until rewound");
        // An input scheduled in the past fires now, not at its stale instant.
        sim.schedule_call(Instant::from_micros(200), p(1), |_, out| out.send(p(2), 1));
        sim.run_until(Instant::from_micros(2_000));
        // Sent at 1 ms: + the default 5 µs send overhead + 100 µs latency.
        let seen = &sim.node(p(2)).unwrap().seen;
        assert_eq!(seen[0].0, Instant::from_micros(1_105));
    }

    #[test]
    #[should_panic(expected = "invalid latency model")]
    fn scheduling_an_inverted_latency_model_panics_at_once() {
        let mut sim = two_node_sim(15, LatencyModel::default());
        let (lo, hi) = (Span::from_millis(5), Span::from_millis(1));
        sim.schedule(
            Instant::ZERO,
            NetOp::Latency(LatencyModel::Uniform { lo, hi }),
        );
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_node_panics() {
        let mut sim: Sim<Recorder> = Sim::new(NetConfig::new(9));
        sim.add_node(p(1), Recorder::new());
        sim.add_node(p(1), Recorder::new());
    }

    #[test]
    fn sizer_counts_bytes() {
        let mut sim = two_node_sim(10, LatencyModel::default());
        sim.set_sizer(|_m| 11);
        sim.schedule_call(Instant::ZERO, p(1), |_, out| {
            out.send(p(2), 1);
            out.send(p(2), 2);
        });
        sim.run_until(Instant::from_micros(10_000));
        assert_eq!(sim.stats().bytes_sent, 22);
    }

    #[test]
    fn nodes_added_out_of_id_order_keep_id_ordered_iteration() {
        let mut sim: Sim<Recorder> = Sim::new(NetConfig::new(12));
        sim.add_node(p(3), Recorder::new());
        sim.add_node(p(1), Recorder::new());
        sim.add_node(p(2), Recorder::new());
        let ids: Vec<u32> = sim.nodes().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        sim.schedule_call(Instant::ZERO, p(3), |_, out| {
            out.send(p(1), 7);
            out.send(p(2), 8);
        });
        sim.run_until(Instant::from_micros(10_000));
        assert_eq!(sim.node(p(1)).unwrap().seen.len(), 1);
        assert_eq!(sim.node(p(2)).unwrap().seen.len(), 1);
        assert_eq!(sim.fifo_state_entries(), 9);
    }

    #[test]
    fn fifo_state_stays_bounded_across_heal_partition_cycles() {
        // Regression: the FIFO clamps once lived in an unbounded `HashMap`
        // that grew an entry per ever-used link and was never pruned across
        // heal/depart cycles. The link table must hold exactly n² entries
        // forever.
        let mut sim = two_node_sim(13, LatencyModel::Fixed(Span::from_micros(200)));
        let n2 = sim.fifo_state_entries();
        assert_eq!(n2, 4);
        let mut t = 1_000u64;
        for cycle in 0..200u64 {
            sim.schedule(
                Instant::from_micros(t),
                NetOp::Partition(PartitionSpec::split([p(1)]), PartitionMode::Delay),
            );
            sim.schedule_call(Instant::from_micros(t + 100), p(1), move |_, out| {
                out.send(p(2), cycle);
            });
            sim.schedule_call(Instant::from_micros(t + 100), p(2), move |_, out| {
                out.send(p(1), cycle);
            });
            sim.schedule(Instant::from_micros(t + 500), NetOp::Heal);
            t += 1_000;
        }
        sim.run_until(Instant::from_micros(t + 100_000));
        assert_eq!(sim.node(p(2)).unwrap().seen.len(), 200);
        assert_eq!(
            sim.fifo_state_entries(),
            n2,
            "per-link FIFO state must not grow across partition/heal cycles"
        );
    }

    /// A controllable fixture: fixed latency so the digest is sound, and a
    /// helper to resolve a frontier entry by kind.
    fn controlled_sim() -> Sim<Recorder> {
        let mut sim: Sim<Recorder> = Sim::new(
            NetConfig::new(0)
                .with_latency(LatencyModel::Fixed(Span::from_micros(100)))
                .with_send_overhead(Span::from_micros(10)),
        );
        for i in 1..=3 {
            sim.add_node(p(i), Recorder::new());
        }
        sim
    }

    #[test]
    fn frontier_exposes_link_heads_and_wakes() {
        let mut sim = controlled_sim();
        sim.schedule_call(Instant::ZERO, p(1), |n, out| {
            out.send(p(2), 1);
            out.send(p(2), 2); // same link: only the head is a frontier entry
            out.send(p(3), 3);
            n.deadline = Some(Instant::from_micros(5_000));
        });
        sim.run_until(Instant::ZERO);
        let frontier = sim.pending_events();
        assert_eq!(
            frontier,
            vec![
                PendingEvent::Deliver {
                    src: p(1),
                    dst: p(2),
                    at: Instant::from_micros(110),
                },
                PendingEvent::Deliver {
                    src: p(1),
                    dst: p(3),
                    // third send: 3 × 10µs overhead + 100µs latency
                    at: Instant::from_micros(130),
                },
                PendingEvent::Wake {
                    node: p(1),
                    at: Instant::from_micros(5_000),
                },
            ]
        );
    }

    #[test]
    fn fire_respects_fifo_order_per_link() {
        let mut sim = controlled_sim();
        sim.schedule_call(Instant::ZERO, p(1), |_, out| {
            out.send(p(2), 1);
            out.send(p(2), 2);
        });
        sim.run_until(Instant::ZERO);
        let head = |sim: &Sim<Recorder>| sim.pending_events()[0];
        assert!(sim.fire(head(&sim)));
        assert!(sim.fire(head(&sim)));
        let seen: Vec<u64> = sim.node(p(2)).unwrap().seen.iter().map(|s| s.2).collect();
        assert_eq!(seen, vec![1, 2], "fire must deliver FIFO heads in order");
        assert!(sim.pending_events().is_empty());
    }

    #[test]
    fn fire_out_of_order_advances_clock_to_max() {
        let mut sim = controlled_sim();
        sim.schedule_call(Instant::ZERO, p(1), |_, out| {
            out.send(p(2), 1); // arrives 110
            out.send(p(3), 2); // arrives 120
        });
        sim.run_until(Instant::ZERO);
        // Fire the later event first: the clock jumps to 120; the earlier
        // event then executes "late" at the current time, modelling an
        // arbitrarily slow link.
        let late = PendingEvent::Deliver {
            src: p(1),
            dst: p(3),
            at: Instant::from_micros(120),
        };
        assert!(sim.fire(late));
        assert_eq!(sim.now(), Instant::from_micros(120));
        let early = PendingEvent::Deliver {
            src: p(1),
            dst: p(2),
            at: Instant::from_micros(110),
        };
        assert!(sim.fire(early));
        assert_eq!(sim.now(), Instant::from_micros(120), "clock never rewinds");
        assert_eq!(
            sim.node(p(2)).unwrap().seen,
            vec![(Instant::from_micros(120), p(1), 1)]
        );
    }

    #[test]
    fn fire_stale_choice_is_a_noop() {
        let mut sim = controlled_sim();
        let before = sim.state_digest();
        assert!(!sim.fire(PendingEvent::Deliver {
            src: p(1),
            dst: p(2),
            at: Instant::ZERO,
        }));
        assert!(!sim.fire(PendingEvent::Wake {
            node: p(1),
            at: Instant::ZERO,
        }));
        assert!(!sim.fire(PendingEvent::Wake {
            node: p(9),
            at: Instant::ZERO,
        }));
        assert_eq!(sim.state_digest(), before, "failed fire must not mutate");
    }

    #[test]
    fn invoke_and_apply_drive_nodes_directly() {
        let mut sim = controlled_sim();
        assert!(sim.invoke(p(1), |_, out| out.send(p(2), 7)));
        assert_eq!(sim.pending_events().len(), 1);
        // The send departs 10µs after the invoke; crashing p(1) at the
        // current instant severs it while still in the send pipeline.
        sim.apply(NetOp::Crash(p(1)));
        assert!(sim.pending_events().is_empty(), "undeparted send dropped");
        assert_eq!(sim.stats().dropped_crash_src, 1);
        assert!(!sim.invoke(p(1), |_, out| out.send(p(2), 8)), "crashed");
        sim.apply(NetOp::Crash(p(9)));
        assert!(!sim.crashed(p(9)), "unknown node");
        // A message that has left its (live) sender is deliverable as usual.
        assert!(sim.invoke(p(2), |_, out| out.send(p(3), 9)));
        assert!(sim.fire(sim.pending_events()[0]));
        assert_eq!(sim.node(p(3)).unwrap().seen.len(), 1);
    }

    #[test]
    fn crash_keeps_released_messages_behind_an_undeparted_head() {
        let mut sim = controlled_sim();
        let split = |ids: &[u32]| PartitionSpec::split(ids.iter().map(|&i| p(i)));
        sim.apply(NetOp::Partition(split(&[1]), PartitionMode::Delay));
        sim.invoke(p(1), |_, out| out.send(p(2), 1)); // parked, departs at 10
        sim.run_until(Instant::from_micros(100));
        // P1 and P2 share a block now, but 1 stays parked until the heal.
        sim.apply(NetOp::Partition(split(&[1, 2]), PartitionMode::Delay));
        sim.invoke(p(1), |_, out| out.send(p(2), 2)); // departs at 110
        sim.apply(NetOp::Heal); // 1 queues behind 2 on the link
        sim.apply(NetOp::Crash(p(1))); // 2 never left P1; 1 did
        assert!(
            sim.links_coherent(),
            "the link's new head is on the frontier"
        );
        sim.run_until(Instant::from_micros(1_000));
        assert_eq!(got(&sim, 2), vec![(211, 1)]);
        assert_eq!(sim.stats().dropped_crash_src, 1);
    }

    #[test]
    fn frontier_hides_crashed_destinations() {
        let mut sim = controlled_sim();
        assert!(sim.invoke(p(1), |_, out| {
            out.send(p(2), 1);
            out.send(p(3), 2);
        }));
        sim.apply(NetOp::Crash(p(2)));
        let frontier = sim.pending_events();
        assert_eq!(frontier.len(), 1);
        assert!(matches!(
            frontier[0],
            PendingEvent::Deliver { dst, .. } if dst == p(3)
        ));
    }

    #[test]
    fn digest_identical_across_replays_and_unchanged_by_noop_invoke() {
        let run = |script: &[u64]| -> Vec<u64> {
            let mut sim = controlled_sim();
            let mut digests = vec![sim.state_digest()];
            assert!(sim.invoke(p(1), |_, out| {
                out.send(p(2), 1);
                out.send(p(3), 2);
            }));
            for &pick in script {
                let ev = sim.pending_events()[pick as usize];
                assert!(sim.fire(ev));
                digests.push(sim.state_digest());
            }
            digests
        };
        let a = run(&[0, 0]);
        let b = run(&[0, 0]);
        assert_eq!(a, b, "same schedule must produce the same digest trace");
        let c = run(&[1, 0]);
        assert_ne!(
            a.last(),
            c.last(),
            "different arrival orders leave different arrival timestamps"
        );

        // A no-op invoke must not move the digest.
        let mut sim = controlled_sim();
        let before = sim.state_digest();
        for _ in 0..4 {
            assert!(sim.invoke(p(2), |_, _| {}));
        }
        assert_eq!(sim.state_digest(), before);
    }

    /// The model-checker network (zero latency and send overhead), 3 nodes.
    fn zero_time_sim() -> Sim<Recorder> {
        let net = NetConfig::new(0).with_latency(LatencyModel::Fixed(Span::ZERO));
        let mut sim = Sim::new(net.with_send_overhead(Span::ZERO));
        for i in 1..=3 {
            sim.add_node(p(i), Recorder::new());
        }
        sim
    }

    /// `(arrival µs, payload)` of everything `id` received.
    fn got(sim: &Sim<Recorder>, id: u32) -> Vec<(u64, u64)> {
        let seen = &sim.node(p(id)).unwrap().seen;
        seen.iter().map(|s| (s.0.as_micros(), s.2)).collect()
    }

    #[test]
    fn zero_latency_deliveries_still_advance_the_clock() {
        // The FIFO clamp spaces same-instant sends on one link 1 µs apart.
        let mut sim = zero_time_sim();
        sim.invoke(p(1), |_, out| (1..=3).for_each(|m| out.send(p(2), m)));
        let (src, dst, at) = (p(1), p(2), Instant::ZERO);
        for _ in 0..3 {
            assert!(sim.fire(PendingEvent::Deliver { src, dst, at }));
        }
        assert_eq!(got(&sim, 2), vec![(1, 1), (2, 2), (3, 3)]);
        assert_eq!(sim.now(), Instant::from_micros(3));
    }

    #[test]
    fn cut_link_drops_inflight_and_later_sends_in_one_direction() {
        let mut sim = zero_time_sim();
        let uncut = sim.state_digest();
        sim.invoke(p(1), |_, out| out.send(p(2), 1));
        assert!(sim.cut_link(p(1), p(2)));
        assert!(!sim.cut_link(p(1), p(2)), "already cut");
        sim.invoke(p(1), |_, out| out.send(p(2), 2));
        sim.invoke(p(2), |_, out| out.send(p(1), 3));
        let cut = sim.state_digest();
        sim.cut_link(p(2), p(3));
        assert_ne!(sim.state_digest(), cut, "the digest names the cut links");
        assert!(sim.restore_link(p(1), p(2)) && sim.restore_link(p(2), p(3)));
        assert!(!sim.restore_link(p(1), p(2)), "already restored");
        sim.invoke(p(1), |_, out| out.send(p(2), 4));
        while sim.step() {}
        // 1 (in flight at the cut) and 2 (sent on the cut link) are lost; the
        // reverse direction is unaffected.
        assert_eq!((got(&sim, 2), got(&sim, 1)), (vec![(2, 4)], vec![(1, 3)]));
        assert_eq!(sim.stats().dropped_partition, 2);
        // A restored link leaves no trace in the digest.
        let mut twin = zero_time_sim();
        twin.cut_link(p(1), p(2));
        assert_ne!(twin.state_digest(), uncut);
        twin.restore_link(p(1), p(2));
        assert_eq!(twin.state_digest(), uncut);
    }

    #[test]
    fn cut_link_keeps_the_latency_draws_of_other_links() {
        let run = |cut: u32| {
            let (lo, hi) = (Span::from_micros(100), Span::from_micros(900));
            let mut sim = two_node_sim(9, LatencyModel::Uniform { lo, hi });
            sim.add_node(p(3), Recorder::new());
            sim.cut_link(p(1), p(cut));
            for m in 0..20 {
                sim.invoke(p(1), move |_, out| {
                    [2, 3].into_iter().for_each(|d| out.send(p(d), m))
                });
            }
            while sim.step() {}
            got(&sim, 3)
        };
        // Cutting 1 → 2 and cutting a link nobody uses draw alike on 1 → 3.
        assert_eq!(run(2), run(9));
    }

    #[test]
    fn applied_partition_and_heal_act_immediately() {
        let mut sim = zero_time_sim();
        sim.invoke(p(1), |_, out| out.send(p(3), 1));
        sim.apply(NetOp::Partition(
            PartitionSpec::split([p(1)]),
            PartitionMode::Loss,
        ));
        sim.invoke(p(1), |_, out| out.send(p(3), 2));
        sim.invoke(p(2), |_, out| out.send(p(3), 3));
        while sim.step() {}
        sim.apply(NetOp::Heal);
        sim.invoke(p(1), |_, out| out.send(p(3), 4));
        while sim.step() {}
        // The crossing message in flight (1) and the crossing send (2) are lost.
        assert_eq!(got(&sim, 3), vec![(1, 3), (2, 4)]);
        assert_eq!(sim.stats().dropped_partition, 2);
    }

    /// Sends `k - 1` on to two neighbours and arms a timer on some
    /// arrivals; a tick sends once more. Drives multi-hop schedules.
    #[derive(Hash)]
    struct Relay {
        me: u32,
        seen: Vec<(Instant, ProcessId, u64)>,
        deadline: Option<Instant>,
    }

    impl SimNode for Relay {
        type Msg = u64;
        fn on_message(&mut self, now: Instant, from: ProcessId, k: u64, out: &mut Outbox<u64>) {
            self.seen.push((now, from, k));
            if k > 0 {
                out.send(p(self.me % 4 + 1), k - 1);
                out.send(p((self.me + 1) % 4 + 1), k - 1);
            }
            if k > 0 && k.is_multiple_of(3) && self.deadline.is_none() {
                self.deadline = Some(now + Span::from_micros(50 + k * 7));
            }
        }
        fn on_tick(&mut self, _now: Instant, out: &mut Outbox<u64>) {
            self.deadline = None;
            out.send(p(self.me % 4 + 1), 0);
        }
        fn next_deadline(&self) -> Option<Instant> {
            self.deadline
        }
    }

    #[test]
    fn firing_the_earliest_frontier_entry_replays_run_until_when_tie_free() {
        let relays = || {
            let (lo, hi) = (Span::from_micros(1), Span::from_secs(1));
            let mut sim: Sim<Relay> =
                Sim::new(NetConfig::new(5).with_latency(LatencyModel::Uniform { lo, hi }));
            for me in 1..=4 {
                let (seen, deadline) = (Vec::new(), None);
                sim.add_node(p(me), Relay { me, seen, deadline });
            }
            for me in 1..=4 {
                sim.invoke(p(me), |_, out| out.send(p(me % 4 + 1), 6));
            }
            sim
        };
        let at = |e: &PendingEvent| match *e {
            PendingEvent::Deliver { at, .. } | PendingEvent::Wake { at, .. } => at,
        };
        let mut fired = relays();
        let mut steps = 0;
        while let Some(first) = fired.pending_events().into_iter().min_by_key(at) {
            let frontier = fired.pending_events();
            let ties = frontier.iter().filter(|e| at(e) == at(&first)).count();
            assert_eq!(ties, 1, "the schedule must be tie-free: {frontier:?}");
            assert!(fired.fire(first));
            assert!(fired.links_coherent());
            steps += 1;
        }
        assert!(steps > 500, "a multi-hop schedule ({steps} events)");
        let mut ran = relays();
        ran.run_until(fired.now());
        let logs =
            |sim: &Sim<Relay>| -> Vec<_> { sim.nodes().map(|(_, n)| n.seen.clone()).collect() };
        assert_eq!(logs(&fired), logs(&ran));
        assert_eq!(fired.state_digest(), ran.state_digest());
        assert_eq!(fired.stats(), ran.stats());
    }

    /// Messages on the wire or parked; with every send addressed to a known
    /// node, `sent` is this plus what was delivered or dropped.
    fn unsettled(sim: &Sim<Recorder>) -> u64 {
        let inflight: usize = sim.links.iter().map(|l| l.inflight.len()).sum();
        let parked: usize = sim.parked.values().map(VecDeque::len).sum();
        (inflight + parked) as u64
    }

    proptest::proptest! {
        /// The link table stays coherent after every operation of a random
        /// mix of sends under random latency, out-of-order fires, runs,
        /// crashes, Loss and Delay partitions with heal, and link cuts; and
        /// every message sent is delivered, dropped, parked or in flight.
        #[test]
        fn link_table_stays_coherent_and_stats_balance(
            ops in proptest::collection::vec((0u32..12, 1u32..=4, 1u32..=4, 0u64..6), 1..120),
        ) {
            let (lo, hi) = (Span::from_micros(1), Span::from_micros(400));
            let net = NetConfig::new(ops.len() as u64).with_latency(LatencyModel::Uniform { lo, hi });
            let mut sim: Sim<Recorder> = Sim::new(net.with_send_overhead(Span::from_micros(3)));
            for i in 1..=4 {
                sim.add_node(p(i), Recorder::new());
            }
            for (kind, a, b, k) in ops {
                match kind {
                    0..=3 => {
                        sim.invoke(p(a), |n, out| {
                            (0..k).for_each(|m| out.send(p(1 + (b + m as u32) % 4), m));
                            n.deadline = Some(Instant::from_micros(k * 90));
                        });
                    }
                    4 | 5 => {
                        let frontier = sim.pending_events();
                        if let Some(ev) = frontier.get(((a * b) as usize) % frontier.len().max(1)) {
                            proptest::prop_assert!(sim.fire(*ev));
                        }
                    }
                    6 => sim.run_for(Span::from_micros(k * 40)),
                    7 if k == 0 => sim.apply(NetOp::Crash(p(a))),
                    7 => {}
                    8 => {
                        let mode = [PartitionMode::Loss, PartitionMode::Delay][(k % 2) as usize];
                        sim.apply(NetOp::Partition(PartitionSpec::split([p(a), p(b)]), mode));
                    }
                    9 => sim.apply(NetOp::Heal),
                    10 => {
                        sim.cut_link(p(a), p(b));
                    }
                    _ => {
                        sim.restore_link(p(a), p(b));
                    }
                }
                proptest::prop_assert!(sim.links_coherent());
                let s = sim.stats();
                let settled = s.delivered + s.dropped_crash_src + s.dropped_crash_dst;
                proptest::prop_assert_eq!(s.sent, settled + s.dropped_partition + unsettled(&sim));
            }
        }
    }

    // ------------------------------------------------------------------
    // WAN model integration
    // ------------------------------------------------------------------

    use crate::wan::{WanConfig, WanLinkSpec};

    /// Capped uplink, fixed 1 ms propagation, 100-byte messages: the k-th
    /// of ten same-flow sends arrives exactly when the uplink has
    /// serialized k transfers — timing is size/capacity, not a latency
    /// draw.
    #[test]
    fn wan_capped_uplink_serializes_a_flow_at_capacity() {
        let mut sim = two_node_sim(20, LatencyModel::Fixed(Span::from_millis(1)));
        sim.set_wan(WanConfig::new().with_default_uplink(1_000), |_m| 100)
            .unwrap();
        sim.schedule_call(Instant::ZERO, p(1), |_, out| {
            for k in 0..10u64 {
                out.send(p(2), k);
            }
        });
        sim.run_until(Instant::from_micros(5_000_000));
        let seen = &sim.node(p(2)).unwrap().seen;
        assert_eq!(seen.len(), 10);
        for (k, (at, _, msg)) in seen.iter().enumerate() {
            assert_eq!(*msg, k as u64, "per-link FIFO");
            // 100 B at 1000 B/s = 100 ms per serialized transfer, +1 ms
            // propagation.
            let expect = (k as u64 + 1) * 100_000 + 1_000;
            assert_eq!(at.as_micros(), expect, "transfer {k}");
        }
        let stats = sim.stats();
        assert_eq!(stats.wan_uplink_bytes, 1_000);
        assert_eq!(stats.wan_inflight, 0);
        assert_eq!(stats.wan_inflight_peak, 10);
        assert_eq!(stats.wan_backlog_bytes, 0);
        assert_eq!(stats.wan_backlog_peak_bytes, 1_000);
    }

    #[test]
    fn wan_cross_region_routes_are_asymmetric() {
        let mut sim = two_node_sim(21, LatencyModel::Fixed(Span::from_micros(100)));
        let cfg = WanConfig::new()
            .attach(p(1), 0)
            .attach(p(2), 1)
            .with_default_uplink(1_000_000)
            .with_route(
                0,
                1,
                WanLinkSpec::new(LatencyModel::Fixed(Span::from_millis(40)), 1_000_000),
            )
            .with_route(
                1,
                0,
                WanLinkSpec::new(LatencyModel::Fixed(Span::from_millis(5)), 1_000_000),
            );
        sim.set_wan(cfg, |_m| 256).unwrap();
        sim.schedule_call(Instant::ZERO, p(1), |_, out| out.send(p(2), 1));
        sim.schedule_call(Instant::ZERO, p(2), |_, out| out.send(p(1), 2));
        sim.run_until(Instant::from_micros(1_000_000));
        // 256 B over a 1 MB/s uplink (256 µs) + the same over the trunk
        // (store-and-forward, 256 µs) + directed propagation.
        let fwd = sim.node(p(2)).unwrap().seen[0].0;
        let back = sim.node(p(1)).unwrap().seen[0].0;
        assert_eq!(fwd.as_micros(), 256 + 256 + 40_000);
        assert_eq!(back.as_micros(), 256 + 256 + 5_000);
        // Both transfers cleared their uplinks.
        assert_eq!(sim.stats().wan_uplink_bytes, 512);
    }

    #[test]
    fn wan_crash_drops_transmitting_uplink_transfers() {
        let mut sim = two_node_sim(22, LatencyModel::Fixed(Span::from_millis(1)));
        sim.set_wan(WanConfig::new().with_default_uplink(1_000), |_m| 500)
            .unwrap();
        // 500 B at 1000 B/s: still transmitting at 100 ms.
        sim.schedule_call(Instant::ZERO, p(1), |_, out| out.send(p(2), 7));
        sim.schedule_crash(Instant::from_micros(100_000), p(1));
        sim.run_until(Instant::from_micros(2_000_000));
        assert!(sim.node(p(2)).unwrap().seen.is_empty());
        assert_eq!(sim.stats().dropped_crash_src, 1);
        assert_eq!(sim.stats().wan_inflight, 0);
        assert_eq!(sim.stats().wan_backlog_bytes, 0);
    }

    #[test]
    fn wan_delay_partition_parks_and_retransmits_on_heal() {
        let mut sim = two_node_sim(23, LatencyModel::Fixed(Span::from_millis(1)));
        sim.set_wan(WanConfig::new().with_default_uplink(1_000), |_m| 500)
            .unwrap();
        sim.schedule_call(Instant::ZERO, p(1), |_, out| out.send(p(2), 9));
        sim.schedule(
            Instant::from_micros(100_000),
            NetOp::Partition(PartitionSpec::split([p(1)]), PartitionMode::Delay),
        );
        sim.schedule(Instant::from_micros(200_000), NetOp::Heal);
        sim.run_until(Instant::from_micros(2_000_000));
        let seen = &sim.node(p(2)).unwrap().seen;
        assert_eq!(seen.len(), 1);
        // Heal re-admits the full 500 B (re-transmission): 200 ms heal +
        // 500 ms transmit + 1 ms propagation.
        assert_eq!(seen[0].0.as_micros(), 701_000);
        assert_eq!(sim.stats().parked, 1);
        assert_eq!(sim.stats().wan_inflight, 0);
    }

    #[test]
    fn wan_loss_partition_drops_transfers_midflight() {
        let mut sim = two_node_sim(24, LatencyModel::Fixed(Span::from_millis(1)));
        sim.set_wan(WanConfig::new().with_default_uplink(1_000), |_m| 500)
            .unwrap();
        sim.schedule_call(Instant::ZERO, p(1), |_, out| out.send(p(2), 9));
        sim.schedule(
            Instant::from_micros(100_000),
            NetOp::Partition(PartitionSpec::split([p(1)]), PartitionMode::Loss),
        );
        sim.run_until(Instant::from_micros(2_000_000));
        assert!(sim.node(p(2)).unwrap().seen.is_empty());
        assert_eq!(sim.stats().dropped_partition, 1);
        assert_eq!(sim.stats().wan_inflight, 0);
    }

    #[test]
    fn wan_reorder_knob_never_breaks_link_fifo() {
        let mut sim = two_node_sim(26, LatencyModel::Fixed(Span::from_micros(200)));
        sim.set_wan(
            WanConfig::new()
                .with_default_uplink(1_000_000)
                .with_reorder(1_000, Span::from_millis(5)),
            |_m| 256,
        )
        .unwrap();
        sim.schedule_call(Instant::ZERO, p(1), |_, out| {
            for k in 0..50u64 {
                out.send(p(2), k);
            }
        });
        sim.run_until(Instant::from_micros(5_000_000));
        let seen: Vec<u64> = sim.node(p(2)).unwrap().seen.iter().map(|s| s.2).collect();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn wan_uplink_capacity_change_reshares_inflight() {
        let mut sim = two_node_sim(27, LatencyModel::Fixed(Span::from_millis(1)));
        sim.set_wan(WanConfig::new().with_default_uplink(1_000_000), |_m| 1_000)
            .unwrap();
        sim.schedule_call(Instant::ZERO, p(1), |_, out| out.send(p(2), 1));
        // Halfway through the 1 ms transmission, throttle to 1000 B/s:
        // 500 B remain → 500 ms more, + 1 ms propagation.
        sim.schedule(Instant::from_micros(500), NetOp::WanUplink(p(1), 1_000));
        sim.run_until(Instant::from_micros(2_000_000));
        let seen = &sim.node(p(2)).unwrap().seen;
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0.as_micros(), 500 + 500_000 + 1_000);
    }

    #[test]
    fn wan_link_congestion_window_slows_the_trunk() {
        let mut sim = two_node_sim(28, LatencyModel::Fixed(Span::from_micros(100)));
        let fast = WanLinkSpec::new(LatencyModel::Fixed(Span::from_millis(10)), 1_000_000);
        sim.set_wan(
            WanConfig::new()
                .attach(p(1), 0)
                .attach(p(2), 1)
                .with_default_uplink(1_000_000)
                .with_route(0, 1, fast),
            |_m| 1_000,
        )
        .unwrap();
        // Degrade the trunk before the transfer reaches it.
        let slow = WanLinkSpec::new(LatencyModel::Fixed(Span::from_millis(10)), 1_000);
        sim.schedule(Instant::from_micros(10), NetOp::WanLink(0, 1, slow));
        sim.schedule_call(Instant::from_micros(100), p(1), |_, out| out.send(p(2), 5));
        sim.run_until(Instant::from_micros(5_000_000));
        let seen = &sim.node(p(2)).unwrap().seen;
        assert_eq!(seen.len(), 1);
        // 100 µs send + 1 ms uplink + 1 s degraded trunk + 10 ms latency.
        assert_eq!(seen[0].0.as_micros(), 100 + 1_000 + 1_000_000 + 10_000);
    }

    #[test]
    fn wan_replays_bit_identically_with_equal_seeds() {
        let run = |seed: u64| {
            let mut sim = two_node_sim(
                seed,
                LatencyModel::Uniform {
                    lo: Span::from_micros(50),
                    hi: Span::from_micros(2_000),
                },
            );
            sim.set_wan(
                WanConfig::new()
                    .attach(p(1), 0)
                    .attach(p(2), 1)
                    .with_default_uplink(8_000)
                    .with_route(
                        0,
                        1,
                        WanLinkSpec::new(
                            LatencyModel::Uniform {
                                lo: Span::from_millis(10),
                                hi: Span::from_millis(60),
                            },
                            16_000,
                        ),
                    )
                    .with_reorder(300, Span::from_millis(4)),
                |m| 64 + (*m as usize % 128),
            )
            .unwrap();
            sim.schedule_call(Instant::ZERO, p(1), |_, out| {
                for k in 0..30u64 {
                    out.send(p(2), k);
                }
            });
            sim.run_until(Instant::from_micros(10_000_000));
            sim.node(p(2)).unwrap().seen.clone()
        };
        assert_eq!(run(404), run(404));
        assert_ne!(run(404), run(405));
    }

    #[test]
    fn wan_send_to_unknown_destination_is_dropped_quietly() {
        let mut sim = two_node_sim(29, LatencyModel::default());
        sim.set_wan(WanConfig::new(), |_m| 256).unwrap();
        sim.schedule_call(Instant::ZERO, p(1), |_, out| {
            out.send(p(99), 1);
            out.send(p(2), 2);
        });
        sim.run_until(Instant::from_micros(1_000_000));
        let seen: Vec<u64> = sim.node(p(2)).unwrap().seen.iter().map(|s| s.2).collect();
        assert_eq!(seen, vec![2]);
        assert_eq!(sim.stats().wan_inflight, 0);
    }

    #[test]
    fn try_new_rejects_inverted_uniform_bounds() {
        let bad = NetConfig::new(1).with_latency(LatencyModel::Uniform {
            lo: Span::from_millis(5),
            hi: Span::from_millis(1),
        });
        assert!(Sim::<Recorder>::try_new(bad).is_err());
    }
}
