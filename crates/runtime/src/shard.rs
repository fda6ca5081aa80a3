//! The sharded event loop.
//!
//! One OS thread per *shard*, each owning many protocol participants. A
//! shard drains its single MPSC inbox in batches (first receive blocks
//! until a frame arrives or the earliest timer deadline; the rest of the
//! batch is taken non-blocking), decodes each wire frame, feeds the
//! addressed engine, and parks the resulting sends in the per-destination
//! [`Egress`]. The egress flushes **adaptively**: the instant the shard
//! runs out of input it ships everything pending (so an idle cluster sees
//! no added latency), while under sustained load envelopes coalesce until
//! the flush window or a byte/count budget fires — one frame per
//! destination node, one channel send per destination shard, and no
//! channel at all for destinations this shard owns (those frames ride a
//! local ring). Timers live in the shard's [`TimerWheel`]; partition
//! state is re-read only when its version moves, so the steady-state loop
//! allocates no timer and takes no lock per frame.

use crate::partition::{PartitionCtl, Snapshot};
use crate::timer::TimerWheel;
use crate::transport::{BatchPolicy, Egress, Frame, FrameCache, ShardMsg, Transport};
use crate::{Command, Output};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use newtop_core::{Action, Process};
use newtop_types::{wire, Instant, ProcessId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Upper bound on messages handled per inbox drain: keeps timer checks
/// and partition refreshes regular under sustained load.
const BATCH: usize = 256;

/// A node as handed to its shard at start.
pub(crate) struct NodeSeed {
    pub(crate) id: ProcessId,
    pub(crate) process: Process,
    pub(crate) outputs: Sender<Output>,
}

struct Slot {
    id: ProcessId,
    process: Process,
    outputs: Sender<Output>,
    /// Cached partition block id, refreshed on version change.
    block: u32,
}

pub(crate) struct Shard {
    /// This shard's id — destinations we own skip the channel.
    me: u32,
    /// `None` = the node died (frames to it drop silently).
    slots: Vec<Option<Slot>>,
    /// Sorted `(process, slot)` pairs for O(log n) addressing.
    index: Vec<(ProcessId, usize)>,
    alive: usize,
    timers: TimerWheel,
    frames: FrameCache,
    egress: Egress,
    /// Same-shard frames in flight: a mutex-free stand-in for the inbox.
    local: VecDeque<Frame>,
    /// Reused per-frame action buffer.
    actions: Vec<Action>,
    /// Reused per-frame output buffer: a frame's worth of outputs ships
    /// to the node's application channel as one `send_many` (one lock,
    /// one wakeup) instead of one `send` per delivery.
    outbuf: Vec<Output>,
    partition: Arc<PartitionCtl>,
    partition_version: u64,
    snapshot: Arc<Snapshot>,
    transport: Arc<dyn Transport>,
    epoch: std::time::Instant,
}

impl Shard {
    fn now(&self) -> Instant {
        #[allow(clippy::cast_possible_truncation)]
        Instant::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn slot_of(&self, id: ProcessId) -> Option<usize> {
        self.index
            .binary_search_by_key(&id, |&(p, _)| p)
            .ok()
            .map(|i| self.index[i].1)
    }

    /// Re-resolves partition state iff the shared version moved since this
    /// shard last looked — the per-batch fast path is one atomic load.
    fn refresh_partition(&mut self) {
        let v = self.partition.version();
        if v == self.partition_version {
            return;
        }
        self.partition_version = v;
        self.snapshot = self.partition.snapshot();
        for slot in self.slots.iter_mut().flatten() {
            slot.block = self.snapshot.block_of(slot.id);
        }
    }

    /// Executes one engine's actions: sends into the egress, outputs to
    /// the node's application channel. Drains `actions` so the buffer can
    /// be reused.
    fn route(&mut self, slot_idx: usize, actions: &mut Vec<Action>, now: Instant) {
        let mut outs = std::mem::take(&mut self.outbuf);
        for action in actions.drain(..) {
            match action {
                Action::Send { to, envelope } => {
                    let slot = self.slots[slot_idx].as_ref().expect("routing live slot");
                    if !self.snapshot.connected(slot.block, to) {
                        continue; // loss across the cut
                    }
                    let Some(route) = self.transport.route_of(to) else {
                        continue; // unknown destination: drop
                    };
                    if self
                        .egress
                        .enqueue(now, to, route, &envelope, &mut self.frames)
                    {
                        self.egress.flush_dest(
                            to.0,
                            self.me,
                            self.transport.as_ref(),
                            &mut self.local,
                        );
                    }
                }
                other => outs.push(match other {
                    Action::Deliver(d) => Output::Delivery(d),
                    Action::ViewChange {
                        group,
                        view,
                        signed,
                    } => Output::ViewChange {
                        group,
                        view,
                        signed,
                    },
                    Action::GroupActive { group, view } => Output::GroupActive { group, view },
                    Action::FormationFailed { group, reason } => {
                        Output::FormationFailed { group, reason }
                    }
                    Action::Event(e) => Output::Event(e),
                    Action::Send { .. } => unreachable!("matched above"),
                }),
            }
        }
        if !outs.is_empty() {
            let slot = self.slots[slot_idx].as_ref().expect("routing live slot");
            let _ = slot.outputs.send_many(outs.drain(..));
        }
        self.outbuf = outs;
    }

    /// Re-arms the slot's wheel entry from the engine's own next deadline.
    fn sync_timer(&mut self, slot_idx: usize) {
        match &self.slots[slot_idx] {
            Some(slot) => match slot.process.next_deadline() {
                Some(d) => self.timers.schedule(slot_idx, d),
                None => self.timers.cancel(slot_idx),
            },
            None => self.timers.cancel(slot_idx),
        }
    }

    fn kill(&mut self, slot_idx: usize) {
        if self.slots[slot_idx].take().is_some() {
            // Dropping the slot drops its Output sender, so application
            // waits on the handle observe disconnection, and frees the
            // engine. In-flight frames addressed here now drop at lookup.
            self.timers.cancel(slot_idx);
            self.alive -= 1;
        }
    }

    /// Decodes every envelope in `frame` into the addressed engine, then
    /// routes the accumulated actions and re-arms the slot's timer once
    /// for the whole frame.
    fn handle_frame(&mut self, frame: Frame, now: Instant) {
        let Some(slot_idx) = self.slot_of(frame.to) else {
            return;
        };
        if self.slots[slot_idx].is_none() {
            return; // node died; drop like a closed socket
        }
        let mut actions = std::mem::take(&mut self.actions);
        let slots = &mut self.slots;
        let result = wire::unframe_each(frame.bytes, |env| {
            if let Some(slot) = slots[slot_idx].as_mut() {
                let from = env.source();
                slot.process.handle_into(now, from, env, &mut actions);
            }
        });
        if let Err(e) = result {
            // A frame comes from this host's own egress or from a peer
            // link whose ingress decoded it before taking it in, so a
            // decode error here is a bug. Surface it loudly in debug
            // builds, drop the rest of the frame in release.
            debug_assert!(false, "malformed wire frame for {}: {e}", frame.to);
        }
        self.route(slot_idx, &mut actions, now);
        self.actions = actions;
        self.sync_timer(slot_idx);
    }

    fn handle_msg(&mut self, msg: ShardMsg, now: Instant) {
        match msg {
            ShardMsg::Frame(frame) => self.handle_frame(frame, now),
            ShardMsg::Batch(frames) => {
                for frame in frames {
                    self.handle_frame(frame, now);
                }
            }
            ShardMsg::Command { to, cmd } => {
                let Some(slot_idx) = self.slot_of(to) else {
                    return;
                };
                if matches!(cmd, Command::Die) {
                    self.kill(slot_idx);
                    return;
                }
                let Some(slot) = self.slots[slot_idx].as_mut() else {
                    return; // dead node: dropping the reply sender reports it
                };
                let mut actions = match cmd {
                    Command::Multicast {
                        group,
                        payload,
                        reply,
                    } => match slot.process.multicast(now, group, payload) {
                        Ok(actions) => {
                            let _ = reply.send(Ok(()));
                            actions
                        }
                        Err(e) => {
                            let _ = reply.send(Err(e));
                            Vec::new()
                        }
                    },
                    Command::Depart { group, reply } => match slot.process.depart(now, group) {
                        Ok(actions) => {
                            let _ = reply.send(Ok(()));
                            actions
                        }
                        Err(e) => {
                            let _ = reply.send(Err(e));
                            Vec::new()
                        }
                    },
                    Command::Initiate {
                        group,
                        members,
                        config,
                        reply,
                    } => match slot.process.initiate_group(now, group, &members, config) {
                        Ok(actions) => {
                            let _ = reply.send(Ok(()));
                            actions
                        }
                        Err(e) => {
                            let _ = reply.send(Err(e));
                            Vec::new()
                        }
                    },
                    Command::Die => unreachable!("handled above"),
                };
                self.route(slot_idx, &mut actions, now);
                self.sync_timer(slot_idx);
            }
        }
    }

    fn flush_egress(&mut self) {
        self.egress
            .flush_all(self.me, self.transport.as_ref(), &mut self.local);
    }
}

/// One shard's thread body: runs until every owned node has died.
pub(crate) fn shard_main(
    me: u32,
    nodes: Vec<NodeSeed>,
    epoch: std::time::Instant,
    inbox: &Receiver<ShardMsg>,
    transport: Arc<dyn Transport>,
    partition: Arc<PartitionCtl>,
    shard_count: usize,
) {
    let mut index: Vec<(ProcessId, usize)> = nodes
        .iter()
        .enumerate()
        .map(|(slot, n)| (n.id, slot))
        .collect();
    index.sort_unstable();
    let alive = nodes.len();
    let slots: Vec<Option<Slot>> = nodes
        .into_iter()
        .map(|n| {
            Some(Slot {
                id: n.id,
                process: n.process,
                outputs: n.outputs,
                block: 0,
            })
        })
        .collect();
    let mut shard = Shard {
        me,
        timers: TimerWheel::with_slots(slots.len()),
        slots,
        index,
        alive,
        frames: FrameCache::default(),
        egress: Egress::new(BatchPolicy::default(), shard_count),
        local: VecDeque::new(),
        actions: Vec::new(),
        outbuf: Vec::new(),
        partition_version: u64::MAX, // force the initial resolve
        snapshot: Arc::new(Snapshot::default()),
        partition,
        transport,
        epoch,
    };
    shard.refresh_partition();
    for slot_idx in 0..shard.slots.len() {
        shard.sync_timer(slot_idx);
    }
    // Consecutive yields taken while holding a young egress batch open
    // (reset whenever input arrives or the egress flushes).
    let mut holds = 0u32;
    while shard.alive > 0 {
        shard.refresh_partition();
        // 1. Fire every due timer (each tick re-arms its own slot).
        let now = shard.now();
        while let Some(slot_idx) = shard.timers.pop_due(now) {
            if shard.slots[slot_idx].is_none() {
                continue;
            }
            let mut actions = std::mem::take(&mut shard.actions);
            if let Some(s) = shard.slots[slot_idx].as_mut() {
                s.process.tick_into(now, &mut actions);
            }
            shard.route(slot_idx, &mut actions, now);
            shard.actions = actions;
            shard.sync_timer(slot_idx);
        }
        // 2. Work through a batch: same-shard frames first (they are
        // oldest — enqueued before anything the channel holds was
        // flushed), then the inbox, all without blocking.
        let mut n = 0;
        while n < BATCH {
            if let Some(frame) = shard.local.pop_front() {
                let now = shard.now();
                shard.handle_frame(frame, now);
                n += 1;
                continue;
            }
            match inbox.try_recv() {
                Ok(msg) => {
                    let now = shard.now();
                    shard.handle_msg(msg, now);
                    n += 1;
                }
                Err(_) => break,
            }
        }
        if n > 0 {
            holds = 0;
        }
        if n == BATCH {
            // Saturated: only the flush window forces frames out —
            // otherwise keep coalescing and take the next batch.
            if shard.egress.window_expired(shard.now()) {
                shard.flush_egress();
            }
            continue;
        }
        // 3. The input ran dry. A young egress batch is worth holding
        // open for a moment: yield the core once so whoever is feeding
        // us (an application thread, a peer shard) can run, and only
        // ship the batch if the input is still dry afterwards. The
        // flush window bounds the hold, and a genuinely idle shard
        // passes through on the second look — so the idle-flush
        // latency cost stays one yield, not a window.
        if holds < 2 && shard.egress.has_pending() && !shard.egress.window_expired(shard.now()) {
            holds += 1;
            std::thread::yield_now();
            continue;
        }
        holds = 0;
        // About to idle for real: flush everything. The flush may land
        // same-shard frames on the local ring — loop back to handle
        // them (and anything that arrived meanwhile) first.
        shard.flush_egress();
        if !shard.local.is_empty() || n > 0 {
            continue;
        }
        // 4. Idle (egress verifiably empty): block for traffic, bounded
        // by the earliest live deadline.
        let msg = match shard.timers.next_deadline() {
            Some(d) => {
                let now = shard.now();
                if d <= now {
                    continue; // already due: fire before blocking
                }
                match inbox.recv_timeout((d - now).to_duration()) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => continue, // fire the timer
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
            None => match inbox.recv() {
                Ok(msg) => msg,
                Err(_) => return, // every handle and peer shard is gone
            },
        };
        let now = shard.now();
        shard.handle_msg(msg, now);
    }
}
