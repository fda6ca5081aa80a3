//! The closed-loop load generator shared by the in-process and TCP hosts.
//!
//! One thread drives every group: it keeps `window` multicasts in flight
//! per group, rotating the sender through the members, and issues the
//! next one when a multicast has been delivered at every member. The
//! same thread drains every member's output stream, so it sees each
//! delivery and checks it as it goes:
//!
//! * every accepted multicast is delivered exactly once at every member
//!   (a per-multicast member bitmask; a second delivery or an unknown
//!   message is a violation, and anything still missing after the drain
//!   is a failure);
//! * every member of a group delivers the group's messages in the same
//!   order (a per-member, per-group hash chain over message ids, compared
//!   at the end).
//!
//! The payload's first eight bytes carry the message id; latency is
//! measured from the submit call to the moment the generator sees the
//! delivery.

use crate::metrics::{Hist, Windowed};
use crate::trace::Tracer;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use newtop_harness::RemoteCluster;
use newtop_runtime::{Output, RunningCluster, WireStats};
use newtop_types::{GroupId, ProcessId, SendError};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A host the generator can drive.
pub trait Target {
    /// Submits a multicast whose verdict arrives on `reply`; `false` if
    /// it could not be submitted at all.
    fn submit(
        &self,
        node: ProcessId,
        group: GroupId,
        payload: Bytes,
        reply: &Sender<Result<(), SendError>>,
    ) -> bool;
    /// The node's output stream.
    fn outputs(&self, node: ProcessId) -> Receiver<Output>;
    /// Cumulative wire counters (`None` if they could not be read).
    fn wire(&self) -> Option<WireStats>;
}

impl Target for RunningCluster {
    fn submit(
        &self,
        node: ProcessId,
        group: GroupId,
        payload: Bytes,
        reply: &Sender<Result<(), SendError>>,
    ) -> bool {
        self.node(node)
            .is_some_and(|n| n.multicast_pipelined(group, payload, reply))
    }
    fn outputs(&self, node: ProcessId) -> Receiver<Output> {
        self.node(node).expect("hosted node").outputs().clone()
    }
    fn wire(&self) -> Option<WireStats> {
        Some(self.wire_stats())
    }
}

impl Target for RemoteCluster {
    fn submit(
        &self,
        node: ProcessId,
        group: GroupId,
        payload: Bytes,
        reply: &Sender<Result<(), SendError>>,
    ) -> bool {
        self.multicast_pipelined(node, group, &payload, reply)
    }
    fn outputs(&self, node: ProcessId) -> Receiver<Output> {
        RemoteCluster::outputs(self, node).expect("cluster node")
    }
    fn wire(&self) -> Option<WireStats> {
        self.wire_stats()
    }
}

/// The load a workload offers.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Every node the generator watches.
    pub nodes: Vec<ProcessId>,
    /// Groups and their members.
    pub groups: Vec<(GroupId, Vec<ProcessId>)>,
    /// Multicasts kept in flight per group.
    pub window: usize,
    /// Payload bytes per multicast (at least 8).
    pub payload: usize,
    /// Which host process (TCP peer) each node lives on; all 0 in-process.
    pub home: Vec<u32>,
    /// Workload seed: fills the payload bytes and picks each group's
    /// first sender.
    pub seed: u64,
}

/// Threads the generator runs to drive load: this one.
pub const GEN_THREADS: usize = 1;

/// Deliveries per window of the tail latency figure (see
/// [`Windowed`]).
pub const TAIL_WINDOW: usize = 250;

const SLOTS: usize = 64;
const SEQ_BITS: u32 = 40;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Clone, Copy, Default)]
struct Slot {
    key: u64,
    live: bool,
    measured: bool,
    sender: usize,
    submit_ns: u64,
    mask: u64,
}

struct GroupLoad {
    id: GroupId,
    members: Vec<usize>,
    full: u64,
    next_seq: u64,
    rotor: usize,
    /// Multicasts not yet delivered at every member: the window.
    inflight: usize,
    slots: Vec<Slot>,
    order: VecDeque<u64>,
}

struct Seat {
    id: ProcessId,
    home: u32,
    rx: Receiver<Output>,
    verdict_tx: Sender<Result<(), SendError>>,
    verdict_rx: Receiver<Result<(), SendError>>,
    pending: VecDeque<(u64, u64)>,
    /// `(group index, member bit, delivered count, order hash)`.
    chains: Vec<(usize, u64, u64, u64)>,
}

/// What the generator is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Before the measured phase: load flows, nothing is recorded.
    Warmup,
    /// The measured phase.
    Measure,
    /// No new multicasts; waiting for the ones in flight.
    Drain,
}

/// Per-layer timings, kept only in traced runs.
pub struct LayerTrace {
    /// Spans.
    pub tracer: Tracer,
    /// Time inside the submit call.
    pub submit: Hist,
    /// Submit → verdict seen.
    pub verdict: Hist,
    /// Submit → the sender's own delivery seen.
    pub deliver_self: Hist,
    /// Submit → delivery seen at the last member.
    pub deliver_last: Hist,
    /// Submit → delivery at a member on the sender's host process.
    pub same_peer: Hist,
    /// Submit → delivery at a member on another host process.
    pub cross_peer: Hist,
    /// Duration of each sweep that found work.
    pub sweep: Hist,
}

impl LayerTrace {
    fn new(epoch: Instant) -> LayerTrace {
        LayerTrace {
            tracer: Tracer::with_epoch(epoch),
            submit: Hist::new(),
            verdict: Hist::new(),
            deliver_self: Hist::new(),
            deliver_last: Hist::new(),
            same_peer: Hist::new(),
            cross_peer: Hist::new(),
            sweep: Hist::new(),
        }
    }
}

/// Counters of the current measured phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Multicasts submitted.
    pub attempted: u64,
    /// Member deliveries seen.
    pub delivered: u64,
    /// Time the generator spent blocked waiting for output.
    pub blocked: Duration,
}

/// The generator.
pub struct Gen {
    epoch: Instant,
    payload: Vec<u8>,
    window: usize,
    groups: Vec<GroupLoad>,
    seats: Vec<Seat>,
    phase: Phase,
    /// Counters of the measured phase.
    pub tally: Tally,
    /// Member deliveries seen since the generator started.
    pub total_delivered: u64,
    /// Latency of every member delivery of a measured-phase multicast.
    pub lat: Hist,
    /// The same latencies in windows of [`TAIL_WINDOW`] consecutive
    /// deliveries, for the tail figure.
    pub lat_tail: Windowed,
    /// Refused or shed multicasts.
    pub refused: u64,
    /// Exactly-once and view violations (duplicate or unknown deliveries,
    /// view changes), with the first one described.
    pub violations: u64,
    /// Description of the first violation.
    pub first_violation: Option<String>,
    /// When the first delivery was seen.
    pub first_delivery: Option<Instant>,
    /// Per-layer timings (traced runs only).
    pub trace: Option<LayerTrace>,
}

impl Gen {
    /// A generator for `shape`, subscribed to every node of `target`.
    ///
    /// # Panics
    ///
    /// Panics on a shape the generator cannot drive (a payload under 8
    /// bytes, a window over the slot ring, or a group over 64 members).
    pub fn new(target: &impl Target, shape: &Shape) -> Gen {
        assert!(shape.payload >= 8, "payload carries an 8-byte id");
        assert!(
            shape.window >= 1 && shape.window < SLOTS,
            "window fits the slot ring"
        );
        let seats: Vec<Seat> = shape
            .nodes
            .iter()
            .zip(&shape.home)
            .map(|(&id, &home)| {
                let (verdict_tx, verdict_rx) = unbounded();
                Seat {
                    id,
                    home,
                    rx: target.outputs(id),
                    verdict_tx,
                    verdict_rx,
                    pending: VecDeque::new(),
                    chains: Vec::new(),
                }
            })
            .collect();
        let mut x = shape.seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut gen = Gen {
            epoch: Instant::now(),
            payload: (0..shape.payload).map(|_| next() as u8).collect(),
            window: shape.window,
            groups: Vec::new(),
            seats,
            phase: Phase::Warmup,
            tally: Tally::default(),
            total_delivered: 0,
            lat: Hist::new(),
            lat_tail: Windowed::new(TAIL_WINDOW, 0.99),
            refused: 0,
            violations: 0,
            first_violation: None,
            first_delivery: None,
            trace: None,
        };
        for (gi, (gid, members)) in shape.groups.iter().enumerate() {
            assert!(members.len() <= 64, "member bitmask is 64 bits");
            let idx: Vec<usize> = members
                .iter()
                .map(|m| {
                    shape
                        .nodes
                        .iter()
                        .position(|n| n == m)
                        .expect("member is a node")
                })
                .collect();
            for (bit, &ni) in idx.iter().enumerate() {
                gen.seats[ni].chains.push((gi, 1 << bit, 0, 0));
            }
            gen.groups.push(GroupLoad {
                id: *gid,
                full: if idx.len() == 64 {
                    u64::MAX
                } else {
                    (1u64 << idx.len()) - 1
                },
                members: idx,
                next_seq: 0,
                rotor: (next() % 64) as usize,
                inflight: 0,
                slots: vec![Slot::default(); SLOTS],
                order: VecDeque::new(),
            });
        }
        gen
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn violation(&mut self, what: String) {
        self.violations += 1;
        if self.first_violation.is_none() {
            self.first_violation = Some(what);
        }
    }

    /// Turns per-layer timing on or off (a fresh record each time).
    pub fn set_traced(&mut self, on: bool) {
        self.trace = on.then(|| LayerTrace::new(self.epoch));
    }

    /// Enters `phase`, resetting the measured-phase counters when the
    /// measured phase starts.
    pub fn set_phase(&mut self, phase: Phase) {
        if phase == Phase::Measure {
            self.tally = Tally::default();
            self.lat = Hist::new();
            self.lat_tail = Windowed::new(TAIL_WINDOW, 0.99);
        }
        self.phase = phase;
    }

    /// The measured phase's tail latency in µs: the median over its
    /// windows of [`TAIL_WINDOW`] deliveries of each window's p99, or the
    /// plain p99 if not one window filled.
    #[must_use]
    pub fn tail_p99_us(&self) -> f64 {
        let windows = self.lat_tail.windows_us();
        if windows.is_empty() {
            self.lat.quantile_us(0.99)
        } else {
            crate::metrics::median(&windows)
        }
    }

    /// Multicasts in flight.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.groups.iter().map(|g| g.inflight).sum()
    }

    fn verdicts_owed(&self) -> usize {
        self.seats.iter().map(|s| s.pending.len()).sum()
    }

    /// Drives load until `done` holds or `deadline` passes; `false` on
    /// timeout.
    pub fn run(
        &mut self,
        target: &impl Target,
        deadline: Instant,
        done: impl Fn(&Gen) -> bool,
    ) -> bool {
        loop {
            if done(self) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            if !self.sweep(target) {
                self.block();
            }
        }
    }

    /// Stops issuing multicasts and waits (up to `limit`) for every one
    /// in flight and every verdict; `false` if some never completed.
    pub fn drain(&mut self, target: &impl Target, limit: Duration) -> bool {
        self.set_phase(Phase::Drain);
        self.run(target, Instant::now() + limit, |g| {
            g.inflight() == 0 && g.verdicts_owed() == 0
        })
    }

    /// One pass over every stream; `true` if it found work.
    fn sweep(&mut self, target: &impl Target) -> bool {
        let t0 = self.trace.as_mut().map(|t| {
            t.tracer.enter("gen.sweep", 0);
            t.tracer.now()
        });
        let mut work = 0usize;
        for si in 0..self.seats.len() {
            while let Ok(out) = self.seats[si].rx.try_recv() {
                self.on_output(si, out);
                work += 1;
            }
            while let Ok(v) = self.seats[si].verdict_rx.try_recv() {
                self.on_verdict(si, &v);
                work += 1;
            }
        }
        if self.phase != Phase::Drain {
            for gi in 0..self.groups.len() {
                while self.groups[gi].inflight < self.window && self.submit(target, gi) {
                    work += 1;
                }
            }
        }
        if let Some(t) = self.trace.as_mut() {
            t.tracer.exit();
            if work > 0 {
                let now = t.tracer.now();
                t.sweep.record(now.saturating_sub(t0.unwrap_or(now)));
            }
        }
        work > 0
    }

    fn submit(&mut self, target: &impl Target, gi: usize) -> bool {
        let seq = self.groups[gi].next_seq;
        let slot_i = (seq % SLOTS as u64) as usize;
        if self.groups[gi].slots[slot_i].live {
            // The slot ring wrapped onto a multicast still in flight: wait.
            return false;
        }
        let g = &mut self.groups[gi];
        let sender = g.rotor % g.members.len();
        g.rotor += 1;
        let si = g.members[sender];
        let gid = g.id;
        let key = ((gi as u64) << SEQ_BITS) | seq;
        let mut buf = self.payload.clone();
        buf[..8].copy_from_slice(&key.to_le_bytes());
        let node = self.seats[si].id;
        if let Some(t) = self.trace.as_mut() {
            t.tracer.enter("runtime.submit", key);
        }
        let submit_ns = self.now_ns();
        let ok = target.submit(node, gid, Bytes::from(buf), &self.seats[si].verdict_tx);
        let after = self.now_ns();
        if let Some(t) = self.trace.as_mut() {
            t.submit.record(after.saturating_sub(submit_ns));
            t.tracer.exit();
        }
        let measured = self.phase == Phase::Measure;
        if measured {
            self.tally.attempted += 1;
        }
        if !ok {
            self.refused += 1;
            return false;
        }
        let g = &mut self.groups[gi];
        g.slots[slot_i] = Slot {
            key,
            live: true,
            measured,
            sender,
            submit_ns,
            mask: 0,
        };
        g.next_seq += 1;
        g.inflight += 1;
        g.order.push_back(seq);
        self.seats[si].pending.push_back((key, submit_ns));
        true
    }

    fn on_verdict(&mut self, si: usize, verdict: &Result<(), SendError>) {
        let now = self.now_ns();
        let Some((key, submit_ns)) = self.seats[si].pending.pop_front() else {
            self.violation(format!("unexpected verdict at {}", self.seats[si].id));
            return;
        };
        if let Some(t) = self.trace.as_mut() {
            t.verdict.record(now.saturating_sub(submit_ns));
            t.tracer
                .record("runtime.verdict", None, submit_ns, now, key);
        }
        if verdict.is_err() {
            // Refused or shed: the multicast will never be delivered, so
            // free its slot and count it as failed once.
            self.refused += 1;
            let gi = (key >> SEQ_BITS) as usize;
            let g = &mut self.groups[gi];
            let slot = &mut g.slots[((key & ((1 << SEQ_BITS) - 1)) % SLOTS as u64) as usize];
            if slot.live && slot.key == key {
                slot.live = false;
                g.inflight -= 1;
            }
        }
    }

    fn on_output(&mut self, si: usize, out: Output) {
        match out {
            Output::Delivery(d) => {
                let now = self.now_ns();
                if self.first_delivery.is_none() {
                    self.first_delivery = Some(Instant::now());
                }
                self.total_delivered += 1;
                if self.phase == Phase::Measure {
                    self.tally.delivered += 1;
                }
                let Some(key) = d
                    .payload
                    .get(..8)
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                else {
                    self.violation(format!("short payload delivered at {}", self.seats[si].id));
                    return;
                };
                let gi = (key >> SEQ_BITS) as usize;
                let seq = key & ((1 << SEQ_BITS) - 1);
                if self.groups.get(gi).map(|g| g.id) != Some(d.group) {
                    self.violation(format!(
                        "message {key:x} delivered in the wrong group {}",
                        d.group
                    ));
                    return;
                }
                let Some(chain) = self.seats[si].chains.iter_mut().find(|c| c.0 == gi) else {
                    self.violation(format!(
                        "{} delivered in {}, not a member",
                        self.seats[si].id, d.group
                    ));
                    return;
                };
                chain.2 += 1;
                chain.3 = (chain.3 ^ key).wrapping_mul(FNV_PRIME);
                let bit = chain.1;
                let home = self.seats[si].home;
                let g = &mut self.groups[gi];
                let slot = &mut g.slots[(seq % SLOTS as u64) as usize];
                if !slot.live || slot.key != key || slot.mask & bit != 0 {
                    let id = self.seats[si].id;
                    self.violation(format!("message {key:x} delivered twice or unsent at {id}"));
                    return;
                }
                slot.mask |= bit;
                let age = now.saturating_sub(slot.submit_ns);
                let done = slot.mask == g.full;
                let sender_si = g.members[slot.sender];
                if slot.measured {
                    self.lat.record(age);
                    self.lat_tail.record(age);
                }
                if done {
                    slot.live = false;
                    g.inflight -= 1;
                }
                if let Some(t) = self.trace.as_mut() {
                    if si == sender_si {
                        t.deliver_self.record(age);
                    }
                    if home == self.seats[sender_si].home {
                        t.same_peer.record(age);
                    } else {
                        t.cross_peer.record(age);
                    }
                    if done {
                        t.deliver_last.record(age);
                    }
                    t.tracer
                        .record("runtime.deliver", None, now.saturating_sub(age), now, key);
                }
            }
            Output::ViewChange { group, .. } => {
                let id = self.seats[si].id;
                self.violation(format!("unexpected view change in {group} at {id}"));
            }
            _ => {}
        }
    }

    /// Waits for the delivery most likely to come next: the oldest
    /// multicast's first missing member.
    fn block(&mut self) {
        let mut best: Option<(u64, usize)> = None;
        for g in &mut self.groups {
            while let Some(&seq) = g.order.front() {
                let s = &g.slots[(seq % SLOTS as u64) as usize];
                if s.live && (s.key & ((1 << SEQ_BITS) - 1)) == seq {
                    let missing = (0..g.members.len()).find(|b| s.mask & (1 << b) == 0);
                    if let Some(b) = missing {
                        if best.is_none_or(|(t, _)| s.submit_ns < t) {
                            best = Some((s.submit_ns, g.members[b]));
                        }
                    }
                    break;
                }
                g.order.pop_front();
            }
        }
        let Some((_, si)) = best else {
            if self.verdicts_owed() > 0 {
                std::thread::sleep(Duration::from_micros(50));
            }
            return;
        };
        let t0 = Instant::now();
        let got = self.seats[si].rx.recv_timeout(Duration::from_millis(1));
        if self.phase == Phase::Measure {
            self.tally.blocked += t0.elapsed();
        }
        if let Ok(out) = got {
            self.on_output(si, out);
        }
    }

    /// Checks the order gate: every member of each group delivered the
    /// same sequence of messages.
    ///
    /// # Errors
    ///
    /// A description of the first group whose members disagree.
    pub fn order_gate(&self) -> Result<(), String> {
        for (gi, g) in self.groups.iter().enumerate() {
            let mut first: Option<(u64, u64)> = None;
            for &si in &g.members {
                let chain = self.seats[si]
                    .chains
                    .iter()
                    .find(|c| c.0 == gi)
                    .expect("member chain");
                let got = (chain.2, chain.3);
                match first {
                    None => first = Some(got),
                    Some(f) if f != got => {
                        return Err(format!(
                            "{}: {} delivered {} messages (order hash {:x}), {} delivered {} ({:x})",
                            g.id,
                            self.seats[g.members[0]].id,
                            f.0,
                            f.1,
                            self.seats[si].id,
                            got.0,
                            got.1
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_runtime::{Cluster, ClusterConfig};
    use newtop_types::{GroupConfig, OrderMode, Span};

    /// A short run against a real in-process host passes both gates.
    #[test]
    fn generator_drives_and_checks_a_small_host() {
        let mut cluster = Cluster::with_config(ClusterConfig::new().shards(1));
        for i in 1..=4 {
            cluster.add_process(ProcessId(i));
        }
        let members: Vec<ProcessId> = (1..=4).map(ProcessId).collect();
        cluster
            .bootstrap_group(
                GroupId(1),
                members.clone(),
                GroupConfig::new(OrderMode::Symmetric)
                    .with_omega(Span::from_millis(5))
                    .with_big_omega(Span::from_secs(10)),
            )
            .unwrap();
        let running = cluster.start();
        let shape = Shape {
            nodes: members.clone(),
            groups: vec![(GroupId(1), members)],
            window: 4,
            payload: 16,
            home: vec![0; 4],
            seed: 7,
        };
        let mut gen = Gen::new(&running, &shape);
        gen.set_phase(Phase::Measure);
        let deadline = Instant::now() + Duration::from_secs(20);
        assert!(gen.run(&running, deadline, |g| g.total_delivered >= 400));
        assert!(gen.drain(&running, Duration::from_secs(20)));
        assert_eq!(gen.violations, 0, "{:?}", gen.first_violation);
        assert_eq!(gen.refused, 0);
        gen.order_gate().unwrap();
        assert!(gen.lat.count() >= 400);
        running.shutdown();
    }
}
