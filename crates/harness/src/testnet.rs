//! A synchronous facade over the simulator for driving engine tests.
//!
//! [`TestNet`] hosts one [`NewtopNode`] per process on a zero-latency,
//! zero-overhead [`Sim`], so engine tests run on the same transport, crash
//! and partition code as the chaos fleet and the model checker. Calls act
//! at the current virtual time; messages move only when the test quiesces,
//! and timers fire only when it ticks or advances the clock.

use crate::cluster::{partition_spec, NewtopNode};
use crate::history::HistoryEvent;
use bytes::Bytes;
use newtop_core::{Action, Delivery, FormationFailure, Process, ProtocolEvent};
use newtop_sim::{LatencyModel, NetConfig, NetOp, Outbox, PartitionMode, Sim, SimNode};
use newtop_types::{
    Envelope, GroupConfig, GroupId, Instant, ProcessId, SendError, SignedView, Span, View,
};
use std::collections::{BTreeMap, BTreeSet};

/// Shorthand used throughout the test suites.
#[must_use]
pub fn pid(i: u32) -> ProcessId {
    ProcessId(i)
}

/// One delivery or view installation, in the order the engine emitted it
/// (for ordering assertions such as MD5', paper Example 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimelineEntry {
    /// An application delivery.
    Delivered(Delivery),
    /// A view installation.
    View(GroupId, View),
}

/// A [`NewtopNode`] whose timers the test drives: it reports no deadline.
#[derive(Debug)]
struct TestNode(NewtopNode);

impl SimNode for TestNode {
    type Msg = Envelope;

    fn on_message(
        &mut self,
        now: Instant,
        from: ProcessId,
        msg: Envelope,
        out: &mut Outbox<Envelope>,
    ) {
        self.0.on_message(now, from, msg, out);
    }
}

/// The deterministic test network.
#[derive(Debug)]
pub struct TestNet {
    sim: Sim<TestNode>,
    group_cfgs: BTreeMap<GroupId, GroupConfig>,
}

impl TestNet {
    /// Creates a network of processes with the given numeric identifiers.
    pub fn new<I: IntoIterator<Item = u32>>(ids: I) -> TestNet {
        let net = NetConfig::new(0)
            .with_latency(LatencyModel::Fixed(Span::ZERO))
            .with_send_overhead(Span::ZERO);
        let mut sim = Sim::new(net);
        for i in ids {
            sim.add_node(pid(i), TestNode(NewtopNode::new(pid(i))));
        }
        TestNet {
            sim,
            group_cfgs: BTreeMap::new(),
        }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Instant {
        self.sim.now()
    }

    /// Statically installs `group` at every listed, live member (the §4
    /// bootstrap). Panics if a member is unknown or rejects it.
    pub fn bootstrap_group(&mut self, group: GroupId, members: &[u32], cfg: GroupConfig) {
        let set: BTreeSet<ProcessId> = members.iter().map(|i| pid(*i)).collect();
        self.group_cfgs.insert(group, cfg);
        let now = self.now();
        for p in &set {
            if !self.sim.crashed(*p) {
                let node = self.sim.node_mut(*p).expect("unknown process id");
                node.0.bootstrap(now, group, &set, cfg);
            }
        }
    }

    /// Runs one engine call at `p` now and puts its actions on the wire (a
    /// crashed process ignores the call; an unknown one panics).
    fn call<E>(
        &mut self,
        p: u32,
        f: impl FnOnce(&mut Process, Instant) -> Result<Vec<Action>, E>,
    ) -> Result<(), E> {
        let now = self.now();
        let mut verdict = Ok(());
        let live = self
            .sim
            .invoke(pid(p), |n, out| match f(&mut n.0.process, now) {
                Ok(actions) => n.0.absorb(now, actions, out),
                Err(e) => verdict = Err(e),
            });
        assert!(live || self.sim.crashed(pid(p)), "unknown process id");
        verdict
    }

    /// Initiates dynamic formation (§5.3); panics if the initiator refuses.
    pub fn initiate(&mut self, initiator: u32, group: GroupId, members: &[u32], cfg: GroupConfig) {
        let set: BTreeSet<ProcessId> = members.iter().map(|i| pid(*i)).collect();
        self.group_cfgs.insert(group, cfg);
        self.call(initiator, |p, now| p.initiate_group(now, group, &set, cfg))
            .expect("initiation must be accepted in tests");
    }

    /// Requests an application multicast; panics if the engine refuses it
    /// (use [`TestNet::try_multicast`] to assert on errors).
    pub fn multicast(&mut self, from: u32, group: GroupId, payload: &[u8]) {
        self.try_multicast(from, group, payload)
            .expect("multicast must be accepted in tests");
    }

    /// Requests an application multicast, returning the engine's verdict.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`SendError`].
    pub fn try_multicast(
        &mut self,
        from: u32,
        group: GroupId,
        payload: &[u8],
    ) -> Result<(), SendError> {
        self.call(from, |p, now| {
            p.multicast(now, group, Bytes::copy_from_slice(payload))
        })
    }

    /// Announces voluntary departure; panics if the engine refuses it.
    pub fn depart(&mut self, from: u32, group: GroupId) {
        self.call(from, |p, now| p.depart(now, group))
            .expect("departure must be accepted in tests");
    }

    /// Crashes a process: it stops processing and everything addressed to
    /// it is dropped. Messages it already sent remain in flight.
    pub fn crash(&mut self, p: u32) {
        self.sim.apply(NetOp::Crash(pid(p)));
    }

    /// Drops what is in flight on the link `from → to` (Example 1's severed
    /// multicast).
    pub fn drop_in_flight(&mut self, from: u32, to: u32) {
        if self.sim.cut_link(pid(from), pid(to)) {
            self.sim.restore_link(pid(from), pid(to));
        }
    }

    /// Partitions the network into blocks (the unnamed form one more); what
    /// crosses the cut, in flight or sent while it holds, is dropped.
    pub fn partition(&mut self, blocks: &[&[u32]]) {
        let spec = partition_spec(blocks);
        self.sim.apply(NetOp::Partition(spec, PartitionMode::Loss));
    }

    /// Removes any partition (cut links stay cut).
    pub fn heal(&mut self) {
        self.sim.apply(NetOp::Heal);
    }

    /// Cuts the directed link `from → to`: what is in flight on it and
    /// every send made while it is cut are dropped.
    pub fn block_link(&mut self, from: u32, to: u32) {
        self.sim.cut_link(pid(from), pid(to));
    }

    /// Restores the directed link `from → to`.
    pub fn unblock_link(&mut self, from: u32, to: u32) {
        self.sim.restore_link(pid(from), pid(to));
    }

    /// Ticks one live process at the current time.
    pub fn tick_one(&mut self, p: u32) {
        let now = self.now();
        self.sim.invoke(pid(p), |n, out| n.0.on_tick(now, out));
    }

    /// Ticks every live process at the current time, in id order.
    pub fn tick_all(&mut self) {
        let ids: Vec<ProcessId> = self.sim.nodes().map(|(id, _)| id).collect();
        for p in ids {
            self.tick_one(p.0);
        }
    }

    /// Delivers what is in flight, then moves the clock on by `span`.
    pub fn set_elapsed(&mut self, span: Span) {
        self.sim.run_until(self.now() + span);
    }

    /// [`TestNet::set_elapsed`], then ticks everyone and quiesces.
    pub fn advance(&mut self, span: Span) {
        self.set_elapsed(span);
        self.tick_all();
        self.run_to_quiescence();
    }

    /// Advances `total` in `step`s — the way to let suspicion timeouts (Ω)
    /// expire while time-silence traffic (ω) keeps flowing.
    pub fn advance_steps(&mut self, total: Span, step: Span) {
        assert!(step > Span::ZERO, "step must be positive");
        for _ in 0..total.as_micros().div_ceil(step.as_micros()) {
            self.advance(step);
        }
    }

    /// Advances just past the group's ω, so every quiet member sends a
    /// null and pending messages become deliverable.
    pub fn advance_past_omega(&mut self, group: GroupId) {
        let omega = self.group_cfgs.get(&group).expect("known group").omega;
        self.advance(omega + Span::from_micros(1));
    }

    /// Advances past the group's Ω in ω steps, so the membership protocol
    /// runs while time-silence keeps the live members unsuspected.
    pub fn advance_past_big_omega(&mut self, group: GroupId) {
        let cfg = self.group_cfgs.get(&group).expect("known group");
        let (omega, big) = (cfg.omega, cfg.big_omega);
        self.advance_steps(big + omega + omega, omega);
    }

    /// Delivers in-flight messages, in arrival order, until none is left.
    pub fn run_to_quiescence(&mut self) {
        while self.sim.step() {}
    }

    fn node(&self, p: u32) -> &NewtopNode {
        &self.sim.node(pid(p)).expect("unknown process id").0
    }

    /// Picks entries out of `p`'s event log, in emission order.
    fn observe<T>(&self, p: u32, pick: impl Fn(&HistoryEvent) -> Option<T>) -> Vec<T> {
        self.node(p).log().iter().filter_map(pick).collect()
    }

    /// All application deliveries at `p`, in delivery order.
    #[must_use]
    pub fn deliveries(&self, p: u32) -> Vec<Delivery> {
        self.observe(p, |e| match e {
            HistoryEvent::Delivered { delivery, .. } => Some(delivery.clone()),
            _ => None,
        })
    }

    /// Payloads delivered at `p` in `group`, as UTF-8 strings.
    #[must_use]
    pub fn delivered_payloads(&self, p: u32, group: GroupId) -> Vec<String> {
        let mine = self.deliveries(p).into_iter().filter(|d| d.group == group);
        mine.map(|d| String::from_utf8_lossy(&d.payload).into_owned())
            .collect()
    }

    /// The sequence of views `p` installed in `group` (excluding `V0`).
    #[must_use]
    pub fn view_history(&self, p: u32, group: GroupId) -> Vec<View> {
        self.observe(p, |e| match e {
            HistoryEvent::ViewChange { group: g, view, .. } if *g == group => Some(view.clone()),
            _ => None,
        })
    }

    /// The sequence of signed views `p` installed in `group`.
    #[must_use]
    pub fn signed_view_history(&self, p: u32, group: GroupId) -> Vec<SignedView> {
        self.observe(p, |e| match e {
            HistoryEvent::ViewChange {
                group: g,
                signed: s,
                ..
            } if *g == group => Some(s.clone()),
            _ => None,
        })
    }

    /// Protocol trace events observed at `p`.
    #[must_use]
    pub fn events(&self, p: u32) -> Vec<ProtocolEvent> {
        self.observe(p, |e| match e {
            HistoryEvent::Protocol { event, .. } => Some(event.clone()),
            _ => None,
        })
    }

    /// Groups whose formation completed at `p`.
    #[must_use]
    pub fn actives(&self, p: u32) -> Vec<GroupId> {
        self.observe(p, |e| match e {
            HistoryEvent::GroupActive { group, .. } => Some(*group),
            _ => None,
        })
    }

    /// The interleaved delivery/view history of `p`.
    #[must_use]
    pub fn timeline(&self, p: u32) -> Vec<TimelineEntry> {
        self.observe(p, |e| match e {
            HistoryEvent::Delivered { delivery: d, .. } => {
                Some(TimelineEntry::Delivered(d.clone()))
            }
            HistoryEvent::ViewChange { group, view, .. } => {
                Some(TimelineEntry::View(*group, view.clone()))
            }
            _ => None,
        })
    }

    /// Formation failures observed at `p`.
    #[must_use]
    pub fn formation_failures(&self, p: u32) -> Vec<(GroupId, FormationFailure)> {
        self.node(p).failures.clone()
    }

    /// Immutable access to a process.
    #[must_use]
    pub fn proc(&self, p: u32) -> &Process {
        self.node(p).process()
    }

    /// Mutable access to a process (for vote policies and direct calls).
    pub fn proc_mut(&mut self, p: u32) -> &mut Process {
        let node = self.sim.node_mut(pid(p)).expect("unknown process id");
        &mut node.0.process
    }

    /// Whether `p` has been crashed by the test.
    #[must_use]
    pub fn is_crashed(&self, p: u32) -> bool {
        self.sim.crashed(pid(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_types::OrderMode;

    /// Processes `1..=n` sharing symmetric group 1.
    fn group(n: u32) -> TestNet {
        let mut net = TestNet::new(1..=n);
        let members: Vec<u32> = (1..=n).collect();
        net.bootstrap_group(GroupId(1), &members, GroupConfig::new(OrderMode::Symmetric));
        net
    }

    fn received(net: &TestNet, p: u32) -> u64 {
        net.proc(p).stats().received
    }

    #[test]
    fn quiescence_on_empty_net_is_immediate() {
        let mut net = TestNet::new([1, 2]);
        net.run_to_quiescence();
        assert_eq!(net.now(), Instant::ZERO);
    }

    #[test]
    fn bootstrap_and_single_multicast_delivers_everywhere() {
        let mut net = group(3);
        net.multicast(1, GroupId(1), b"x");
        net.run_to_quiescence();
        net.advance_past_omega(GroupId(1));
        for p in [1, 2, 3] {
            assert_eq!(net.delivered_payloads(p, GroupId(1)), vec!["x"]);
        }
    }

    #[test]
    fn crash_severs_links() {
        let mut net = group(2);
        net.crash(2);
        net.multicast(1, GroupId(1), b"x");
        net.run_to_quiescence();
        assert!(net.deliveries(2).is_empty());
        assert!(net.is_crashed(2));
    }

    #[test]
    fn partition_blocks_cross_traffic() {
        let mut net = group(2);
        net.partition(&[&[1], &[2]]);
        net.multicast(1, GroupId(1), b"x");
        net.run_to_quiescence();
        assert!(net.deliveries(2).is_empty());
        net.heal();
    }

    #[test]
    fn a_send_on_a_cut_link_stays_lost_after_restore() {
        let mut net = group(2);
        net.block_link(1, 2);
        net.multicast(1, GroupId(1), b"x");
        net.unblock_link(1, 2);
        net.run_to_quiescence();
        assert_eq!(received(&net, 2), 0);
        net.multicast(1, GroupId(1), b"y");
        net.drop_in_flight(1, 2);
        net.multicast(1, GroupId(1), b"z");
        net.run_to_quiescence();
        assert_eq!(received(&net, 2), 1, "only z: the link stays up");
    }

    #[test]
    fn partition_drops_crossing_in_flight_messages() {
        let mut net = group(2);
        net.multicast(1, GroupId(1), b"x");
        net.partition(&[&[1], &[2]]);
        net.heal();
        net.run_to_quiescence();
        assert_eq!(received(&net, 2), 0);
    }

    #[test]
    fn crash_drops_messages_addressed_to_the_dead_node() {
        let mut net = group(3);
        net.multicast(1, GroupId(1), b"x");
        net.crash(2);
        net.run_to_quiescence();
        assert_eq!((received(&net, 2), received(&net, 3)), (0, 1));
    }
}
