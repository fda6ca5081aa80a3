//! Hosting `newtop_core::Process` state machines on the deterministic
//! simulator, with scripted workloads, fault injection and full history
//! recording.

use crate::history::{History, HistoryEvent, MessageId};
use newtop_core::{Action, FormationFailure, Process};
use newtop_sim::{
    NetConfig, NetOp, NodeInput, Outbox, PartitionMode, PartitionSpec, PendingEvent, Sim, SimNode,
};
use newtop_types::digest::{DigestHasher, StateDigest};
use newtop_types::{wire, Envelope, GroupConfig, GroupId, Instant, ProcessConfig, ProcessId, Span};
use std::collections::BTreeSet;

/// One simulated protocol participant: the engine plus its observable log.
#[derive(Debug, Clone)]
pub struct NewtopNode {
    pub(crate) process: Process,
    log: Vec<HistoryEvent>,
    /// Formation failures, kept out of the log so histories do not change.
    pub(crate) failures: Vec<(GroupId, FormationFailure)>,
}

impl NewtopNode {
    pub(crate) fn new(id: ProcessId) -> NewtopNode {
        NewtopNode {
            process: Process::new(id, ProcessConfig::new()),
            log: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// The protocol engine (introspection).
    #[must_use]
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// The recorded event log.
    #[must_use]
    pub fn log(&self) -> &[HistoryEvent] {
        &self.log
    }

    /// Statically installs `group` (the §4 bootstrap) and logs `V0`.
    pub(crate) fn bootstrap(
        &mut self,
        now: Instant,
        group: GroupId,
        members: &BTreeSet<ProcessId>,
        cfg: GroupConfig,
    ) {
        self.process
            .bootstrap_group(now, group, members, cfg)
            .expect("bootstrap succeeds");
        let view = self.process.view(group).expect("just installed").clone();
        self.log.push(HistoryEvent::InitialView { group, view });
    }

    pub(crate) fn absorb(
        &mut self,
        now: Instant,
        actions: Vec<Action>,
        out: &mut Outbox<Envelope>,
    ) {
        for a in actions {
            match a {
                Action::Send { to, envelope } => out.send(to, envelope),
                Action::Deliver(delivery) => {
                    let mid = MessageId::from_payload(&delivery.payload);
                    self.log.push(HistoryEvent::Delivered {
                        at: now,
                        delivery,
                        mid,
                    });
                }
                Action::ViewChange {
                    group,
                    view,
                    signed,
                } => self.log.push(HistoryEvent::ViewChange {
                    at: now,
                    group,
                    view,
                    signed,
                }),
                Action::GroupActive { group, view } => {
                    self.log.push(HistoryEvent::InitialView { group, view });
                    self.log.push(HistoryEvent::GroupActive { at: now, group });
                }
                Action::FormationFailed { group, reason } => self.failures.push((group, reason)),
                Action::Event(event) => {
                    self.log.push(HistoryEvent::Protocol { at: now, event });
                }
            }
        }
    }
}

/// An application input to one [`NewtopNode`], as data.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Issue an application multicast tagged with the id.
    Multicast(GroupId, MessageId),
    /// Announce departure from the group.
    Depart(GroupId),
    /// Initiate dynamic formation (§5.3) of the group with these members.
    Initiate(GroupId, BTreeSet<ProcessId>, GroupConfig),
}

impl NodeInput<NewtopNode> for Command {
    /// Runs the command on the engine and logs it. A command the engine
    /// refuses (a departed or unknown group: the script raced a fault) is
    /// dropped.
    fn apply_to(self, now: Instant, node: &mut NewtopNode, out: &mut Outbox<Envelope>) {
        let process = &mut node.process;
        let (actions, logged) = match self {
            Command::Multicast(group, mid) => (
                process.multicast(now, group, mid.to_payload()).ok(),
                Some(HistoryEvent::Sent {
                    at: now,
                    group,
                    mid,
                }),
            ),
            Command::Depart(group) => (
                process.depart(now, group).ok(),
                Some(HistoryEvent::Departed { at: now, group }),
            ),
            Command::Initiate(group, members, cfg) => {
                (process.initiate_group(now, group, &members, cfg).ok(), None)
            }
        };
        if let Some(actions) = actions {
            node.log.extend(logged);
            node.absorb(now, actions, out);
        }
    }
}

impl SimNode for NewtopNode {
    type Msg = Envelope;

    fn on_message(
        &mut self,
        now: Instant,
        from: ProcessId,
        msg: Envelope,
        out: &mut Outbox<Envelope>,
    ) {
        let actions = self.process.handle(now, from, msg);
        self.absorb(now, actions, out);
        // Debug builds audit engine coherence after every event — the chaos
        // fleet and the model checker both run through this hook.
        self.process.audit_invariants();
    }

    fn on_tick(&mut self, now: Instant, out: &mut Outbox<Envelope>) {
        let actions = self.process.tick(now);
        self.absorb(now, actions, out);
        self.process.audit_invariants();
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.process.next_deadline()
    }
}

impl StateDigest for NewtopNode {
    /// Only the protocol engine: the history log is an observation trace,
    /// not state the protocol can branch on — two runs reaching the same
    /// engine state by different routes *should* dedup in the model checker
    /// even though their logs differ. (The checker inspects terminal-state
    /// histories separately; see `harness::mc`.)
    fn digest_into(&self, h: &mut DigestHasher) {
        self.process.digest_into(h);
    }
}

/// One input to a simulated cluster, as data: a network change, or a
/// command to one process (by number).
#[derive(Debug, Clone, PartialEq)]
pub enum SimInput {
    /// A network change.
    Net(NetOp),
    /// A command to process `P<n>`.
    Command(u32, Command),
}

impl SimInput {
    /// A tagged application multicast from `P<from>`.
    #[must_use]
    pub fn multicast(from: u32, group: GroupId, mid: MessageId) -> SimInput {
        SimInput::Command(from, Command::Multicast(group, mid))
    }
}

impl From<NetOp> for SimInput {
    fn from(op: NetOp) -> SimInput {
        SimInput::Net(op)
    }
}

/// The partition whose blocks list these process numbers.
pub(crate) fn partition_spec<B: AsRef<[u32]>>(blocks: &[B]) -> PartitionSpec {
    let block = |b: &B| b.as_ref().iter().map(|i| ProcessId(*i)).collect();
    PartitionSpec::blocks(blocks.iter().map(block).collect())
}

/// A simulated Newtop cluster: the binding between `newtop_core` and
/// `newtop_sim` used by every experiment and property test. Every input it
/// queues is data, so a cluster can be cloned mid-run and each copy run on.
///
/// # Examples
///
/// ```
/// use newtop_harness::{MessageId, SimCluster};
/// use newtop_sim::NetConfig;
/// use newtop_types::{GroupConfig, GroupId, Instant, OrderMode, Span};
///
/// let mut cluster = SimCluster::new(3, NetConfig::new(42));
/// cluster.bootstrap_group(GroupId(1), &[1, 2, 3], GroupConfig::new(OrderMode::Symmetric));
/// cluster.schedule_send(Instant::from_micros(1_000), 1, GroupId(1), MessageId(7));
/// cluster.run_for(Span::from_millis(200));
/// let h = cluster.history();
/// use newtop_types::ProcessId;
/// assert_eq!(h.delivered_mids(ProcessId(2), GroupId(1)), vec![MessageId(7)]);
/// ```
#[derive(Clone, Debug)]
pub struct SimCluster {
    sim: Sim<NewtopNode, Command>,
}

impl SimCluster {
    /// A cluster of processes `P1..=Pn`.
    #[must_use]
    pub fn new(n: u32, net: NetConfig) -> SimCluster {
        let mut sim = Sim::new(net);
        for id in (1..=n).map(ProcessId) {
            sim.add_node(id, NewtopNode::new(id));
        }
        SimCluster { sim }
    }

    /// Installs the wire codec as the byte sizer, enabling `bytes_sent`.
    pub fn measure_wire_bytes(&mut self) {
        self.sim.set_sizer(wire::encoded_len);
    }

    /// Statically bootstraps `group` at every listed member.
    ///
    /// # Panics
    ///
    /// Panics if a listed member does not exist or rejects the bootstrap.
    pub fn bootstrap_group(&mut self, group: GroupId, members: &[u32], cfg: GroupConfig) {
        let set: BTreeSet<ProcessId> = members.iter().map(|i| ProcessId(*i)).collect();
        for m in &set {
            let node = self.sim.node_mut(*m).expect("member exists");
            node.bootstrap(Instant::ZERO, group, &set, cfg);
            self.sim.poke(*m);
        }
    }

    /// Schedules one input at `at`. Inputs scheduled for one instant take
    /// effect in the order they were scheduled.
    ///
    /// # Panics
    ///
    /// Panics on an invalid network change (see [`Sim::schedule`]).
    pub fn schedule(&mut self, at: Instant, input: impl Into<SimInput>) {
        match input.into() {
            SimInput::Net(op) => self.sim.schedule(at, op),
            SimInput::Command(p, cmd) => self.sim.schedule_input(at, ProcessId(p), cmd),
        }
    }

    /// Applies one input at the current virtual time (a command to an
    /// unknown or crashed process is dropped).
    ///
    /// # Panics
    ///
    /// Panics on an invalid network change (see [`Sim::apply`]).
    pub fn apply(&mut self, input: impl Into<SimInput>) {
        match input.into() {
            SimInput::Net(op) => self.sim.apply(op),
            SimInput::Command(p, cmd) => {
                self.sim.apply_input(ProcessId(p), cmd);
            }
        }
    }

    /// Schedules a tagged application multicast.
    pub fn schedule_send(&mut self, at: Instant, from: u32, group: GroupId, mid: MessageId) {
        self.schedule(at, SimInput::multicast(from, group, mid));
    }

    /// Schedules a crash.
    pub fn schedule_crash(&mut self, at: Instant, p: u32) {
        self.schedule(at, NetOp::Crash(ProcessId(p)));
    }

    /// Schedules a loss-mode partition.
    pub fn schedule_partition(&mut self, at: Instant, blocks: &[&[u32]]) {
        self.schedule(
            at,
            NetOp::Partition(partition_spec(blocks), PartitionMode::Loss),
        );
    }

    /// Swaps the constant-latency transport for the topology-aware WAN
    /// model (regions, capped uplinks, fair-share trunks). Also installs
    /// the wire codec as the byte sizer so transfer times reflect real
    /// encoded frame sizes.
    ///
    /// # Errors
    ///
    /// Propagates [`newtop_sim::WanConfig::validate`] failures.
    pub fn set_wan(&mut self, cfg: newtop_sim::WanConfig) -> Result<(), newtop_types::ConfigError> {
        self.measure_wire_bytes();
        self.sim.set_wan(cfg)
    }

    /// Runs the simulation until `t`.
    pub fn run_until(&mut self, t: Instant) {
        self.sim.run_until(t);
    }

    /// Runs the simulation for `span` more.
    pub fn run_for(&mut self, span: Span) {
        self.sim.run_for(span);
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> Instant {
        self.sim.now()
    }

    /// Network counters.
    #[must_use]
    pub fn net_stats(&self) -> newtop_sim::NetStats {
        self.sim.stats()
    }

    /// The protocol engine of `p` (introspection).
    ///
    /// # Panics
    ///
    /// Panics if `p` does not exist.
    #[must_use]
    pub fn proc(&self, p: u32) -> &Process {
        self.sim
            .node(ProcessId(p))
            .expect("known process")
            .process()
    }

    // ------------------------------------------------------------------
    // Controllable-scheduler seam (the model checker's interface)
    // ------------------------------------------------------------------

    /// The frontier of schedulable events (see [`Sim::pending_events`]).
    #[must_use]
    pub fn pending_events(&self) -> Vec<PendingEvent> {
        self.sim.pending_events()
    }

    /// Fires one chosen frontier event (see [`Sim::fire`]).
    pub fn fire(&mut self, ev: PendingEvent) -> bool {
        self.sim.fire(ev)
    }

    /// Whether `p` has crashed.
    #[must_use]
    pub fn is_crashed(&self, p: u32) -> bool {
        self.sim.crashed(ProcessId(p))
    }

    /// Canonical hash of the full system state (see [`Sim::state_digest`]).
    /// Sound for visited-state dedup only under a fixed latency model.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        self.sim.state_digest()
    }

    /// Runs every live engine's coherence audit, returning the first
    /// violation (see `Process::check_invariants`).
    ///
    /// # Errors
    ///
    /// The description of the first violated engine invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (id, node) in self.sim.nodes() {
            if !self.sim.crashed(id) {
                node.process().check_invariants()?;
            }
        }
        Ok(())
    }

    /// Collects the full run history (clones the per-node logs).
    #[must_use]
    pub fn history(&self) -> History {
        let mut h = History::default();
        for (id, node) in self.sim.nodes() {
            h.events.insert(id, node.log().to_vec());
            if self.sim.crashed(id) {
                h.crashed.push(id);
            }
        }
        h
    }
}
