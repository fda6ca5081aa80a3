//! Sharded real-time host for the Newtop protocol engine.
//!
//! The sans-IO [`newtop_core::Process`] needs a transport that is reliable
//! and FIFO per ordered pair of processes (§3 of the paper). This host
//! provides it with a **sharded event loop**: N worker threads (default:
//! available parallelism) each own many protocol participants and drain a
//! single MPSC inbox in batches. Messages between nodes travel as
//! length-prefix-framed wire bytes — encoded once per multicast via
//! [`newtop_types::wire::frame`], batched per destination by
//! [`newtop_types::wire::Batch`], decoded at the receiving shard —
//! so the wire codec runs at full speed on the hot path and byte
//! accounting ([`RunningCluster::wire_stats`]) is exact. Per-shard timers
//! live in a binary-heap deadline wheel; partition control is a versioned
//! snapshot that costs one atomic load per batch.
//!
//! The application API is multicast, depart, dynamic group formation, and
//! a stream of outputs (deliveries, view changes, protocol events). The
//! same shards also back the multi-process TCP host
//! ([`Cluster::start_tcp`]).
//!
//! A shared partition control lets demos sever connectivity at runtime —
//! messages crossing a cut are dropped, which models the paper's
//! partitioned-network scenarios.
//!
//! # Examples
//!
//! ```
//! use newtop_runtime::Cluster;
//! use newtop_types::{GroupConfig, GroupId, OrderMode, ProcessId, Span};
//! use std::time::Duration;
//!
//! let mut cluster = Cluster::new();
//! for i in 1..=3 {
//!     cluster.add_process(ProcessId(i));
//! }
//! let g = GroupId(1);
//! cluster
//!     .bootstrap_group(g, [ProcessId(1), ProcessId(2), ProcessId(3)],
//!                      GroupConfig::new(OrderMode::Symmetric)
//!                          .with_omega(Span::from_millis(5))
//!                          .with_big_omega(Span::from_millis(200)))
//!     .unwrap();
//! let cluster = cluster.start();
//! cluster.node(ProcessId(1)).unwrap().multicast(g, b"hello".as_ref().into()).unwrap();
//! let d = cluster
//!     .node(ProcessId(2))
//!     .unwrap()
//!     .await_delivery(Duration::from_secs(5))
//!     .expect("delivered");
//! assert_eq!(&d.payload[..], b"hello");
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod net;
mod partition;
mod shard;
mod timer;
mod transport;

pub use net::TcpConfig;
pub use transport::{Frame, Route, Transport, WireStats, OCCUPANCY_BUCKETS, OCCUPANCY_LABELS};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use newtop_core::{Delivery, FormationFailure, GroupError, Process, ProtocolEvent};
use newtop_types::{
    GroupConfig, GroupId, Instant, ProcessConfig, ProcessId, SendError, SignedView, View,
};
use partition::PartitionCtl;
use shard::NodeSeed;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use transport::{Admission, Router, ShardMsg};

/// Everything a node reports to its application.
#[derive(Debug, Clone)]
pub enum Output {
    /// An application message was delivered.
    Delivery(Delivery),
    /// A new membership view was installed.
    ViewChange {
        /// The group whose view changed.
        group: GroupId,
        /// The installed view.
        view: View,
        /// The §6 signed form.
        signed: SignedView,
    },
    /// A dynamically formed group became usable.
    GroupActive {
        /// The group.
        group: GroupId,
        /// Its view at activation.
        view: View,
    },
    /// A formation attempt failed.
    FormationFailed {
        /// The proposed group.
        group: GroupId,
        /// Why.
        reason: FormationFailure,
    },
    /// A membership trace event.
    Event(ProtocolEvent),
}

pub(crate) enum Command {
    Multicast {
        group: GroupId,
        payload: Bytes,
        reply: Sender<Result<(), SendError>>,
    },
    Depart {
        group: GroupId,
        reply: Sender<Result<(), SendError>>,
    },
    Initiate {
        group: GroupId,
        members: BTreeSet<ProcessId>,
        config: GroupConfig,
        reply: Sender<Result<(), GroupError>>,
    },
    Die,
}

fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Host-construction knobs shared by both cluster flavours — the
/// sharded in-process host ([`Cluster::start`]) and the TCP multi-process
/// host ([`Cluster::start_tcp`]) are built from one `ClusterConfig`, so a
/// harness can construct either through the same value.
///
/// Every knob is optional; an unset knob takes the host's default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterConfig {
    shards: Option<usize>,
    inbox_cap: Option<usize>,
    uplink_kbps: Option<u64>,
}

/// Default shard-inbox depth at which new client multicasts are shed.
const DEFAULT_INBOX_CAP: usize = 16 * 1024;

impl ClusterConfig {
    /// A config where every knob takes the host default.
    #[must_use]
    pub fn new() -> ClusterConfig {
        ClusterConfig::default()
    }

    /// Sets the number of worker shards (clamped to the node count;
    /// default: available parallelism).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> ClusterConfig {
        self.shards = Some(shards.max(1));
        self
    }

    /// Bounds each worker shard's inbox for **client traffic**: a new
    /// application multicast is shed with
    /// [`SendError::Overloaded`] once the destination shard's inbox
    /// holds this many messages (protocol frames always enqueue — see
    /// [`WireStats::shed_multicasts`]). `0` sheds every multicast (a
    /// closed admission valve). Default: 16384.
    #[must_use]
    pub fn inbox_cap(mut self, cap: usize) -> ClusterConfig {
        self.inbox_cap = Some(cap);
        self
    }

    /// Caps the host's whole egress at `kbps` kilobytes per second — a
    /// WAN uplink profile. Every committed frame (cross-shard, local
    /// ring, or TCP peer link) pays its transfer time at this rate, so a
    /// shard past the budget stalls and downstream latency rises exactly
    /// as on a saturated real uplink. `0` is treated as 1 KB/s (a gate
    /// must have capacity). Default: unlimited.
    #[must_use]
    pub fn uplink_kbps(mut self, kbps: u64) -> ClusterConfig {
        self.uplink_kbps = Some(kbps.max(1));
        self
    }

    /// Resolves the admission bound.
    fn inbox_limit(&self) -> usize {
        self.inbox_cap.unwrap_or(DEFAULT_INBOX_CAP)
    }

    /// Resolves the egress rate gate from the WAN uplink profile.
    fn rate_gate(&self) -> Option<transport::RateGate> {
        self.uplink_kbps
            .map(|kbps| transport::RateGate::new(kbps * 1000))
    }

    /// Resolves the shard count for `procs` hosted nodes.
    fn shard_count(&self, procs: usize) -> usize {
        self.shards
            .unwrap_or_else(default_shards)
            .clamp(1, procs.max(1))
    }
}

/// A cluster under construction: processes and statically bootstrapped
/// groups are configured before the shard threads start.
#[derive(Default)]
pub struct Cluster {
    procs: BTreeMap<ProcessId, Process>,
    config: ClusterConfig,
}

impl Cluster {
    /// An empty cluster builder.
    #[must_use]
    pub fn new() -> Cluster {
        Cluster::default()
    }

    /// An empty cluster builder carrying `config`.
    #[must_use]
    pub fn with_config(config: ClusterConfig) -> Cluster {
        Cluster {
            procs: BTreeMap::new(),
            config,
        }
    }

    /// Adds a protocol participant.
    pub fn add_process(&mut self, id: ProcessId) -> &mut Cluster {
        self.procs
            .entry(id)
            .or_insert_with(|| Process::new(id, ProcessConfig::new()));
        self
    }

    /// Statically installs a group at every listed member (paper §4
    /// bootstrap). All members must have been added.
    ///
    /// The full member set is validated **before** any process is touched:
    /// either every member installs the group, or none does.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`GroupError`]; unknown members are reported
    /// as [`GroupError::NotInMemberList`].
    pub fn bootstrap_group<I: IntoIterator<Item = ProcessId>>(
        &mut self,
        group: GroupId,
        members: I,
        config: GroupConfig,
    ) -> Result<(), GroupError> {
        let set: BTreeSet<ProcessId> = members.into_iter().collect();
        // Validate everything the per-process install will check, across
        // the whole set, before mutating anyone: a mid-iteration error
        // must not leave earlier members bootstrapped (the seed host's
        // partial-install bug).
        config.validate().map_err(GroupError::Config)?;
        if set.is_empty() {
            return Err(GroupError::EmptyMembership);
        }
        for m in &set {
            match self.procs.get(m) {
                None => return Err(GroupError::NotInMemberList { group }),
                Some(p) if p.is_member(group) => {
                    return Err(GroupError::AlreadyExists { group });
                }
                Some(_) => {}
            }
        }
        for m in &set {
            let p = self.procs.get_mut(m).expect("validated above");
            p.bootstrap_group(Instant::ZERO, group, &set, config)?;
        }
        Ok(())
    }

    /// Statically installs `group` at the **locally hosted** subset of
    /// `members` — the multi-process counterpart of
    /// [`Cluster::bootstrap_group`]. Every peer process of a TCP cluster
    /// calls this with the *same full member set* (the engine must know
    /// all members to order against them); each installs only the members
    /// it hosts, and the rest are installed by their own host process.
    /// Hosting no member of `group` is a no-op, not an error.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`GroupError`]; the full set is validated
    /// against the locally hosted members before any is touched.
    pub fn bootstrap_group_local<I: IntoIterator<Item = ProcessId>>(
        &mut self,
        group: GroupId,
        members: I,
        config: GroupConfig,
    ) -> Result<(), GroupError> {
        let set: BTreeSet<ProcessId> = members.into_iter().collect();
        config.validate().map_err(GroupError::Config)?;
        if set.is_empty() {
            return Err(GroupError::EmptyMembership);
        }
        let local: Vec<ProcessId> = set
            .iter()
            .copied()
            .filter(|m| self.procs.contains_key(m))
            .collect();
        for m in &local {
            if self.procs[m].is_member(group) {
                return Err(GroupError::AlreadyExists { group });
            }
        }
        for m in &local {
            let p = self.procs.get_mut(m).expect("filtered on presence");
            p.bootstrap_group(Instant::ZERO, group, &set, config)?;
        }
        Ok(())
    }

    /// Spawns the worker shards and returns the running cluster.
    #[must_use]
    pub fn start(self) -> RunningCluster {
        let epoch = std::time::Instant::now();
        let partition = Arc::new(PartitionCtl::new());
        let shard_count = self.config.shard_count(self.procs.len());
        let admission = Arc::new(Admission::new(self.config.inbox_limit()));
        let layout = Layout::place(self.procs, shard_count, &admission);
        let transport: Arc<dyn Transport> = Arc::new(Router::new(
            layout.addrs.clone(),
            layout.inbox_txs.clone(),
            admission,
            self.config.rate_gate(),
        ));
        let threads = spawn_shards(
            layout.per_shard,
            layout.inbox_rxs,
            epoch,
            &transport,
            &partition,
            shard_count,
        );
        RunningCluster {
            nodes: layout.nodes,
            threads,
            partition,
            transport,
            shard_count,
            net: None,
        }
    }

    /// Spawns the worker shards **plus the TCP peer links** of `tcp` and
    /// returns the running cluster. The builder's processes are this
    /// peer's locally hosted nodes; frames for processes owned by other
    /// peers (per [`TcpConfig::owners`]) travel over per-peer TCP
    /// connections speaking the exact frame bytes of the in-process path
    /// inside addressed records (`newtop_types::peer`). Links reconnect
    /// with exponential backoff and resume retransmission from the
    /// receiver's cumulative ack, so the engine's reliable-FIFO transport
    /// assumption holds across connection loss.
    ///
    /// # Errors
    ///
    /// An [`std::io::Error`] from binding this peer's listen address; the
    /// cluster is consumed either way (rebuild to retry).
    pub fn start_tcp(self, tcp: TcpConfig) -> std::io::Result<RunningCluster> {
        let epoch = std::time::Instant::now();
        let partition = Arc::new(PartitionCtl::new());
        let shard_count = self.config.shard_count(self.procs.len());
        let admission = Arc::new(Admission::new(self.config.inbox_limit()));
        let layout = Layout::place(self.procs, shard_count, &admission);
        let router = Router::new(
            layout.addrs.clone(),
            layout.inbox_txs.clone(),
            admission,
            self.config.rate_gate(),
        );
        let (tcp_transport, net) = net::start(tcp, router, layout.inbox_txs.clone())?;
        let transport: Arc<dyn Transport> = tcp_transport;
        let threads = spawn_shards(
            layout.per_shard,
            layout.inbox_rxs,
            epoch,
            &transport,
            &partition,
            shard_count,
        );
        Ok(RunningCluster {
            nodes: layout.nodes,
            threads,
            partition,
            transport,
            shard_count,
            net: Some(net),
        })
    }
}

/// Shard placement shared by [`Cluster::start`] and
/// [`Cluster::start_tcp`]: nodes round-robin onto shards, one MPSC inbox
/// per shard, one output channel per node.
struct Layout {
    nodes: BTreeMap<ProcessId, NodeHandle>,
    addrs: Vec<(ProcessId, u32)>,
    per_shard: Vec<Vec<NodeSeed>>,
    inbox_txs: Vec<Sender<ShardMsg>>,
    inbox_rxs: Vec<Receiver<ShardMsg>>,
}

impl Layout {
    fn place(
        procs: BTreeMap<ProcessId, Process>,
        shard_count: usize,
        admission: &Arc<Admission>,
    ) -> Layout {
        let mut inbox_txs: Vec<Sender<ShardMsg>> = Vec::with_capacity(shard_count);
        let mut inbox_rxs: Vec<Receiver<ShardMsg>> = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (tx, rx) = unbounded();
            inbox_txs.push(tx);
            inbox_rxs.push(rx);
        }
        let mut addrs: Vec<(ProcessId, u32)> = Vec::with_capacity(procs.len());
        let mut per_shard: Vec<Vec<NodeSeed>> = (0..shard_count).map(|_| Vec::new()).collect();
        let mut nodes = BTreeMap::new();
        for (i, (id, process)) in procs.into_iter().enumerate() {
            let s = i % shard_count;
            let (out_tx, out_rx) = unbounded::<Output>();
            #[allow(clippy::cast_possible_truncation)]
            addrs.push((id, s as u32));
            per_shard[s].push(NodeSeed {
                id,
                process,
                outputs: out_tx,
            });
            nodes.insert(
                id,
                NodeHandle {
                    id,
                    shard_tx: inbox_txs[s].clone(),
                    outputs: out_rx,
                    admission: Arc::clone(admission),
                },
            );
        }
        Layout {
            nodes,
            addrs,
            per_shard,
            inbox_txs,
            inbox_rxs,
        }
    }
}

fn spawn_shards(
    per_shard: Vec<Vec<NodeSeed>>,
    mut inbox_rxs: Vec<Receiver<ShardMsg>>,
    epoch: std::time::Instant,
    transport: &Arc<dyn Transport>,
    partition: &Arc<PartitionCtl>,
    shard_count: usize,
) -> Vec<JoinHandle<()>> {
    let mut threads = Vec::with_capacity(shard_count);
    for (s, seeds) in per_shard.into_iter().enumerate() {
        let rx = inbox_rxs.remove(0);
        let transport = Arc::clone(transport);
        let partition = Arc::clone(partition);
        #[allow(clippy::cast_possible_truncation)]
        let thread = std::thread::Builder::new()
            .name(format!("newtop-shard-{s}"))
            .spawn(move || {
                shard::shard_main(
                    s as u32,
                    seeds,
                    epoch,
                    &rx,
                    transport,
                    partition,
                    shard_count,
                );
            })
            .expect("spawn shard thread");
        threads.push(thread);
    }
    threads
}

/// Application-side handle to one running protocol participant.
#[derive(Debug, Clone)]
pub struct NodeHandle {
    id: ProcessId,
    shard_tx: Sender<ShardMsg>,
    outputs: Receiver<Output>,
    admission: Arc<Admission>,
}

impl NodeHandle {
    fn command(&self, cmd: Command) -> bool {
        self.shard_tx
            .send(ShardMsg::Command { to: self.id, cmd })
            .is_ok()
    }

    /// Whether the admission gate accepts a new client multicast right
    /// now (the shard's inbox is below its cap). A refusal is counted
    /// as a shed in [`WireStats::shed_multicasts`].
    fn admit_multicast(&self) -> bool {
        self.admission.try_admit(self.shard_tx.len())
    }

    /// The participant's identifier.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Requests an application multicast and waits for the engine's verdict.
    ///
    /// # Errors
    ///
    /// The engine's [`SendError`]; [`SendError::NotMember`] if the node
    /// has terminated; [`SendError::Overloaded`] if the host shed the
    /// request at its admission boundary (retry later).
    pub fn multicast(&self, group: GroupId, payload: Bytes) -> Result<(), SendError> {
        if !self.admit_multicast() {
            return Err(SendError::Overloaded { group });
        }
        let (reply, rx) = bounded(1);
        if !self.command(Command::Multicast {
            group,
            payload,
            reply,
        }) {
            return Err(SendError::NotMember { group });
        }
        rx.recv().unwrap_or(Err(SendError::NotMember { group }))
    }

    /// Requests an application multicast **without** waiting for the
    /// engine's verdict: the `Result` is sent to `reply` once the shard
    /// processes the command. This lets a caller keep many multicasts in
    /// flight per handle — [`NodeHandle::multicast`] pays a blocking
    /// round trip (two scheduler hops) per call, which dominates when
    /// the caller is a load generator.
    ///
    /// Returns `false` (and sends nothing) if the node has terminated.
    /// Verdicts arrive on `reply` in submission order; a request shed at
    /// the admission boundary is reported as an immediate
    /// [`SendError::Overloaded`] verdict (the submission still counts as
    /// accepted — exactly one verdict per `true` return).
    pub fn multicast_pipelined(
        &self,
        group: GroupId,
        payload: Bytes,
        reply: &Sender<Result<(), SendError>>,
    ) -> bool {
        if !self.admit_multicast() {
            return reply.send(Err(SendError::Overloaded { group })).is_ok();
        }
        self.command(Command::Multicast {
            group,
            payload,
            reply: reply.clone(),
        })
    }

    /// Announces voluntary departure from `group`.
    ///
    /// # Errors
    ///
    /// The engine's [`SendError`].
    pub fn depart(&self, group: GroupId) -> Result<(), SendError> {
        let (reply, rx) = bounded(1);
        if !self.command(Command::Depart { group, reply }) {
            return Err(SendError::NotMember { group });
        }
        rx.recv().unwrap_or(Err(SendError::NotMember { group }))
    }

    /// Initiates dynamic formation of `group` (§5.3) from this node.
    ///
    /// # Errors
    ///
    /// The engine's [`GroupError`].
    pub fn initiate_group<I: IntoIterator<Item = ProcessId>>(
        &self,
        group: GroupId,
        members: I,
        config: GroupConfig,
    ) -> Result<(), GroupError> {
        let (reply, rx) = bounded(1);
        if !self.command(Command::Initiate {
            group,
            members: members.into_iter().collect(),
            config,
            reply,
        }) {
            return Err(GroupError::AlreadyExists { group });
        }
        rx.recv()
            .unwrap_or(Err(GroupError::AlreadyExists { group }))
    }

    /// The stream of outputs (deliveries, view changes, events).
    #[must_use]
    pub fn outputs(&self) -> &Receiver<Output> {
        &self.outputs
    }

    /// Waits up to `timeout` for the next application delivery, skipping
    /// other outputs.
    #[must_use]
    pub fn await_delivery(&self, timeout: Duration) -> Option<Delivery> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.checked_duration_since(std::time::Instant::now())?;
            match self.outputs.recv_timeout(left) {
                Ok(Output::Delivery(d)) => return Some(d),
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
    }

    /// Waits up to `timeout` for a view change in `group`.
    #[must_use]
    pub fn await_view_change(&self, group: GroupId, timeout: Duration) -> Option<View> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.checked_duration_since(std::time::Instant::now())?;
            match self.outputs.recv_timeout(left) {
                Ok(Output::ViewChange { group: g, view, .. }) if g == group => return Some(view),
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
    }

    /// Waits up to `timeout` for `group` to become active (formation
    /// completed).
    #[must_use]
    pub fn await_group_active(&self, group: GroupId, timeout: Duration) -> Option<View> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.checked_duration_since(std::time::Instant::now())?;
            match self.outputs.recv_timeout(left) {
                Ok(Output::GroupActive { group: g, view }) if g == group => return Some(view),
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
    }
}

/// A running cluster: handles to every node plus fault-injection controls.
pub struct RunningCluster {
    nodes: BTreeMap<ProcessId, NodeHandle>,
    threads: Vec<JoinHandle<()>>,
    partition: Arc<PartitionCtl>,
    transport: Arc<dyn Transport>,
    shard_count: usize,
    /// Peer-link threads of a TCP host (`None` in-process).
    net: Option<net::NetRuntime>,
}

impl RunningCluster {
    /// The handle for `id`.
    #[must_use]
    pub fn node(&self, id: ProcessId) -> Option<&NodeHandle> {
        self.nodes.get(&id)
    }

    /// Iterates over all node handles.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeHandle> {
        self.nodes.values()
    }

    /// How many worker shards host the nodes.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Cumulative wire-transport counters (frames and exact bytes
    /// shipped; on a TCP host also reconnects, dead-peer drops and
    /// handshake rejects).
    #[must_use]
    pub fn wire_stats(&self) -> WireStats {
        self.transport.stats()
    }

    /// Splits the network into blocks; traffic across the cut is dropped.
    pub fn partition(&self, blocks: Vec<BTreeSet<ProcessId>>) {
        self.partition.set(&blocks);
    }

    /// Removes any partition.
    pub fn heal(&self) {
        self.partition.set(&[]);
    }

    /// Kills a node (crash failure): its engine is dropped without
    /// farewell; frames already in flight to it are discarded.
    pub fn kill(&self, id: ProcessId) {
        if let Some(n) = self.nodes.get(&id) {
            let _ = n.command(Command::Die);
        }
    }

    /// Stops every node, joins the shard threads, and (on a TCP host)
    /// stops and joins the peer-link threads.
    pub fn shutdown(mut self) {
        for n in self.nodes.values() {
            let _ = n.command(Command::Die);
        }
        for t in std::mem::take(&mut self.threads) {
            let _ = t.join();
        }
        if let Some(net) = self.net.take() {
            net.stop();
        }
    }
}

impl Drop for RunningCluster {
    /// Dropping without [`RunningCluster::shutdown`] still terminates the
    /// shard threads (detached): every node is told to die.
    fn drop(&mut self) {
        for n in self.nodes.values() {
            let _ = n.command(Command::Die);
        }
    }
}

impl std::fmt::Debug for RunningCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningCluster")
            .field("nodes", &self.nodes.len())
            .field("shards", &self.shard_count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_types::{OrderMode, Span};

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn fast_cfg() -> GroupConfig {
        GroupConfig::new(OrderMode::Symmetric)
            .with_omega(Span::from_millis(5))
            .with_big_omega(Span::from_millis(150))
    }

    #[test]
    fn cluster_config_resolves_knobs_and_defaults() {
        assert_eq!(ClusterConfig::new(), ClusterConfig::default());
        // Explicit knobs override; shard counts clamp to the node count.
        let cfg = ClusterConfig::new().shards(8);
        assert_eq!(cfg.shard_count(3), 3);
        assert_eq!(cfg.shard_count(100), 8);
        // Degenerate values are pinned to sane floors.
        assert_eq!(ClusterConfig::new().shards(0).shard_count(4), 1);
        // The admission bound defaults and accepts an explicit zero
        // (closed valve).
        assert_eq!(ClusterConfig::new().inbox_limit(), DEFAULT_INBOX_CAP);
        assert_eq!(ClusterConfig::new().inbox_cap(64).inbox_limit(), 64);
        assert_eq!(ClusterConfig::new().inbox_cap(0).inbox_limit(), 0);
    }

    /// With the admission valve closed, every client multicast sheds
    /// with explicit backpressure — but protocol traffic (suspicion,
    /// views) still flows, so overload never costs liveness.
    #[test]
    fn closed_admission_valve_sheds_client_traffic_only() {
        let mut cluster = Cluster::with_config(ClusterConfig::new().inbox_cap(0));
        for i in 1..=3 {
            cluster.add_process(p(i));
        }
        let g = GroupId(1);
        cluster
            .bootstrap_group(g, [p(1), p(2), p(3)], fast_cfg())
            .unwrap();
        let cluster = cluster.start();
        assert!(matches!(
            cluster
                .node(p(1))
                .unwrap()
                .multicast(g, Bytes::from_static(b"x")),
            Err(SendError::Overloaded { .. })
        ));
        let (tx, rx) = bounded(1);
        assert!(cluster
            .node(p(2))
            .unwrap()
            .multicast_pipelined(g, Bytes::from_static(b"y"), &tx));
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(Err(SendError::Overloaded { .. }))
        ));
        cluster.kill(p(3));
        let v = cluster
            .node(p(1))
            .unwrap()
            .await_view_change(g, Duration::from_secs(30))
            .expect("membership still runs under full shed");
        assert!(!v.contains(p(3)));
        let stats = cluster.wire_stats();
        assert!(stats.shed_multicasts >= 2);
        assert!(stats.frames > 0, "protocol frames still flow under shed");
        cluster.shutdown();
    }

    #[test]
    fn multicast_reaches_all_members_in_order() {
        let mut cluster = Cluster::new();
        for i in 1..=3 {
            cluster.add_process(p(i));
        }
        let g = GroupId(1);
        cluster
            .bootstrap_group(g, [p(1), p(2), p(3)], fast_cfg())
            .unwrap();
        let cluster = cluster.start();
        for k in 0..5 {
            cluster
                .node(p(1))
                .unwrap()
                .multicast(g, Bytes::from(format!("m{k}")))
                .unwrap();
        }
        let collect = |i: u32| -> Vec<String> {
            (0..5)
                .map(|_| {
                    let d = cluster
                        .node(p(i))
                        .unwrap()
                        .await_delivery(Duration::from_secs(10))
                        .expect("delivery");
                    String::from_utf8_lossy(&d.payload).into_owned()
                })
                .collect()
        };
        let d2 = collect(2);
        let d3 = collect(3);
        assert_eq!(d2, vec!["m0", "m1", "m2", "m3", "m4"]);
        assert_eq!(d2, d3);
        assert!(cluster.wire_stats().frames > 0);
        assert!(cluster.wire_stats().bytes > 0);
        cluster.shutdown();
    }

    #[test]
    fn killed_node_is_excluded_from_views() {
        let mut cluster = Cluster::new();
        for i in 1..=3 {
            cluster.add_process(p(i));
        }
        let g = GroupId(1);
        cluster
            .bootstrap_group(g, [p(1), p(2), p(3)], fast_cfg())
            .unwrap();
        let cluster = cluster.start();
        cluster.kill(p(3));
        let v1 = cluster
            .node(p(1))
            .unwrap()
            .await_view_change(g, Duration::from_secs(30))
            .expect("view change at P1");
        assert!(!v1.contains(p(3)));
        assert_eq!(v1.members().len(), 2);
        let v2 = cluster
            .node(p(2))
            .unwrap()
            .await_view_change(g, Duration::from_secs(30))
            .expect("view change at P2");
        assert_eq!(v1, v2);
        cluster.shutdown();
    }

    #[test]
    fn dynamic_formation_over_shards() {
        // Force a multi-shard topology.
        let mut cluster = Cluster::with_config(ClusterConfig::new().shards(2));
        for i in 1..=3 {
            cluster.add_process(p(i));
        }
        let cluster = cluster.start();
        assert_eq!(cluster.shard_count(), 2);
        let g = GroupId(9);
        cluster
            .node(p(1))
            .unwrap()
            .initiate_group(g, [p(1), p(2), p(3)], fast_cfg())
            .unwrap();
        for i in 1..=3 {
            let v = cluster
                .node(p(i))
                .unwrap()
                .await_group_active(g, Duration::from_secs(10))
                .expect("group active");
            assert_eq!(v.members().len(), 3);
        }
        cluster
            .node(p(2))
            .unwrap()
            .multicast(g, Bytes::from_static(b"formed"))
            .unwrap();
        let d = cluster
            .node(p(3))
            .unwrap()
            .await_delivery(Duration::from_secs(10))
            .expect("delivery in formed group");
        assert_eq!(&d.payload[..], b"formed");
        cluster.shutdown();
    }

    #[test]
    fn partition_splits_views_both_ways() {
        let mut cluster = Cluster::new();
        for i in 1..=4 {
            cluster.add_process(p(i));
        }
        let g = GroupId(1);
        cluster
            .bootstrap_group(g, [p(1), p(2), p(3), p(4)], fast_cfg())
            .unwrap();
        let cluster = cluster.start();
        cluster.partition(vec![[p(1), p(2)].into(), [p(3), p(4)].into()]);
        let deadline = Duration::from_secs(30);
        let v1 = loop {
            let v = cluster
                .node(p(1))
                .unwrap()
                .await_view_change(g, deadline)
                .expect("P1 view change");
            if v.members().len() == 2 {
                break v;
            }
        };
        let v3 = loop {
            let v = cluster
                .node(p(3))
                .unwrap()
                .await_view_change(g, deadline)
                .expect("P3 view change");
            if v.members().len() == 2 {
                break v;
            }
        };
        let m1: Vec<u32> = v1.iter().map(|q| q.0).collect();
        let m3: Vec<u32> = v3.iter().map(|q| q.0).collect();
        assert_eq!(m1, vec![1, 2]);
        assert_eq!(m3, vec![3, 4]);
        cluster.shutdown();
    }
}
