//! Closed-loop load generation against the real-time runtime host.
//!
//! Where the chaos fleet measures *correctness coverage* (seeds/sec
//! through the simulator), this module measures *host throughput*: a
//! multi-group closed-loop workload against the wall-clock runtime, in
//! delivered messages per second plus end-to-end (multicast call →
//! member delivery) latency percentiles.
//!
//! The workload is closed-loop per group: `window` application messages
//! are kept in flight, a new multicast is issued only when one of ours is
//! delivered at the group's ack node, and senders rotate round-robin
//! through the membership so every member keeps talking (which is what
//! drives the symmetric protocol's deliverability bound forward without
//! waiting for ω nulls). Each payload carries its send timestamp, so
//! every member delivery yields one latency sample.
//!
//! Two hosts are drivable behind one surface — the sharded event-loop
//! host and a real multi-process TCP cluster reached through
//! [`crate::remote::RemoteCluster`] — so a single binary A/Bs the
//! in-process path against the wire: `newtop-exp load --host sharded`
//! vs `--host tcp --peers …`.

use crate::remote::ClusterShape;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use newtop_runtime::{Cluster, ClusterConfig, Output, WireStats};
use newtop_types::{GroupId, ProcessId, SendError};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which runtime host to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostKind {
    /// The sharded event-loop host (`newtop_runtime::Cluster`).
    Sharded,
    /// A real multi-process cluster of `newtop-exp serve` processes,
    /// reached over their control plane (`--peers` lists the control
    /// addresses, cluster order).
    Tcp,
}

impl HostKind {
    /// The canonical CLI spelling of this host.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HostKind::Sharded => "sharded",
            HostKind::Tcp => "tcp",
        }
    }
}

impl std::fmt::Display for HostKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for HostKind {
    type Err = String;

    fn from_str(s: &str) -> Result<HostKind, String> {
        match s {
            "sharded" => Ok(HostKind::Sharded),
            "tcp" => Ok(HostKind::Tcp),
            other => Err(format!("unknown host '{other}' (expected sharded or tcp)")),
        }
    }
}

/// Application payload bytes of every multicast the load generator and
/// the supervisor send: an 8-byte timestamp or tag, zero-padded.
pub(crate) const PAYLOAD: usize = 64;

/// Parameters of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// The nodes, groups and group configuration. The sharded host
    /// builds this shape; on the TCP host the serve processes own the
    /// group configuration, so it must stay the default there.
    pub shape: ClusterShape,
    /// Worker shards for the sharded host (`0` = available parallelism).
    pub shards: usize,
    /// Wall-clock sending budget.
    pub secs: f64,
    /// Closed-loop window: messages kept in flight per group.
    pub window: u32,
    /// Host under test.
    pub host: HostKind,
    /// Shard-inbox admission bound for the sharded host (`None` = host
    /// default; `Some(0)` sheds every client multicast).
    pub inbox_cap: Option<usize>,
    /// Control-plane addresses of the `serve` processes, cluster order
    /// ([`HostKind::Tcp`] only).
    pub peers: Vec<SocketAddr>,
    /// Ask the `serve` processes to shut down after the run
    /// ([`HostKind::Tcp`] only).
    pub stop_peers: bool,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            shape: ClusterShape {
                nodes: 8,
                groups: 3,
                ..ClusterShape::default()
            },
            shards: 0,
            secs: 2.0,
            window: 16,
            host: HostKind::Sharded,
            inbox_cap: None,
            peers: Vec::new(),
            stop_peers: false,
        }
    }
}

impl LoadConfig {
    /// Checks the shape, the budget and the host choice. On the TCP host
    /// it refuses what the serve processes decide: a group configuration
    /// other than the default, shards and an inbox bound. [`run_load`]
    /// runs it before anything starts.
    ///
    /// # Errors
    ///
    /// What is wrong with the configuration, in words.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.secs.is_finite() && self.secs > 0.0) {
            return Err(format!(
                "secs must be a finite number above 0 (got {})",
                self.secs
            ));
        }
        self.shape.validate()?;
        if self.window == 0 {
            return Err("window must be at least 1".into());
        }
        if self.host == HostKind::Tcp {
            let (g, serve) = (self.shape.group, ClusterShape::default().group);
            let serve_owned = [
                ("--mode", g.mode != serve.mode),
                ("--omega-ms", g.omega != serve.omega),
                ("--big-omega-ms", g.big_omega != serve.big_omega),
                ("--accrual", g.suspicion != serve.suspicion),
                ("the group config", g != serve),
                ("--shards", self.shards != 0),
                ("--inbox-cap", self.inbox_cap.is_some()),
            ];
            if let Some((what, _)) = serve_owned.iter().find(|(_, set)| *set) {
                return Err(format!(
                    "with --host tcp the serve processes decide {what}; give it to serve"
                ));
            }
            if self.peers.is_empty() {
                return Err("--host tcp needs the serve processes' control addresses".into());
            }
        }
        Ok(())
    }
}

/// Aggregated result of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Multicasts accepted by the engines.
    pub sent: u64,
    /// Member deliveries observed (each multicast delivers once per
    /// member, sender included).
    pub delivered: u64,
    /// Wall-clock from start until delivery counting stopped.
    pub elapsed: Duration,
    /// Median multicast→delivery latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile multicast→delivery latency, microseconds.
    pub p99_us: u64,
    /// View changes observed (0 in a healthy run; >0 means the host
    /// starved someone past Ω).
    pub view_changes: u64,
    /// Multicasts the host shed at its admission boundary (explicit
    /// backpressure; the closed loop drops the token and continues).
    pub shed: u64,
    /// Exact wire accounting (`None` when a remote host did not report
    /// it).
    pub wire: Option<WireStats>,
    /// Shards actually used.
    pub shards_used: usize,
}

impl LoadReport {
    /// Delivered messages per second.
    #[must_use]
    pub fn delivered_per_sec(&self) -> f64 {
        self.delivered as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Wire frames shipped per second (when the host reports wire stats).
    #[must_use]
    pub fn frames_per_sec(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        self.wire
            .map(|w| w.frames as f64 / self.elapsed.as_secs_f64().max(1e-9))
    }

    /// Envelopes shipped per second (when the host reports wire stats).
    /// The ratio of this to [`LoadReport::frames_per_sec`] is the mean
    /// batch occupancy the run achieved.
    #[must_use]
    pub fn envelopes_per_sec(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        self.wire
            .map(|w| w.envelopes as f64 / self.elapsed.as_secs_f64().max(1e-9))
    }
}

/// Minimal host surface the driver needs; implemented by the sharded
/// host and by the remote-cluster client.
pub(crate) trait Host: Sync {
    /// Enqueues the multicast and reports the engine's verdict on `reply`
    /// instead of blocking for it; `false` if the node is unknown or gone.
    fn multicast_pipelined(
        &self,
        node: ProcessId,
        group: GroupId,
        payload: Bytes,
        reply: &Sender<Result<(), SendError>>,
    ) -> bool;
    fn output_rx(&self, node: ProcessId) -> Receiver<Output>;
    fn wire_stats(&self) -> Option<WireStats>;
    fn shards_used(&self) -> usize;
}

impl Host for newtop_runtime::RunningCluster {
    fn multicast_pipelined(
        &self,
        node: ProcessId,
        group: GroupId,
        payload: Bytes,
        reply: &Sender<Result<(), SendError>>,
    ) -> bool {
        self.node(node)
            .is_some_and(|n| n.multicast_pipelined(group, payload, reply))
    }
    fn output_rx(&self, node: ProcessId) -> Receiver<Output> {
        self.node(node).expect("known node").outputs().clone()
    }
    fn wire_stats(&self) -> Option<WireStats> {
        Some(self.wire_stats())
    }
    fn shards_used(&self) -> usize {
        self.shard_count()
    }
}

impl Host for crate::remote::RemoteCluster {
    fn multicast_pipelined(
        &self,
        node: ProcessId,
        group: GroupId,
        payload: Bytes,
        reply: &Sender<Result<(), SendError>>,
    ) -> bool {
        crate::remote::RemoteCluster::multicast_pipelined(self, node, group, &payload, reply)
    }
    fn output_rx(&self, node: ProcessId) -> Receiver<Output> {
        self.outputs(node).expect("known node")
    }
    fn wire_stats(&self) -> Option<WireStats> {
        crate::remote::RemoteCluster::wire_stats(self)
    }
    fn shards_used(&self) -> usize {
        crate::remote::RemoteCluster::shards_used(self)
    }
}

/// Builds the payload: 8-byte little-endian send timestamp (µs since the
/// run epoch), padded to [`PAYLOAD`] bytes.
fn make_payload(epoch: Instant) -> Bytes {
    #[allow(clippy::cast_possible_truncation)]
    let t = epoch.elapsed().as_micros() as u64;
    let mut buf = vec![0u8; PAYLOAD];
    buf[..8].copy_from_slice(&t.to_le_bytes());
    Bytes::from(buf)
}

fn read_timestamp(payload: &[u8]) -> Option<u64> {
    payload.get(..8).map(|b| {
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        u64::from_le_bytes(a)
    })
}

struct Shared {
    epoch: Instant,
    stop_sending: AtomicBool,
    stop_all: AtomicBool,
    sent: AtomicU64,
    delivered: AtomicU64,
    view_changes: AtomicU64,
    shed: AtomicU64,
    latencies: Mutex<Vec<u64>>,
}

/// Folds one output into the run counters (delivered count and, when
/// `sample` is set, a latency sample) and reports which group it
/// delivered for, so the caller can feed its closed loop.
fn absorb(shared: &Shared, out: Output, local: &mut Vec<u64>, sample: bool) -> Option<GroupId> {
    match out {
        Output::Delivery(d) => {
            shared.delivered.fetch_add(1, Ordering::Relaxed);
            if sample {
                if let Some(t_send) = read_timestamp(&d.payload) {
                    #[allow(clippy::cast_possible_truncation)]
                    let now = shared.epoch.elapsed().as_micros() as u64;
                    local.push(now.saturating_sub(t_send));
                }
            }
            Some(d.group)
        }
        Output::ViewChange { .. } => {
            shared.view_changes.fetch_add(1, Ordering::Relaxed);
            None
        }
        _ => None,
    }
}

/// Output drain for a set of plain (non-ack) nodes: counts deliveries
/// and samples latency. One thread blocks on the **first** channel of
/// its set and sweeps the rest non-blocking — one parked thread per
/// node turned every frame of deliveries into a wakeup, which on a
/// small box was the largest single source of context switches.
///
/// Latency is sampled only from the blocking channel: its items are
/// received the moment they arrive, while swept channels hold items for
/// up to a sweep interval. Since every node sees statistically
/// identical traffic, the subset is unbiased; the swept channels
/// contribute to the delivered count only.
fn collector(shared: &Shared, rxs: &[Receiver<Output>]) {
    let mut local: Vec<u64> = Vec::new();
    loop {
        let mut next = rxs[0].recv_timeout(Duration::from_millis(1)).ok();
        while let Some(out) = next {
            absorb(shared, out, &mut local, true);
            next = rxs[0].try_recv().ok();
        }
        for rx in &rxs[1..] {
            while let Ok(out) = rx.try_recv() {
                absorb(shared, out, &mut local, false);
            }
        }
        // The sweep ran dry (timeout or disconnect): end of run?
        if shared.stop_all.load(Ordering::Relaxed) {
            break;
        }
    }
    shared
        .latencies
        .lock()
        .expect("collector lock")
        .extend(local);
}

/// Counts one engine verdict: an accepted send, or a shed one (explicit
/// backpressure). Any other refusal is only a dropped token.
fn tally(shared: &Shared, verdict: &Result<(), SendError>) {
    match verdict {
        Ok(()) => shared.sent.fetch_add(1, Ordering::Relaxed),
        Err(SendError::Overloaded { .. }) => shared.shed.fetch_add(1, Ordering::Relaxed),
        Err(_) => 0,
    };
}

/// One group's closed-loop driver, fused with the collector of the
/// group's **ack node** (its first member): primes `window` messages,
/// then sends one more per own-group delivery drained from the ack
/// node's output channel, until told to stop.
///
/// Two things keep the loop short on a busy box. Sends are
/// **pipelined**: the multicast command is enqueued and the engine's
/// verdict comes back on a per-driver channel drained opportunistically,
/// so a send costs one channel push instead of a blocking round trip
/// through the shard. And acks are **direct**: the refill loop is
/// shard → driver → shard, with no separate collector thread and token
/// channel adding two more thread wakeups per round trip.
fn driver<H: Host>(
    shared: &Shared,
    host: &H,
    cfg: &LoadConfig,
    group: GroupId,
    members: &[ProcessId],
    ack_rx: &Receiver<Output>,
) {
    let mut local: Vec<u64> = Vec::new();
    let mut next = 0usize;
    // Every command the host accepts owes exactly one verdict; the
    // issued/received pair lets shutdown drain precisely the verdicts
    // still in flight instead of waiting out a quiet-channel timeout.
    let mut issued = 0u64;
    let mut received = 0u64;
    let (verdict_tx, verdict_rx) = unbounded::<Result<(), SendError>>();
    // A send the host refuses, at once or by its verdict, drops its
    // token, so offered load decays to what the host admits.
    let send_one = |next: &mut usize, issued: &mut u64| {
        let sender = members[*next % members.len()];
        *next += 1;
        if host.multicast_pipelined(sender, group, make_payload(shared.epoch), &verdict_tx) {
            *issued += 1;
        }
    };
    for _ in 0..cfg.window {
        send_one(&mut next, &mut issued);
    }
    loop {
        let mut refills = 0u32;
        let mut out = ack_rx.recv_timeout(Duration::from_millis(10)).ok();
        while let Some(o) = out {
            if absorb(shared, o, &mut local, true) == Some(group) {
                refills += 1;
            }
            out = ack_rx.try_recv().ok();
        }
        if !shared.stop_sending.load(Ordering::Relaxed) {
            for _ in 0..refills {
                send_one(&mut next, &mut issued);
            }
            while let Ok(v) = verdict_rx.try_recv() {
                received += 1;
                tally(shared, &v);
            }
        }
        // The drain ran dry (timeout or disconnect): end of run?
        if shared.stop_all.load(Ordering::Relaxed) {
            break;
        }
    }
    // Collect exactly the verdicts still in flight so `sent` stays
    // exact, with a timeout failsafe in case the host died mid-command;
    // when nothing is outstanding this costs nothing.
    while received < issued {
        let Ok(v) = verdict_rx.recv_timeout(Duration::from_millis(50)) else {
            break;
        };
        received += 1;
        tally(shared, &v);
    }
    shared
        .latencies
        .lock()
        .expect("driver latency lock")
        .extend(local);
}

fn run_on<H: Host>(host: &H, cfg: &LoadConfig) -> LoadReport {
    let shared = Shared {
        epoch: Instant::now(),
        stop_sending: AtomicBool::new(false),
        stop_all: AtomicBool::new(false),
        sent: AtomicU64::new(0),
        delivered: AtomicU64::new(0),
        view_changes: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        latencies: Mutex::new(Vec::new()),
    };
    let deadline = shared.epoch + Duration::from_secs_f64(cfg.secs);
    let mut elapsed = Duration::ZERO;
    let mut sent_at_cut = 0u64;
    let mut delivered_at_cut = 0u64;
    let mut wire_at_cut = None;
    // Each group's closed loop is acked at its first member; that node's
    // output channel is drained by the group's driver thread directly.
    // Every other node gets a plain collector.
    let shape = &cfg.shape;
    let ack_nodes: Vec<ProcessId> = (0..shape.groups)
        .map(|g| *shape.members(g).first().expect("validated nonempty"))
        .collect();
    let mut driver_seats: Vec<(GroupId, Vec<ProcessId>, Receiver<Output>)> = Vec::new();
    let mut plain_rxs: Vec<Receiver<Output>> = Vec::new();
    for i in 1..=shape.nodes {
        let node = ProcessId(i);
        let rx = host.output_rx(node);
        if let Some(g) = ack_nodes.iter().position(|&n| n == node) {
            #[allow(clippy::cast_possible_truncation)]
            let gid = GroupId(g as u32 + 1);
            driver_seats.push((gid, shape.members(g as u32), rx));
        } else {
            plain_rxs.push(rx);
        }
    }
    std::thread::scope(|scope| {
        for (gid, members, rx) in &driver_seats {
            let shared = &shared;
            scope.spawn(move || driver(shared, host, cfg, *gid, members, rx));
        }
        // One collector thread per handful of plain nodes.
        for chunk in plain_rxs.chunks(8) {
            let shared = &shared;
            scope.spawn(move || collector(shared, chunk));
        }
        // Conductor: sleep out the sending budget, then a grace period
        // so in-flight messages drain into the counters.
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        shared.stop_sending.store(true, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(300));
        // Freeze the measurement window and its counters at the same
        // instant: deliveries the collectors and drivers drain while
        // noticing `stop_all` (up to one 10 ms driver recv timeout later;
        // a collector waits 1 ms) must not count against an elapsed time
        // that excludes them.
        elapsed = shared.epoch.elapsed();
        sent_at_cut = shared.sent.load(Ordering::Relaxed);
        delivered_at_cut = shared.delivered.load(Ordering::Relaxed);
        wire_at_cut = host.wire_stats();
        shared.stop_all.store(true, Ordering::Relaxed);
    });
    let mut lat = std::mem::take(&mut *shared.latencies.lock().expect("final lock"));
    lat.sort_unstable();
    let pct = |p: usize| -> u64 {
        if lat.is_empty() {
            0
        } else {
            lat[(lat.len() * p / 100).min(lat.len() - 1)]
        }
    };
    LoadReport {
        sent: sent_at_cut,
        delivered: delivered_at_cut,
        elapsed,
        p50_us: pct(50),
        p99_us: pct(99),
        view_changes: shared.view_changes.load(Ordering::Relaxed),
        shed: shared.shed.load(Ordering::Relaxed),
        wire: wire_at_cut,
        shards_used: host.shards_used(),
    }
}

/// Runs one closed-loop load experiment and returns the aggregate.
///
/// # Errors
///
/// A human-readable message if the configuration is unsatisfiable.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, String> {
    cfg.validate()?;
    match cfg.host {
        HostKind::Sharded => {
            let mut knobs = ClusterConfig::new();
            if cfg.shards > 0 {
                knobs = knobs.shards(cfg.shards);
            }
            if let Some(cap) = cfg.inbox_cap {
                knobs = knobs.inbox_cap(cap);
            }
            let mut cluster = Cluster::with_config(knobs);
            for i in 1..=cfg.shape.nodes {
                cluster.add_process(ProcessId(i));
            }
            for g in 0..cfg.shape.groups {
                cluster
                    .bootstrap_group(GroupId(g + 1), cfg.shape.members(g), cfg.shape.group)
                    .map_err(|e| format!("bootstrap group {}: {e}", g + 1))?;
            }
            let running = cluster.start();
            let report = run_on(&running, cfg);
            running.shutdown();
            Ok(report)
        }
        HostKind::Tcp => {
            let remote = crate::remote::RemoteCluster::connect(
                &cfg.peers,
                cfg.shape.nodes,
                Duration::from_secs(10),
            )
            .map_err(|e| format!("connect to serve processes: {e}"))?;
            let report = run_on(&remote, cfg);
            if cfg.stop_peers {
                remote.shutdown_peers();
            }
            Ok(report)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_types::{OrderMode, SuspicionMode};

    fn shape(nodes: u32, groups: u32) -> ClusterShape {
        ClusterShape {
            nodes,
            groups,
            ..ClusterShape::default()
        }
    }

    /// A short symmetric run delivers traffic and reports sane numbers.
    #[test]
    fn short_symmetric_run_reports_throughput() {
        let cfg = LoadConfig {
            shape: shape(4, 2),
            secs: 0.5,
            window: 4,
            ..LoadConfig::default()
        };
        let report = run_load(&cfg).expect("load runs");
        assert!(report.sent > 0, "no sends went through");
        assert!(
            report.delivered >= report.sent,
            "every multicast delivers at every member: {} sent, {} delivered",
            report.sent,
            report.delivered
        );
        assert!(report.p50_us <= report.p99_us);
        let wire = report.wire.expect("sharded host accounts wire bytes");
        assert!(wire.frames > 0 && wire.bytes > wire.frames);
    }

    /// Asymmetric (sequencer) groups also sustain the closed loop.
    #[test]
    fn asymmetric_mode_runs() {
        let mut cfg = LoadConfig {
            shape: shape(4, 1),
            secs: 0.4,
            window: 4,
            ..LoadConfig::default()
        };
        cfg.shape.group.mode = OrderMode::Asymmetric;
        let report = run_load(&cfg).expect("asym load runs");
        assert!(report.delivered > 0);
    }

    /// Under a saturating closed loop the egress coalesces (occupancy
    /// above 1).
    #[test]
    fn saturating_load_coalesces_frames() {
        let cfg = LoadConfig {
            shape: shape(8, 1),
            shards: 1,
            secs: 0.5,
            window: 32,
            ..LoadConfig::default()
        };
        let report = run_load(&cfg).expect("batched run");
        let wire = report.wire.expect("sharded host accounts wire");
        assert!(
            wire.mean_occupancy() > 1.0,
            "saturating load should coalesce (occupancy {:.2})",
            wire.mean_occupancy()
        );
    }

    /// With the admission valve closed every send is shed, reported as
    /// backpressure (not churn), and the run still completes.
    #[test]
    fn closed_inbox_valve_reports_shed() {
        let cfg = LoadConfig {
            shape: shape(3, 1),
            secs: 0.3,
            window: 4,
            inbox_cap: Some(0),
            ..LoadConfig::default()
        };
        let report = run_load(&cfg).expect("shed run completes");
        assert_eq!(report.sent, 0, "every multicast was shed");
        assert_eq!(report.shed, 4, "exactly the primed window sheds");
        let wire = report.wire.expect("sharded host accounts wire");
        assert_eq!(wire.shed_multicasts, 4);
    }

    /// On the TCP host the serve processes decide the group
    /// configuration, the shards and the inbox bound; setting any of them
    /// on the load run is refused, naming the flag, before anything
    /// connects.
    #[test]
    fn tcp_host_refuses_what_the_serves_decide() {
        let tcp = LoadConfig {
            host: HostKind::Tcp,
            peers: vec!["127.0.0.1:1".parse().unwrap()],
            ..LoadConfig::default()
        };
        assert_eq!(tcp.validate(), Ok(()));
        let mut cases = vec![tcp.clone(); 5];
        cases[0].shape.group.mode = OrderMode::Asymmetric;
        cases[1].shape.group.suspicion = SuspicionMode::accrual();
        cases[2].shards = 2;
        cases[3].inbox_cap = Some(8);
        cases[4].shape.group = cases[4].shape.group.with_flow_window(4);
        let refused = [
            "--mode",
            "--accrual",
            "--shards",
            "--inbox-cap",
            "group config",
        ];
        for (cfg, flag) in cases.iter().zip(refused) {
            let err = run_load(cfg).expect_err(flag);
            assert!(err.contains(flag) && err.contains("serve"), "{err}");
        }
    }

    /// Every host kind round-trips through its CLI spelling.
    #[test]
    fn host_kind_round_trips_through_strings() {
        for kind in [HostKind::Sharded, HostKind::Tcp] {
            let spelled = kind.to_string();
            assert_eq!(spelled.parse::<HostKind>(), Ok(kind), "{spelled}");
        }
        assert!("udp".parse::<HostKind>().is_err());
        // A refused spelling gets a message naming the hosts that exist.
        let err = "threads".parse::<HostKind>().unwrap_err();
        assert!(err.contains("sharded") && err.contains("tcp"), "{err}");
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(run_load(&LoadConfig {
            shape: shape(2, 3),
            ..LoadConfig::default()
        })
        .is_err());
        assert!(run_load(&LoadConfig {
            window: 0,
            ..LoadConfig::default()
        })
        .is_err());
        // A run length that is not a positive finite number of seconds
        // is refused before any host starts.
        for secs in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(run_load(&LoadConfig {
                secs,
                ..LoadConfig::default()
            })
            .is_err());
        }
    }
}
