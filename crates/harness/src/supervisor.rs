//! Crash-recovery supervision for the real TCP cluster
//! (`newtop-exp load --supervise`).
//!
//! The supervisor spawns a cluster of `newtop-exp serve` processes,
//! drives tagged traffic through every group, and then — on a seeded
//! schedule — kill-9s a victim process, waits for the survivors to
//! exclude its nodes (§4 Ω suspicion), restarts the victim under a
//! fresh incarnation (`serve --rejoin`: no bootstrap state, fresh
//! session nonce, bind-retry over `TIME_WAIT` residue), and re-admits
//! its nodes through the §5.3 formation path: a surviving anchor node
//! initiates a **new** group spanning the full lineage membership. The
//! paper's §3 is explicit that recovered members re-enter as new
//! processes in new groups — same-identifier re-entry is not a thing —
//! so each lineage advances through a chain of group ids, one per
//! generation, and the supervisor retires the old id from traffic.
//!
//! After the configured number of kill/restart cycles the recorded
//! per-node delivery sequences are checked for pairwise prefix
//! agreement per group id — the total-order obligation survivors and
//! rejoiners must both meet — and the run fails on any violation, any
//! missed rejoin, or any phase that times out.

use crate::remote::{members_of, peer_of, RemoteCluster};
use bytes::Bytes;
use crossbeam::channel::Receiver;
use newtop_core::FormationFailure;
use newtop_runtime::Output;
use newtop_types::{GroupId, OrderMode, ProcessId, SendError, Span};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Parameters of one supervised crash-recovery run.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Protocol participants cluster-wide (numbered 1..=nodes).
    pub nodes: u32,
    /// Groups; node `i` joins group `(i-1) % groups`. Every lineage
    /// must have a member hosted on peer 0 (its anchor), which the
    /// block layout gives whenever `groups <= nodes / procs`.
    pub groups: u32,
    /// Serve processes. Peer 0 hosts every anchor and is never killed.
    pub procs: usize,
    /// Kill/restart cycles to run.
    pub cycles: u32,
    /// Seed for the victim schedule.
    pub seed: u64,
    /// Tagged messages sent per group per traffic phase.
    pub msgs_per_phase: u32,
    /// Application payload bytes (>= 8; carries the tag).
    pub payload: usize,
    /// Ordering variant every group runs.
    pub mode: OrderMode,
    /// Time-silence interval ω.
    pub omega: Span,
    /// Suspicion timeout Ω. Exclusion of a killed peer takes about
    /// this long, so the cycle time scales with it.
    pub big_omega: Span,
    /// Run the children with the accrual suspicion detector.
    pub accrual: bool,
    /// First port of the range used for data and control listeners:
    /// data on `port_base + i`, control on `port_base + procs + i`.
    pub port_base: u16,
    /// Path of the `newtop-exp` binary to spawn; `None` uses the
    /// current executable (correct when the caller *is* `newtop-exp`).
    pub serve_bin: Option<PathBuf>,
    /// Silence the children's stderr (tests); `false` inherits it.
    pub quiet: bool,
}

impl SupervisorConfig {
    /// The reference scenario: 6 nodes / 2 groups over 3 processes,
    /// 3 kill/restart cycles.
    #[must_use]
    pub fn new(seed: u64) -> SupervisorConfig {
        SupervisorConfig {
            nodes: 6,
            groups: 2,
            procs: 3,
            cycles: 3,
            seed,
            msgs_per_phase: 24,
            payload: 32,
            mode: OrderMode::Symmetric,
            omega: Span::from_millis(25),
            big_omega: Span::from_millis(1500),
            accrual: false,
            port_base: 7400,
            serve_bin: None,
            quiet: false,
        }
    }

    /// Checks the counts, the payload, the port block and that every
    /// lineage has an anchor. [`run_supervisor`] runs it before it
    /// spawns anything.
    ///
    /// # Errors
    ///
    /// What is wrong with the configuration, in words.
    pub fn validate(&self) -> Result<(), String> {
        if self.procs < 2 {
            return Err("need at least 2 serve processes (peer 0 is never killed)".into());
        }
        #[allow(clippy::cast_possible_truncation)]
        let procs = self.procs as u32;
        if self.nodes < procs || self.groups == 0 || self.groups > self.nodes {
            return Err("need nodes >= procs and 0 < groups <= nodes".into());
        }
        if self.payload < 8 {
            return Err("payload must be at least 8 bytes (tag)".into());
        }
        let ports = self.procs.saturating_mul(2);
        if usize::from(self.port_base).saturating_add(ports) > usize::from(u16::MAX) + 1 {
            return Err(format!(
                "{ports} ports from {} run past the last port",
                self.port_base
            ));
        }
        for g in 0..self.groups {
            anchor_of(self, g)?;
        }
        Ok(())
    }
}

/// Aggregate of one supervised run. The run only returns `Ok` if every
/// kill/restart cycle completed; the report is for the human.
#[derive(Debug, Clone)]
pub struct SupervisorReport {
    /// Kill/restart cycles completed.
    pub cycles: u32,
    /// Rejoins observed (a restarted node reporting its lineage's new
    /// group active). One per cycle on success.
    pub rejoins: u32,
    /// Why each formation attempt that was retried under a fresh group
    /// id failed, in order.
    pub formation_retries: Vec<FormationRetry>,
    /// Peer index killed in each cycle.
    pub victims: Vec<usize>,
    /// Member deliveries recorded across all phases.
    pub deliveries: u64,
    /// View changes observed (the exclusions; at least one per kill).
    pub view_changes: u64,
    /// Pairwise per-group prefix disagreements (0 on success).
    pub order_violations: u64,
}

/// Why one supervised formation attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormationRetry {
    /// The anchor (the initiator) reported the formation failed (§5.3).
    Failed(FormationFailure),
    /// `form_group` refused the request at once.
    Refused(SendError),
}

/// Kills every child on drop so a failed run never leaks processes.
struct Fleet {
    children: Vec<Option<Child>>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for slot in &mut self.children {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Everything drained from the cluster's output streams: per-(group,
/// node) delivery tags, latest views, activation marks and failed
/// formations.
#[derive(Default)]
struct Tracking {
    rxs: Vec<Receiver<Output>>,
    history: BTreeMap<(u32, u32), Vec<u64>>,
    views: HashMap<(u32, u32), BTreeSet<ProcessId>>,
    active: BTreeSet<(u32, u32)>,
    failed: HashMap<(u32, u32), FormationFailure>,
    deliveries: u64,
    view_changes: u64,
}

impl Tracking {
    fn absorb(&mut self, node: u32, out: Output) {
        match out {
            Output::Delivery(d) => {
                if let Some(tag) = d.payload.get(..8) {
                    let mut a = [0u8; 8];
                    a.copy_from_slice(tag);
                    self.history
                        .entry((d.group.0, node))
                        .or_default()
                        .push(u64::from_le_bytes(a));
                }
                self.deliveries += 1;
            }
            Output::ViewChange { group, view, .. } => {
                self.views.insert((group.0, node), view.members().clone());
                self.view_changes += 1;
            }
            Output::GroupActive { group, view } => {
                self.views.insert((group.0, node), view.members().clone());
                self.active.insert((group.0, node));
            }
            Output::FormationFailed { group, reason } => {
                self.failed.insert((group.0, node), reason);
            }
            Output::Event(_) => {}
        }
    }

    /// One non-blocking sweep over every node's output stream.
    fn sweep(&mut self) {
        for i in 0..self.rxs.len() {
            #[allow(clippy::cast_possible_truncation)]
            let node = i as u32 + 1;
            while let Ok(out) = self.rxs[i].try_recv() {
                self.absorb(node, out);
            }
        }
    }

    /// Sweeps until `pred` holds or `timeout` elapses.
    fn wait_until(&mut self, timeout: Duration, mut pred: impl FnMut(&Tracking) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            self.sweep();
            if pred(self) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn spawn_serve(cfg: &SupervisorConfig, me: usize, rejoin: bool) -> Result<Child, String> {
    let bin = match &cfg.serve_bin {
        Some(p) => p.clone(),
        None => std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
    };
    let join = |addrs: Vec<SocketAddr>| {
        addrs
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut cmd = Command::new(bin);
    cmd.arg("serve")
        .args(["--nodes", &cfg.nodes.to_string()])
        .args(["--groups", &cfg.groups.to_string()])
        .args(["--peers", &join(data_addrs(cfg))])
        .args(["--ctrl", &join(ctrl_addrs(cfg))])
        .args(["--me", &me.to_string()])
        .args([
            "--mode",
            match cfg.mode {
                OrderMode::Symmetric => "sym",
                OrderMode::Asymmetric => "asym",
            },
        ])
        .args([
            "--omega-ms",
            &cfg.omega.as_micros().div_ceil(1000).to_string(),
        ])
        .args([
            "--big-omega-ms",
            &cfg.big_omega.as_micros().div_ceil(1000).to_string(),
        ])
        .stdout(Stdio::null());
    if cfg.accrual {
        cmd.arg("--accrual");
    }
    if rejoin {
        cmd.arg("--rejoin");
    }
    if cfg.quiet {
        cmd.stderr(Stdio::null());
    }
    cmd.spawn().map_err(|e| format!("spawn serve {me}: {e}"))
}

fn data_addrs(cfg: &SupervisorConfig) -> Vec<SocketAddr> {
    (0..cfg.procs)
        .map(|i| {
            #[allow(clippy::cast_possible_truncation)]
            let port = cfg.port_base + i as u16;
            SocketAddr::from(([127, 0, 0, 1], port))
        })
        .collect()
}

fn ctrl_addrs(cfg: &SupervisorConfig) -> Vec<SocketAddr> {
    (0..cfg.procs)
        .map(|i| {
            #[allow(clippy::cast_possible_truncation)]
            let port = cfg.port_base + (cfg.procs + i) as u16;
            SocketAddr::from(([127, 0, 0, 1], port))
        })
        .collect()
}

/// The lineage's anchor: its first member hosted on peer 0 (never
/// killed, so always available to send and to initiate re-formation).
fn anchor_of(cfg: &SupervisorConfig, g: u32) -> Result<ProcessId, String> {
    #[allow(clippy::cast_possible_truncation)]
    let procs = cfg.procs as u32;
    members_of(g, cfg.nodes, cfg.groups)
        .into_iter()
        .find(|m| peer_of(m.0, cfg.nodes, procs) == 0)
        .ok_or_else(|| {
            format!(
                "group {} has no member on peer 0; use groups <= nodes/procs",
                g + 1
            )
        })
}

/// Sends `msgs_per_phase` tagged multicasts from each lineage's anchor
/// into its current group id and waits until every member delivered
/// them all.
fn traffic_phase(
    cfg: &SupervisorConfig,
    cluster: &RemoteCluster,
    tracking: &mut Tracking,
    gids: &[u32],
    next_tag: &mut u64,
) -> Result<(), String> {
    // Take the baseline *after* a sweep so in-flight stragglers from
    // the previous phase don't count toward this one.
    tracking.sweep();
    let mut expect: Vec<(u32, ProcessId, usize)> = Vec::new();
    for (g, &gid) in gids.iter().enumerate() {
        #[allow(clippy::cast_possible_truncation)]
        let members = members_of(g as u32, cfg.nodes, cfg.groups);
        for m in &members {
            let have = tracking.history.get(&(gid, m.0)).map_or(0, Vec::len);
            expect.push((gid, *m, have + cfg.msgs_per_phase as usize));
        }
    }
    for (g, &gid) in gids.iter().enumerate() {
        #[allow(clippy::cast_possible_truncation)]
        let anchor = anchor_of(cfg, g as u32)?;
        for _ in 0..cfg.msgs_per_phase {
            let mut buf = vec![0u8; cfg.payload.max(8)];
            buf[..8].copy_from_slice(&next_tag.to_le_bytes());
            *next_tag += 1;
            // Shed verdicts are backpressure, not failure: retry.
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                match cluster.multicast(anchor, GroupId(gid), &Bytes::from(buf.clone())) {
                    Ok(()) => break,
                    Err(SendError::Overloaded { .. }) if Instant::now() < deadline => {
                        tracking.sweep();
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => return Err(format!("multicast to group {gid}: {e}")),
                }
            }
            tracking.sweep();
        }
    }
    let ok = tracking.wait_until(Duration::from_secs(30), |t| {
        expect
            .iter()
            .all(|(gid, m, want)| t.history.get(&(*gid, m.0)).map_or(0, Vec::len) >= *want)
    });
    if ok {
        Ok(())
    } else {
        let lagging: Vec<String> = expect
            .iter()
            .filter(|(gid, m, want)| tracking.history.get(&(*gid, m.0)).map_or(0, Vec::len) < *want)
            .map(|(gid, m, want)| {
                format!(
                    "g{gid}@{m}: {}/{want}",
                    tracking.history.get(&(*gid, m.0)).map_or(0, Vec::len)
                )
            })
            .collect();
        Err(format!("traffic phase stalled: {}", lagging.join(", ")))
    }
}

/// Pairwise prefix agreement of the recorded delivery sequences, per
/// group id: for any two members one sequence must be a prefix of the
/// other (members killed mid-stream legitimately stop short).
fn order_violations(history: &BTreeMap<(u32, u32), Vec<u64>>) -> u64 {
    let mut by_gid: BTreeMap<u32, Vec<&Vec<u64>>> = BTreeMap::new();
    for ((gid, _), seq) in history {
        by_gid.entry(*gid).or_default().push(seq);
    }
    let mut violations = 0u64;
    for seqs in by_gid.values() {
        for (i, a) in seqs.iter().enumerate() {
            for b in &seqs[i + 1..] {
                let n = a.len().min(b.len());
                if a[..n] != b[..n] {
                    violations += 1;
                }
            }
        }
    }
    violations
}

/// Runs the full supervised crash-recovery scenario.
///
/// # Errors
///
/// A human-readable message naming the phase that failed: spawn or
/// connect trouble, a stalled traffic phase, an exclusion or rejoin
/// that never happened, or order disagreement in the final audit.
#[allow(clippy::too_many_lines)]
pub fn run_supervisor(cfg: &SupervisorConfig) -> Result<SupervisorReport, String> {
    cfg.validate()?;
    #[allow(clippy::cast_possible_truncation)]
    let procs = cfg.procs as u32;
    let ctrl = ctrl_addrs(cfg);
    let mut fleet = Fleet {
        children: Vec::new(),
    };
    for i in 0..cfg.procs {
        fleet.children.push(Some(spawn_serve(cfg, i, false)?));
    }
    let mut cluster = RemoteCluster::connect(&ctrl, cfg.nodes, Duration::from_secs(15))
        .map_err(|e| format!("connect to serve fleet: {e}"))?;
    let mut tracking = Tracking {
        rxs: (1..=cfg.nodes)
            .map(|i| {
                cluster
                    .outputs(ProcessId(i))
                    .ok_or_else(|| format!("no output stream for node {i}"))
            })
            .collect::<Result<_, _>>()?,
        ..Tracking::default()
    };
    // Lineage g starts life as the bootstrapped GroupId(g+1); each
    // rejoin advances it to a fresh id.
    let mut current_gid: Vec<u32> = (1..=cfg.groups).collect();
    let mut next_gid: u32 = cfg.groups + 1;
    let mut next_tag: u64 = 1;
    let mut rng = cfg.seed | 1;
    let mut victims = Vec::new();
    let mut rejoins = 0u32;
    let mut formation_retries = Vec::new();

    traffic_phase(cfg, &cluster, &mut tracking, &current_gid, &mut next_tag)
        .map_err(|e| format!("warmup: {e}"))?;

    for cycle in 0..cfg.cycles {
        // ---- kill -9 a victim (never peer 0) --------------------------
        #[allow(clippy::cast_possible_truncation)]
        let victim = 1 + (xorshift(&mut rng) as usize) % (cfg.procs - 1);
        victims.push(victim);
        // Every survivor counts one reconnect when its data link to the
        // victim comes back up after the restart.
        let survivors: Vec<usize> = (0..cfg.procs).filter(|&p| p != victim).collect();
        let redials = |cluster: &RemoteCluster| -> u64 {
            survivors
                .iter()
                .map(|&p| cluster.peer_stats(p).map_or(0, |(s, _)| s.reconnects))
                .sum()
        };
        let redialed = redials(&cluster) + survivors.len() as u64;
        if let Some(mut child) = fleet.children[victim].take() {
            let _ = child.kill(); // SIGKILL on unix
            let _ = child.wait();
        }
        let victim_nodes: Vec<ProcessId> = (1..=cfg.nodes)
            .filter(|&i| peer_of(i, cfg.nodes, procs) as usize == victim)
            .map(ProcessId)
            .collect();

        // ---- survivors exclude the victim's nodes ---------------------
        // Formation validates against current views at every survivor,
        // so wait for the exclusion at every surviving member, not just
        // the anchor.
        let excluded = tracking.wait_until(
            cfg.big_omega.to_duration() * 8 + Duration::from_secs(10),
            |t| {
                (0..cfg.groups).all(|g| {
                    let gid = current_gid[g as usize];
                    members_of(g, cfg.nodes, cfg.groups)
                        .iter()
                        .filter(|m| peer_of(m.0, cfg.nodes, procs) as usize != victim)
                        .all(|m| {
                            t.views
                                .get(&(gid, m.0))
                                .is_some_and(|v| victim_nodes.iter().all(|dead| !v.contains(dead)))
                        })
                })
            },
        );
        if !excluded {
            return Err(format!(
                "cycle {cycle}: survivors never excluded peer {victim}'s nodes {victim_nodes:?}"
            ));
        }

        // ---- restart the victim under a fresh incarnation -------------
        fleet.children[victim] = Some(spawn_serve(cfg, victim, true)?);
        cluster
            .reconnect_peer(victim, ctrl[victim], Duration::from_secs(15))
            .map_err(|e| format!("cycle {cycle}: reconnect peer {victim}: {e}"))?;
        // Survivors redial a lost peer with a backoff that grows to 1 s,
        // the formation timeout: a `form` sent before their links to the
        // restarted peer are back races them, and the restarted members'
        // votes miss the timeout. So wait (bounded) for every redial
        // first; the retries below are for genuine failures.
        tracking.wait_until(Duration::from_secs(5), |_| redials(&cluster) >= redialed);

        // ---- re-enter through §5.3 formation, one fresh id per lineage
        for g in 0..cfg.groups {
            let anchor = anchor_of(cfg, g)?;
            let members = members_of(g, cfg.nodes, cfg.groups);
            // Rejoin is proven when a *restarted* member reports the
            // new group active (the anchor's activation alone would
            // not show the victim came back).
            let rejoined = members
                .iter()
                .find(|m| peer_of(m.0, cfg.nodes, procs) as usize == victim)
                .copied();
            let wanted: Vec<u32> = rejoined
                .iter()
                .chain(std::iter::once(&anchor))
                .map(|p| p.0)
                .collect();
            // The restarted peer's data links may still be dialing, so
            // an attempt can fail: at once, or later when the anchor
            // (the initiator) reports the formation failed. Give the
            // formation a few attempts, each under a fresh group id.
            let deadline = Instant::now() + Duration::from_secs(20);
            let gid = loop {
                let gid = GroupId(next_gid);
                next_gid += 1;
                let failure = match cluster.form_group(anchor, gid, &members) {
                    Err(e) => FormationRetry::Refused(e),
                    Ok(()) => {
                        let settled = tracking.wait_until(Duration::from_secs(30), |t| {
                            t.failed.contains_key(&(gid.0, anchor.0))
                                || wanted.iter().all(|n| t.active.contains(&(gid.0, *n)))
                        });
                        match tracking.failed.get(&(gid.0, anchor.0)) {
                            Some(reason) => FormationRetry::Failed(reason.clone()),
                            None if settled => break gid,
                            None => {
                                return Err(format!(
                                    "cycle {cycle}: group {gid:?} never activated at nodes \
                                     {wanted:?}"
                                ))
                            }
                        }
                    }
                };
                if Instant::now() >= deadline {
                    return Err(format!(
                        "cycle {cycle}: form group {gid:?} at {anchor}: {failure:?}"
                    ));
                }
                formation_retries.push(failure);
                tracking.sweep();
                std::thread::sleep(Duration::from_millis(200));
            };
            if rejoined.is_some() {
                rejoins += 1;
            }
            current_gid[g as usize] = gid.0;
        }

        // ---- traffic over the new generation --------------------------
        traffic_phase(cfg, &cluster, &mut tracking, &current_gid, &mut next_tag)
            .map_err(|e| format!("cycle {cycle}: {e}"))?;
    }

    tracking.sweep();
    let order_violations = order_violations(&tracking.history);
    cluster.shutdown_peers();
    for slot in &mut fleet.children {
        if let Some(mut child) = slot.take() {
            // shutdown_peers asked nicely; reap, then force if needed.
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }
    let report = SupervisorReport {
        cycles: cfg.cycles,
        rejoins,
        formation_retries,
        victims,
        deliveries: tracking.deliveries,
        view_changes: tracking.view_changes,
        order_violations,
    };
    if order_violations > 0 {
        return Err(format!(
            "order audit failed: {order_violations} pairwise prefix disagreement(s) \
             across {} (group, node) histories",
            tracking.history.len()
        ));
    }
    let expected_rejoins = cfg.cycles.saturating_mul(cfg.groups);
    if rejoins < expected_rejoins {
        return Err(format!(
            "only {rejoins}/{expected_rejoins} lineage rejoins were observed"
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_schedule_never_picks_peer_zero() {
        let mut rng = 12345u64 | 1;
        for _ in 0..1000 {
            let v = 1 + (xorshift(&mut rng) as usize) % 2;
            assert!(v == 1 || v == 2);
        }
    }

    #[test]
    fn anchors_require_a_member_on_peer_zero() {
        let cfg = SupervisorConfig::new(0);
        for g in 0..cfg.groups {
            let a = anchor_of(&cfg, g).expect("reference layout has anchors");
            #[allow(clippy::cast_possible_truncation)]
            let procs = cfg.procs as u32;
            assert_eq!(peer_of(a.0, cfg.nodes, procs), 0);
        }
        // 6 nodes / 6 groups over 3 procs: groups 3..5's first members
        // live on peers 1 and 2 — no anchor.
        let dense = SupervisorConfig {
            groups: 6,
            ..SupervisorConfig::new(0)
        };
        assert!(anchor_of(&dense, 5).is_err());
    }

    #[test]
    fn prefix_audit_flags_divergence_not_truncation() {
        let mut h: BTreeMap<(u32, u32), Vec<u64>> = BTreeMap::new();
        h.insert((1, 1), vec![1, 2, 3]);
        h.insert((1, 2), vec![1, 2]); // shorter prefix: fine (killed member)
        assert_eq!(order_violations(&h), 0);
        h.insert((1, 3), vec![1, 3, 2]); // diverges from both
        assert_eq!(order_violations(&h), 2);
        // Disagreement in another gid is counted independently.
        h.insert((2, 1), vec![9]);
        h.insert((2, 2), vec![8]);
        assert_eq!(order_violations(&h), 3);
    }
}
