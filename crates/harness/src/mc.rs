//! Exhaustive small-scope model checker: full interleaving exploration of
//! 2–4 node systems under bounded message / crash / timer budgets.
//!
//! # State-space model
//!
//! A *state* is the complete simulated system — every engine, every
//! in-flight message, every parked link, the virtual clock — identified by
//! its canonical digest ([`SimCluster::state_digest`]): the state's
//! [`std::hash::Hash`] fed to one FNV-1a
//! [`DigestHasher`](newtop_types::digest::DigestHasher), which leaves out
//! derived caches, statistics and scratch buffers (see
//! [`newtop_types::digest`]). A *transition* is
//! one [`McStep`]: deliver the FIFO head of a named link, fire a node's
//! timer wake-up, or apply an input — the next application multicast, or a
//! crash.
//! Firing by link/node identity (rather than by event handle) makes it
//! impossible for a schedule to violate the reliable-FIFO transport
//! assumption: the explorer chooses *which* link speaks next, never message
//! order within a link. Virtual time advances to the fired event's own
//! timestamp (`max` with the current clock), so out-of-order firing models
//! arbitrary asynchrony — a "late" event simply executes late.
//!
//! The scope is one group over all `n` processes, plus — in the *nested*
//! scope — group 2 = {P1, P2} inside it, so that group 1's multicasts
//! stand in for group 2's ω nulls. Application sends are canonicalised:
//! send `k` is issued by process `(k mod n) + 1` (in group 2 when `k` is
//! odd and the sender is a member of the nested scope's inner group) and
//! only the next `k` is ever enabled, so the explorer spends its budget on
//! *interleavings* (which is where the protocol lives) rather than on the
//! symmetric choice of who speaks.
//!
//! # Soundness of dedup
//!
//! The digest covers engine state but deliberately excludes the observation
//! history (two paths converging on the same engine state dedup even though
//! they got there through different prefixes). The checker therefore runs
//! at **every expanded state**, not only at terminals: a pruned path's
//! history prefix has already been checked by the time its tail is cut.
//! The paper's safety properties are prefix-closed — a violation visible in
//! a full run is visible in the shortest prefix containing it — so
//! check-at-every-state plus dedup loses nothing. Liveness is *not*
//! checked: a bounded schedule is a prefix, not a run to quiescence.
//!
//! # Exploration order
//!
//! Depth-first, on an explicit stack of clusters: each step is taken on a
//! clone of its parent (`McStep::apply`), so no schedule is replayed and
//! memory is one cluster per level plus the visited set. Every step
//! consumes exactly one pending event or one unit of budget, so a state's
//! depth follows from the state itself: the order changes neither which
//! states are expanded nor how many reaches dedup, and the counts equal
//! breadth-first's. Only the first counterexample found may be longer, and
//! shrinking shortens it.
//!
//! # Timer reduction
//!
//! Among pending wake-ups only those with the *minimal* deadline are
//! enabled (ties all enabled). This models synchronised local clocks —
//! hardware timers on different nodes fire in deadline order — and cuts the
//! wake branching factor from `n` to the tie count without losing any
//! protocol-visible interleaving: ω/Ω decisions depend on the virtual
//! clock, which a later-deadline wake would only push further ahead.
//!
//! Even so, wake interleavings dominate the state count: each fired wake
//! advances the virtual clock at a different point of the interleaving
//! (states reached with time moved earlier vs later never converge) and
//! emits ω-null and suspicion traffic that multiplies the deliverable
//! frontier. The default scope therefore sets `max_wakes = 0` — pure
//! delivery/crash interleavings, exhaustible in seconds — and timer scopes
//! (suspicion, refutation, view change) are explored separately with
//! `--max-wakes` on a reduced message budget. CI's smoke job runs one of
//! each.
//!
//! # Counterexamples
//!
//! A violating schedule is wrapped in a [`ChaosPlan`] (`mc_steps`),
//! ddmin-shrunk by [`shrink`], and serialised to the v1 replay
//! script format — `newtop-exp chaos --replay` re-executes it unchanged.

use crate::chaos::{shrink, ChaosPlan, GroupSpec, McStep};
use crate::checker::{check_all, CheckOptions, Violation};
use crate::cluster::{Command, SimCluster, SimInput};
use crate::history::MessageId;
use newtop_sim::{NetOp, PendingEvent};
use newtop_types::{GroupId, OrderMode, ProcessId};
use std::collections::HashMap;
use std::time::{Duration, Instant as WallInstant};

/// The exploration scope: everything that bounds the state space.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Processes `P1..=Pn`, all members of group 1.
    pub nodes: u32,
    /// Adds group 2 = {P1, P2}, covered by group 1, with the same ordering
    /// variant and timers.
    pub nested: bool,
    /// Application-multicast budget.
    pub max_msgs: u32,
    /// Crash budget.
    pub max_crashes: u32,
    /// Timer wake-up budget (each fired wake advances the virtual clock and
    /// may emit ω nulls or Ω suspicions).
    pub max_wakes: u32,
    /// Wall-clock budget; exceeded ⇒ `complete = false`.
    pub budget: Option<Duration>,
    /// Ordering variant of the explored group.
    pub mode: OrderMode,
    /// Null-message deadline ω, µs.
    pub omega_us: u64,
    /// Suspicion timeout Ω, µs.
    pub big_omega_us: u64,
}

impl McConfig {
    /// The default scope for `nodes` processes.
    #[must_use]
    pub fn new(nodes: u32) -> McConfig {
        McConfig {
            nodes,
            nested: false,
            max_msgs: 2,
            max_crashes: 1,
            max_wakes: 0,
            budget: None,
            mode: OrderMode::Symmetric,
            omega_us: 5_000,
            big_omega_us: 10_000,
        }
    }

    /// The schedule-length bound: every send plus its `nodes − 1`
    /// deliveries, every crash, and two steps per timer wake (the wake
    /// itself plus slack for the ω nulls and suspicion traffic it emits).
    /// Saturates rather than overflows.
    #[must_use]
    pub fn effective_depth(&self) -> usize {
        let [n, msgs, crashes, wakes] =
            [self.nodes, self.max_msgs, self.max_crashes, self.max_wakes].map(|b| b as usize);
        n.saturating_mul(msgs)
            .saturating_add(crashes)
            .saturating_add(wakes.saturating_mul(2))
    }

    /// The groups of this scope: group 1 over every node, and in the
    /// nested scope group 2 = {P1, P2}.
    fn topology(&self) -> Vec<GroupSpec> {
        let group = |id, members| GroupSpec {
            group: GroupId(id),
            mode: self.mode,
            omega_us: self.omega_us,
            big_omega_us: self.big_omega_us,
            members,
        };
        let mut groups = vec![group(1, (1..=self.nodes).collect())];
        if self.nested {
            groups.push(group(2, vec![1, 2]));
        }
        groups
    }

    /// The group canonical send `k` from `from` goes to.
    fn send_group(&self, k: u32, from: u32) -> GroupId {
        if self.nested && k % 2 == 1 && from <= 2 {
            GroupId(2)
        } else {
            GroupId(1)
        }
    }

    /// Wraps a schedule in a replayable plan over this scope.
    #[must_use]
    pub fn plan(&self, schedule: &[McStep]) -> ChaosPlan {
        ChaosPlan {
            seed: 0, // the fixed-latency network draws nothing
            n: self.nodes,
            topology: self.topology(),
            inputs: Vec::new(),
            wan: None,
            mc_steps: schedule.to_vec(),
            horizon_us: 1,
        }
    }
}

/// What the explorer found wrong at a state.
#[derive(Debug, Clone)]
pub enum McViolation {
    /// The property checker rejected the observation history.
    Property(Vec<Violation>),
    /// An engine coherence invariant failed
    /// (`Process::check_invariants`).
    Invariant(String),
}

/// Exploration outcome.
#[derive(Debug, Default)]
pub struct McReport {
    /// States expanded (checked and, below the depth bound, branched).
    pub explored: u64,
    /// Reached states skipped because an equal-or-shallower visit already
    /// expanded the same digest.
    pub deduped: u64,
    /// `true` iff the bounded space was exhausted violation-free within
    /// the wall-clock budget.
    pub complete: bool,
    /// The first violation found, if any.
    pub violation: Option<McViolation>,
    /// The violating schedule, ddmin-shrunk when the failure survives
    /// replay (engine panics and checker violations do; a release-build
    /// invariant failure may not, and is then kept unshrunk).
    pub counterexample: Option<ChaosPlan>,
    /// Candidate runs spent shrinking the counterexample.
    pub shrink_runs: usize,
    /// Wall-clock time spent exploring (excludes shrinking).
    pub elapsed: Duration,
}

/// Budget usage along one schedule.
fn used(schedule: &[McStep]) -> (u32, u32, u32) {
    let mut msgs = 0;
    let mut crashes = 0;
    let mut wakes = 0;
    for s in schedule {
        match s {
            McStep::Input(SimInput::Command(_, Command::Multicast(..))) => msgs += 1,
            McStep::Input(SimInput::Net(NetOp::Crash(_))) => crashes += 1,
            McStep::Wake { .. } => wakes += 1,
            McStep::Deliver { .. } | McStep::Input(_) => {}
        }
    }
    (msgs, crashes, wakes)
}

/// Enumerates the transitions enabled at `cluster`, reached via `schedule`.
fn enabled_steps(cfg: &McConfig, cluster: &SimCluster, schedule: &[McStep]) -> Vec<McStep> {
    let (msgs, crashes, wakes) = used(schedule);
    let mut steps = Vec::new();
    if msgs < cfg.max_msgs {
        let from = (msgs % cfg.nodes) + 1;
        if !cluster.is_crashed(from) {
            let mid = MessageId(u64::from(msgs));
            let send = SimInput::multicast(from, cfg.send_group(msgs, from), mid);
            steps.push(McStep::Input(send));
        }
    }
    let pending = cluster.pending_events();
    for ev in &pending {
        if let PendingEvent::Deliver { src, dst, .. } = ev {
            steps.push(McStep::Deliver {
                src: src.0,
                dst: dst.0,
            });
        }
    }
    if wakes < cfg.max_wakes {
        // Deadline-ordered wake reduction (see module docs).
        let min_at = pending
            .iter()
            .filter_map(|ev| match ev {
                PendingEvent::Wake { at, .. } => Some(*at),
                PendingEvent::Deliver { .. } => None,
            })
            .min();
        if let Some(min_at) = min_at {
            for ev in &pending {
                if let PendingEvent::Wake { node, at } = ev {
                    if *at == min_at {
                        steps.push(McStep::Wake { p: node.0 });
                    }
                }
            }
        }
    }
    if crashes < cfg.max_crashes {
        for p in 1..=cfg.nodes {
            if !cluster.is_crashed(p) {
                steps.push(McStep::Input(NetOp::Crash(ProcessId(p)).into()));
            }
        }
    }
    steps
}

/// Checks one state; `Some` = first violation.
fn check_state(cluster: &SimCluster, opts: &CheckOptions) -> Option<McViolation> {
    if let Err(e) = cluster.check_invariants() {
        return Some(McViolation::Invariant(e));
    }
    let v = check_all(&cluster.history(), opts);
    if v.is_empty() {
        None
    } else {
        Some(McViolation::Property(v))
    }
}

/// A level of the depth-first stack: a state and its untaken steps.
struct Frame {
    cluster: SimCluster,
    untried: std::vec::IntoIter<McStep>,
}

/// Explores depth-first, taking each step on a fork of its parent's
/// cluster. `Err(())` = budget exhausted; `Ok(Some(schedule))` = the
/// schedule to the first violating state.
fn dfs(
    cfg: &McConfig,
    opts: &CheckOptions,
    deadline: Option<WallInstant>,
    report: &mut McReport,
) -> Result<Option<Vec<McStep>>, ()> {
    let depth_limit = cfg.effective_depth();
    // digest → shallowest depth expanded at. A revisit at a strictly
    // shallower depth re-expands (its subtree reaches further under the
    // depth bound); at equal or deeper depth it dedups.
    let mut visited: HashMap<u64, usize> = HashMap::new();
    // A heap stack: no depth the budgets allow overflows the thread's.
    // `path` leads to the newest reached state: one step per frame above
    // the root, plus the step to `reached` while it is set.
    let mut stack: Vec<Frame> = Vec::new();
    let mut path: Vec<McStep> = Vec::new();
    let mut reached = Some(cfg.plan(&[]).run_mc_schedule());
    loop {
        let Some(cluster) = reached.take() else {
            let Some(frame) = stack.last_mut() else {
                return Ok(None);
            };
            if let Some(step) = frame.untried.next() {
                let mut child = frame.cluster.clone();
                path.push(step.clone());
                step.apply(&mut child);
                reached = Some(child);
            } else {
                stack.pop();
                path.pop();
            }
            continue;
        };
        if deadline.is_some_and(|d| WallInstant::now() >= d) {
            return Err(()); // budget exhausted
        }
        let depth = path.len();
        let shallowest = visited.entry(cluster.state_digest()).or_insert(usize::MAX);
        if *shallowest <= depth {
            report.deduped += 1;
        } else {
            *shallowest = depth;
            report.explored += 1;
            if let Some(v) = check_state(&cluster, opts) {
                report.violation = Some(v);
                return Ok(Some(path));
            }
            if depth < depth_limit {
                let untried = enabled_steps(cfg, &cluster, &path).into_iter();
                stack.push(Frame { cluster, untried });
                continue;
            }
        }
        path.pop();
    }
}

/// Exhaustively explores the bounded scope. Stops at the first violation,
/// shrinks it, and returns the full accounting either way.
#[must_use]
pub fn explore(cfg: &McConfig) -> McReport {
    let start = WallInstant::now();
    let deadline = cfg.budget.map(|b| start + b);
    let opts = CheckOptions {
        liveness: false,
        ..CheckOptions::default()
    };
    let mut report = McReport::default();
    let outcome = dfs(cfg, &opts, deadline, &mut report);
    report.elapsed = start.elapsed();
    match outcome {
        Err(()) => {} // budget exhausted: incomplete, no violation
        Ok(None) => report.complete = true,
        Ok(Some(schedule)) => {
            let plan = cfg.plan(&schedule);
            // Shrink only when the failure survives a plain replay —
            // checker violations and engine panics do; an invariant-only
            // failure might not (audit is debug-asserted inside the run).
            let replay_fails = !matches!(plan.try_run_and_check(&opts), Ok(v) if v.is_empty());
            if replay_fails && !plan.mc_steps.is_empty() {
                let shrunk = shrink(&plan, &opts, 2_000, 1);
                report.shrink_runs = shrunk.runs;
                report.counterexample = Some(shrunk.plan);
            } else {
                report.counterexample = Some(plan);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::history_hash;

    #[test]
    fn tiny_scope_exhausts_cleanly() {
        let mut cfg = McConfig::new(2);
        cfg.max_msgs = 1;
        cfg.max_crashes = 0;
        cfg.max_wakes = 1;
        let r = explore(&cfg);
        assert!(r.complete, "{r:?}");
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(r.explored > 1);
    }

    #[test]
    fn dedup_prunes_commuting_interleavings() {
        // Same-instant wakes on different nodes commute (delivers do not:
        // virtual time is part of the state, and delivering 1→2 before 1→3
        // stamps p2 with an earlier receive time than the other order).
        // The visited set must collapse the wake diamond.
        let mut cfg = McConfig::new(3);
        cfg.max_msgs = 0;
        cfg.max_crashes = 0;
        cfg.max_wakes = 2;
        let r = explore(&cfg);
        assert!(r.complete, "{r:?}");
        assert!(r.deduped > 0, "commuting wakes must dedup: {r:?}");
        // The state partition is pinned: a digest that merges or splits
        // states moves these counts.
        assert_eq!((r.explored, r.deduped), (52, 30), "{r:?}");
    }

    #[test]
    fn replay_digest_is_stable_across_runs() {
        // Cluster-level replay determinism: same schedule, same digest and
        // same observable history, run twice from scratch.
        let cfg = McConfig::new(3);
        let schedule = vec![
            McStep::Input(SimInput::multicast(1, GroupId(1), MessageId(0))),
            McStep::Deliver { src: 1, dst: 2 },
            McStep::Deliver { src: 1, dst: 3 },
        ];
        let plan = cfg.plan(&schedule);
        let a = plan.run_mc_schedule();
        let b = plan.run_mc_schedule();
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(history_hash(&a.history()), history_hash(&b.history()));
    }

    /// False-suspicion scope: P1's multicast stays undelivered on the
    /// P1→P2 link while timer wakes push P2 past Ω, so P2 suspects the
    /// still-live P1; P3 (which did deliver the message) refutes with the
    /// retained copy piggybacked, and the original then arrives late on
    /// the direct link — the receive-vector watermark must drop that
    /// second copy. Used both ways: without the fault feature the scope
    /// must exhaust green; with `break-rv-dedup` (the PR 3
    /// duplicate-delivery bug reintroduced) the explorer must find a
    /// violating interleaving. Short timers keep suspicion reachable on
    /// the second wake round (Ω must exceed ω; no crash — a crashed
    /// suspect is confirmed, never refuted).
    fn suspicion_scope() -> McConfig {
        let mut cfg = McConfig::new(3);
        cfg.max_msgs = 1;
        cfg.max_crashes = 0;
        cfg.max_wakes = 4;
        cfg.omega_us = 1_000;
        cfg.big_omega_us = 1_100;
        cfg
    }

    #[cfg(not(feature = "break-rv-dedup"))]
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "explores ~600k states; run with --release (CI's mc job does)"
    )]
    fn suspicion_scope_exhausts_green() {
        let r = explore(&suspicion_scope());
        assert!(r.complete, "{r:?}");
        assert!(r.violation.is_none(), "{:?}", r.violation);
    }

    #[cfg(feature = "break-rv-dedup")]
    #[test]
    fn broken_rv_dedup_yields_shrunk_replayable_counterexample() {
        use crate::checker::check_all;

        let r = explore(&suspicion_scope());
        let Some(McViolation::Property(vs)) = &r.violation else {
            panic!("expected a checker violation, got {:?}", r.violation);
        };
        assert!(
            vs.iter()
                .any(|v| matches!(v, crate::checker::Violation::DuplicateDelivery { .. })),
            "expected a duplicate delivery, got {vs:?}"
        );
        let cex = r.counterexample.expect("counterexample plan");
        assert!(!cex.mc_steps.is_empty());
        // Corpus-format round trip: serialise, re-parse, re-run — the
        // shrunk schedule must still fail, exactly as `newtop-exp chaos
        // --replay` would observe it.
        let hash = history_hash(&cex.run().history());
        let script = cex.to_script(Some(hash));
        let (parsed, expect) = crate::chaos::ChaosPlan::parse_script(&script).expect("parses");
        assert_eq!(parsed, cex);
        assert_eq!(expect, Some(hash));
        let opts = parsed.check_options();
        assert!(!opts.liveness);
        let h = parsed.run().history();
        assert_eq!(history_hash(&h), hash, "replay is bit-identical");
        assert!(
            !check_all(&h, &opts).is_empty(),
            "shrunk schedule still violates"
        );
    }

    /// The nested scope: group 1's traffic and ω nulls stand in for
    /// group 2's, under every interleaving with a crash, in both ordering
    /// variants. (CI's mc job runs the two-wake version.)
    #[test]
    fn nested_scope_exhausts_green() {
        // Explored/deduped pins per variant, as in the dedup test above.
        for (mode, pin) in [
            (OrderMode::Symmetric, (4488, 5308)),
            (OrderMode::Asymmetric, (5975, 6810)),
        ] {
            let mut cfg = McConfig::new(3);
            cfg.nested = true;
            cfg.mode = mode;
            cfg.max_msgs = 2;
            cfg.max_crashes = 1;
            cfg.max_wakes = 1;
            let plan = cfg.plan(&[]);
            assert_eq!(plan.topology.len(), 2);
            assert_eq!(plan.topology[1].members, vec![1, 2]);
            assert_eq!(cfg.send_group(1, 2), GroupId(2));
            assert_eq!(cfg.send_group(2, 3), GroupId(1));
            let r = explore(&cfg);
            assert!(r.complete, "{mode:?}: {r:?}");
            assert!(r.violation.is_none(), "{mode:?}: {:?}", r.violation);
            assert_eq!((r.explored, r.deduped), pin, "{mode:?}: {r:?}");
        }
    }

    #[test]
    fn wall_clock_budget_reports_incomplete() {
        let mut cfg = McConfig::new(4);
        cfg.max_msgs = 4;
        cfg.max_wakes = 4;
        cfg.budget = Some(Duration::ZERO);
        let r = explore(&cfg);
        assert!(!r.complete);
        assert!(r.violation.is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 16,
            ..Default::default()
        })]
        /// Random-walk schedules (always through enabled steps, so every
        /// plan is fireable end to end) replay to the same canonical digest
        /// and observable history — on a cluster forked and stepped one
        /// step at a time, as the explorer reaches states; from scratch;
        /// and on concurrent workers sharing the plan, mirroring the
        /// sweep's `--jobs` fan-out. Forked exploration, dedup and
        /// `expect-hash` replay gating all stand on this.
        #[test]
        fn random_schedules_replay_to_identical_digests(
            nodes in 2u32..=4u32,
            picks in proptest::collection::vec(0usize..64, 0usize..8),
        ) {
            let mut cfg = McConfig::new(nodes);
            cfg.max_msgs = 2;
            cfg.max_crashes = 1;
            cfg.max_wakes = 1;
            let fingerprint = |c: &SimCluster| (c.state_digest(), history_hash(&c.history()));
            let mut schedule: Vec<McStep> = Vec::new();
            let mut walked = cfg.plan(&schedule).run_mc_schedule();
            for &pick in &picks {
                let steps = enabled_steps(&cfg, &walked, &schedule);
                if steps.is_empty() {
                    break;
                }
                let step = steps[pick % steps.len()].clone();
                let mut fork = walked.clone();
                schedule.push(step.clone());
                step.apply(&mut fork);
                proptest::prop_assert_eq!(
                    fingerprint(&fork),
                    fingerprint(&cfg.plan(&schedule).run_mc_schedule())
                );
                walked = fork;
            }
            let plan = cfg.plan(&schedule);
            let baseline = fingerprint(&plan.run_mc_schedule());
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(|| {
                        proptest::prop_assert_eq!(
                            fingerprint(&plan.run_mc_schedule()),
                            baseline
                        );
                    });
                }
            });
        }
    }
}
