//! `sim_churn`: seeded crash episodes on the deterministic simulator.
//!
//! Each episode has 16 processes in four overlapping groups — a
//! symmetric group of all 16, a symmetric group of 6 and two asymmetric
//! groups of 6, members drawn by the seed — sparse open-loop traffic in
//! virtual time, and 2 or 3 crashes mid-traffic (alternating by episode),
//! one of them an asymmetric group's sequencer. It runs until every
//! survivor has installed the views that exclude the crashed members and
//! has drained, plus a short tail. The group shapes, modes and crash
//! counts are fixed so that a pass of [`EPISODES`] episodes does the same
//! kind of work whatever the seed; the seed moves members, times and
//! victims.
//!
//! Links have a fixed 1 ms delay; ω = 5 ms, Ω = 60 ms. Everything an
//! episode does is a function of its seed, so counts and virtual times
//! repeat exactly; wall-clock throughput is the only measured time.
//!
//! The benchmark owns the simulated node ([`BenchNode`]): it wraps
//! [`newtop_core::Process`], records the history the checker reads, and
//! classes every envelope before handing it to the engine, which is
//! what the traced run's per-class timing and the wire census hang on.

use crate::metrics::{self, median, put, quantile_sorted, Outcome, Values, CLASSES};
use crate::trace;
use bytes::Bytes;
use newtop_core::{Action, Process, ProtocolEvent};
use newtop_harness::{check_all, history_hash, CheckOptions, History, HistoryEvent, MessageId};
use newtop_sim::{LatencyModel, NetConfig, Outbox, Sim, SimNode};
use newtop_types::{
    wire, Envelope, GroupConfig, GroupId, Instant, MessageBody, OrderMode, ProcessConfig,
    ProcessId, Span,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Processes per episode.
pub const N: u32 = 16;
/// Episodes per pass.
pub const EPISODES: u64 = 16;
/// Application multicasts per episode.
pub const SENDS: usize = 400;
const OMEGA: Span = Span::from_millis(5);
const BIG_OMEGA: Span = Span::from_millis(60);
const LINK_DELAY: Span = Span::from_millis(1);
/// Traffic runs well past the crashes (40–120 ms), so the multicasts a
/// crash holds up until the exclusion installs are a minority and the
/// median latency is that of an undisturbed group.
const TRAFFIC_END_US: u64 = 400_000;
const STEP: Span = Span::from_millis(5);
const TAIL: Span = Span::from_millis(20);
const HORIZON_US: u64 = 3_000_000;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;

/// One scheduled multicast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendPlan {
    /// Virtual send time, µs.
    pub at_us: u64,
    /// Sender.
    pub from: u32,
    /// Group.
    pub group: GroupId,
    /// Message id (unique in the episode).
    pub mid: u64,
}

/// Everything one episode does, drawn from its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Network seed.
    pub seed: u64,
    /// Groups: id, mode, members.
    pub groups: Vec<(GroupId, OrderMode, Vec<u32>)>,
    /// Traffic, by time.
    pub sends: Vec<SendPlan>,
    /// Crashes: virtual time (µs) and victim.
    pub crashes: Vec<(u64, u32)>,
}

fn pick(rng: &mut StdRng, count: usize) -> Vec<u32> {
    let mut pool: Vec<u32> = (1..=N).collect();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let i = rng.gen_range(0..pool.len());
        out.push(pool.swap_remove(i));
    }
    out.sort_unstable();
    out
}

/// The plan of an episode with `crashes` crashes, drawn from `seed`.
#[must_use]
pub fn plan(seed: u64, crashes: usize) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed);
    let groups = vec![
        (GroupId(1), OrderMode::Symmetric, (1..=N).collect()),
        (GroupId(2), OrderMode::Symmetric, pick(&mut rng, 6)),
        (GroupId(3), OrderMode::Asymmetric, pick(&mut rng, 6)),
        (GroupId(4), OrderMode::Asymmetric, pick(&mut rng, 6)),
    ];
    // An asymmetric group's sequencer (its lowest member) always dies;
    // the other victims are drawn from everyone.
    let mut victims = vec![groups[2].2[0]];
    while victims.len() < crashes {
        let v = rng.gen_range(1..=N);
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    let crashes: Vec<(u64, u32)> = victims
        .iter()
        .map(|&v| (rng.gen_range(40_000..120_000u64), v))
        .collect();
    let crash_at = |p: u32| crashes.iter().find(|c| c.1 == p).map(|c| c.0);
    let mut sends = Vec::with_capacity(SENDS);
    while sends.len() < SENDS {
        // Half the traffic goes to the group of everyone, so its
        // deliveries are about three quarters of the total and the median
        // latency sits inside that group's distribution, not on the edge
        // between two groups' modes.
        let gi = if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(1..groups.len())
        };
        let (group, _, members) = &groups[gi];
        let from = members[rng.gen_range(0..members.len())];
        let at_us = rng.gen_range(1_000..TRAFFIC_END_US);
        // Victims talk until shortly before they crash.
        if crash_at(from).is_some_and(|c| at_us + 1_000 >= c) {
            continue;
        }
        sends.push(SendPlan {
            at_us,
            from,
            group: *group,
            mid: sends.len() as u64,
        });
    }
    sends.sort_by_key(|s| (s.at_us, s.from, s.mid));
    Plan {
        seed,
        groups,
        sends,
        crashes,
    }
}

/// The seed of episode `e` of a workload seed (splitmix64).
#[must_use]
pub fn episode_seed(seed: u64, e: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(e.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn class_of(env: &Envelope) -> usize {
    match env {
        Envelope::Group(m) => match m.body {
            MessageBody::App(_) => 0,
            MessageBody::Null => 1,
            MessageBody::SeqRequest { .. } => 2,
            MessageBody::Relay { .. } => 3,
            MessageBody::Suspect(_) => 4,
            MessageBody::Refute { .. } => 5,
            MessageBody::Confirmed { .. } => 6,
            MessageBody::ViewCut { .. } => 7,
            MessageBody::StartGroup | MessageBody::Depart => 8,
        },
        Envelope::Control(_) => 8,
    }
}

const HANDLE_SPANS: [&str; 9] = [
    "core.handle.app",
    "core.handle.null",
    "core.handle.seq_request",
    "core.handle.relay",
    "core.handle.suspect",
    "core.handle.refute",
    "core.handle.confirmed",
    "core.handle.view_cut",
    "core.handle.control",
];

/// Envelopes and encoded bytes sent, per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Census {
    /// Envelopes per class (indexed like [`CLASSES`]).
    pub msgs: [u64; 9],
    /// Encoded bytes per class.
    pub bytes: [u64; 9],
}

impl Census {
    fn add(&mut self, other: &Census) {
        for c in 0..9 {
            self.msgs[c] += other.msgs[c];
            self.bytes[c] += other.bytes[c];
        }
    }
}

/// The benchmark's simulated node: the engine plus its history log.
pub struct BenchNode {
    process: Process,
    log: Vec<HistoryEvent>,
    census: Option<Census>,
    traced: bool,
    refused: u64,
}

impl BenchNode {
    fn new(id: ProcessId, census: bool, traced: bool) -> BenchNode {
        BenchNode {
            process: Process::new(id, ProcessConfig::new()),
            log: Vec::new(),
            census: census.then(Census::default),
            traced,
            refused: 0,
        }
    }

    fn absorb(&mut self, now: Instant, actions: Vec<Action>, out: &mut Outbox<Envelope>) {
        for a in actions {
            match a {
                Action::Send { to, envelope } => {
                    if let Some(c) = self.census.as_mut() {
                        let k = class_of(&envelope);
                        c.msgs[k] += 1;
                        c.bytes[k] += wire::encoded_len(&envelope) as u64;
                    }
                    out.send(to, envelope);
                }
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
                Action::FormationFailed { .. } => {}
                Action::Event(event) => self.log.push(HistoryEvent::Protocol { at: now, event }),
            }
        }
    }

    fn multicast(&mut self, now: Instant, group: GroupId, mid: u64, out: &mut Outbox<Envelope>) {
        let payload: Bytes = MessageId(mid).to_payload();
        if self.traced {
            trace::enter("core.multicast", mid);
        }
        let result = self.process.multicast(now, group, payload);
        if self.traced {
            trace::exit();
        }
        match result {
            Ok(actions) => {
                self.log.push(HistoryEvent::Sent {
                    at: now,
                    group,
                    mid: MessageId(mid),
                });
                self.absorb(now, actions, out);
            }
            Err(_) => self.refused += 1,
        }
    }
}

impl SimNode for BenchNode {
    type Msg = Envelope;

    fn on_message(
        &mut self,
        now: Instant,
        from: ProcessId,
        msg: Envelope,
        out: &mut Outbox<Envelope>,
    ) {
        let actions = if self.traced {
            trace::enter(HANDLE_SPANS[class_of(&msg)], 0);
            let a = self.process.handle(now, from, msg);
            trace::exit();
            a
        } else {
            self.process.handle(now, from, msg)
        };
        self.absorb(now, actions, out);
    }

    fn on_tick(&mut self, now: Instant, out: &mut Outbox<Envelope>) {
        if self.traced {
            trace::enter("core.tick", 0);
        }
        let actions = self.process.tick(now);
        if self.traced {
            trace::exit();
        }
        self.absorb(now, actions, out);
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.process.next_deadline()
    }
}

/// What one episode run produced.
pub struct EpisodeRun {
    /// The recorded history.
    pub history: History,
    /// `(member deliveries, envelopes the network carried, final
    /// virtual time µs)` — equal on every run of one plan.
    pub fingerprint: (u64, u64, u64),
    /// Wire census (when requested).
    pub census: Census,
    /// Multicasts the engine refused.
    pub refused: u64,
}

fn settled(sim: &Sim<BenchNode>, plan: &Plan) -> bool {
    let victims: BTreeSet<u32> = plan.crashes.iter().map(|c| c.1).collect();
    for (id, node) in sim.nodes() {
        if victims.contains(&id.0) {
            continue;
        }
        let p = &node.process;
        if p.deferred_len() > 0 {
            return false;
        }
        for (g, _, members) in &plan.groups {
            if !members.contains(&id.0) {
                continue;
            }
            let Some(view) = p.view(*g) else {
                return false;
            };
            if victims.iter().any(|v| view.contains(ProcessId(*v)))
                || p.buffered(*g) > 0
                || p.outstanding(*g) > 0
            {
                return false;
            }
        }
    }
    true
}

/// Builds, runs and settles one episode.
///
/// # Errors
///
/// The episode did not settle within the horizon.
pub fn run_episode(plan: &Plan, census: bool, traced: bool) -> Result<EpisodeRun, String> {
    let latency = LatencyModel::Fixed(LINK_DELAY);
    let mut sim: Sim<BenchNode> = Sim::new(NetConfig::new(plan.seed).with_latency(latency));
    for i in 1..=N {
        sim.add_node(ProcessId(i), BenchNode::new(ProcessId(i), census, traced));
    }
    for (g, mode, members) in &plan.groups {
        let set: BTreeSet<ProcessId> = members.iter().map(|m| ProcessId(*m)).collect();
        let cfg = GroupConfig::new(*mode)
            .with_omega(OMEGA)
            .with_big_omega(BIG_OMEGA);
        for m in &set {
            let node = sim.node_mut(*m).expect("member exists");
            node.process
                .bootstrap_group(Instant::ZERO, *g, &set, cfg)
                .expect("bootstrap");
            let view = node.process.view(*g).expect("installed").clone();
            node.log.push(HistoryEvent::InitialView { group: *g, view });
            sim.poke(*m);
        }
    }
    for s in &plan.sends {
        let SendPlan {
            at_us, group, mid, ..
        } = *s;
        let at = Instant::from_micros(at_us);
        sim.schedule_call(at, ProcessId(s.from), move |n: &mut BenchNode, out| {
            n.multicast(at, group, mid, out);
        });
    }
    for &(at_us, victim) in &plan.crashes {
        sim.schedule_crash(Instant::from_micros(at_us), ProcessId(victim));
    }
    let last = plan
        .sends
        .iter()
        .map(|s| s.at_us)
        .chain(plan.crashes.iter().map(|c| c.0))
        .max()
        .unwrap_or(0);
    let run_until = |sim: &mut Sim<BenchNode>, t: Instant| {
        if traced {
            trace::enter("sim.run_until", 0);
        }
        sim.run_until(t);
        if traced {
            trace::exit();
        }
    };
    run_until(&mut sim, Instant::from_micros(last));
    while !settled(&sim, plan) {
        if sim.now().as_micros() > HORIZON_US {
            return Err(format!("episode {:x} did not settle", plan.seed));
        }
        let t = sim.now() + STEP;
        run_until(&mut sim, t);
    }
    let t = sim.now() + TAIL;
    run_until(&mut sim, t);

    let mut history = History::default();
    let mut total = Census::default();
    let mut refused = 0;
    let ids: Vec<ProcessId> = (1..=N).map(ProcessId).collect();
    for id in ids {
        let crashed = sim.crashed(id);
        let node = sim.node_mut(id).expect("node");
        if let Some(c) = &node.census {
            total.add(c);
        }
        refused += node.refused;
        history.events.insert(id, std::mem::take(&mut node.log));
        if crashed {
            history.crashed.push(id);
        }
    }
    let deliveries = history
        .events
        .values()
        .flatten()
        .filter(|e| matches!(e, HistoryEvent::Delivered { .. }))
        .count() as u64;
    Ok(EpisodeRun {
        history,
        fingerprint: (deliveries, sim.stats().sent, sim.now().as_micros()),
        census: total,
        refused,
    })
}

/// Deterministic figures of one pass, from its histories.
#[derive(Debug, Clone, PartialEq)]
pub struct PassFigures {
    /// Member deliveries.
    pub deliveries: u64,
    /// Multicast → member delivery, virtual µs, sorted.
    pub latencies: Vec<u64>,
    /// Per crash: until every survivor of the victim's groups installed
    /// a view without it, virtual µs.
    pub recovery: Vec<u64>,
    /// Per crash, group and survivor: until that survivor's install, µs.
    pub exclusion: Vec<u64>,
    /// View changes installed.
    pub view_changes: u64,
    /// Suspicions refuted.
    pub refutes: u64,
    /// Wire census.
    pub census: Census,
    /// `history_hash` of each episode.
    pub hashes: Vec<u64>,
    /// Fingerprint of each episode.
    pub fingerprints: Vec<(u64, u64, u64)>,
}

fn figures(plans: &[Plan], runs: &[EpisodeRun]) -> PassFigures {
    let mut f = PassFigures {
        deliveries: 0,
        latencies: Vec::new(),
        recovery: Vec::new(),
        exclusion: Vec::new(),
        view_changes: 0,
        refutes: 0,
        census: Census::default(),
        hashes: Vec::new(),
        fingerprints: Vec::new(),
    };
    for (plan, run) in plans.iter().zip(runs) {
        let h = &run.history;
        f.census.add(&run.census);
        f.deliveries += run.fingerprint.0;
        f.fingerprints.push(run.fingerprint);
        f.hashes.push(history_hash(h));
        let sent_at: BTreeMap<u64, u64> = plan.sends.iter().map(|s| (s.mid, s.at_us)).collect();
        for events in h.events.values() {
            for e in events {
                match e {
                    HistoryEvent::Delivered {
                        at, mid: Some(mid), ..
                    } => {
                        if let Some(&t0) = sent_at.get(&mid.0) {
                            f.latencies.push(at.as_micros().saturating_sub(t0));
                        }
                    }
                    HistoryEvent::ViewChange { .. } => f.view_changes += 1,
                    HistoryEvent::Protocol {
                        event: ProtocolEvent::Refuted { .. },
                        ..
                    } => f.refutes += 1,
                    _ => {}
                }
            }
        }
        let victims: BTreeSet<u32> = plan.crashes.iter().map(|c| c.1).collect();
        for &(t_crash, v) in &plan.crashes {
            let mut worst = 0u64;
            for (g, _, members) in plan.groups.iter().filter(|(_, _, m)| m.contains(&v)) {
                for s in members.iter().filter(|s| !victims.contains(s)) {
                    let installed = h.events[&ProcessId(*s)].iter().find_map(|e| match e {
                        HistoryEvent::ViewChange {
                            at, group, view, ..
                        } if group == g && !view.contains(ProcessId(v)) => Some(at.as_micros()),
                        _ => None,
                    });
                    // The settle loop guarantees every survivor installed it.
                    let d = installed.unwrap_or(HORIZON_US).saturating_sub(t_crash);
                    f.exclusion.push(d);
                    worst = worst.max(d);
                }
            }
            f.recovery.push(worst);
        }
    }
    f.latencies.sort_unstable();
    f.exclusion.sort_unstable();
    f.recovery.sort_unstable();
    f
}

/// Runs one full pass (every episode); `census` adds the wire census.
///
/// # Errors
///
/// An episode that did not settle.
pub fn run_pass(plans: &[Plan], census: bool, traced: bool) -> Result<Vec<EpisodeRun>, String> {
    plans
        .iter()
        .map(|p| run_episode(p, census, traced))
        .collect()
}

/// The episode plans of a workload seed.
#[must_use]
pub fn plans(seed: u64) -> Vec<Plan> {
    (0..EPISODES)
        .map(|e| plan(episode_seed(seed, e), 2 + (e % 2) as usize))
        .collect()
}

struct Phase {
    delivered_per_s: f64,
    passes: u64,
    attempted: u64,
    refused: u64,
    wall_ns: u64,
}

/// Re-runs whole passes until `seconds` have elapsed, checking that every
/// episode reproduces its reference fingerprint. Throughput is the
/// simulator's CPU throughput: one pass's deliveries over the median CPU
/// time this thread spent on a pass (wall time where the kernel does not
/// report it), so neither time stolen by a busy machine nor one slow pass
/// moves it.
fn measure(
    plans: &[Plan],
    reference: &PassFigures,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let start = std::time::Instant::now();
    let mut pass_secs = Vec::new();
    let mut passes = 0u64;
    let mut refused = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let pass_start = std::time::Instant::now();
        let cpu_start = metrics::thread_cpu_ns();
        for (e, plan) in plans.iter().enumerate() {
            let run = run_episode(plan, false, traced)?;
            if run.fingerprint != reference.fingerprints[e] {
                return Err(format!(
                    "episode {e} replayed to {:?}, reference {:?}",
                    run.fingerprint, reference.fingerprints[e]
                ));
            }
            refused += run.refused;
        }
        let secs = match (cpu_start, metrics::thread_cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e9,
            _ => pass_start.elapsed().as_secs_f64(),
        };
        pass_secs.push(secs);
        passes += 1;
    }
    let wall = start.elapsed();
    Ok(Phase {
        delivered_per_s: reference.deliveries as f64 / median(&pass_secs),
        passes,
        attempted: passes * plans.len() as u64 * SENDS as u64,
        refused,
        wall_ns: wall.as_nanos() as u64,
    })
}

/// Set-up: draw the plans, then run the reference pass (which builds and
/// bootstraps every episode's cluster) with the wire census on.
fn set_up(seed: u64) -> Result<(Vec<Plan>, Vec<EpisodeRun>, f64), String> {
    let t0 = std::time::Instant::now();
    let plans = plans(seed);
    let runs = run_pass(&plans, true, false)?;
    Ok((plans, runs, t0.elapsed().as_secs_f64()))
}

/// Runs `sim_churn`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut setups = Vec::new();
    let mut reference: Option<(Vec<Plan>, Vec<EpisodeRun>)> = None;
    let mut fingerprints = None;
    for _ in 0..SETUPS {
        let (plans, runs, secs) = match set_up(seed) {
            Ok(x) => x,
            Err(e) => return crate::host::rejected(&e, 1),
        };
        eprintln!("  set-up: {secs:.3} s");
        setups.push(secs);
        let fp: Vec<_> = runs.iter().map(|r| r.fingerprint).collect();
        if fingerprints.get_or_insert_with(|| fp.clone()) != &fp {
            return crate::host::rejected("set-ups of one seed disagree", 1);
        }
        reference = Some((plans, runs));
    }
    let (plans, runs) = reference.expect("reference pass");
    let fig = figures(&plans, &runs);
    let plain = match measure(&plans, &fig, seconds, false) {
        Ok(m) => m,
        Err(e) => return crate::host::rejected(&e, 1),
    };
    let mut values = Values::new();
    let mut attempted = plain.attempted;
    let mut failed = plain.refused;
    if traced {
        trace::install();
        let m = match measure(&plans, &fig, seconds, true) {
            Ok(m) => m,
            Err(e) => return crate::host::rejected(&e, attempted),
        };
        let tracer = trace::take().expect("installed tracer");
        attempted += m.attempted;
        failed += m.refused;
        let per_pass_us = |ns: u64| ns as f64 / 1000.0 / m.passes as f64;
        let per_pass = |n: u64| n as f64 / m.passes as f64;
        put(
            &mut values,
            "trace.overhead_share",
            1.0 - m.delivered_per_s / plain.delivered_per_s,
        );
        for (name, key) in [
            ("core.multicast", "core.multicast"),
            ("core.tick", "core.tick"),
        ] {
            let a = tracer.agg(name);
            put(&mut values, &format!("{key}.calls"), per_pass(a.calls));
            put(
                &mut values,
                &format!("{key}.self_us"),
                per_pass_us(a.self_ns),
            );
        }
        for (class, span) in CLASSES.iter().zip(HANDLE_SPANS) {
            let a = tracer.agg(span);
            put(
                &mut values,
                &format!("core.handle.{class}.calls"),
                per_pass(a.calls),
            );
            put(
                &mut values,
                &format!("core.handle.{class}.self_us"),
                per_pass_us(a.self_ns),
            );
        }
        put(
            &mut values,
            "sim.self_us",
            per_pass_us(tracer.agg("sim.run_until").self_ns),
        );
        let accounted: u64 = tracer.aggs().values().map(|a| a.self_ns).sum();
        put(
            &mut values,
            "trace.accounted_share",
            accounted as f64 / m.wall_ns as f64,
        );
        crate::write_spans(&tracer);
    }
    // The oracle, outside the measured phases.
    let t0 = std::time::Instant::now();
    for (plan, run) in plans.iter().zip(&runs) {
        let violations = check_all(&run.history, &CheckOptions::default());
        if let Some(v) = violations.first() {
            return crate::host::rejected(
                &format!(
                    "episode {:x}: {} violations, first {v:?}",
                    plan.seed,
                    violations.len()
                ),
                attempted,
            );
        }
    }
    let checker_us = t0.elapsed().as_secs_f64() * 1e6;
    for (e, hash) in fig.hashes.iter().enumerate() {
        eprintln!(
            "sim_churn episode {e}: seed {:x} history_hash {hash:016x}",
            plans[e].seed
        );
    }
    let deliveries = fig.deliveries.max(1) as f64;
    let msgs: u64 = fig.census.msgs.iter().sum();
    let bytes: u64 = fig.census.bytes.iter().sum();
    if traced {
        put(&mut values, "lat.samples", fig.latencies.len() as f64);
        put(
            &mut values,
            "lat.p99_plain_us",
            quantile_sorted(&fig.latencies, 0.99),
        );
        put(
            &mut values,
            "gate.failed_ratio",
            failed as f64 / attempted.max(1) as f64,
        );
        put(&mut values, "checker.us", checker_us);
        put(
            &mut values,
            "membership.recovery_ms",
            quantile_sorted(&fig.recovery, 0.5) / 1000.0,
        );
        put(
            &mut values,
            "membership.exclusion_ms.p50",
            quantile_sorted(&fig.exclusion, 0.5) / 1000.0,
        );
        put(
            &mut values,
            "membership.exclusion_ms.max",
            quantile_sorted(&fig.exclusion, 1.0) / 1000.0,
        );
        put(
            &mut values,
            "membership.view_changes",
            fig.view_changes as f64,
        );
        put(&mut values, "membership.refutes", fig.refutes as f64);
        for (c, class) in CLASSES.iter().enumerate() {
            put(
                &mut values,
                &format!("wire.{class}.msgs_per_delivery"),
                fig.census.msgs[c] as f64 / deliveries,
            );
            put(
                &mut values,
                &format!("wire.{class}.bytes_per_delivery"),
                fig.census.bytes[c] as f64 / deliveries,
            );
        }
    } else {
        put(&mut values, "setup_s", median(&setups));
        put(&mut values, "delivered_per_s", plain.delivered_per_s);
        put(
            &mut values,
            "lat_p50_us",
            quantile_sorted(&fig.latencies, 0.5),
        );
        put(
            &mut values,
            "lat_p99_us",
            quantile_sorted(&fig.latencies, 0.99),
        );
        put(
            &mut values,
            "wire_bytes_per_delivery",
            bytes as f64 / deliveries,
        );
        put(&mut values, "msgs_per_delivery", msgs as f64 / deliveries);
        put(
            &mut values,
            "peak_rss_mb",
            metrics::peak_rss_mb(None).unwrap_or(0.0),
        );
    }
    Outcome {
        correct: true,
        attempted,
        failed,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass_figures(seed: u64, episodes: usize) -> PassFigures {
        let plans: Vec<Plan> = plans(seed).into_iter().take(episodes).collect();
        let runs = run_pass(&plans, true, false).expect("episodes settle");
        for (p, r) in plans.iter().zip(&runs) {
            let v = check_all(&r.history, &CheckOptions::default());
            assert!(v.is_empty(), "episode {:x}: {:?}", p.seed, v.first());
        }
        figures(&plans, &runs)
    }

    /// Same seed: identical counts, virtual latencies, recovery times and
    /// history hashes. Different seed: a different schedule.
    #[test]
    fn one_seed_replays_exactly_and_seeds_differ() {
        let a = pass_figures(11, 2);
        let b = pass_figures(11, 2);
        assert_eq!(a, b);
        assert!(!a.recovery.is_empty() && a.recovery.iter().all(|&r| r > 0));
        assert!(a.deliveries > 0 && a.census.msgs[1] > 0, "nulls flow");
        assert!(
            a.census.msgs[2] > 0 && a.census.msgs[3] > 0,
            "sequencer traffic flows"
        );
        assert!(a.census.msgs[4] > 0, "crashes raise suspicions");
        assert_ne!(plans(11), plans(12));
        assert_ne!(a.hashes, pass_figures(12, 2).hashes);
    }

    #[test]
    fn plans_have_the_promised_shape() {
        for p in (0..4).flat_map(plans) {
            assert_eq!(p.groups[0].2.len(), N as usize, "one group of everyone");
            let modes: BTreeSet<bool> = p
                .groups
                .iter()
                .map(|g| g.1 == OrderMode::Asymmetric)
                .collect();
            assert_eq!(modes.len(), 2, "both ordering modes");
            assert!((2..=3).contains(&p.crashes.len()));
            assert_eq!(p.crashes[0].1, p.groups[2].2[0], "a sequencer crashes");
            assert_eq!(p.sends.len(), SENDS);
        }
    }
}
