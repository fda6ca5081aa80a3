//! The chaos fleet: seeded fault-schedule exploration.
//!
//! A [`ChaosScenario`] is a seed plus generation limits; [`ChaosScenario::plan`]
//! expands it deterministically into a fully materialised [`ChaosPlan`] — an
//! overlapping-group topology and one timed list of simulator inputs: a
//! traffic script (with optional time-silence windows past ω) mixed with
//! crashes, loss- and delay-mode partitions, heals, voluntary departures
//! (sender churn) and latency spikes. Running a plan replays
//! bit-identically: equal plans produce equal [`history_hash`]es.
//!
//! The four families are one generator reading two tables: a network
//! profile (LAN or WAN: timeouts, loss-heal shift, settle time, whether a
//! bandwidth topology is drawn) and a fault mix (classic or churn: which
//! fault kinds are drawn, how many, and the crash cap).
//!
//! When a seed fails the checker, [`shrink`] delta-debugs the timed list
//! down to a minimal failing plan, which serialises to a line-based replay
//! script ([`ChaosPlan::to_script`] / [`ChaosPlan::parse_script`])
//! suitable for committing under `tests/corpus/`. The parser validates as
//! it reads: every process id, group id, mid, timeout pair and WAN figure
//! a script names is checked, so a malformed script fails with its line
//! quoted instead of panicking the engine or being silently ignored.

use crate::checker::{check_all, CheckOptions, Violation};
use crate::cluster::{partition_spec, Command, SimCluster, SimInput};
use crate::history::{History, HistoryEvent, MessageId};
use newtop_sim::{
    LatencyModel, NetConfig, NetOp, PartitionMode, PartitionSpec, PendingEvent, WanConfig,
    WanLinkSpec,
};
use newtop_types::digest::DigestHasher;
use newtop_types::{GroupConfig, GroupId, Instant, OrderMode, ProcessId, Span};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::ops::RangeInclusive;

/// Uniform one-way latency over `[lo_us, hi_us]`.
const fn uniform_us(lo_us: u64, hi_us: u64) -> LatencyModel {
    LatencyModel::Uniform {
        lo: Span::from_micros(lo_us),
        hi: Span::from_micros(hi_us),
    }
}

/// The bounds of a latency model, µs (a fixed latency is its own bounds).
fn bounds_us(model: LatencyModel) -> (u64, u64) {
    match model {
        LatencyModel::Fixed(d) => (d.as_micros(), d.as_micros()),
        LatencyModel::Uniform { lo, hi } => (lo.as_micros(), hi.as_micros()),
    }
}

/// Baseline link latency every plan starts from (and returns to after a
/// spike). Part of the v1 replay format contract.
const BASE_LATENCY: LatencyModel = uniform_us(100, 3_000);

/// Traffic window: all application sends fall in `[1ms, 120ms)`.
const TRAFFIC_END_US: u64 = 120_000;

/// The network half of a family.
#[derive(Debug, Clone, Copy)]
struct NetProfile {
    /// Null-message deadline ω of every group, µs.
    omega_us: u64,
    /// Suspicion timeout Ω of every group, µs.
    big_omega_us: u64,
    /// Added to a healing loss cut's 150–300 ms delay draw.
    loss_heal_shift_us: u64,
    /// Virtual time run after the last scripted event, µs.
    settle_us: u64,
    /// Whether plans draw a multi-region bandwidth topology and its
    /// congestion windows ([`draw_wan`]).
    wan: bool,
}

/// LAN, then WAN; indexed by [`ChaosScenario::wan`].
///
/// WAN widens ω/Ω so trunk latency plus fair-share queueing raises
/// suspicion without crossing the exclusion threshold: congestion must not
/// look like a crash. Its loss-heal shift moves a healing loss cut out to
/// at least 2Ω + 50 ms; a cut that healed sooner would restore the network
/// before either side excluded the other, losing messages without the
/// partition ⇒ mutual exclusion the checker (rightly) insists on. The
/// widened Ω also needs a proportionally longer settle.
const NET_PROFILES: [NetProfile; 2] = [
    NetProfile {
        omega_us: 5_000,
        big_omega_us: 60_000,
        loss_heal_shift_us: 0,
        settle_us: 1_200_000,
        wan: false,
    },
    NetProfile {
        omega_us: 20_000,
        big_omega_us: 250_000,
        loss_heal_shift_us: 2 * 250_000 + 50_000 - 150_000,
        settle_us: 3_000_000,
        wan: true,
    },
];

/// One fault-schedule entry kind.
#[derive(Debug, Clone, Copy)]
enum FaultKind {
    Crash,
    Partition,
    Spike,
    Depart,
}

/// The fault half of a family.
#[derive(Debug, Clone, Copy)]
struct FaultMix {
    /// Each entry's kind is drawn uniformly from this list; a repeated
    /// kind carries proportionally more weight.
    kinds: &'static [FaultKind],
    /// Crash cap on top of the `n - 2` survivors every plan keeps.
    crash_cap: u32,
    /// The range the entry count is drawn from, given `max_faults`.
    fault_count: fn(u32) -> RangeInclusive<u32>,
}

/// Classic, then churn; indexed by [`ChaosScenario::churn`].
///
/// Churn draws crash/depart with 3× the weight of the network faults,
/// lets everyone but two crash, and is always faulty (churn plans without
/// churn tell us nothing).
const FAULT_MIXES: [FaultMix; 2] = {
    use FaultKind::{Crash, Depart, Partition, Spike};
    [
        FaultMix {
            kinds: &[Crash, Partition, Spike, Depart],
            crash_cap: 2,
            fault_count: |max| 0..=max,
        },
        FaultMix {
            kinds: &[
                Crash, Crash, Crash, Depart, Depart, Depart, Partition, Spike,
            ],
            crash_cap: u32::MAX,
            fault_count: |max| max.max(2) / 2..=max.max(2),
        },
    ]
};

/// A seeded chaos specification: the seed fully determines the generated
/// [`ChaosPlan`] within these limits.
#[derive(Debug, Clone, Copy)]
pub struct ChaosScenario {
    /// Master seed (drives topology, traffic and the fault schedule).
    pub seed: u64,
    /// Maximum number of processes (minimum 3 are always generated).
    pub max_n: u32,
    /// Maximum number of overlapping groups.
    pub max_groups: u32,
    /// Maximum number of tagged application sends.
    pub max_sends: u32,
    /// Maximum number of fault-schedule entries (a partition episode or a
    /// latency spike counts as one entry even though it expands to two
    /// scripted events).
    pub max_faults: u32,
    /// Selects the churn fault mix: crash/depart-heavy schedules with the
    /// crash budget raised to `n - 2`, modelling rapid membership churn
    /// rather than network chaos. `false` selects the classic mix.
    pub churn: bool,
    /// Selects the WAN network profile: a seeded multi-region topology with
    /// capped per-node uplinks, asymmetric inter-region trunks, a
    /// reorder-hold knob, and congestion-window faults (link/uplink
    /// capacity slashes that later restore). The wire stays exactly-once
    /// (see `draw_wan`). Timeouts and the settle horizon are widened so
    /// congestion manifests as suspicion, not false exclusion. `false`
    /// selects the LAN profile.
    pub wan: bool,
}

impl ChaosScenario {
    /// The default exploration envelope for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> ChaosScenario {
        ChaosScenario {
            seed,
            max_n: 7,
            max_groups: 3,
            max_sends: 28,
            max_faults: 4,
            churn: false,
            wan: false,
        }
    }

    /// The churn family for `seed`: a fault budget twice the default,
    /// drawn crash/depart-heavy, so most plans shrink the membership
    /// several times while traffic is still flowing.
    #[must_use]
    pub fn churn(seed: u64) -> ChaosScenario {
        ChaosScenario {
            max_faults: 8,
            churn: true,
            ..ChaosScenario::new(seed)
        }
    }

    /// The WAN/geo family for `seed`: classic traffic and faults replayed
    /// over a seeded multi-region bandwidth topology, plus congestion
    /// windows that temporarily slash a trunk's or uplink's capacity.
    #[must_use]
    pub fn wan(seed: u64) -> ChaosScenario {
        ChaosScenario {
            wan: true,
            ..ChaosScenario::new(seed)
        }
    }

    /// Deterministically expands the scenario into a concrete plan.
    #[must_use]
    pub fn plan(&self) -> ChaosPlan {
        let net = NET_PROFILES[usize::from(self.wan)];
        let mix = FAULT_MIXES[usize::from(self.churn)];
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = rng.gen_range(3..=self.max_n.max(3));
        let groups = rng.gen_range(1..=self.max_groups.max(1));
        let sends = rng.gen_range(self.max_sends.max(8) / 2..=self.max_sends.max(8));

        // Overlapping topology: P1 is in every group (exercises the merged
        // cross-group order), everyone else joins with probability 0.6.
        let mut topology = Vec::new();
        for gi in 0..groups {
            let mut members: Vec<u32> = vec![1];
            for p in 2..=n {
                if rng.gen_bool(0.6) {
                    members.push(p);
                }
            }
            if members.len() < 2 {
                members.push(2.min(n));
            }
            members.dedup();
            let mode = if rng.gen_bool(0.4) {
                OrderMode::Asymmetric
            } else {
                OrderMode::Symmetric
            };
            topology.push(GroupSpec {
                group: GroupId(gi + 1),
                mode,
                omega_us: net.omega_us,
                big_omega_us: net.big_omega_us,
                members,
            });
        }

        // Time-silence stress: with probability 1/2 a quiet window several ω
        // long is carved out of the traffic script, so only null messages
        // keep the logical clocks (and Ω suspicion timers) fed.
        let quiet: Option<(u64, u64)> = if rng.gen_bool(0.5) {
            let start = rng.gen_range(10_000..60_000);
            Some((start, start + rng.gen_range(25_000u64..40_000)))
        } else {
            None
        };

        let mut traffic = Vec::new();
        for k in 0..sends {
            let gs = &topology[rng.gen_range(0..topology.len())];
            let from = gs.members[rng.gen_range(0..gs.members.len())];
            let mut at_us: u64 = rng.gen_range(1_000..TRAFFIC_END_US);
            if let Some((lo, hi)) = quiet {
                if at_us >= lo && at_us < hi {
                    at_us = hi + (at_us - lo); // shift past the window
                }
            }
            traffic.push((at_us, from, gs.group, u64::from(k)));
        }
        traffic.sort_by_key(|&(at_us, from, _, mid)| (at_us, from, mid));
        let mut inputs: Vec<(u64, SimInput)> = traffic
            .into_iter()
            .map(|(at_us, from, g, mid)| (at_us, SimInput::multicast(from, g, MessageId(mid))))
            .collect();

        // Fault schedule. Partition episodes never overlap (`cursor` tracks
        // the earliest instant the network is whole again); loss partitions
        // either persist to the end of the run or heal only after both
        // sides had ample time (≥ 2Ω) to exclude each other, so the
        // reliable-FIFO transport assumption is only broken the way the
        // paper means it (partition ⇒ mutual exclusion). Delay partitions
        // stay shorter than Ω: the transport retransmits, nobody need be
        // excluded.
        let mut cursor: u64 = 5_000;
        let max_crashes = n.saturating_sub(2).min(mix.crash_cap);
        let mut crashed: Vec<u32> = Vec::new();
        let fault_count = rng.gen_range((mix.fault_count)(self.max_faults));
        for _ in 0..fault_count {
            match mix.kinds[rng.gen_range(0..mix.kinds.len())] {
                FaultKind::Crash => {
                    if crashed.len() as u32 >= max_crashes {
                        continue;
                    }
                    let victim = loop {
                        let v = rng.gen_range(1..=n);
                        if !crashed.contains(&v) {
                            break v;
                        }
                    };
                    crashed.push(victim);
                    let at_us = rng.gen_range(5_000..110_000);
                    inputs.push((at_us, NetOp::Crash(ProcessId(victim)).into()));
                }
                FaultKind::Partition => {
                    if cursor >= 100_000 {
                        continue;
                    }
                    let start = rng.gen_range(cursor..=100_000);
                    let (mut a, mut b): (Vec<u32>, Vec<u32>) =
                        (1..=n).partition(|_| rng.gen_bool(0.5));
                    if a.is_empty() {
                        a.push(b.remove(0));
                    }
                    if b.is_empty() {
                        b.push(a.remove(0));
                    }
                    // Delay mode: transient, heals within ω..Ω/2. Loss mode:
                    // permanent, or heals long after 2Ω (150–300 ms is
                    // 2.5–5 Ω at the LAN Ω; the profile shifts it for WAN).
                    let (mode, heal) = if rng.gen_bool(0.5) {
                        (
                            PartitionMode::Delay,
                            Some(start + rng.gen_range(2_000u64..25_000)),
                        )
                    } else {
                        let heal = rng.gen_bool(0.5).then(|| {
                            start + rng.gen_range(150_000u64..300_000) + net.loss_heal_shift_us
                        });
                        (PartitionMode::Loss, heal)
                    };
                    let cut = NetOp::Partition(partition_spec(&[a, b]), mode);
                    inputs.push((start, cut.into()));
                    inputs.extend(heal.map(|h| (h, NetOp::Heal.into())));
                    // A permanent loss cut leaves the network never whole again.
                    cursor = heal.map_or(u64::MAX, |h| h + 5_000);
                }
                FaultKind::Spike => {
                    // Latency spike (congestion). Light spikes stay inside ω
                    // jitter; heavy ones push one-way latency toward Ω and
                    // can trigger false suspicion → refutation traffic.
                    let start = rng.gen_range(5_000..100_000);
                    let dur = rng.gen_range(10_000u64..40_000);
                    let model = if rng.gen_bool(0.3) {
                        uniform_us(15_000, 45_000)
                    } else {
                        uniform_us(2_000, 8_000)
                    };
                    for (at_us, model) in [(start, model), (start + dur, BASE_LATENCY)] {
                        inputs.push((at_us, NetOp::Latency(model).into()));
                    }
                }
                FaultKind::Depart => {
                    // Sender churn: a voluntary departure mid-traffic.
                    let gs = &topology[rng.gen_range(0..topology.len())];
                    let p = gs.members[rng.gen_range(0..gs.members.len())];
                    let at_us = rng.gen_range(5_000..110_000);
                    inputs.push((at_us, SimInput::Command(p, Command::Depart(gs.group))));
                }
            }
        }
        // The WAN topology and its congestion windows draw last, so the LAN
        // profile consumes exactly the draw sequence it always did.
        let wan = net.wan.then(|| draw_wan(&mut rng, n));
        if let Some(cfg) = &wan {
            inputs.extend(congestion_windows(cfg, &mut rng));
        }
        // Stable: same-instant sends keep their (sender, mid) order ahead
        // of every fault, and same-kind faults their draw order.
        inputs.sort_by_key(|(at_us, input)| (*at_us, rank(input)));

        let last_event_us = inputs.iter().map(|(at_us, _)| *at_us).max().unwrap_or(0);
        // Generous settle time: Ω-driven membership plus the delivery
        // barrier need several rounds after the last scripted event.
        ChaosPlan {
            seed: self.seed,
            n,
            topology,
            inputs,
            wan,
            mc_steps: Vec::new(),
            horizon_us: last_event_us + net.settle_us,
        }
    }
}

/// Where an input goes among the generator's inputs at one instant: sends
/// first, and heals after partitions so a degenerate schedule stays
/// meaningful.
fn rank(input: &SimInput) -> u8 {
    match input {
        SimInput::Command(_, Command::Multicast(..)) => 0,
        SimInput::Net(NetOp::Crash(_)) => 1,
        SimInput::Net(NetOp::Partition(..)) => 2,
        SimInput::Net(NetOp::Latency(_)) => 3,
        SimInput::Command(..) => 4,
        SimInput::Net(NetOp::Heal) => 5,
        SimInput::Net(NetOp::WanLink(..)) => 6,
        SimInput::Net(NetOp::WanUplink(..)) => 7,
    }
}

/// Draws a 2–3 region topology for `P1..=Pn`: each node gets a home
/// region and an uplink, and every directed region pair an independent
/// trunk — asymmetric latency and capacity by construction.
///
/// The engine's transport contract is exactly-once per link: the TCP
/// plane enforces it by link-sequence dedup below the engine (which
/// `proxy --dup-pct` exercises), and the WAN model never duplicates, so
/// the only drawn wire knob is the reorder hold.
fn draw_wan(rng: &mut StdRng, n: u32) -> WanConfig {
    const UPLINKS: [u64; 4] = [64_000, 128_000, 256_000, 512_000];
    let regions = rng.gen_range(2..=3u32);
    let mut cfg = WanConfig::new();
    for p in 1..=n {
        let region = rng.gen_range(0..regions);
        let bps = UPLINKS[rng.gen_range(0..UPLINKS.len())];
        cfg = cfg.attach_with_uplink(ProcessId(p), region, bps);
    }
    for from in 0..regions {
        for to in (0..regions).filter(|&to| to != from) {
            let lo_us = rng.gen_range(5_000u64..20_000);
            let hi_us = lo_us + rng.gen_range(5_000u64..40_000);
            let capacity_bps = rng.gen_range(128u64..=1024) * 1_000;
            let spec = WanLinkSpec::new(uniform_us(lo_us, hi_us), capacity_bps);
            cfg = cfg.with_route(from, to, spec);
        }
    }
    let permille = rng.gen_range(0..=50);
    cfg.with_reorder(permille, Span::from_micros(rng.gen_range(500..5_000)))
}

/// Draws one or two congestion windows: a trunk or an uplink drops to
/// 1/8th of its capacity (with a latency bump for trunks) and restores
/// after 15–40 ms — long enough to build a real backlog, short enough to
/// drain well inside Ω.
fn congestion_windows(cfg: &WanConfig, rng: &mut StdRng) -> Vec<(u64, SimInput)> {
    let mut inputs = Vec::new();
    for _ in 0..rng.gen_range(1..=2u32) {
        let start = rng.gen_range(5_000u64..80_000);
        let end = start + rng.gen_range(15_000u64..40_000);
        let (slash, restore) = if rng.gen_bool(0.6) {
            let r = cfg.routes[rng.gen_range(0..cfg.routes.len())];
            let lo_us = bounds_us(r.spec.latency).0 + rng.gen_range(10_000u64..40_000);
            let hi_us = lo_us + rng.gen_range(5_000u64..30_000);
            let capacity_bps = (r.spec.capacity_bps / 8).max(1_000);
            let slashed = WanLinkSpec::new(uniform_us(lo_us, hi_us), capacity_bps);
            let link = |spec| NetOp::WanLink(r.from, r.to, spec);
            (link(slashed), link(r.spec))
        } else {
            let a = cfg.attachments[rng.gen_range(0..cfg.attachments.len())];
            let bps = a.uplink_bps.unwrap_or(cfg.default_uplink_bps);
            let uplink = |bps| NetOp::WanUplink(a.p, bps);
            (uplink((bps / 8).max(1_000)), uplink(bps))
        };
        inputs.push((start, slash.into()));
        inputs.push((end, restore.into()));
    }
    inputs
}

/// One group of the generated topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSpec {
    /// Group id.
    pub group: GroupId,
    /// Ordering variant.
    pub mode: OrderMode,
    /// Null-message deadline ω, in µs.
    pub omega_us: u64,
    /// Suspicion timeout Ω, in µs.
    pub big_omega_us: u64,
    /// Member process ids.
    pub members: Vec<u32>,
}

impl GroupSpec {
    /// The engine configuration every member bootstraps with.
    fn config(&self) -> GroupConfig {
        GroupConfig::new(self.mode)
            .with_omega(Span::from_micros(self.omega_us))
            .with_big_omega(Span::from_micros(self.big_omega_us))
    }
}

/// One explicit step of a model-checker schedule. A delivery or wake names
/// *which* pending event fires next, and virtual time advances to that
/// event's own timestamp; an input applies at the current instant. Steps
/// that name nothing currently fireable (after shrinking removed the step
/// that would have armed them) are skipped.
#[derive(Debug, Clone, PartialEq)]
pub enum McStep {
    /// Deliver the FIFO-head message of the link `src → dst`.
    Deliver {
        /// Sending process.
        src: u32,
        /// Receiving process.
        dst: u32,
    },
    /// Fire `p`'s pending timer wake-up.
    Wake {
        /// The process whose tick runs.
        p: u32,
    },
    /// Apply an input (a multicast, a crash, any fault) at the current
    /// virtual time.
    Input(SimInput),
}

impl McStep {
    /// Fires this step on `cluster`; a delivery or wake advances virtual
    /// time to the fired event's own timestamp. A step that names nothing
    /// currently fireable is skipped: ddmin shrink candidates routinely
    /// remove the step that would have armed a later one.
    pub(crate) fn apply(self, cluster: &mut SimCluster) {
        let at = Instant::ZERO;
        match self {
            McStep::Deliver { src, dst } => {
                let (src, dst) = (ProcessId(src), ProcessId(dst));
                cluster.fire(PendingEvent::Deliver { src, dst, at });
            }
            McStep::Wake { p } => {
                let node = ProcessId(p);
                cluster.fire(PendingEvent::Wake { node, at });
            }
            McStep::Input(input) => cluster.apply(input),
        }
    }
}

impl fmt::Display for McStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McStep::Deliver { src, dst } => write!(f, "deliver {src} {dst}"),
            McStep::Wake { p } => write!(f, "wake {p}"),
            McStep::Input(input) => f.write_str(&input_text(input)),
        }
    }
}

/// A fully materialised chaos run: topology + one timed input list.
/// Equal plans replay equal histories ([`history_hash`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Network RNG seed.
    pub seed: u64,
    /// Number of processes (`P1..=Pn`).
    pub n: u32,
    /// The groups.
    pub topology: Vec<GroupSpec>,
    /// Traffic and faults: `(µs, input)` pairs in schedule order. Inputs
    /// at one instant take effect in list order.
    pub inputs: Vec<(u64, SimInput)>,
    /// The WAN model, when the plan runs on the bandwidth model. `None`
    /// replays on the classic constant-latency transport.
    pub wan: Option<WanConfig>,
    /// Model-checker event-order schedule. When non-empty the plan replays
    /// under external scheduling — the network runs the deterministic
    /// fixed-latency default and the run executes exactly these steps
    /// instead of free-running to the horizon. The generator never mixes
    /// the two, and [`ChaosPlan::parse_script`] rejects a script that mixes
    /// them with `send`, `fault` or `wan` lines.
    pub mc_steps: Vec<McStep>,
    /// Total virtual run time, µs.
    pub horizon_us: u64,
}

/// Script spellings of the ordering variants.
const ORDER_MODES: [(&str, OrderMode); 2] = [
    ("symmetric", OrderMode::Symmetric),
    ("asymmetric", OrderMode::Asymmetric),
];

/// Script spellings of the partition modes.
const PARTITION_MODES: [(&str, PartitionMode); 2] = [
    ("loss", PartitionMode::Loss),
    ("delay", PartitionMode::Delay),
];

/// The script spelling of `value`.
fn name_of<T: PartialEq>(table: &[(&'static str, T)], value: T) -> &'static str {
    table
        .iter()
        .find(|(_, v)| *v == value)
        .map(|(name, _)| *name)
        .expect("every variant has a spelling")
}

/// The value a script spelling names.
fn named<T: Copy>(table: &[(&str, T)], t: &str) -> Result<T, String> {
    let found = table.iter().find(|(name, _)| *name == t);
    found
        .map(|&(_, v)| v)
        .ok_or_else(|| format!("unknown mode `{t}`"))
}

/// One integer token.
fn num<T: std::str::FromStr>(t: &str) -> Result<T, String> {
    t.parse().map_err(|_| format!("bad integer `{t}`"))
}

/// A capacity token, bytes per second: a WAN pipe of zero capacity would
/// never drain.
fn capacity(t: &str) -> Result<u64, String> {
    match num(t)? {
        0 => Err("capacity must be nonzero".into()),
        bps => Ok(bps),
    }
}

/// A per-mille probability token.
fn permille(t: &str) -> Result<u32, String> {
    match num(t)? {
        pm if pm > 1000 => Err("per-mille probability exceeds 1000".into()),
        pm => Ok(pm),
    }
}

/// A latency-bounds token pair, µs — validated here rather than per sample
/// mid-run (see `LatencyModel::validate`).
fn bounds(lo: &str, hi: &str) -> Result<(u64, u64), String> {
    match (num(lo)?, num(hi)?) {
        (lo, hi) if lo > hi => Err("inverted latency bounds".into()),
        lohi => Ok(lohi),
    }
}

/// Parses the `FROM TO LO-US HI-US BPS` of a trunk, as both `wan-route`
/// and `wan-link` spell it.
fn parse_link(toks: &[&str]) -> Result<(u32, u32, WanLinkSpec), String> {
    let [from, to, lo, hi, bps] = toks else {
        return Err("expected FROM TO LO-US HI-US BPS".into());
    };
    let (lo_us, hi_us) = bounds(lo, hi)?;
    let spec = WanLinkSpec::new(uniform_us(lo_us, hi_us), capacity(bps)?);
    Ok((num(from)?, num(to)?, spec))
}

/// The inverse of [`parse_link`]. A fixed latency prints as equal bounds
/// (and so parses back as a uniform one); neither the generator nor the
/// parser makes one.
fn link_text(from: u32, to: u32, spec: &WanLinkSpec) -> String {
    let (lo_us, hi_us) = bounds_us(spec.latency);
    format!("{from} {to} {lo_us} {hi_us} {}", spec.capacity_bps)
}

/// Why a WAN line without a preceding `wan` line is rejected.
const NO_WAN: &str = "WAN line before wan";

/// A comma-separated id list.
fn join_ids(ids: impl IntoIterator<Item = u32>) -> String {
    let ids: Vec<String> = ids.into_iter().map(|p| p.to_string()).collect();
    ids.join(",")
}

/// The script text of one input, as a timed line and an `mc-step` line
/// both spell it (the inverse of [`ChaosPlan::parse_input`]). A formation
/// input has no v1 spelling: it prints as `initiate P G`, which the parser
/// refuses.
fn input_text(input: &SimInput) -> String {
    let op = match input {
        SimInput::Command(from, Command::Multicast(g, mid)) => {
            return format!("send {from} {} {}", g.0, mid.0)
        }
        SimInput::Command(p, Command::Depart(g)) => return format!("depart {p} {}", g.0),
        SimInput::Command(p, Command::Initiate(g, ..)) => return format!("initiate {p} {}", g.0),
        SimInput::Net(op) => op,
    };
    match op {
        NetOp::Crash(p) => format!("crash {}", p.0),
        NetOp::Partition(spec, mode) => {
            let blocks = spec.listed_blocks().iter();
            let blocks: Vec<String> = blocks.map(|b| join_ids(b.iter().map(|p| p.0))).collect();
            let mode = name_of(&PARTITION_MODES, *mode);
            format!("partition {mode} {}", blocks.join("|"))
        }
        NetOp::Heal => "heal".into(),
        NetOp::Latency(LatencyModel::Fixed(d)) => format!("latency fixed {}", d.as_micros()),
        NetOp::Latency(LatencyModel::Uniform { lo, hi }) => {
            format!("latency uniform {} {}", lo.as_micros(), hi.as_micros())
        }
        NetOp::WanLink(from, to, spec) => format!("wan-link {}", link_text(*from, *to, spec)),
        NetOp::WanUplink(p, bps) => format!("wan-uplink {} {bps}", p.0),
    }
}

/// The tagged mid a multicast input sends.
fn sent_mid(input: &SimInput) -> Option<u64> {
    match input {
        SimInput::Command(_, Command::Multicast(_, mid)) => Some(mid.0),
        _ => None,
    }
}

/// Script directives that may appear at most once.
const SINGLETONS: [&str; 4] = ["seed", "n", "horizon-us", "wan"];

impl ChaosPlan {
    /// A fresh cluster with every group bootstrapped (and the WAN model
    /// installed first, when given).
    fn bootstrap(&self, net: NetConfig, wan: Option<&WanConfig>) -> SimCluster {
        let mut cluster = SimCluster::new(self.n, net);
        if let Some(cfg) = wan {
            cluster.set_wan(cfg.clone()).expect("validated WAN config");
        }
        for gs in &self.topology {
            cluster.bootstrap_group(gs.group, &gs.members, gs.config());
        }
        cluster
    }

    /// Builds the cluster, scripts everything and runs to the horizon —
    /// or, for a model-checker plan (`mc_steps` non-empty), replays the
    /// explicit event-order schedule step by step.
    #[must_use]
    pub fn run(&self) -> SimCluster {
        if !self.mc_steps.is_empty() {
            return self.run_mc_schedule();
        }
        let mut cluster = self.scheduled();
        cluster.run_for(Span::from_micros(self.horizon_us));
        cluster
    }

    /// The timed plan's cluster at time zero, with every input scheduled
    /// in list order.
    pub(crate) fn scheduled(&self) -> SimCluster {
        let net = NetConfig::new(self.seed ^ 0x9E37_79B9).with_latency(BASE_LATENCY);
        let mut cluster = self.bootstrap(net, self.wan.as_ref());
        for (at_us, input) in &self.inputs {
            cluster.schedule(Instant::from_micros(*at_us), input.clone());
        }
        cluster
    }

    /// Builds the model-checker fixture and applies the explicit schedule
    /// step by step ([`McStep::apply`]). The network is the zero-latency,
    /// zero-overhead fixed model (no random draws), exactly as `newtop-exp
    /// mc` explores, so a shrunk counterexample replays the violating
    /// interleaving bit-identically. Zero latency does not freeze the
    /// clock: the FIFO clamp spaces messages sent on one link at the same
    /// instant 1 µs apart, so three multicasts from one process arrive on
    /// each link at 1, 2 and 3 µs, and firing the third moves the clock to
    /// 3 µs. Interleavings of independent deliveries therefore converge to
    /// one state digest only when they also leave the clock and the clamp
    /// matrix equal.
    pub(crate) fn run_mc_schedule(&self) -> SimCluster {
        let net = NetConfig::new(self.seed)
            .with_latency(LatencyModel::Fixed(Span::ZERO))
            .with_send_overhead(Span::ZERO);
        let mut cluster = self.bootstrap(net, None);
        for step in &self.mc_steps {
            step.clone().apply(&mut cluster);
        }
        cluster
    }

    /// The checker configuration appropriate for this plan. Safety (order,
    /// causality, views, the delivery barrier, no-delivery-after-exclusion)
    /// is always asserted. Quiescent liveness is asserted too — the
    /// generator only emits schedules inside the protocol's assumption
    /// envelope (see [`ChaosScenario::plan`]) — except when a loss-mode
    /// partition heals mid-run, where re-connected-but-excluded senders may
    /// legitimately leave one side short of the global send set.
    #[must_use]
    pub fn check_options(&self) -> CheckOptions {
        let has = |f: fn(&NetOp) -> bool| {
            self.inputs
                .iter()
                .any(|(_, i)| matches!(i, SimInput::Net(op) if f(op)))
        };
        let healed_loss = has(|op| matches!(op, NetOp::Partition(_, PartitionMode::Loss)))
            && has(|op| matches!(op, NetOp::Heal));
        // A model-checker schedule is a bounded prefix of a run, not a run
        // to quiescence: liveness (everything sent gets delivered) is
        // meaningless there and only safety is asserted.
        CheckOptions {
            liveness: !healed_loss && self.mc_steps.is_empty(),
            ..CheckOptions::default()
        }
    }

    /// Runs the plan and checks it, returning violations (empty = pass).
    #[must_use]
    pub fn run_and_check(&self, opts: &CheckOptions) -> Vec<Violation> {
        check_all(&self.run().history(), opts)
    }

    /// Runs the plan, catching an engine panic and reporting it as
    /// `Err(message)` — the fleet treats a crash of the engine itself as
    /// the most severe failure, and the shrinker minimises toward it like
    /// any other.
    ///
    /// # Errors
    ///
    /// The payload of the engine panic, as a string.
    pub fn try_run_history(&self) -> Result<History, String> {
        let plan = self.clone();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || plan.run().history()))
            .map_err(|e| {
                e.downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| e.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "engine panicked".to_string())
            })
    }

    /// Like [`ChaosPlan::run_and_check`], but panic-catching (see
    /// [`ChaosPlan::try_run_history`]).
    ///
    /// # Errors
    ///
    /// The payload of the engine panic, as a string.
    pub fn try_run_and_check(&self, opts: &CheckOptions) -> Result<Vec<Violation>, String> {
        self.try_run_history().map(|h| check_all(&h, opts))
    }

    /// Serialises to the v1 replay-script format, optionally recording the
    /// expected history hash for exact-replay verification. The timed
    /// inputs print as one list in schedule order: a multicast as `send AT
    /// …`, anything else as `fault AT …`.
    #[must_use]
    pub fn to_script(&self, expect_hash: Option<u64>) -> String {
        let mut lines = vec![
            "newtop-chaos v1".to_string(),
            format!("seed {}", self.seed),
            format!("n {}", self.n),
            format!("horizon-us {}", self.horizon_us),
        ];
        if let Some(cfg) = &self.wan {
            lines.push(format!(
                "wan reorder-pm {} hold-us {}",
                cfg.reorder_permille,
                cfg.reorder_hold.as_micros()
            ));
            lines.extend(cfg.attachments.iter().map(|a| {
                let bps = a.uplink_bps.unwrap_or(cfg.default_uplink_bps);
                format!("wan-node {} {} {bps}", a.p.0, a.region)
            }));
            let route = |r: &newtop_sim::WanRoute| link_text(r.from, r.to, &r.spec);
            lines.extend(cfg.routes.iter().map(|r| format!("wan-route {}", route(r))));
        }
        lines.extend(self.topology.iter().map(|g| {
            format!(
                "group {} {} omega-us {} big-omega-us {} members {}",
                g.group.0,
                name_of(&ORDER_MODES, g.mode),
                g.omega_us,
                g.big_omega_us,
                join_ids(g.members.iter().copied())
            )
        }));
        lines.extend(self.inputs.iter().map(|(at_us, input)| {
            let text = input_text(input);
            match text.strip_prefix("send ") {
                Some(args) => format!("send {at_us} {args}"),
                None => format!("fault {at_us} {text}"),
            }
        }));
        lines.extend(self.mc_steps.iter().map(|s| format!("mc-step {s}")));
        lines.extend(expect_hash.map(|h| format!("expect-hash {h:016x}")));
        lines.iter().map(|l| format!("{l}\n")).collect()
    }

    /// Parses the v1 replay-script format, validating every entry against
    /// what precedes it: `seed`, `n`, `horizon-us` and `wan` appear at most
    /// once, processes must lie in `1..=n` (and in at most one block of a
    /// partition), groups must be declared (once, with `omega-us` below
    /// `big-omega-us`), mids must be unique, WAN lines need a preceding
    /// `wan` line, and a model-checker schedule cannot be mixed with the
    /// timed script. Timed lines may come in any order; inputs at one
    /// instant take effect in file order.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry, quoting its line.
    pub fn parse_script(text: &str) -> Result<(ChaosPlan, Option<u64>), String> {
        let mut lines = text.lines().enumerate().filter(|(_, l)| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with('#')
        });
        let (ln0, magic) = lines.next().ok_or("empty script")?;
        if magic.trim() != "newtop-chaos v1" {
            return Err(format!(
                "line {}: expected header `newtop-chaos v1`",
                ln0 + 1
            ));
        }
        let mut plan = ChaosPlan {
            seed: 0,
            n: 0,
            topology: Vec::new(),
            inputs: Vec::new(),
            wan: None,
            mc_steps: Vec::new(),
            horizon_us: 0,
        };
        let mut expect_hash = None;
        let mut seen = BTreeSet::new();
        for (ln, raw) in lines {
            let toks: Vec<&str> = raw.split_whitespace().collect();
            let parsed = match toks.as_slice() {
                [d, ..] if SINGLETONS.contains(d) && !seen.insert(*d) => {
                    Err(format!("`{d}` given twice"))
                }
                ["expect-hash", h] => u64::from_str_radix(h, 16)
                    .map(|h| expect_hash = Some(h))
                    .map_err(|_| "bad hash".to_string()),
                toks => plan.parse_line(toks),
            };
            // Errors quote the offending line itself, not just its number —
            // corpus scripts get edited by hand.
            parsed.map_err(|e| format!("line {}: {e}: `{}`", ln + 1, raw.trim()))?;
        }
        if plan.n == 0 || plan.topology.is_empty() || plan.horizon_us == 0 {
            return Err("script missing n / group / horizon-us".to_string());
        }
        Ok((plan, expect_hash))
    }

    /// Applies one body line of a script to the plan parsed so far.
    fn parse_line(&mut self, toks: &[&str]) -> Result<(), String> {
        match toks {
            ["seed", v] => self.seed = num(v)?,
            ["n", v] => self.n = num(v)?,
            ["horizon-us", v] => self.horizon_us = num(v)?,
            ["wan", "reorder-pm", r, "hold-us", h] => {
                self.no_mix(false)?;
                let hold = Span::from_micros(num(h)?);
                self.wan = Some(WanConfig::new().with_reorder(permille(r)?, hold));
            }
            ["wan-node", p, region, bps] => {
                let (p, region, bps) = (ProcessId(self.pid(p)?), num(region)?, capacity(bps)?);
                self.extend_wan(|cfg| cfg.attach_with_uplink(p, region, bps))?;
            }
            ["wan-route", link @ ..] => {
                let (from, to, spec) = parse_link(link)?;
                self.extend_wan(|cfg| cfg.with_route(from, to, spec))?;
            }
            ["group", g, mode, "omega-us", o, "big-omega-us", bo, "members", m] => {
                let gs = GroupSpec {
                    group: GroupId(num(g)?),
                    mode: named(&ORDER_MODES, mode)?,
                    omega_us: num(o)?,
                    big_omega_us: num(bo)?,
                    members: self.pids(m)?,
                };
                if self.topology.iter().any(|x| x.group == gs.group) {
                    return Err(format!("group {} declared twice", gs.group.0));
                }
                gs.config().validate().map_err(|e| e.to_string())?;
                self.topology.push(gs);
            }
            ["send", at, args @ ..] => self.push_timed(at, "send", args, "directive")?,
            // A multicast is a `send` line, never a fault.
            ["fault", at, verb, args @ ..] if *verb != "send" => {
                self.push_timed(at, verb, args, "fault")?;
            }
            ["mc-step", step @ ..] => {
                self.no_mix(true)?;
                let step = match step {
                    ["deliver", src, dst] => McStep::Deliver {
                        src: self.pid(src)?,
                        dst: self.pid(dst)?,
                    },
                    ["wake", p] => McStep::Wake { p: self.pid(p)? },
                    [verb, args @ ..] => McStep::Input(self.parse_input(verb, args, "mc-step")?),
                    [] => return Err("unknown mc-step".into()),
                };
                self.mc_steps.push(step);
            }
            _ => return Err("unknown directive".into()),
        }
        Ok(())
    }

    /// Appends the timed input of a `send` or `fault` line.
    fn push_timed(
        &mut self,
        at: &str,
        verb: &str,
        args: &[&str],
        what: &str,
    ) -> Result<(), String> {
        self.no_mix(false)?;
        let at_us = num(at)?;
        let input = self.parse_input(verb, args, what)?;
        self.inputs.push((at_us, input));
        Ok(())
    }

    /// The input `VERB ARGS…` names, as [`input_text`] spells it; `what`
    /// names the line kind when the verb is unknown.
    fn parse_input(&self, verb: &str, args: &[&str], what: &str) -> Result<SimInput, String> {
        Ok(match (verb, args) {
            ("send", [from, g, mid]) => {
                let (from, g, mid) = (self.pid(from)?, self.gid(g)?, self.fresh_mid(mid)?);
                SimInput::multicast(from, g, MessageId(mid))
            }
            ("depart", [p, g]) => SimInput::Command(self.pid(p)?, Command::Depart(self.gid(g)?)),
            ("crash", [v]) => NetOp::Crash(ProcessId(self.pid(v)?)).into(),
            ("partition", [mode, blocks]) => {
                let mode = named(&PARTITION_MODES, mode)?;
                NetOp::Partition(self.partition(blocks)?, mode).into()
            }
            ("heal", []) => NetOp::Heal.into(),
            ("latency", ["fixed", d]) => {
                NetOp::Latency(LatencyModel::Fixed(Span::from_micros(num(d)?))).into()
            }
            ("latency", ["uniform", lo, hi]) => {
                let (lo_us, hi_us) = bounds(lo, hi)?;
                NetOp::Latency(uniform_us(lo_us, hi_us)).into()
            }
            ("wan-link" | "wan-uplink", _) if self.wan.is_none() => return Err(NO_WAN.into()),
            ("wan-link", link) => {
                let (from, to, spec) = parse_link(link)?;
                NetOp::WanLink(from, to, spec).into()
            }
            ("wan-uplink", [p, bps]) => {
                NetOp::WanUplink(ProcessId(self.pid(p)?), capacity(bps)?).into()
            }
            _ => return Err(format!("unknown {what}")),
        })
    }

    /// A process-id token naming one of `P1..=Pn`.
    fn pid(&self, t: &str) -> Result<u32, String> {
        match num(t)? {
            p if (1..=self.n).contains(&p) => Ok(p),
            p => Err(format!("process {p} outside 1..={}", self.n)),
        }
    }

    /// A comma-separated list of process ids (the inverse of [`join_ids`]).
    fn pids(&self, t: &str) -> Result<Vec<u32>, String> {
        t.split(',').map(|p| self.pid(p)).collect()
    }

    /// A `|`-separated list of partition blocks, each process in at most
    /// one of them.
    fn partition(&self, t: &str) -> Result<PartitionSpec, String> {
        let blocks: Vec<Vec<u32>> = t
            .split('|')
            .map(|b| self.pids(b))
            .collect::<Result<_, _>>()?;
        let mut listed = BTreeSet::new();
        match blocks.iter().flatten().find(|p| !listed.insert(**p)) {
            Some(p) => Err(format!("process {p} listed twice in one partition")),
            None => Ok(partition_spec(&blocks)),
        }
    }

    /// A group-id token naming a declared group.
    fn gid(&self, t: &str) -> Result<GroupId, String> {
        let g = GroupId(num(t)?);
        if self.topology.iter().any(|gs| gs.group == g) {
            Ok(g)
        } else {
            Err(format!("undeclared group {}", g.0))
        }
    }

    /// A mid token no earlier send (timed or model-checker) used.
    fn fresh_mid(&self, t: &str) -> Result<u64, String> {
        let mid = num(t)?;
        let timed = self.inputs.iter().map(|(_, i)| i);
        let stepped = self.mc_steps.iter().filter_map(|s| match s {
            McStep::Input(i) => Some(i),
            _ => None,
        });
        if timed.chain(stepped).any(|i| sent_mid(i) == Some(mid)) {
            return Err(format!("mid {mid} sent twice"));
        }
        Ok(mid)
    }

    /// Extends the WAN model a WAN line refines.
    fn extend_wan(&mut self, f: impl FnOnce(WanConfig) -> WanConfig) -> Result<(), String> {
        let cfg = self.wan.take().ok_or(NO_WAN)?;
        self.wan = Some(f(cfg));
        Ok(())
    }

    /// Rejects a model-checker step after the timed script (`mc`), or a
    /// timed line after a model-checker step (`!mc`).
    fn no_mix(&self, mc: bool) -> Result<(), String> {
        let timed = !self.inputs.is_empty() || self.wan.is_some();
        if (mc && timed) || (!mc && !self.mc_steps.is_empty()) {
            return Err("mc-step cannot be mixed with send, fault or wan lines".into());
        }
        Ok(())
    }
}

/// A stable digest of everything observable in a history (per-process event
/// streams plus the crash set). Replaying the same plan must reproduce the
/// same hash bit-for-bit; the corpus test enforces this.
#[must_use]
pub fn history_hash(h: &History) -> u64 {
    // FNV-1a over a canonical rendering. The Debug formatting of history
    // events is deterministic (integers, BTree-ordered sets) and covers
    // every field, including payload bytes and timestamps.
    let mut acc = DigestHasher::new();
    for (p, events) in &h.events {
        acc.write(&p.0.to_be_bytes());
        for e in events {
            write!(acc, "{e:?}").expect("hashing cannot fail");
        }
    }
    let mut crashed = h.crashed.clone();
    crashed.sort_unstable();
    for p in crashed {
        acc.write(&p.0.to_be_bytes());
    }
    acc.finish()
}

/// Outcome of shrinking a failing plan.
#[derive(Debug)]
pub struct ShrinkResult {
    /// The minimised still-failing plan.
    pub plan: ChaosPlan,
    /// The violations the minimised plan produces.
    pub violations: Vec<Violation>,
    /// Number of candidate runs executed while shrinking.
    pub runs: usize,
}

/// Delta-debugs a failing plan down to a locally minimal schedule: one
/// ddmin-style chunk bisection over the timed inputs, traffic and faults
/// alike, then one over the model-checker steps (any violation counts as
/// "still failing"). The checker options are fixed for the whole shrink so
/// the failure being chased does not shift meaning as faults disappear.
///
/// Independent removal probes run on up to `jobs` threads; the result —
/// plan, violations and run count — is byte-identical to `jobs = 1`
/// (see `ddmin`).
#[must_use]
pub fn shrink(plan: &ChaosPlan, opts: &CheckOptions, max_runs: usize, jobs: usize) -> ShrinkResult {
    let mut runs = 0usize;
    let mut current = plan.clone();
    let fails = |probe: &ChaosPlan| !matches!(probe.try_run_and_check(opts), Ok(v) if v.is_empty());
    assert!(fails(&current), "shrink requires a failing plan");

    current.inputs = ddmin(&current.inputs, &mut runs, max_runs, jobs, |cand| {
        fails(&ChaosPlan {
            inputs: cand.to_vec(),
            ..current.clone()
        })
    });
    // Removing a step may make later ones unfireable — they are skipped
    // on replay, so every candidate is still a valid (if shorter) schedule.
    current.mc_steps = ddmin(&current.mc_steps, &mut runs, max_runs, jobs, |cand| {
        fails(&ChaosPlan {
            mc_steps: cand.to_vec(),
            ..current.clone()
        })
    });
    let violations = current.try_run_and_check(opts).unwrap_or_default();
    ShrinkResult {
        plan: current,
        violations,
        runs,
    }
}

/// ddmin-style greedy chunk removal: repeatedly bisects the list into
/// chunks, dropping any chunk whose removal keeps the predicate true, until
/// single-element granularity makes no further progress (or the run budget
/// is exhausted).
///
/// With `jobs > 1` the candidate removals at positions `i, i+chunk, …` are
/// probed *speculatively* in parallel, but acceptance replays the
/// single-thread algorithm exactly: the first (lowest-position) failing
/// candidate is taken, probes after it are discarded **without counting
/// toward `max_runs`** (the sequential algorithm would never have run them
/// — it restarts from the accepted state), and probes before it count one
/// each. Result and final `runs` are therefore identical for every `jobs`.
fn ddmin<T: Clone + Send + Sync>(
    items: &[T],
    runs: &mut usize,
    max_runs: usize,
    jobs: usize,
    still_fails: impl Fn(&[T]) -> bool + Sync,
) -> Vec<T> {
    let probe = |cur: &[T], start: usize, chunk: usize| -> bool {
        let hi = (start + chunk).min(cur.len());
        let mut cand = cur.to_vec();
        cand.drain(start..hi);
        still_fails(&cand)
    };
    let mut cur: Vec<T> = items.to_vec();
    let mut chunk = cur.len().div_ceil(2).max(1);
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < cur.len() {
            if *runs >= max_runs {
                return cur;
            }
            // Speculative batch: the next up-to-`jobs` removal positions
            // the sequential scan would try (budget-capped).
            let width = jobs.max(1).min(max_runs - *runs);
            let mut starts = Vec::with_capacity(width);
            let mut j = i;
            while j < cur.len() && starts.len() < width {
                starts.push(j);
                j += chunk;
            }
            let results: Vec<bool> = if starts.len() == 1 {
                vec![probe(&cur, starts[0], chunk)]
            } else {
                std::thread::scope(|s| {
                    let cur = &cur;
                    let probe = &probe;
                    let handles: Vec<_> = starts
                        .iter()
                        .map(|&st| s.spawn(move || probe(cur, st, chunk)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("ddmin probe panicked"))
                        .collect()
                })
            };
            let mut accepted = None;
            for (k, failed) in results.iter().enumerate() {
                *runs += 1;
                if *failed {
                    accepted = Some(k);
                    break;
                }
                if *runs >= max_runs {
                    break;
                }
            }
            match accepted {
                Some(k) => {
                    let st = starts[k];
                    let hi = (st + chunk).min(cur.len());
                    cur.drain(st..hi);
                    removed_any = true;
                    i = st;
                }
                None => {
                    i = starts.last().expect("nonempty batch") + chunk;
                }
            }
        }
        if chunk == 1 {
            if !removed_any {
                return cur;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
        if cur.is_empty() {
            return cur;
        }
    }
}

/// Counts the tagged deliveries in a history (sweep progress metric).
#[must_use]
pub fn delivery_count(h: &History) -> usize {
    h.events
        .values()
        .flatten()
        .filter(|e| matches!(e, HistoryEvent::Delivered { mid: Some(_), .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_generation_is_deterministic() {
        let a = ChaosScenario::new(17).plan();
        let b = ChaosScenario::new(17).plan();
        assert_eq!(a, b);
        assert_ne!(a, ChaosScenario::new(18).plan());
    }

    /// The churn family is deterministic, always schedules faults, and
    /// leans on crashes/departures: across a seed window the majority
    /// of scheduled faults are membership churn, and at least one plan
    /// exceeds the classic 2-crash cap while still leaving 2 survivors.
    #[test]
    fn churn_family_is_crash_heavy_and_bounded() {
        assert_eq!(
            ChaosScenario::churn(9).plan(),
            ChaosScenario::churn(9).plan()
        );
        let mut churn_faults = 0u32;
        let mut other_faults = 0u32;
        let mut beyond_classic_cap = false;
        for seed in 0..40 {
            let plan = ChaosScenario::churn(seed).plan();
            let faults: Vec<&SimInput> = plan
                .inputs
                .iter()
                .map(|(_, i)| i)
                .filter(|i| sent_mid(i).is_none())
                .collect();
            assert!(!faults.is_empty(), "seed {seed} scheduled no faults");
            let crashes = faults
                .iter()
                .filter(|i| matches!(i, SimInput::Net(NetOp::Crash(_))))
                .count();
            assert!(
                (crashes as u32) <= plan.n.saturating_sub(2),
                "seed {seed} leaves fewer than 2 survivors"
            );
            if crashes > 2 {
                beyond_classic_cap = true;
            }
            for fault in faults {
                match fault {
                    SimInput::Net(NetOp::Crash(_)) | SimInput::Command(..) => churn_faults += 1,
                    SimInput::Net(NetOp::Partition(..) | NetOp::Latency(_)) => other_faults += 1,
                    SimInput::Net(_) => {}
                }
            }
        }
        assert!(
            churn_faults > other_faults,
            "churn family should be membership-heavy ({churn_faults} vs {other_faults})"
        );
        assert!(
            beyond_classic_cap,
            "crash budget never exceeded the old cap"
        );
    }

    /// Adding the churn knob must not perturb the classic fleet's draw
    /// sequence: a non-churn plan keeps replaying to the same history.
    #[test]
    fn churn_off_keeps_classic_plans_identical() {
        let classic = ChaosScenario::new(17);
        let with_flag_field = ChaosScenario {
            churn: false,
            ..ChaosScenario::new(17)
        };
        assert_eq!(classic.plan(), with_flag_field.plan());
    }

    /// Churn plans run to completion and their histories pass the
    /// checker like any other generated plan.
    #[test]
    fn churn_plans_run_green() {
        for seed in [1u64, 8, 21] {
            let plan = ChaosScenario::churn(seed).plan();
            let violations = plan
                .try_run_and_check(&plan.check_options())
                .expect("engine survives churn plans");
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    /// Regression pins for counterexamples the chaos fleet shrank.
    ///
    /// Churn seed 1401: a detection adopted while an earlier (depart)
    /// install was still queued awaited the sequencer's cut; executing
    /// that install handed the sequencer role to the very process the
    /// awaiting detection named — dead, so its `ViewCut` never came and
    /// the group wedged with the failed member in the view forever,
    /// freezing the merged cross-group delivery order of every
    /// overlapping member (the install now falls back to the
    /// number-barrier install and advances `D_{x,i}` to the agreed bound).
    ///
    /// WAN churn seed 1098: trunk latency delayed a member's first nulls
    /// past a loss cut, so one partition side confirmed an exclusion and
    /// closed the shared view with a different delivery set — legal under
    /// the paper (agreement holds within a connected component), which
    /// the checker's VC3 now recognises via its bracket-scoped
    /// adopted-detection exemption.
    #[test]
    fn chaos_fleet_regressions_stay_green() {
        let plan = ChaosScenario::churn(1401).plan();
        let violations = plan
            .try_run_and_check(&plan.check_options())
            .expect("engine survives churn seed 1401");
        assert!(violations.is_empty(), "churn 1401: {violations:?}");

        let mut scenario = ChaosScenario::churn(1098);
        scenario.wan = true;
        let plan = scenario.plan();
        let violations = plan
            .try_run_and_check(&plan.check_options())
            .expect("engine survives WAN churn seed 1098");
        assert!(violations.is_empty(), "wan churn 1098: {violations:?}");
    }

    /// Every family's seeds keep replaying to these hashes byte-for-byte.
    /// The classic and churn hashes predate the bandwidth model; the WAN
    /// and WAN-churn ones pin the WAN branch's draw order, so a slip there
    /// cannot pass as a run that merely agrees with itself. They also move
    /// with the wire encoding, since the WAN model times each transfer by
    /// its `wire::encoded_len`; the other families never size a message.
    #[test]
    fn every_family_seed_hash_is_pinned() {
        let classic: [(u64, u64); 6] = [
            (0, 0x5fae_e6e3_6181_f8f0),
            (3, 0x30bb_9794_37e3_7dd8),
            (7, 0x5ad8_aaf5_05d1_0e4c),
            (17, 0xa15b_c6ae_29b2_2012),
            (42, 0xde11_aaa5_36ba_6546),
            (99, 0x95ad_deeb_3b03_edb1),
        ];
        for (seed, want) in classic {
            let got = history_hash(&ChaosScenario::new(seed).plan().run().history());
            assert_eq!(got, want, "classic seed {seed} drifted");
        }
        let churn: [(u64, u64); 3] = [
            (1, 0x1b1b_40f8_54bc_e7d1),
            (8, 0x987c_05a5_800b_31c4),
            (21, 0x8845_77a1_d66a_37cf),
        ];
        for (seed, want) in churn {
            let got = history_hash(&ChaosScenario::churn(seed).plan().run().history());
            assert_eq!(got, want, "churn seed {seed} drifted");
        }
        let wan: [(u64, u64); 4] = [
            (1, 0x2e3b_d2e8_c11e_853e),
            (3, 0x39e4_d012_57be_436c),
            (6, 0xe486_001f_de5e_9ca7),
            (9, 0x5d90_3e5e_75da_3f0d),
        ];
        for (seed, want) in wan {
            let got = history_hash(&ChaosScenario::wan(seed).plan().run().history());
            assert_eq!(got, want, "wan seed {seed} drifted");
        }
        let wan_churn: [(u64, u64); 3] = [
            (0, 0x5c8c_8765_55ed_1f5e),
            (2, 0xaaf9_8818_ce07_7d01),
            (1098, 0x97e3_4308_735a_c5c5),
        ];
        for (seed, want) in wan_churn {
            let scenario = ChaosScenario {
                wan: true,
                ..ChaosScenario::churn(seed)
            };
            let got = history_hash(&scenario.plan().run().history());
            assert_eq!(got, want, "wan churn seed {seed} drifted");
        }
    }

    /// What the WAN draw guarantees: every node is attached exactly once,
    /// every ordered pair of drawn regions has exactly one route, and every
    /// congestion window restores what it degraded. (Several regions being
    /// *occupied* is not guaranteed: with `n = 3` over 2 regions every node
    /// lands in one region a quarter of the time.)
    #[test]
    fn wan_family_attaches_every_node_once_and_routes_every_region_pair() {
        assert_eq!(ChaosScenario::wan(5).plan(), ChaosScenario::wan(5).plan());
        for seed in 0..20u64 {
            let plan = ChaosScenario::wan(seed).plan();
            let cfg = plan
                .wan
                .as_ref()
                .expect("wan family always has a WAN model");
            let mut attached: Vec<u32> = cfg.attachments.iter().map(|a| a.p.0).collect();
            attached.sort_unstable();
            assert_eq!(attached, (1..=plan.n).collect::<Vec<_>>(), "seed {seed}");
            // The drawn region count is the one with exactly k·(k−1) routes.
            let k = (2..=3u32)
                .find(|k| cfg.routes.len() == (k * (k - 1)) as usize)
                .unwrap_or_else(|| panic!("seed {seed}: {} routes", cfg.routes.len()));
            let mut pairs: Vec<(u32, u32)> = cfg.routes.iter().map(|r| (r.from, r.to)).collect();
            pairs.sort_unstable();
            let want: Vec<(u32, u32)> = (0..k)
                .flat_map(|a| (0..k).filter(move |&b| b != a).map(move |b| (a, b)))
                .collect();
            assert_eq!(pairs, want, "seed {seed}");
            assert!(cfg.attachments.iter().all(|a| a.region < k), "seed {seed}");
            for r in &cfg.routes {
                let (lo_us, hi_us) = bounds_us(r.spec.latency);
                assert!(lo_us <= hi_us);
                assert!(r.spec.capacity_bps > 0);
            }
            // A congestion window always restores what it degraded.
            let wan_faults = plan
                .inputs
                .iter()
                .filter(|(_, i)| {
                    matches!(i, SimInput::Net(NetOp::WanLink(..) | NetOp::WanUplink(..)))
                })
                .count();
            assert!(wan_faults >= 2 && wan_faults % 2 == 0, "seed {seed}");
        }
    }

    /// Congested-but-healthy WAN runs: fair-share queueing, congestion
    /// windows and reorder holds must all stay inside the checker's
    /// envelope — suspicion may rise, exclusion may not happen falsely.
    #[test]
    fn wan_plans_run_green() {
        for seed in [0u64, 2, 5, 13] {
            let plan = ChaosScenario::wan(seed).plan();
            let violations = plan
                .try_run_and_check(&plan.check_options())
                .expect("engine survives WAN plans");
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    #[test]
    fn wan_plan_replays_to_identical_history_hash() {
        let plan = ChaosScenario::wan(6).plan();
        let h1 = history_hash(&plan.run().history());
        let h2 = history_hash(&plan.run().history());
        assert_eq!(h1, h2, "same WAN plan must replay bit-identically");
    }

    #[test]
    fn a_cluster_forked_mid_run_finishes_like_an_unforked_run() {
        let fingerprint = |c: &SimCluster| {
            let h = history_hash(&c.history());
            (c.state_digest(), h, c.net_stats())
        };
        for plan in [
            ChaosScenario::new(3).plan(),
            ChaosScenario::churn(3).plan(),
            ChaosScenario::wan(6).plan(),
        ] {
            // Fork just after the middle send: messages are in flight, and
            // later sends and faults are still queued.
            let end = Instant::from_micros(plan.horizon_us);
            let sends: Vec<u64> = plan
                .inputs
                .iter()
                .filter(|(_, i)| sent_mid(i).is_some())
                .map(|(at_us, _)| *at_us)
                .collect();
            let mut original = plan.scheduled();
            original.run_until(Instant::from_micros(sends[sends.len() / 2]));
            assert!(!original.pending_events().is_empty(), "forked mid-run");
            let mut fork = original.clone();
            fork.run_until(end);
            original.run_until(end);
            assert_eq!(fingerprint(&fork), fingerprint(&original));
            assert_eq!(fingerprint(&fork), fingerprint(&plan.run()));
        }
    }

    #[test]
    fn wan_script_roundtrip_preserves_plan() {
        for seed in [1u64, 4, 9] {
            let plan = ChaosScenario::wan(seed).plan();
            let script = plan.to_script(None);
            let (parsed, _) = ChaosPlan::parse_script(&script).expect("parses");
            assert_eq!(parsed, plan, "seed {seed}");
        }
    }

    #[test]
    fn parse_rejects_invalid_wan_directives() {
        let base = "newtop-chaos v1\nseed 1\nn 3\nhorizon-us 10\n\
                    group 1 symmetric omega-us 5 big-omega-us 9 members 1,2,3\n";
        let inverted = format!("{base}wan reorder-pm 0 hold-us 1\nwan-route 0 1 500 100 1000\n");
        assert!(ChaosPlan::parse_script(&inverted)
            .unwrap_err()
            .contains("inverted latency bounds"));
        let zero_cap = format!("{base}wan reorder-pm 0 hold-us 1\nwan-node 1 0 0\n");
        assert!(ChaosPlan::parse_script(&zero_cap)
            .unwrap_err()
            .contains("nonzero"));
        let orphan = format!("{base}wan-node 1 0 1000\n");
        assert!(ChaosPlan::parse_script(&orphan)
            .unwrap_err()
            .contains("before wan"));
        let inverted_fault = format!("{base}fault 5 latency uniform 900 100\n");
        assert!(ChaosPlan::parse_script(&inverted_fault)
            .unwrap_err()
            .contains("inverted latency bounds"));
        let bad_pm = format!("{base}wan reorder-pm 1001 hold-us 1\n");
        assert!(ChaosPlan::parse_script(&bad_pm)
            .unwrap_err()
            .contains("per-mille"));
        let retired = format!("{base}wan dup-pm 0 reorder-pm 0 hold-us 1\n");
        assert_eq!(
            ChaosPlan::parse_script(&retired).unwrap_err(),
            "line 6: unknown directive: `wan dup-pm 0 reorder-pm 0 hold-us 1`"
        );
    }

    #[test]
    fn plan_replays_to_identical_history_hash() {
        let plan = ChaosScenario::new(3).plan();
        let h1 = history_hash(&plan.run().history());
        let h2 = history_hash(&plan.run().history());
        assert_eq!(h1, h2, "same plan must replay bit-identically");
    }

    #[test]
    fn script_roundtrip_preserves_plan() {
        for seed in [0u64, 5, 11, 23, 42] {
            let plan = ChaosScenario::new(seed).plan();
            let script = plan.to_script(Some(0xDEAD_BEEF));
            let (parsed, hash) = ChaosPlan::parse_script(&script).expect("parses");
            assert_eq!(parsed, plan, "seed {seed}");
            assert_eq!(hash, Some(0xDEAD_BEEF));
        }
    }

    /// The codec's validation accepts everything the generator emits, in
    /// all four families, and every script committed to the corpus.
    #[test]
    fn generated_plans_and_corpus_scripts_pass_validation() {
        for seed in 0..200u64 {
            let wan_churn = ChaosScenario {
                wan: true,
                ..ChaosScenario::churn(seed)
            };
            let families = [
                ChaosScenario::new(seed),
                ChaosScenario::churn(seed),
                ChaosScenario::wan(seed),
                wan_churn,
            ];
            for scenario in families {
                let plan = scenario.plan();
                let (parsed, _) = ChaosPlan::parse_script(&plan.to_script(None))
                    .unwrap_or_else(|e| panic!("{scenario:?}: {e}"));
                assert_eq!(parsed, plan, "{scenario:?}");
            }
        }
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
        let mut scripts = 0;
        for entry in std::fs::read_dir(corpus).expect("corpus directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|x| x == "chaos") {
                let text = std::fs::read_to_string(&path).expect("corpus file readable");
                ChaosPlan::parse_script(&text)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                scripts += 1;
            }
        }
        assert!(scripts >= 20, "only {scripts} corpus scripts");
    }

    #[test]
    fn parse_rejects_malformed_scripts() {
        assert!(ChaosPlan::parse_script("").is_err());
        assert!(ChaosPlan::parse_script("newtop-chaos v2\n").is_err());
        let bad = "newtop-chaos v1\nseed 1\nn 3\nhorizon-us 10\nfrobnicate\n";
        assert!(ChaosPlan::parse_script(bad).unwrap_err().contains("line 5"));
        let no_groups = "newtop-chaos v1\nseed 1\nn 3\nhorizon-us 10\n";
        assert!(ChaosPlan::parse_script(no_groups).is_err());
    }

    #[test]
    fn parse_errors_quote_the_offending_line() {
        let bad = "newtop-chaos v1\nseed 1\nn 3\nhorizon-us 10\nfrobnicate\n";
        let e = ChaosPlan::parse_script(bad).unwrap_err();
        assert!(e.contains("line 5") && e.contains("`frobnicate`"), "{e}");
        let bad_mc = "newtop-chaos v1\nn 3\nhorizon-us 10\n\
                      group 1 symmetric omega-us 5 big-omega-us 9 members 1,2,3\n\
                      mc-step conjure 1\n";
        let e = ChaosPlan::parse_script(bad_mc).unwrap_err();
        assert!(
            e.contains("unknown mc-step") && e.contains("conjure"),
            "{e}"
        );
    }

    fn tiny_mc_plan() -> ChaosPlan {
        ChaosPlan {
            seed: 1,
            n: 3,
            topology: vec![GroupSpec {
                group: GroupId(1),
                mode: OrderMode::Symmetric,
                omega_us: 5_000,
                big_omega_us: 10_000,
                members: vec![1, 2, 3],
            }],
            inputs: Vec::new(),
            wan: None,
            mc_steps: vec![
                McStep::Input(SimInput::multicast(1, GroupId(1), MessageId(7))),
                McStep::Deliver { src: 1, dst: 2 },
                McStep::Deliver { src: 1, dst: 3 },
                McStep::Wake { p: 2 },
                McStep::Input(NetOp::Crash(ProcessId(3)).into()),
            ],
            horizon_us: 1,
        }
    }

    #[test]
    fn mc_script_roundtrips_and_replays_deterministically() {
        let plan = tiny_mc_plan();
        let script = plan.to_script(None);
        let (parsed, _) = ChaosPlan::parse_script(&script).expect("parses");
        assert_eq!(parsed, plan);
        let h1 = history_hash(&plan.run().history());
        let h2 = history_hash(&parsed.run().history());
        assert_eq!(h1, h2, "mc schedules must replay bit-identically");
        // Bounded prefix, not a quiescent run: only safety is asserted.
        assert!(!plan.check_options().liveness);
    }

    #[test]
    fn mc_schedule_skips_unfireable_steps() {
        let mut plan = tiny_mc_plan();
        // A link with nothing in flight and an already-crashed sender: both
        // must be no-ops, as ddmin shrink candidates rely on.
        plan.mc_steps.push(McStep::Deliver { src: 2, dst: 1 });
        let send = SimInput::multicast(3, GroupId(1), MessageId(8));
        plan.mc_steps.push(McStep::Input(send));
        let v = plan.run_and_check(&plan.check_options());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn small_seed_band_passes_checker() {
        for seed in 0..8u64 {
            let plan = ChaosScenario::new(seed).plan();
            let v = plan.run_and_check(&plan.check_options());
            assert!(v.is_empty(), "seed {seed}: {v:?}");
        }
    }

    #[test]
    fn shrink_reduces_a_fabricated_failure() {
        // A plan whose "failure" is simply delivering anything at all —
        // shrink must strip it to a minimal core while runs stay bounded.
        let plan = ChaosScenario::new(2).plan();
        let h = plan.run().history();
        assert!(delivery_count(&h) > 0);
        let mut runs = 0usize;
        let shrunk = ddmin(&plan.inputs, &mut runs, 500, 1, |cand| {
            let probe = ChaosPlan {
                inputs: cand.to_vec(),
                ..plan.clone()
            };
            delivery_count(&probe.run().history()) > 0
        });
        assert_eq!(shrunk.len(), 1, "one send suffices to deliver something");
        assert!(sent_mid(&shrunk[0].1).is_some(), "{shrunk:?}");
    }

    /// The timed inputs print as one list in schedule order, and inputs
    /// at one instant take effect in that order: the send goes out before
    /// the loss cut, which drops its two copies in flight to P2 and P3.
    #[test]
    fn same_instant_inputs_print_and_run_in_list_order() {
        let (plan, _) = ChaosPlan::parse_script(
            "newtop-chaos v1\nseed 1\nn 3\nhorizon-us 100000\n\
             group 1 symmetric omega-us 5000 big-omega-us 60000 members 1,2,3\n\
             send 5000 1 1 0\nfault 5000 partition loss 1|2,3\nfault 5000 heal\n",
        )
        .expect("parses");
        assert_eq!(
            plan.to_script(None),
            "newtop-chaos v1\nseed 1\nn 3\nhorizon-us 100000\n\
             group 1 symmetric omega-us 5000 big-omega-us 60000 members 1,2,3\n\
             send 5000 1 1 0\nfault 5000 partition loss 1|2,3\nfault 5000 heal\n"
        );
        let dropped_at_the_cut = |plan: &ChaosPlan| {
            let mut cluster = plan.scheduled();
            cluster.run_until(Instant::from_micros(5_000));
            cluster.net_stats().dropped_partition
        };
        let mut send_last = plan.clone();
        send_last.inputs.rotate_left(1);
        assert_eq!(
            dropped_at_the_cut(&plan),
            dropped_at_the_cut(&send_last) + 2
        );
    }

    #[test]
    fn parallel_ddmin_matches_sequential_exactly() {
        // A deterministic predicate with several local minima: the
        // candidate "still fails" while it keeps both sentinel values.
        let items: Vec<u32> = (0..37).collect();
        let pred = |cand: &[u32]| cand.contains(&5) && cand.contains(&29);
        let run = |jobs: usize, max_runs: usize| {
            let mut runs = 0usize;
            let out = ddmin(&items, &mut runs, max_runs, jobs, pred);
            (out, runs)
        };
        for max_runs in [7, 50, 10_000] {
            let base = run(1, max_runs);
            for jobs in [2, 3, 8] {
                assert_eq!(
                    run(jobs, max_runs),
                    base,
                    "jobs={jobs} max_runs={max_runs} must replay the sequential ddmin"
                );
            }
        }
        assert_eq!(run(1, 10_000).0, vec![5, 29]);
    }
}
