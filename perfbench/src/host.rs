//! The in-process workloads (`host_sym`, `host_asym_1k`) and the
//! measured-phase plumbing they share with `tcp_sym`.
//!
//! A run is [`ROUNDS`] independent rounds. Each round sets a fresh host
//! up — build the processes and groups, start the host with one shard,
//! warm up until a fixed number of deliveries — measures it for an equal
//! slice of the run, then drains it through the correctness gates and
//! tears it down. Every end-to-end figure is the median over the rounds,
//! so one host that settled into an unlucky batching rhythm, or one
//! stretch of interference, does not move the result.

use crate::gen::{Gen, Phase, Shape, Target, GEN_THREADS};
use crate::metrics::{self, median, put, Hist, Outcome, Values};
use crossbeam::channel::unbounded;
use newtop_runtime::{Cluster, ClusterConfig, Output, RunningCluster, WireStats};
use newtop_types::{GroupConfig, GroupId, OrderMode, ProcessId, Span};
use std::time::{Duration, Instant};

/// Rounds (fresh set-up plus a measured slice) per run.
pub const ROUNDS: usize = 5;

/// One in-process workload.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Groups: id, ordering mode, members.
    pub groups: Vec<(GroupId, OrderMode, Vec<ProcessId>)>,
    /// Nodes 1..=nodes.
    pub nodes: u32,
    /// Multicasts in flight per group.
    pub window: usize,
    /// Payload bytes.
    pub payload: usize,
    /// Member deliveries that end the warm-up.
    pub warmup: u64,
}

/// 12 nodes in 4 symmetric groups of 6. Every pair of groups shares two
/// nodes, so each node is in exactly two groups and orders across them
/// with its one logical clock.
///
/// The window is 16: a node's deliverability bound is the minimum over
/// both its groups, so a multicast waits for newer traffic from the
/// members of two groups. With 8 in flight per group that traffic was
/// often not yet sent and deliveries waited for ω nulls (p99 ≈ ω, a
/// timer-bound loop whose throughput swung by a third between runs);
/// from 12 up the loop is CPU-bound.
#[must_use]
pub fn host_sym() -> HostSpec {
    const PAIRS: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
    let mut members: Vec<Vec<ProcessId>> = vec![Vec::new(); 4];
    for i in 1..=12u32 {
        let (a, b) = PAIRS[(i as usize - 1) / 2];
        members[a].push(ProcessId(i));
        members[b].push(ProcessId(i));
    }
    HostSpec {
        groups: members
            .into_iter()
            .enumerate()
            .map(|(g, m)| (GroupId(g as u32 + 1), OrderMode::Symmetric, m))
            .collect(),
        nodes: 12,
        window: 16,
        payload: 64,
        warmup: 200_000,
    }
}

/// 8 nodes in 2 disjoint asymmetric (sequencer) groups of 4, 1 KiB
/// payloads.
#[must_use]
pub fn host_asym_1k() -> HostSpec {
    HostSpec {
        groups: (0..2u32)
            .map(|g| {
                (
                    GroupId(g + 1),
                    OrderMode::Asymmetric,
                    (1..=4).map(|i| ProcessId(g * 4 + i)).collect(),
                )
            })
            .collect(),
        nodes: 8,
        window: 16,
        payload: 1024,
        warmup: 150_000,
    }
}

/// ω for the host workloads; Ω is long enough that nobody is suspected.
pub const OMEGA: Span = Span::from_millis(25);
const BIG_OMEGA: Span = Span::from_secs(10);
/// The one-member group of the traced run's latency floor.
const SOLO_GROUP: GroupId = GroupId(100);

fn shape(spec: &HostSpec, seed: u64) -> Shape {
    Shape {
        nodes: (1..=spec.nodes).map(ProcessId).collect(),
        groups: spec
            .groups
            .iter()
            .map(|(g, _, m)| (*g, m.clone()))
            .collect(),
        window: spec.window,
        payload: spec.payload,
        home: vec![0; spec.nodes as usize],
        seed,
    }
}

/// Builds and starts the host: one shard, plus an idle one-member group
/// on its own node (the traced run's latency floor).
fn start(spec: &HostSpec) -> RunningCluster {
    let mut cluster = Cluster::with_config(ClusterConfig::new().shards(1));
    for i in 1..=spec.nodes + 1 {
        cluster.add_process(ProcessId(i));
    }
    for (g, mode, members) in &spec.groups {
        cluster
            .bootstrap_group(
                *g,
                members.clone(),
                GroupConfig::new(*mode)
                    .with_omega(OMEGA)
                    .with_big_omega(BIG_OMEGA),
            )
            .expect("bootstrap workload group");
    }
    cluster
        .bootstrap_group(
            SOLO_GROUP,
            [ProcessId(spec.nodes + 1)],
            GroupConfig::new(OrderMode::Symmetric),
        )
        .expect("bootstrap solo group");
    cluster.start()
}

/// Checks that the machine can run the generator and the host's shard
/// without oversubscribing its cores.
///
/// # Panics
///
/// Panics if `threads` exceeds the available parallelism.
pub fn assert_threads_fit(threads: usize) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    assert!(
        threads <= cores,
        "generator and host want {threads} busy threads but only {cores} cores exist"
    );
}

/// Counters of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Phased {
    /// Member deliveries per second.
    pub delivered_per_s: f64,
    /// Member deliveries seen.
    pub delivered: u64,
    /// Multicasts submitted.
    pub attempted: u64,
    /// Wire counters over the phase.
    pub wire: WireStats,
    /// Share of the phase the generator was not blocked.
    pub busy_share: f64,
}

fn wire_delta(after: &WireStats, before: &WireStats) -> WireStats {
    WireStats {
        frames: after.frames - before.frames,
        envelopes: after.envelopes - before.envelopes,
        bytes: after.bytes - before.bytes,
        null_frames: after.null_frames - before.null_frames,
        suppressed_nulls: after.suppressed_nulls - before.suppressed_nulls,
        reconnects: after.reconnects - before.reconnects,
        dropped_dead: after.dropped_dead - before.dropped_dead,
        handshake_rejects: after.handshake_rejects - before.handshake_rejects,
        shed_multicasts: after.shed_multicasts - before.shed_multicasts,
        ..WireStats::default()
    }
}

/// Runs one measured phase of `seconds` on a warmed-up generator.
///
/// # Panics
///
/// Panics if the host's wire counters cannot be read.
pub fn measure(gen: &mut Gen, target: &impl Target, seconds: f64) -> Phased {
    gen.set_phase(Phase::Measure);
    let before = target.wire().expect("wire counters");
    let start = Instant::now();
    gen.run(target, start + Duration::from_secs_f64(seconds), |_| false);
    let elapsed = start.elapsed();
    let after = target.wire().expect("wire counters");
    let tally = gen.tally;
    Phased {
        delivered_per_s: tally.delivered as f64 / elapsed.as_secs_f64(),
        delivered: tally.delivered,
        attempted: tally.attempted,
        wire: wire_delta(&after, &before),
        busy_share: 1.0 - tally.blocked.as_secs_f64() / elapsed.as_secs_f64(),
    }
}

/// The end-to-end figures of one round.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    setup_s: f64,
    delivered_per_s: f64,
    lat_p50_us: f64,
    lat_p99_us: f64,
    bytes_per_delivery: f64,
    msgs_per_delivery: f64,
}

impl Round {
    /// The figures of a round set up in `setup_s` whose untraced measured
    /// phase `m` just ended on `gen`.
    #[must_use]
    pub fn new(setup_s: f64, gen: &Gen, m: &Phased) -> Round {
        let per = |x: u64| x as f64 / m.delivered.max(1) as f64;
        Round {
            setup_s,
            delivered_per_s: m.delivered_per_s,
            lat_p50_us: gen.lat.quantile_us(0.5),
            lat_p99_us: gen.tail_p99_us(),
            bytes_per_delivery: per(m.wire.bytes),
            msgs_per_delivery: per(m.wire.envelopes),
        }
    }
}

/// Median untraced throughput over `rounds`.
#[must_use]
pub fn median_throughput(rounds: &[Round]) -> f64 {
    median(&rounds.iter().map(|r| r.delivered_per_s).collect::<Vec<_>>())
}

/// Puts the end-to-end metrics every real host reports: each the median
/// over the rounds (peak RSS is put by the caller).
pub fn put_end_to_end(values: &mut Values, rounds: &[Round]) {
    let med = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    for r in rounds {
        eprintln!(
            "  round: setup {:.3} s, {:.0} deliveries/s, p50 {:.1} us, p99 {:.1} us",
            r.setup_s, r.delivered_per_s, r.lat_p50_us, r.lat_p99_us
        );
    }
    put(values, "setup_s", med(|r| r.setup_s));
    put(values, "delivered_per_s", med(|r| r.delivered_per_s));
    put(values, "lat_p50_us", med(|r| r.lat_p50_us));
    put(values, "lat_p99_us", med(|r| r.lat_p99_us));
    put(
        values,
        "wire_bytes_per_delivery",
        med(|r| r.bytes_per_delivery),
    );
    put(values, "msgs_per_delivery", med(|r| r.msgs_per_delivery));
}

/// Puts the per-layer metrics every real host reports from a traced
/// phase `m`, against the untraced throughput `plain_per_s`.
pub fn put_layers(values: &mut Values, gen: &Gen, m: &Phased, plain_per_s: f64) {
    let per = |x: u64| x as f64 / m.delivered.max(1) as f64;
    let t = gen.trace.as_ref().expect("traced phase");
    put(
        values,
        "trace.overhead_share",
        1.0 - m.delivered_per_s / plain_per_s,
    );
    put(values, "lat.samples", gen.lat.count() as f64);
    put(values, "lat.p99_plain_us", gen.lat.quantile_us(0.99));
    put(
        values,
        "runtime.deliver_self_us.p50",
        t.deliver_self.quantile_us(0.5),
    );
    put(
        values,
        "runtime.deliver_self_us.p99",
        t.deliver_self.quantile_us(0.99),
    );
    put(
        values,
        "runtime.deliver_last_us.p99",
        t.deliver_last.quantile_us(0.99),
    );
    put(values, "transport.frames_per_delivery", per(m.wire.frames));
    put(
        values,
        "transport.envelopes_per_frame",
        m.wire.envelopes as f64 / m.wire.frames.max(1) as f64,
    );
    put(
        values,
        "transport.null_frames_per_delivery",
        per(m.wire.null_frames),
    );
    put(
        values,
        "transport.suppressed_nulls_per_delivery",
        per(m.wire.suppressed_nulls),
    );
    put(
        values,
        "transport.shed_per_attempt",
        m.wire.shed_multicasts as f64 / m.attempted.max(1) as f64,
    );
    put(values, "gen.busy_share", m.busy_share);
    put(values, "gen.sweep_us.p99", t.sweep.quantile_us(0.99));
}

/// Drains the generator and applies the gates: nothing refused, nothing
/// lost, no duplicate or unknown delivery, no view change, and one order
/// per group. Returns the number of multicasts that failed.
///
/// # Errors
///
/// A description of the first gate violation.
pub fn drain_and_gate(gen: &mut Gen, target: &impl Target, limit: Duration) -> Result<u64, String> {
    let drained = gen.drain(target, limit);
    if gen.violations > 0 {
        return Err(gen.first_violation.clone().unwrap_or_default());
    }
    gen.order_gate()?;
    if !drained {
        return Err(format!("{} multicasts never completed", gen.inflight()));
    }
    Ok(gen.refused)
}

/// Submit → delivery latency of sequential multicasts in the one-member
/// group: the host's floor, with nothing else in flight.
fn solo_floor(running: &RunningCluster, node: ProcessId, probes: u32) -> Hist {
    let handle = running.node(node).expect("solo node");
    let (tx, rx) = unbounded();
    let mut hist = Hist::new();
    for i in 0..probes {
        let t0 = Instant::now();
        handle.multicast_pipelined(
            SOLO_GROUP,
            bytes::Bytes::from(i.to_le_bytes().to_vec()),
            &tx,
        );
        loop {
            match handle.outputs().recv_timeout(Duration::from_secs(5)) {
                Ok(Output::Delivery(_)) => break,
                Ok(_) => {}
                Err(_) => return hist,
            }
        }
        hist.record(t0.elapsed().as_nanos() as u64);
        let _ = rx.recv_timeout(Duration::from_secs(5));
    }
    hist
}

/// Runs an in-process workload.
///
/// # Panics
///
/// Panics if the host cannot be built or the warm-up never finishes.
pub fn run(spec: &HostSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    // The generator's thread plus the host's single shard.
    assert_threads_fit(GEN_THREADS + 1);
    let shape = shape(spec, seed);
    let slice = seconds / ROUNDS as f64;
    let mut rounds = Vec::new();
    let mut values = Values::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for r in 0..ROUNDS {
        let t0 = Instant::now();
        let running = start(spec);
        let mut gen = Gen::new(&running, &shape);
        let warm = spec.warmup;
        assert!(
            gen.run(&running, t0 + Duration::from_secs(60), |g| g
                .total_delivered
                >= warm),
            "warm-up did not finish"
        );
        let setup_s = t0.elapsed().as_secs_f64();
        let m = measure(&mut gen, &running, slice);
        attempted += m.attempted;
        rounds.push(Round::new(setup_s, &gen, &m));
        let trace_here = traced && r + 1 == ROUNDS;
        if trace_here {
            gen.set_traced(true);
            let m = measure(&mut gen, &running, slice);
            attempted += m.attempted;
            put_layers(&mut values, &gen, &m, median_throughput(&rounds));
            let t = gen.trace.as_ref().expect("traced");
            put(
                &mut values,
                "runtime.submit_us.p50",
                t.submit.quantile_us(0.5),
            );
            put(
                &mut values,
                "runtime.submit_us.p99",
                t.submit.quantile_us(0.99),
            );
            put(
                &mut values,
                "runtime.verdict_us.p50",
                t.verdict.quantile_us(0.5),
            );
            put(
                &mut values,
                "runtime.verdict_us.p99",
                t.verdict.quantile_us(0.99),
            );
        }
        match drain_and_gate(&mut gen, &running, Duration::from_secs(10)) {
            Ok(f) => failed += f,
            Err(e) => return rejected(&e, attempted),
        }
        if trace_here {
            let floor = solo_floor(&running, ProcessId(spec.nodes + 1), 2000);
            put(
                &mut values,
                "runtime.solo_lat_us.p50",
                floor.quantile_us(0.5),
            );
            crate::write_spans(&gen.trace.as_ref().expect("traced").tracer);
        }
        drop(gen);
        running.shutdown();
    }
    if traced {
        put(
            &mut values,
            "gate.failed_ratio",
            failed as f64 / attempted.max(1) as f64,
        );
    } else {
        put_end_to_end(&mut values, &rounds);
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

/// The outcome of a run whose gate failed: every attempt counts as failed.
#[must_use]
pub fn rejected(why: &str, attempted: u64) -> Outcome {
    eprintln!("correctness gate failed: {why}");
    Outcome {
        correct: false,
        attempted: attempted.max(1),
        failed: attempted.max(1),
        values: Values::new(),
    }
}
