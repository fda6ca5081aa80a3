//! `newtop-exp` — runs the reproduction's experiment suite and prints its
//! tables (DESIGN.md §4 maps each experiment to its paper claim;
//! `newtop-exp --list` names them), drives the chaos fleet and the model
//! checker, and runs the processes of a real TCP cluster.
//!
//! ```text
//! newtop-exp all            # run every experiment (full sweeps)
//! newtop-exp e3 e6          # run selected experiments
//! newtop-exp --quick all    # reduced sweeps (what the tests run)
//! newtop-exp --list         # list experiments
//!
//! newtop-exp chaos --seeds 0..500          # sweep a seed range
//! newtop-exp chaos --seeds 0..100000 --budget-secs 3000   # nightly sweep
//! newtop-exp chaos --replay file.chaos     # replay a committed script
//! newtop-exp chaos --pin 42 --out f.chaos  # pin a seed as a replay script
//!
//! newtop-exp load --nodes 32 --groups 4 --secs 5          # runtime load test
//! newtop-exp load --host tcp --peers 127.0.0.1:7101,127.0.0.1:7102
//!                                          # drive a real multi-process cluster
//!
//! newtop-exp serve --nodes 6 --peers A,B,C --ctrl X,Y,Z --me 0
//!                                          # one node process of a TCP cluster
//! newtop-exp proxy --route 127.0.0.1:7201=127.0.0.1:7002 --drop-pct 2
//!                                          # frame-level chaos between peers
//!
//! newtop-exp mc --nodes 3 --max-msgs 4 --max-crashes 1    # exhaustive model check
//! ```
//!
//! `serve`, `load` and `load --supervise` read one cluster shape
//! (`remote::ClusterShape`) from `--nodes`, `--groups` and the group
//! flags `--mode`, `--omega-ms`, `--big-omega-ms` and `--accrual`. The
//! supervisor hands its shape to the serve processes it spawns; with
//! `--host tcp` the serve processes own the group flags, so `load`
//! refuses them there.
//!
//! Every command line is read through one flag table per subcommand
//! ([`Spec`]): each flag is spelled once, in its table entry, which also
//! holds its help text and how it sets the config. A flag that counts
//! threads, processes, nodes or budget units states its maximum in its
//! entry. The table rejects unknown flags, missing values, repeated flags
//! and counts above their maximum (exit 2, `error: …` and the usage on
//! stderr) before anything starts, and `--help` prints the usage
//! generated from it on stdout (exit 0).
//!
//! A failing chaos seed is delta-debugged to a minimal fault schedule and
//! written as a replay script under `--emit-dir` (default `target/chaos`);
//! the process exits nonzero.

use newtop_harness::chaos::{delivery_count, shrink, ChaosPlan, ChaosScenario};
use newtop_harness::loadgen::{run_load, HostKind, LoadConfig};
use newtop_harness::mc::{explore, McConfig, McViolation};
use newtop_harness::proxy::{run_proxy, ProxyConfig};
use newtop_harness::remote::{serve, ClusterShape, ServeConfig};
use newtop_harness::supervisor::{run_supervisor, SupervisorConfig};
use newtop_harness::sweep::{run_chaos_seed, sweep_seeds, SweepConfig};
use newtop_harness::{experiments, history_hash};
use newtop_types::{OrderMode, Span, SuspicionMode};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// The subcommands: (name, one-line summary, entry point). Any other
/// first argument goes to the experiment runner.
#[rustfmt::skip]
const COMMANDS: &[(&str, &str, Main)] = &[
    ("chaos", "seeded fault-schedule fleet: sweep seeds, replay or pin scripts", chaos_main),
    ("load", "closed-loop load test of the sharded host or a TCP cluster", load_main),
    ("mc", "exhaustive small-scope model check", mc_main),
    ("serve", "one peer process of a real TCP cluster", serve_main),
    ("proxy", "frame-level chaos proxy for the TCP data plane", proxy_main),
];

/// A subcommand's entry point: its arguments in, the exit code out.
type Main = fn(&[String]) -> ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args
        .first()
        .and_then(|a| COMMANDS.iter().find(|c| a == c.0));
    match command {
        Some((_, _, run)) => run(&args[1..]),
        None => experiments_main(&args),
    }
}

#[derive(Default)]
struct ExpArgs {
    quick: bool,
    list: bool,
    ids: Vec<String>,
}

/// The experiment runner's command line; its prose (the commands and the
/// experiments) is filled in at run time.
#[rustfmt::skip]
const EXP: Spec<ExpArgs> = Spec {
    synopsis: "[options] (all | <id>...)\n       newtop-exp <command> [options]",
    about: "",
    init: ExpArgs::default,
    operands: Some(|a, id| a.ids.push(id.to_string())),
    flags: &[
        switch("--quick", |a| a.quick = true, "reduced sweeps (what the tests run)"),
        switch("--list", |a| a.list = true, "list the experiments and exit"),
    ],
};

fn experiments_main(args: &[String]) -> ExitCode {
    let registry = experiments::all();
    let list: String = registry
        .iter()
        .map(|(id, desc, _)| format!("  {id:<6} {desc}\n"))
        .collect();
    let commands: String = COMMANDS
        .iter()
        .map(|(name, summary, _)| format!("  {name:<6} {summary}\n"))
        .collect();
    let about = format!(
        "Runs the paper's experiments and prints their tables (all runs every one).\n\n\
         commands (newtop-exp <command> --help lists its options):\n{commands}\n\
         experiments:\n{list}"
    );
    let spec = Spec {
        about: &about,
        ..EXP
    };
    let parsed = spec.parse(args);
    if parsed.list {
        print!("{list}");
        return ExitCode::SUCCESS;
    }
    if parsed.ids.is_empty() {
        spec.fail("name the experiments to run, or all");
    }
    let run_all = parsed.ids.iter().any(|s| s == "all");
    let mut ran = 0;
    for (id, desc, runner) in &registry {
        if run_all || parsed.ids.iter().any(|s| s == id) {
            eprintln!("running {id} — {desc} ...");
            let table = runner(parsed.quick);
            println!("{table}");
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!("no experiment matched {:?}; try --list", parsed.ids);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[derive(Default)]
struct ChaosArgs {
    seeds: Option<(u64, u64)>,
    replay: Option<String>,
    pin: Option<u64>,
    out: Option<String>,
    jobs: usize,
    budget_secs: Option<u64>,
    emit_dir: String,
    no_shrink: bool,
    dump: bool,
    max_n: u32,
    max_faults: Option<u32>,
    churn: bool,
    wan: bool,
}

#[rustfmt::skip]
const CHAOS: Spec<ChaosArgs> = Spec {
    synopsis: "chaos [options]",
    about: "Sweeps a range of seeded fault schedules, replays a committed script
(verifying its hash and the checker), or pins one seed's plan as a replay
script. A failing seed is delta-debugged and written as a replay script.",
    init: || ChaosArgs {
        jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        emit_dir: "target/chaos".to_string(),
        max_n: 7,
        ..ChaosArgs::default()
    },
    operands: None,
    flags: &[
        value("--seeds", "A..B", |a, v| seed_range(v).map(|r| a.seeds = Some(r)),
            "sweep seeds A (incl.) to B (excl.); a bare B means 0..B"),
        value("--replay", "FILE", |a, v| { a.replay = Some(v.into()); Ok(()) },
            "replay a script, verify hash+checker"),
        value("--pin", "SEED", |a, v| num(v).map(|s| a.pin = Some(s)),
            "write SEED's plan as a replay script (to --out, else stdout)"),
        value("--out", "FILE", |a, v| { a.out = Some(v.into()); Ok(()) },
            "with --pin: where the script goes"),
        at_most(64, value("--jobs", "N", |a, v| num(v).map(|j: usize| a.jobs = j.max(1)),
            "sweep (and shrink-probe) worker threads; default: the machine's available \
             parallelism. Results are bit-identical for every N — only wall-clock changes")),
        value("--budget-secs", "S", |a, v| num(v).map(|s| a.budget_secs = Some(s)),
            "stop sweeping after S wall-clock seconds (still exits 0 if everything that \
             did run was green)"),
        value("--emit-dir", "DIR", |a, v| { a.emit_dir = v.into(); Ok(()) },
            "where failing-seed replay scripts go (default target/chaos)"),
        switch("--no-shrink", |a| a.no_shrink = true, "skip delta-debugging failing schedules"),
        switch("--dump", |a| a.dump = true, "with --replay: print the per-process event logs"),
        at_most(64, value("--max-n", "N", |a, v| num(v).map(|n| a.max_n = n),
            "generation limit: processes (default 7)")),
        at_most(64, value("--max-faults", "K", |a, v| num(v).map(|k| a.max_faults = Some(k)),
            "generation limit: fault-schedule entries (default 4; 8 under --churn). A \
             family is a fault mix crossed with a network profile. Classic mix: 0..=K \
             entries, crash/partition/spike/depart equally likely, at most 2 crashes. \
             Churn mix: K/2..=K entries, crash and depart 3x as likely, up to n-2 crashes. \
             LAN profile: omega 5 ms, Omega 60 ms. WAN profile: omega 20 ms, Omega 250 ms, \
             a drawn region topology and congestion windows")),
        switch("--churn", |a| a.churn = true,
            "use the churn fault mix: crash/depart-heavy fault schedules with the crash \
             budget raised to n-2"),
        switch("--wan", |a| a.wan = true,
            "use the WAN network profile: seeded multi-region topologies with capped \
             uplinks, asymmetric trunks, a reorder knob and congestion windows (combines \
             with --churn)"),
    ],
};

fn chaos_main(args: &[String]) -> ExitCode {
    let parsed = CHAOS.parse(args);
    if let Some(file) = &parsed.replay {
        return chaos_replay(file, parsed.dump);
    }
    if let Some(seed) = parsed.pin {
        return chaos_pin(&parsed, seed);
    }
    let Some((lo, hi)) = parsed.seeds else {
        CHAOS.fail("nothing to do: give a seed range, a script to replay or a seed to pin");
    };
    chaos_sweep(&parsed, lo, hi)
}

fn scenario_for(parsed: &ChaosArgs, seed: u64) -> ChaosScenario {
    let mut s = if parsed.churn {
        ChaosScenario::churn(seed)
    } else {
        ChaosScenario::new(seed)
    };
    s.wan = parsed.wan;
    s.max_n = parsed.max_n;
    if let Some(mf) = parsed.max_faults {
        s.max_faults = mf;
    }
    s
}

fn chaos_sweep(parsed: &ChaosArgs, lo: u64, hi: u64) -> ExitCode {
    // Engine panics are caught and reported as seed failures; silence the
    // default hook so shrinking panicking candidates doesn't spam stderr.
    std::panic::set_hook(Box::new(|_| {}));
    let started = std::time::Instant::now();
    let cfg = SweepConfig {
        jobs: parsed.jobs,
        budget: parsed.budget_secs.map(Duration::from_secs),
        hash_histories: false,
    };
    // Phase 1 — the parallel sweep. Progress goes to stderr as seeds
    // complete (completion order varies with scheduling); everything on
    // stdout below comes from the deterministic aggregate, so it is
    // byte-identical for every --jobs value.
    let report = sweep_seeds(
        lo,
        hi,
        &cfg,
        |seed| run_chaos_seed(&scenario_for(parsed, seed), false),
        |_, done| {
            if done % 50 == 0 {
                eprintln!(
                    "chaos: {done} seeds swept ({:.1}s, {} jobs)",
                    started.elapsed().as_secs_f64(),
                    parsed.jobs
                );
            }
        },
    );
    // Phase 2 — deterministic aggregation: failing seeds in seed order,
    // each reported once, shrunk (probe pool shared with the sweep's
    // --jobs) and pinned as a replay script.
    for outcome in &report.failures {
        let seed = outcome.seed;
        let plan = scenario_for(parsed, seed).plan();
        let opts = plan.check_options();
        match &outcome.panic {
            Some(msg) => eprintln!("chaos: seed {seed} FAILED (ENGINE PANIC): {msg}"),
            None => {
                eprintln!(
                    "chaos: seed {seed} FAILED ({} violations):",
                    outcome.violations.len()
                );
                for v in outcome.violations.iter().take(5) {
                    eprintln!("  - {v}");
                }
            }
        }
        let final_plan = if parsed.no_shrink {
            plan
        } else {
            eprintln!("chaos: shrinking seed {seed} ...");
            let r = shrink(&plan, &opts, 400, parsed.jobs);
            eprintln!(
                "chaos: shrunk to {} timed inputs in {} runs",
                r.plan.inputs.len(),
                r.runs
            );
            r.plan
        };
        // Panicking plans have no replayable hash; the script still replays
        // the panic itself.
        let hash = final_plan.try_run_history().ok().map(|h| history_hash(&h));
        let script = final_plan.to_script(hash);
        if let Err(e) = std::fs::create_dir_all(&parsed.emit_dir) {
            eprintln!("chaos: cannot create {}: {e}", parsed.emit_dir);
        } else {
            let path = format!("{}/seed-{seed}.chaos", parsed.emit_dir);
            match std::fs::write(&path, &script) {
                Ok(()) => eprintln!("chaos: replay script written to {path}"),
                Err(e) => eprintln!("chaos: cannot write {path}: {e}"),
            }
        }
    }
    let failing = report.failing_seeds();
    let verdict = if failing.is_empty() { "green" } else { "RED" };
    println!(
        "chaos sweep {lo}..{hi}: {} seeds run{}, {} tagged deliveries, {} failing seed(s) — {verdict}",
        report.ran,
        if report.stopped_early { " (budget hit)" } else { "" },
        report.deliveries,
        failing.len(),
    );
    eprintln!(
        "chaos: {:.0} seeds/sec over {} jobs ({:.1}s wall)",
        report.ran as f64 / started.elapsed().as_secs_f64().max(1e-9),
        parsed.jobs,
        started.elapsed().as_secs_f64()
    );
    if !failing.is_empty() {
        println!("failing seeds: {failing:?}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn chaos_replay(file: &str, dump: bool) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("chaos: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let (plan, expect_hash) = match ChaosPlan::parse_script(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("chaos: {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let history = match plan.try_run_history() {
        Ok(h) => h,
        Err(panic_msg) => {
            println!("chaos replay {file}: ENGINE PANIC: {panic_msg}");
            return ExitCode::FAILURE;
        }
    };
    if dump {
        for (p, events) in &history.events {
            println!("== {p} ({} events)", events.len());
            for e in events {
                println!("  {e:?}");
            }
        }
    }
    let hash = history_hash(&history);
    if let Some(expect) = expect_hash {
        if hash != expect {
            println!(
                "chaos replay {file}: HASH MISMATCH (expected {expect:016x}, got {hash:016x})"
            );
            return ExitCode::FAILURE;
        }
    }
    let violations = newtop_harness::check_all(&history, &plan.check_options());
    if violations.is_empty() {
        println!(
            "chaos replay {file}: green (hash {hash:016x}, {} tagged deliveries)",
            delivery_count(&history)
        );
        ExitCode::SUCCESS
    } else {
        println!("chaos replay {file}: {} violation(s):", violations.len());
        for v in &violations {
            println!("  - {v}");
        }
        ExitCode::FAILURE
    }
}

#[derive(Default)]
struct LoadArgs {
    cfg: LoadConfig,
    supervise: bool,
    cycles: u32,
    procs: usize,
    seed: u64,
    port_base: u16,
    big_omega_set: bool,
    expect_stable: bool,
}

#[rustfmt::skip]
const LOAD: Spec<LoadArgs> = Spec {
    synopsis: "load [options]",
    about: "Closed-loop runtime load test: every group keeps a window of multicasts in
flight and the run reports delivered throughput and latency. The options
marked supervise run seeded kill -9 / restart / rejoin cycles against a
spawned TCP cluster instead, whose serve processes get the nodes, groups
and group config given here.",
    init: || LoadArgs { cycles: 3, procs: 3, seed: 1, port_base: 7400, ..LoadArgs::default() },
    operands: None,
    flags: &[
        at_most(1024, value("--nodes", "N", |a, v| num(v).map(|n| a.cfg.shape.nodes = n),
            "protocol participants (default 8)")),
        at_most(64, value("--groups", "G", |a, v| num(v).map(|g| a.cfg.shape.groups = g),
            "groups; node i joins group (i-1) mod G (default 3)")),
        at_most(64, value("--shards", "S", |a, v| num(v).map(|s| a.cfg.shards = s),
            "sharded host: worker shards (default: available parallelism)")),
        value("--secs", "T", |a, v| seconds(v).map(|t| a.cfg.secs = t),
            "sending duration in seconds, fractions ok (default 2)"),
        value("--mode", "sym|asym", |a, v| mode(v).map(|m| a.cfg.shape.group.mode = m),
            "sharded host and supervise: ordering variant for every group (default sym)"),
        at_most(1024, value("--window", "W", |a, v| num(v).map(|w| a.cfg.window = w),
            "closed-loop in-flight messages per group (default 16)")),
        value("--host", "sharded|tcp", |a, v| v.parse().map(|h| a.cfg.host = h),
            "host under test: the sharded event-loop host or a real multi-process cluster \
             of `newtop-exp serve` processes (default sharded)"),
        value("--peers", "A,B,...", |a, v| addrs(v).map(|p| a.cfg.peers = p),
            "tcp host: the serve processes' control addresses, cluster order (required \
             with --host tcp). The serve processes decide the group config, shards and \
             inbox bound, so --host tcp refuses those flags; --nodes and --groups must \
             match theirs"),
        switch("--stop-peers", |a| a.cfg.stop_peers = true,
            "tcp host: ask every serve process to shut down after the run"),
        value("--omega-ms", "MS",
            |a, v| num(v).map(|ms| a.cfg.shape.group.omega = Span::from_millis(ms)),
            "sharded host and supervise: time-silence interval omega (default 25)"),
        value("--big-omega-ms", "MS", |a, v| num(v).map(|ms| {
                a.cfg.shape.group.big_omega = Span::from_millis(ms);
                a.big_omega_set = true;
            }),
            "sharded host and supervise: suspicion timeout Omega (default 10000; 1500 \
             under --supervise)"),
        switch("--accrual", |a| a.cfg.shape.group.suspicion = SuspicionMode::accrual(),
            "sharded host and supervise: the adaptive accrual suspicion detector instead \
             of the fixed Omega timeout"),
        switch("--expect-stable", |a| a.expect_stable = true,
            "fail (exit 1) if any view change occurs mid-run — asserts zero false \
             exclusions under latency spikes"),
        at_most(1 << 20, value("--inbox-cap", "N", |a, v| num(v).map(|n| a.cfg.inbox_cap = Some(n)),
            "sharded host: shard-inbox admission bound; excess client multicasts are shed \
             as explicit backpressure")),
        switch("--supervise", |a| a.supervise = true,
            "spawn a real TCP cluster of serve processes and run seeded kill-9 / restart / \
             rejoin cycles against it (ignores --host and --peers)"),
        at_most(100, value("--cycles", "N", |a, v| num(v).map(|n| a.cycles = n),
            "supervise: kill/restart cycles (default 3)")),
        at_most(16, value("--procs", "P", |a, v| num(v).map(|p| a.procs = p),
            "supervise: serve processes (default 3; peer 0 is never killed)")),
        value("--seed", "S", |a, v| num(v).map(|s| a.seed = s),
            "supervise: victim-schedule seed (default 1)"),
        value("--port-base", "P", |a, v| num(v).map(|p| a.port_base = p),
            "supervise: first listen port (default 7400)"),
    ],
};

/// The supervisor's config from `load`'s command line.
fn supervisor_config(args: &LoadArgs) -> SupervisorConfig {
    let mut shape = args.cfg.shape;
    if !args.big_omega_set {
        shape.group.big_omega = SupervisorConfig::BIG_OMEGA;
    }
    SupervisorConfig {
        shape,
        procs: args.procs,
        cycles: args.cycles,
        seed: args.seed,
        port_base: args.port_base,
    }
}

/// `load --supervise`: the supervised crash-recovery scenario against a
/// real spawned TCP cluster.
fn supervise_main(args: &LoadArgs) -> ExitCode {
    let cfg = supervisor_config(args);
    eprintln!(
        "supervise: {} nodes / {} groups over {} procs, {} kill/restart cycle(s), seed {}{}",
        cfg.shape.nodes,
        cfg.shape.groups,
        cfg.procs,
        cfg.cycles,
        cfg.seed,
        if cfg.shape.group.suspicion == SuspicionMode::FixedOmega {
            ""
        } else {
            ", accrual"
        },
    );
    match run_supervisor(&cfg) {
        Ok(r) => {
            println!(
                "supervise [tcp] {} nodes / {} groups / {} procs: {} cycle(s), victims {:?}, \
                 {} rejoin(s), {} formation retry(s) {:?}, {} deliveries, {} view change(s), \
                 {} order violation(s) — green",
                cfg.shape.nodes,
                cfg.shape.groups,
                cfg.procs,
                r.cycles,
                r.victims,
                r.rejoins,
                r.formation_retries.len(),
                r.formation_retries,
                r.deliveries,
                r.view_changes,
                r.order_violations,
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("supervise: FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn load_main(args: &[String]) -> ExitCode {
    let parsed = LOAD.parse(args);
    if parsed.supervise {
        return supervise_main(&parsed);
    }
    let cfg = parsed.cfg;
    let host_name = cfg.host.as_str();
    // On the TCP host the serve processes decide the mode.
    let mode = match (cfg.host, cfg.shape.group.mode) {
        (HostKind::Tcp, _) => "",
        (HostKind::Sharded, OrderMode::Symmetric) => ", sym",
        (HostKind::Sharded, OrderMode::Asymmetric) => ", asym",
    };
    eprintln!(
        "load: host={host_name} nodes={} groups={}{mode} window={}/group secs={}",
        cfg.shape.nodes, cfg.shape.groups, cfg.window, cfg.secs
    );
    let report = match run_load(&cfg) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    println!(
        "load [{host_name}] {} nodes / {} groups / {} shard(s){mode}: \
         {} sent, {} delivered in {:.2}s => {:.0} msgs/sec delivered",
        cfg.shape.nodes,
        cfg.shape.groups,
        report.shards_used,
        report.sent,
        report.delivered,
        report.elapsed.as_secs_f64(),
        report.delivered_per_sec(),
    );
    println!(
        "load latency (multicast -> member delivery): p50 {:.2} ms, p99 {:.2} ms",
        report.p50_us as f64 / 1000.0,
        report.p99_us as f64 / 1000.0,
    );
    if let Some(wire) = report.wire {
        println!(
            "load wire: {} frames / {} envelopes, {:.2} MB exact ({:.2} MB/s)",
            wire.frames,
            wire.envelopes,
            wire.bytes as f64 / 1e6,
            wire.bytes as f64 / 1e6 / report.elapsed.as_secs_f64().max(1e-9),
        );
        println!(
            "load wire: {:.0} frames/sec vs {:.0} envelopes/sec \
             (mean batch occupancy {:.2})",
            report.frames_per_sec().unwrap_or(0.0),
            report.envelopes_per_sec().unwrap_or(0.0),
            wire.mean_occupancy(),
        );
        let hist: Vec<String> = newtop_runtime::OCCUPANCY_LABELS
            .iter()
            .zip(wire.occupancy.iter())
            .map(|(label, n)| format!("{label}:{n}"))
            .collect();
        println!("load wire: occupancy histogram [{}]", hist.join(" "));
        println!("load wire: {} null-only frames", wire.null_frames);
    }
    if report.view_changes > 0 {
        if parsed.expect_stable {
            eprintln!(
                "load: FAILED: {} view change(s) under --expect-stable — false exclusion(s)",
                report.view_changes
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "load: WARNING: {} view change(s) mid-run — the host starved a node past Omega",
            report.view_changes
        );
    }
    if report.delivered == 0 {
        eprintln!("load: no deliveries — treat as failure");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

struct McArgs {
    cfg: McConfig,
    emit_dir: String,
}

#[rustfmt::skip]
const MC: Spec<McArgs> = Spec {
    synopsis: "mc [options]",
    about: "Exhaustive small-scope model check. Explores every interleaving of one
group over N processes (with --nested, of a second group nested inside it)
within the budgets, deduping on the canonical state
digest and running the safety checker plus the engine invariant audit at
every state. A violation is ddmin-shrunk and written as a chaos replay
script (see newtop-exp chaos --help).",
    init: || McArgs { cfg: McConfig::new(3), emit_dir: "target/mc".to_string() },
    operands: None,
    flags: &[
        at_most(4, value("--nodes", "N", |a, v| match num(v)? {
                n @ 2.. => { a.cfg.nodes = n; Ok(()) }
                _ => Err("must be at least 2".into()),
            },
            "processes, all in group 1 (default 3)")),
        switch("--nested", |a| a.cfg.nested = true,
            "add group 2 = {P1, P2} inside group 1, whose multicasts stand in for \
             group 2's nulls; odd-numbered sends by P1 and P2 go to group 2"),
        at_most(u32::MAX as u64, value("--max-msgs", "K", |a, v| num(v).map(|k| a.cfg.max_msgs = k),
            "application-multicast budget (default 2); the auto depth saturates and \
             --budget-secs bounds the run")),
        at_most(4, value("--max-crashes", "K", |a, v| num(v).map(|k| a.cfg.max_crashes = k),
            "crash budget (default 1)")),
        at_most(64, value("--max-wakes", "K", |a, v| num(v).map(|k| a.cfg.max_wakes = k),
            "timer wake-up budget (default 0)")),
        value("--budget-secs", "S",
            |a, v| num(v).map(|s| a.cfg.budget = Some(Duration::from_secs(s))),
            "wall-clock budget; exceeding it exits 3 (inconclusive: the space was not \
             exhausted; a violation exits 1)"),
        value("--mode", "sym|asym", |a, v| mode(v).map(|m| a.cfg.mode = m),
            "ordering variant of the group (default sym)"),
        value("--omega-us", "US", |a, v| num(v).map(|us| a.cfg.omega_us = us),
            "time-silence interval omega (default 5000)"),
        value("--big-omega-us", "US", |a, v| num(v).map(|us| a.cfg.big_omega_us = us),
            "suspicion timeout Omega, must exceed omega (default 10000); short timers make \
             suspicion reachable within a small --max-wakes budget"),
        value("--emit-dir", "DIR", |a, v| { a.emit_dir = v.into(); Ok(()) },
            "where counterexample scripts go (default target/mc)"),
    ],
};

fn mc_main(args: &[String]) -> ExitCode {
    let parsed = MC.parse(args);
    if parsed.cfg.big_omega_us <= parsed.cfg.omega_us {
        MC.fail("--big-omega-us must exceed --omega-us");
    }
    let cfg = parsed.cfg;
    eprintln!(
        "mc: nodes={} nested={} max-msgs={} max-crashes={} max-wakes={} depth={}",
        cfg.nodes,
        cfg.nested,
        cfg.max_msgs,
        cfg.max_crashes,
        cfg.max_wakes,
        cfg.effective_depth(),
    );
    // Shrink probes replay schedules whose invariant audits may
    // debug-assert; the panics are caught and counted, not printed.
    std::panic::set_hook(Box::new(|_| {}));
    let report = explore(&cfg);
    println!(
        "mc {} nodes / {} msgs / {} crashes / {} wakes / depth {}: \
         {} states explored, {} deduped ({:.1}s)",
        cfg.nodes,
        cfg.max_msgs,
        cfg.max_crashes,
        cfg.max_wakes,
        cfg.effective_depth(),
        report.explored,
        report.deduped,
        report.elapsed.as_secs_f64(),
    );
    match &report.violation {
        None => {
            if report.complete {
                println!("mc: space exhausted, no violation — green");
                ExitCode::SUCCESS
            } else {
                // Exit 3 (not 1) so budget-capped deep runs can tell
                // "inconclusive" from "violation found".
                println!("mc: BUDGET EXHAUSTED before the space was — inconclusive");
                ExitCode::from(3)
            }
        }
        Some(v) => {
            match v {
                McViolation::Property(vs) => {
                    println!("mc: VIOLATION ({} checker finding(s)):", vs.len());
                    for v in vs.iter().take(5) {
                        println!("  - {v}");
                    }
                }
                McViolation::Invariant(e) => println!("mc: ENGINE INVARIANT VIOLATED: {e}"),
            }
            if let Some(cex) = &report.counterexample {
                println!(
                    "mc: counterexample schedule has {} step(s) (shrunk in {} runs)",
                    cex.mc_steps.len(),
                    report.shrink_runs
                );
                let hash = cex.try_run_history().ok().map(|h| history_hash(&h));
                let script = cex.to_script(hash);
                if let Err(e) = std::fs::create_dir_all(&parsed.emit_dir) {
                    eprintln!("mc: cannot create {}: {e}", parsed.emit_dir);
                } else {
                    let path = format!("{}/mc-counterexample.chaos", parsed.emit_dir);
                    match std::fs::write(&path, &script) {
                        Ok(()) => println!("mc: replay script written to {path}"),
                        Err(e) => eprintln!("mc: cannot write {path}: {e}"),
                    }
                }
            }
            ExitCode::FAILURE
        }
    }
}

#[rustfmt::skip]
const SERVE: Spec<ServeConfig> = Spec {
    synopsis: "serve [options]",
    about: "Runs one peer process of a real TCP cluster: hosts its contiguous block
of the N nodes on the sharded runtime, speaks the batched frame protocol
to the other peers, and serves the load generator's control connections
until a client sends shutdown (see newtop-exp load --help).",
    init: || ServeConfig::new(ClusterShape::default(), Vec::new(), Vec::new(), 0),
    operands: None,
    flags: &[
        at_most(1024, value("--nodes", "N", |c, v| num(v).map(|n| c.shape.nodes = n),
            "protocol participants cluster-wide (required)")),
        at_most(64, value("--groups", "G", |c, v| num(v).map(|g| c.shape.groups = g),
            "groups; node i joins group (i-1) mod G (default 1)")),
        value("--peers", "A,B,...", |c, v| addrs(v).map(|p| c.peers = p),
            "every peer's data-plane address, cluster order (required)"),
        value("--ctrl", "X,Y,...", |c, v| addrs(v).map(|p| c.ctrl = p),
            "every peer's control-plane address, same order (required)"),
        value("--me", "I", |c, v| num(v).map(|i| c.me = i),
            "this process's index into both lists (0-based, default 0)"),
        at_most(64, value("--shards", "S", |c, v| num(v).map(|s| if s > 0 { c.cluster = c.cluster.shards(s) }),
            "worker shards for the local sharded host (default, or 0: available parallelism)")),
        value("--mode", "sym|asym", |c, v| mode(v).map(|m| c.shape.group.mode = m),
            "ordering variant for every group (default sym)"),
        value("--omega-ms", "MS",
            |c, v| num(v).map(|ms| c.shape.group.omega = Span::from_millis(ms)),
            "time-silence interval omega (default 25)"),
        value("--big-omega-ms", "MS",
            |c, v| num(v).map(|ms| c.shape.group.big_omega = Span::from_millis(ms)),
            "suspicion timeout Omega (default 10000)"),
        switch("--accrual", |c| c.shape.group.suspicion = SuspicionMode::accrual(),
            "adaptive accrual suspicion instead of fixed Omega"),
        at_most(1 << 20, value("--inbox-cap", "N", |c, v| num(v).map(|n| c.cluster = c.cluster.inbox_cap(n)),
            "shard-inbox admission bound (client multicasts beyond it are shed as explicit \
             backpressure)")),
        switch("--rejoin", |c| c.bootstrap = false,
            "crash-recovery restart: skip the group bootstrap (the survivors excluded this \
             peer's old nodes; a fresh group arrives via a client's form op) and retry the \
             data-plane bind over TIME_WAIT residue"),
    ],
};

fn serve_main(args: &[String]) -> ExitCode {
    let cfg = SERVE.parse(args);
    if cfg.shape.nodes == 0 {
        SERVE.fail("--nodes is required");
    }
    if let Err(msg) = cfg.validate() {
        SERVE.fail(&msg);
    }
    eprintln!(
        "serve: peer {}/{} data={} ctrl={} hosting its block of the {} node(s)",
        cfg.me,
        cfg.peers.len(),
        cfg.peers[cfg.me],
        cfg.ctrl[cfg.me],
        cfg.shape.nodes,
    );
    match serve(&cfg) {
        Ok(()) => {
            eprintln!("serve: clean shutdown");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct ProxyArgs {
    cfg: ProxyConfig,
    secs: f64,
}

#[rustfmt::skip]
const PROXY: Spec<ProxyArgs> = Spec {
    synopsis: "proxy [options]",
    about: "Frame-level chaos proxy for the TCP data plane: point a peer's data
address at LISTEN and the proxy tunnels every connection to UPSTREAM,
dropping / delaying / reordering whole addressed records in the data
direction and pumping acks back verbatim. All interference resolves
through the runtime's sever-and-resume path, so the cluster must stay
correct under any schedule.",
    init: || ProxyArgs { cfg: ProxyConfig::new(Vec::new()), secs: 0.0 },
    operands: None,
    flags: &[
        repeatable(value("--route", "LISTEN=UPSTREAM",
            |a, v| route(v).map(|r| a.cfg.routes.push(r)),
            "tunnel: accept on LISTEN, forward to UPSTREAM (required, repeatable)")),
        value("--seed", "S", |a, v| num(v).map(|s| a.cfg.seed = s),
            "interference schedule seed (default 0)"),
        value("--drop-pct", "P", |a, v| num(v).map(|p: u8| a.cfg.drop_pct = p.min(100)),
            "percent of data records dropped (default 0)"),
        value("--delay-ms", "MS", |a, v| num(v).map(|ms| a.cfg.delay_ms = ms),
            "max random per-record hold, milliseconds (default 0)"),
        value("--reorder-pct", "P", |a, v| num(v).map(|p: u8| a.cfg.reorder_pct = p.min(100)),
            "percent of records held past their successor (default 0)"),
        value("--dup-pct", "P", |a, v| num(v).map(|p: u8| a.cfg.dup_pct = p.min(100)),
            "percent of records emitted twice back-to-back; the receiver must dedup by \
             sequence (default 0)"),
        value("--partition-at-ms", "T",
            |a, v| num(v).map(|ms| a.cfg.partition_at = Some(Duration::from_millis(ms))),
            "open a partition window T ms after start"),
        value("--partition-for-ms", "D",
            |a, v| num(v).map(|ms| a.cfg.partition_for = Duration::from_millis(ms)),
            "window length, milliseconds (default 2000)"),
        value("--rate-kbps", "R", |a, v| match num(v)? {
                0 => Err("must be nonzero (omit it for unshaped)".into()),
                kbps => { a.cfg.rate_kbps = Some(kbps); Ok(()) }
            },
            "token-bucket bandwidth shaping: cap each tunnel's data direction at R kilobytes \
             per second; records past the budget stall like on a saturated WAN uplink \
             (default: unshaped)"),
        value("--secs", "T", |a, v| seconds(v).map(|t| a.secs = t),
            "run this long then exit; 0 = until killed (default 0)"),
    ],
};

fn proxy_main(args: &[String]) -> ExitCode {
    let parsed = PROXY.parse(args);
    if parsed.cfg.routes.is_empty() {
        PROXY.fail("at least one --route is required");
    }
    let handle = match run_proxy(&parsed.cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: proxy bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (listen, upstream) in &parsed.cfg.routes {
        eprintln!("proxy: {listen} -> {upstream}");
    }
    eprintln!(
        "proxy: seed={} drop={}% delay<= {}ms reorder={}% dup={}%{}",
        parsed.cfg.seed,
        parsed.cfg.drop_pct,
        parsed.cfg.delay_ms,
        parsed.cfg.reorder_pct,
        parsed.cfg.dup_pct,
        match parsed.cfg.partition_at {
            Some(at) => format!(
                " partition @{}ms for {}ms",
                at.as_millis(),
                parsed.cfg.partition_for.as_millis()
            ),
            None => String::new(),
        },
    );
    if parsed.secs > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(parsed.secs));
        let forwarded = handle.forwarded.load(std::sync::atomic::Ordering::Relaxed);
        let dropped = handle.dropped.load(std::sync::atomic::Ordering::Relaxed);
        let duplicated = handle.duplicated.load(std::sync::atomic::Ordering::Relaxed);
        handle.stop();
        eprintln!(
            "proxy: done ({forwarded} records forwarded, {dropped} dropped, {duplicated} duplicated)"
        );
    } else {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    ExitCode::SUCCESS
}

fn chaos_pin(parsed: &ChaosArgs, seed: u64) -> ExitCode {
    let plan = scenario_for(parsed, seed).plan();
    let history = match plan.try_run_history() {
        Ok(h) => h,
        Err(panic_msg) => {
            eprintln!("chaos: seed {seed} ENGINE PANIC: {panic_msg} (script emitted without hash)");
            let script = plan.to_script(None);
            match &parsed.out {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, &script) {
                        eprintln!("chaos: cannot write {path}: {e}");
                        return ExitCode::from(2);
                    }
                }
                None => print!("{script}"),
            }
            return ExitCode::SUCCESS;
        }
    };
    let hash = history_hash(&history);
    let violations = newtop_harness::check_all(&history, &plan.check_options());
    let script = plan.to_script(Some(hash));
    match &parsed.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &script) {
                eprintln!("chaos: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!(
                "chaos: pinned seed {seed} to {path} (hash {hash:016x}, {} deliveries, {} violations)",
                delivery_count(&history),
                violations.len()
            );
        }
        None => print!("{script}"),
    }
    ExitCode::SUCCESS
}

/// One flag of a command line: its spelling, what it takes, and its help
/// text. Parsing and `--help` both read the table, so a flag is spelled in
/// exactly one place.
struct Flag<C> {
    name: &'static str,
    arg: Arg<C>,
    help: &'static str,
    /// May be given more than once (every other flag is rejected on repeat).
    repeat: bool,
    /// The largest value a count flag takes, checked before the value is
    /// set and printed in the usage.
    max: Option<u64>,
}

impl<C> Flag<C> {
    /// Refuses a number above the flag's maximum; anything else is left
    /// to the flag's own parser.
    fn check_max(&self, v: &str) -> Result<(), String> {
        match (self.max, v.parse::<u64>()) {
            (Some(max), Ok(n)) if n > max => Err(format!("must be at most {max}")),
            _ => Ok(()),
        }
    }

    /// The help text, with the maximum of a count flag.
    fn help(&self) -> String {
        match self.max {
            Some(max) => format!("{}; at most {max}", self.help),
            None => self.help.to_string(),
        }
    }
}

/// What a flag takes, and how it sets the command's config.
enum Arg<C> {
    /// Nothing: a switch.
    Switch(fn(&mut C)),
    /// One value, shown in the usage as the placeholder.
    Value(&'static str, fn(&mut C, &str) -> Result<(), String>),
}

/// A flag that takes one value, parsed and stored by `set`.
const fn value<C>(
    name: &'static str,
    placeholder: &'static str,
    set: fn(&mut C, &str) -> Result<(), String>,
    help: &'static str,
) -> Flag<C> {
    Flag {
        name,
        arg: Arg::Value(placeholder, set),
        help,
        repeat: false,
        max: None,
    }
}

/// A flag that takes no value.
const fn switch<C>(name: &'static str, set: fn(&mut C), help: &'static str) -> Flag<C> {
    Flag {
        name,
        arg: Arg::Switch(set),
        help,
        repeat: false,
        max: None,
    }
}

/// Refuses a value of `flag` above `max`.
const fn at_most<C>(max: u64, flag: Flag<C>) -> Flag<C> {
    Flag {
        max: Some(max),
        ..flag
    }
}

/// Lets `flag` be given more than once.
const fn repeatable<C>(flag: Flag<C>) -> Flag<C> {
    Flag {
        repeat: true,
        ..flag
    }
}

/// One command line: the synopsis and prose of its usage, its config's
/// defaults, where bare (non-flag) arguments go, and its flag table.
struct Spec<'a, C: 'static> {
    synopsis: &'a str,
    about: &'a str,
    init: fn() -> C,
    /// `None` rejects bare arguments.
    operands: Option<fn(&mut C, &str)>,
    flags: &'static [Flag<C>],
}

impl<C> Spec<'_, C> {
    /// Parses `args` into a config. `--help` prints the usage on stdout
    /// and exits 0; a usage error exits through [`Spec::fail`].
    fn parse(&self, args: &[String]) -> C {
        let mut cfg = (self.init)();
        match self.apply(&mut cfg, args) {
            Ok(true) => cfg,
            Ok(false) => {
                print!("{}", self.usage());
                std::process::exit(0)
            }
            Err(msg) => self.fail(&msg),
        }
    }

    /// Applies `args` to `cfg` through the table; `Ok(false)` when help
    /// was asked for.
    fn apply(&self, cfg: &mut C, args: &[String]) -> Result<bool, String> {
        let mut seen = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(false);
            }
            let Some(flag) = self.flags.iter().find(|f| f.name == arg) else {
                match self.operands {
                    Some(operand) if !arg.starts_with('-') => operand(cfg, arg),
                    _ => return Err(format!("unknown argument '{arg}'")),
                }
                continue;
            };
            if seen.contains(&flag.name) && !flag.repeat {
                return Err(format!("{} given twice", flag.name));
            }
            seen.push(flag.name);
            match flag.arg {
                Arg::Switch(set) => set(cfg),
                Arg::Value(placeholder, set) => {
                    let v = args
                        .next()
                        .ok_or_else(|| format!("{} needs a value ({placeholder})", flag.name))?;
                    flag.check_max(v)
                        .and_then(|()| set(cfg, v))
                        .map_err(|e| format!("bad {} '{v}': {e}", flag.name))?;
                }
            }
        }
        Ok(true)
    }

    /// Reports a usage error: `error: msg` and the usage on stderr, exit 2.
    fn fail(&self, msg: &str) -> ! {
        eprint!("error: {msg}\n\n{}", self.usage());
        std::process::exit(2)
    }

    /// The usage text, generated from the table: synopsis, prose, and one
    /// row per flag with its help wrapped from column 21.
    fn usage(&self) -> String {
        let mut out = format!(
            "usage: newtop-exp {}\n\n{}\n\noptions:\n",
            self.synopsis,
            self.about.trim_end()
        );
        let rows = self.flags.iter().map(|f| match f.arg {
            Arg::Switch(_) => (f.name.to_string(), f.help()),
            Arg::Value(placeholder, _) => (format!("{} {placeholder}", f.name), f.help()),
        });
        for (head, help) in rows.chain([("-h, --help".to_string(), "print this help".into())]) {
            let mut line = format!("  {head:<17} ");
            for (i, word) in help.split_whitespace().enumerate() {
                // Wrap at 78 columns; a head too long for its column puts
                // the help on the next line.
                if line.len() > 20 && (i == 0 || line.len() + word.len() >= 78) {
                    out += &line;
                    out.push('\n');
                    line = " ".repeat(20);
                }
                line.push(' ');
                line += word;
            }
            out += &line;
            out.push('\n');
        }
        out
    }
}

/// Parses a number of the slot's type.
fn num<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("expected a number ({})", std::any::type_name::<T>()))
}

/// Parses seconds: finite, not negative, fractions allowed.
fn seconds(v: &str) -> Result<f64, String> {
    match num::<f64>(v)? {
        t if t.is_finite() && t >= 0.0 => Ok(t),
        _ => Err("expected a finite number >= 0".into()),
    }
}

/// Parses an ordering variant.
fn mode(v: &str) -> Result<OrderMode, String> {
    match v {
        "sym" => Ok(OrderMode::Symmetric),
        "asym" => Ok(OrderMode::Asymmetric),
        _ => Err("expected sym or asym".into()),
    }
}

/// Parses a seed range `A..B` (a bare `B` means `0..B`); it must not be
/// empty.
fn seed_range(v: &str) -> Result<(u64, u64), String> {
    let (lo, hi) = match v.split_once("..") {
        Some((lo, hi)) => (num(lo)?, num(hi)?),
        None => (0, num(v)?),
    };
    if lo >= hi {
        return Err("range is empty".into());
    }
    Ok((lo, hi))
}

/// Parses one socket address.
fn addr(v: &str) -> Result<SocketAddr, String> {
    v.trim()
        .parse()
        .map_err(|_| format!("'{v}' is not a socket address"))
}

/// Parses a comma-separated address list.
fn addrs(v: &str) -> Result<Vec<SocketAddr>, String> {
    v.split(',').map(addr).collect()
}

/// Parses a proxy route `LISTEN=UPSTREAM`.
fn route(v: &str) -> Result<(SocketAddr, SocketAddr), String> {
    let (listen, upstream) = v.split_once('=').ok_or("expected LISTEN=UPSTREAM")?;
    Ok((addr(listen)?, addr(upstream)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_runtime::ClusterConfig;

    /// Runs `args` through `spec` without printing or exiting: the config,
    /// `Err("help")` when help was asked for, or the usage error.
    fn parse<C>(spec: &Spec<C>, args: &[&str]) -> Result<C, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let mut cfg = (spec.init)();
        match spec.apply(&mut cfg, &args)? {
            true => Ok(cfg),
            false => Err("help".into()),
        }
    }

    fn names<C>(spec: &Spec<C>) -> Vec<&'static str> {
        spec.flags.iter().map(|f| f.name).collect()
    }

    /// The flag spellings of `command`'s table; anything that is not a
    /// subcommand goes to the experiment runner.
    fn table(command: &str) -> Vec<&'static str> {
        match command {
            "chaos" => names(&CHAOS),
            "load" => names(&LOAD),
            "mc" => names(&MC),
            "serve" => names(&SERVE),
            "proxy" => names(&PROXY),
            _ => names(&EXP),
        }
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_rejected() {
        assert_eq!(
            parse(&LOAD, &["--bogus"]).err().as_deref(),
            Some("unknown argument '--bogus'")
        );
        assert!(parse(&LOAD, &["--nodes", "4", "extra"]).is_err());
        assert!(parse(&EXP, &["--quik", "e1"]).is_err());
        let exp = parse(&EXP, &["e1", "--quick", "e3"]).expect("operands and a switch");
        assert_eq!(exp.ids, ["e1", "e3"]);
        assert!(exp.quick && !exp.list);
    }

    #[test]
    fn repeated_flags_are_rejected_except_route() {
        assert_eq!(
            parse(&MC, &["--nodes", "3", "--nodes", "4"])
                .err()
                .as_deref(),
            Some("--nodes given twice")
        );
        assert!(parse(&LOAD, &["--accrual", "--accrual"]).is_err());
        let routes = [
            "--route",
            "127.0.0.1:1=127.0.0.1:2",
            "--route",
            "127.0.0.1:3=[::1]:4",
        ];
        let proxy = parse(&PROXY, &routes).expect("--route repeats");
        assert_eq!(proxy.cfg.routes.len(), 2);
        assert_eq!(proxy.cfg.routes[1].1, "[::1]:4".parse().unwrap());
    }

    #[test]
    fn a_missing_value_is_rejected() {
        assert_eq!(
            parse(&LOAD, &["--nodes"]).err().as_deref(),
            Some("--nodes needs a value (N)")
        );
        assert!(parse(&SERVE, &["--nodes", "3", "--peers"]).is_err());
    }

    #[test]
    fn floats_must_be_finite_and_not_negative() {
        for bad in ["inf", "-inf", "nan", "NaN", "-1", "1e400", "x"] {
            assert!(parse(&LOAD, &["--secs", bad]).is_err(), "load --secs {bad}");
            assert!(
                parse(&PROXY, &["--secs", bad]).is_err(),
                "proxy --secs {bad}"
            );
        }
        assert_eq!(parse(&LOAD, &["--secs", "0.5"]).unwrap().cfg.secs, 0.5);
        assert_eq!(parse(&PROXY, &["--secs", "0"]).unwrap().secs, 0.0);
    }

    #[test]
    fn values_keep_their_syntax_defaults_and_clamps() {
        let chaos = parse(&CHAOS, &["--jobs", "0", "--seeds", "500"]).unwrap();
        assert_eq!((chaos.jobs, chaos.seeds), (1, Some((0, 500))));
        assert_eq!((chaos.emit_dir.as_str(), chaos.max_n), ("target/chaos", 7));
        assert_eq!(
            parse(&CHAOS, &["--seeds", "3..9"]).unwrap().seeds,
            Some((3, 9))
        );
        assert!(parse(&CHAOS, &["--seeds", "9..3"]).is_err());

        let load = parse(&LOAD, &["--big-omega-ms", "700", "--mode", "asym"]).unwrap();
        assert!(load.big_omega_set);
        assert_eq!(load.cfg.shape.group.big_omega, Span::from_millis(700));
        assert_eq!(load.cfg.shape.group.mode, OrderMode::Asymmetric);
        assert_eq!(
            (load.cycles, load.procs, load.seed, load.port_base),
            (3, 3, 1, 7400)
        );
        assert!(!parse(&LOAD, &[]).unwrap().big_omega_set);
        assert!(parse(&LOAD, &["--mode", "lamport"]).is_err());
        assert!(parse(&LOAD, &["--host", "threads"]).is_err());

        assert!(parse(&MC, &["--nodes", "5"]).is_err());
        assert_eq!(parse(&MC, &[]).unwrap().emit_dir, "target/mc");

        let default_cluster = (SERVE.init)().cluster;
        let serve = parse(&SERVE, &["--shards", "0"]).unwrap();
        assert_eq!(serve.cluster, default_cluster);
        assert_eq!(
            parse(&SERVE, &["--shards", "2"]).unwrap().cluster,
            ClusterConfig::new().shards(2)
        );
        assert!(!parse(&SERVE, &["--rejoin"]).unwrap().bootstrap);

        let proxy = parse(&PROXY, &["--drop-pct", "250", "--dup-pct", "7"]).unwrap();
        assert_eq!((proxy.cfg.drop_pct, proxy.cfg.dup_pct), (100, 7));
        assert!(parse(&PROXY, &["--drop-pct", "300"]).is_err());
        assert!(parse(&PROXY, &["--rate-kbps", "0"]).is_err());
        assert!(parse(&PROXY, &["--route", "127.0.0.1:1"]).is_err());
    }

    /// A shape's `serve_args`, plus addresses, parse through the serve
    /// table back to the same shape, so a spawned serve runs the cluster
    /// its spawner holds; a shape the flags cannot say is refused, never
    /// rounded. The serve defaults are what perfbench, the scripts and
    /// the README rely on.
    #[test]
    fn serve_args_round_trip_through_the_serve_table() {
        let serve_default = parse(&SERVE, &[]).unwrap().shape;
        assert_eq!(serve_default, ClusterShape::default());
        let g = serve_default.group;
        assert_eq!(
            (g.mode, g.omega, g.big_omega, g.suspicion),
            (
                OrderMode::Symmetric,
                Span::from_millis(25),
                Span::from_secs(10),
                SuspicionMode::FixedOmega
            )
        );
        let base = ClusterShape {
            nodes: 6,
            groups: 2,
            ..ClusterShape::default()
        };
        let mut shapes = vec![base];
        for mode in [OrderMode::Symmetric, OrderMode::Asymmetric] {
            for suspicion in [SuspicionMode::FixedOmega, SuspicionMode::accrual()] {
                let mut s = base;
                s.nodes = 9;
                s.groups = 3;
                s.group.mode = mode;
                s.group.suspicion = suspicion;
                s.group.omega = Span::from_millis(7);
                s.group.big_omega = Span::from_millis(1500);
                shapes.push(s);
            }
        }
        for shape in shapes {
            let mut args = shape.serve_args().expect("expressible");
            args.extend(["--peers", "127.0.0.1:1", "--ctrl", "127.0.0.1:2"].map(String::from));
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let cfg = parse(&SERVE, &args).expect("serve parses its own argv");
            assert_eq!(cfg.shape, shape, "{args:?}");
            assert_eq!(cfg.validate(), Ok(()));
        }
        let refused = |tweak: fn(&mut ClusterShape)| {
            let mut s = base;
            tweak(&mut s);
            s.serve_args().unwrap_err()
        };
        assert!(refused(|s| s.group.omega = Span::from_micros(1500)).contains("--omega-ms"));
        assert!(
            refused(|s| s.group.big_omega = Span::from_micros(2_000_500))
                .contains("--big-omega-ms")
        );
        assert!(refused(|s| {
            s.group.suspicion = SuspicionMode::Accrual {
                window: 4,
                factor: 6,
                cap: 8,
            }
        })
        .contains("--accrual"));
        assert!(refused(|s| s.group = s.group.with_flow_window(8)).contains("flow window"));
        assert!(refused(|s| s.groups = 7).contains("groups <= nodes"));
    }

    /// `--help` and `-h` stop parsing wherever they stand; the generated
    /// usage lists every flag of the table and names no flag outside it.
    #[test]
    fn help_is_generated_from_the_table() {
        fn check<C>(command: &str, spec: &Spec<C>) {
            assert_eq!(parse(spec, &["--help"]).err().as_deref(), Some("help"));
            assert_eq!(
                parse(spec, &["-h", "--bogus"]).err().as_deref(),
                Some("help")
            );
            let usage = spec.usage();
            for name in names(spec) {
                assert!(
                    usage.contains(&format!("\n  {name}")),
                    "{command}: {name} not listed"
                );
            }
            for word in usage.split(|c: char| !(c.is_alphanumeric() || c == '-')) {
                if word.starts_with("--") && word != "--help" {
                    assert!(names(spec).contains(&word), "{command} usage names {word}");
                }
            }
        }
        check("", &EXP);
        check("chaos", &CHAOS);
        check("load", &LOAD);
        check("mc", &MC);
        check("serve", &SERVE);
        check("proxy", &PROXY);
        assert_eq!(COMMANDS.len(), 5);
    }

    /// Every `newtop-exp <command> …` and `"$BIN" <command> …` invocation
    /// in the README, the scripts and CI uses only flags of that command's
    /// table, so the prose cannot drift from the parser.
    #[test]
    fn documented_invocations_use_only_table_flags() {
        let docs = [
            include_str!("../../../../README.md"),
            include_str!("../../../../.github/workflows/ci.yml"),
            include_str!("../../../../scripts/crash_smoke.sh"),
            include_str!("../../../../scripts/smoke_cluster.sh"),
            include_str!("../../../../scripts/tcp_smoke.sh"),
            include_str!("../../../../scripts/wan_smoke.sh"),
        ];
        let mut checked = 0;
        let mut stale = Vec::new();
        for text in docs {
            for line in text.replace("\\\n", " ").lines() {
                for marker in ["newtop-exp", "\"$BIN\""] {
                    for (at, _) in line.match_indices(marker) {
                        let mut words = line[at + marker.len()..].split_whitespace().peekable();
                        // `cargo run … -- <args>`
                        words.next_if_eq(&"--");
                        let command = words.peek().map_or("", |w| w.trim_end_matches('`'));
                        let flags = table(command);
                        for word in words {
                            if word.starts_with(['#', '|', '&', ';']) {
                                break;
                            }
                            let flag = word.split('`').next().unwrap_or_default();
                            if flag.starts_with("--") && flag != "--help" {
                                checked += 1;
                                if !flags.contains(&flag) {
                                    stale.push(format!("{command} {flag} in: {line}"));
                                }
                            }
                            if word.contains('`') {
                                break;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            stale.is_empty(),
            "flags missing from their tables: {stale:#?}"
        );
        assert!(checked > 60, "only {checked} documented flags found");

        // Every `scripts/…` path the README names exists.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let readme = docs[0];
        let mut named = 0;
        for (at, _) in readme.match_indices("scripts/") {
            let path: String = readme[at..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || matches!(c, '/' | '_' | '.' | '-'))
                .collect();
            let path = path.trim_end_matches('.');
            named += 1;
            assert!(
                root.join(path).is_file(),
                "README names {path}, which is missing"
            );
        }
        assert!(named > 3, "only {named} script paths found in the README");
    }

    /// Every count flag takes 0, 1 and its maximum through parse and
    /// validation as its row says, and refuses its maximum + 1 and
    /// `u32::MAX` (when above the maximum) at parse. Nothing here starts
    /// a run, a thread or a process.
    #[test]
    fn count_flags_are_bounded_before_anything_starts() {
        fn verdict<C>(
            spec: &Spec<C>,
            args: &[&str],
            check: fn(&C) -> Result<(), String>,
        ) -> Result<(), String> {
            parse(spec, args).and_then(|c| check(&c))
        }
        fn load(a: &LoadArgs) -> Result<(), String> {
            if a.supervise {
                supervisor_config(a).validate()
            } else {
                a.cfg.validate()
            }
        }
        fn maxima<C>(
            command: &'static str,
            spec: &Spec<C>,
        ) -> Vec<(&'static str, &'static str, u64)> {
            spec.flags
                .iter()
                .filter_map(|f| Some((command, f.name, f.max?)))
                .collect()
        }
        const SERVE_ARGS: [&str; 4] = ["--peers", "127.0.0.1:1", "--ctrl", "127.0.0.1:2"];
        const SERVE_1024: [&str; 6] = [
            "--peers",
            "127.0.0.1:1",
            "--ctrl",
            "127.0.0.1:2",
            "--nodes",
            "1024",
        ];
        // (command, other arguments, flag, its maximum, the least value
        // that passes parse and validation)
        let rows: [(&str, &[&str], &str, u64, u64); 18] = [
            ("chaos", &[], "--jobs", 64, 0),
            ("chaos", &[], "--max-n", 64, 0),
            ("chaos", &[], "--max-faults", 64, 0),
            ("load", &["--groups", "1"], "--nodes", 1024, 1),
            ("load", &["--nodes", "1024"], "--groups", 64, 1),
            ("load", &[], "--shards", 64, 0),
            ("load", &[], "--window", 1024, 1),
            ("load", &[], "--inbox-cap", 1 << 20, 0),
            ("load", &["--supervise"], "--cycles", 100, 0),
            (
                "load",
                &["--supervise", "--nodes", "64", "--groups", "2"],
                "--procs",
                16,
                2,
            ),
            ("mc", &[], "--nodes", 4, 2),
            ("mc", &[], "--max-msgs", u32::MAX.into(), 0),
            ("mc", &[], "--max-crashes", 4, 0),
            ("mc", &[], "--max-wakes", 64, 0),
            ("serve", &SERVE_ARGS, "--nodes", 1024, 1),
            ("serve", &SERVE_1024, "--groups", 64, 1),
            ("serve", &SERVE_1024, "--shards", 64, 0),
            ("serve", &SERVE_1024, "--inbox-cap", 1 << 20, 0),
        ];
        let bounded = [
            maxima("chaos", &CHAOS),
            maxima("load", &LOAD),
            maxima("mc", &MC),
            maxima("serve", &SERVE),
            maxima("proxy", &PROXY),
        ]
        .concat();
        let listed: Vec<_> = rows.iter().map(|&(c, _, f, max, _)| (c, f, max)).collect();
        assert_eq!(
            bounded, listed,
            "the rows must list every bounded flag and its maximum"
        );

        for (command, other, flag, max, least) in rows {
            let run = |v: u64| {
                let v = v.to_string();
                let mut args = other.to_vec();
                args.extend([flag, v.as_str()]);
                match command {
                    "chaos" => verdict(&CHAOS, &args, |_| Ok(())),
                    "load" => verdict(&LOAD, &args, load),
                    "mc" => verdict(&MC, &args, |_| Ok(())),
                    _ => verdict(&SERVE, &args, ServeConfig::validate),
                }
            };
            for v in [0, 1, max] {
                assert_eq!(
                    run(v).is_ok(),
                    v >= least,
                    "{command} {flag} {v}: {:?}",
                    run(v)
                );
            }
            for v in [max + 1, u32::MAX.into()].into_iter().filter(|&v| v > max) {
                let err = run(v).expect_err(&format!("{command} {flag} {v} accepted"));
                assert!(
                    err.contains(&format!("at most {max}")),
                    "{command} {flag} {v}: {err}"
                );
            }
            let usage = match command {
                "chaos" => CHAOS.usage(),
                "load" => LOAD.usage(),
                "mc" => MC.usage(),
                _ => SERVE.usage(),
            };
            let usage = usage.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(
                usage.contains(&format!("at most {max}")),
                "{command} --help omits {flag}'s maximum"
            );
        }
        // The supervisor's 2 · procs ports must end at or below 65535.
        let port_base = |p: &'static str| verdict(&LOAD, &["--supervise", "--port-base", p], load);
        assert!(port_base("65530").is_ok());
        assert!(port_base("65531").is_err_and(|e| e.contains("run past the last port")));
    }
}
