//! `newtop-exp` — runs the reproduction's experiment suite and prints the
//! tables recorded in EXPERIMENTS.md, and drives the chaos fleet.
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
//! newtop-exp mc --nodes 3 --strategy iddfs --budget-secs 600
//! ```
//!
//! A failing chaos seed is delta-debugged to a minimal fault schedule and
//! written as a replay script under `--emit-dir` (default `target/chaos`);
//! the process exits nonzero.

use newtop_harness::chaos::{delivery_count, shrink, ChaosPlan, ChaosScenario};
use newtop_harness::loadgen::{run_load, HostKind, LoadConfig};
use newtop_harness::mc::{explore, McConfig, McStrategy, McViolation};
use newtop_harness::proxy::{run_proxy, ProxyConfig};
use newtop_harness::remote::{serve, ServeConfig};
use newtop_harness::supervisor::{run_supervisor, SupervisorConfig};
use newtop_harness::sweep::{run_chaos_seed, sweep_seeds, SweepConfig};
use newtop_harness::{experiments, history_hash};
use newtop_types::{OrderMode, Span, SuspicionMode};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("chaos") {
        return chaos_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("load") {
        return load_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("mc") {
        return mc_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return serve_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("proxy") {
        return proxy_main(&args[1..]);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let list = args.iter().any(|a| a == "--list");
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    let registry = experiments::all();
    if list || (selected.is_empty()) {
        eprintln!(
            "usage: newtop-exp [--quick] (all | <id>...)\n       newtop-exp chaos --help\n       newtop-exp load --help\n       newtop-exp mc --help\n       newtop-exp serve --help\n       newtop-exp proxy --help\n\nexperiments:"
        );
        for (id, desc, _) in &registry {
            eprintln!("  {id:<4} {desc}");
        }
        return if list {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let run_all = selected.iter().any(|s| s == "all");
    let mut ran = 0;
    for (id, desc, runner) in &registry {
        if run_all || selected.iter().any(|s| s == id) {
            eprintln!("running {id} — {desc} ...");
            let table = runner(quick);
            println!("{table}");
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!("no experiment matched {selected:?}; try --list");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

const CHAOS_USAGE: &str = "usage:
  newtop-exp chaos --seeds A..B [options]   sweep seeds A (incl.) to B (excl.)
  newtop-exp chaos --replay FILE            replay a script, verify hash+checker
  newtop-exp chaos --pin SEED --out FILE    write SEED's plan as a replay script

options:
  --jobs N           sweep (and shrink-probe) worker threads; default: the
                     machine's available parallelism. Results are
                     bit-identical for every N — only wall-clock changes
  --budget-secs S    stop sweeping after S wall-clock seconds (still exits 0
                     if everything that did run was green)
  --emit-dir DIR     where failing-seed replay scripts go (default target/chaos)
  --no-shrink        skip delta-debugging failing schedules
  --dump             with --replay: print the per-process event logs
  --max-n N          generation limit: processes (default 7)
  --max-faults K     generation limit: fault-schedule entries (default 4;
                     8 under --churn)
  --churn            generate the churn family: crash/depart-heavy fault
                     schedules with the crash budget raised to n-2
  --wan              generate the WAN/geo family: seeded multi-region
                     topologies with capped uplinks, asymmetric trunks,
                     duplication/reorder knobs and congestion windows
                     (combines with --churn)";

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

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn parse_chaos_args(args: &[String]) -> Result<ChaosArgs, String> {
    let mut out = ChaosArgs {
        seeds: None,
        replay: None,
        pin: None,
        out: None,
        jobs: default_jobs(),
        budget_secs: None,
        emit_dir: "target/chaos".to_string(),
        no_shrink: false,
        dump: false,
        max_n: 7,
        max_faults: None,
        churn: false,
        wan: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--seeds" => {
                let v = val("--seeds")?;
                let (lo, hi) = match v.split_once("..") {
                    Some((lo, hi)) => (
                        lo.parse::<u64>().map_err(|_| "bad --seeds".to_string())?,
                        hi.parse::<u64>().map_err(|_| "bad --seeds".to_string())?,
                    ),
                    None => (0, v.parse::<u64>().map_err(|_| "bad --seeds".to_string())?),
                };
                if lo >= hi {
                    return Err("--seeds range is empty".to_string());
                }
                out.seeds = Some((lo, hi));
            }
            "--replay" => out.replay = Some(val("--replay")?),
            "--pin" => {
                out.pin = Some(
                    val("--pin")?
                        .parse::<u64>()
                        .map_err(|_| "bad --pin seed".to_string())?,
                );
            }
            "--out" => out.out = Some(val("--out")?),
            "--jobs" => {
                out.jobs = val("--jobs")?
                    .parse::<usize>()
                    .map_err(|_| "bad --jobs".to_string())?
                    .max(1);
            }
            "--budget-secs" => {
                out.budget_secs = Some(
                    val("--budget-secs")?
                        .parse::<u64>()
                        .map_err(|_| "bad --budget-secs".to_string())?,
                );
            }
            "--emit-dir" => out.emit_dir = val("--emit-dir")?,
            "--no-shrink" => out.no_shrink = true,
            "--dump" => out.dump = true,
            "--max-n" => {
                out.max_n = val("--max-n")?
                    .parse::<u32>()
                    .map_err(|_| "bad --max-n".to_string())?;
            }
            "--max-faults" => {
                out.max_faults = Some(
                    val("--max-faults")?
                        .parse::<u32>()
                        .map_err(|_| "bad --max-faults".to_string())?,
                );
            }
            "--churn" => out.churn = true,
            "--wan" => out.wan = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown chaos option {other}")),
        }
    }
    Ok(out)
}

fn chaos_main(args: &[String]) -> ExitCode {
    let parsed = match parse_chaos_args(args) {
        Ok(p) => p,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{CHAOS_USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(file) = &parsed.replay {
        return chaos_replay(file, parsed.dump);
    }
    if let Some(seed) = parsed.pin {
        return chaos_pin(&parsed, seed);
    }
    let Some((lo, hi)) = parsed.seeds else {
        eprintln!("{CHAOS_USAGE}");
        return ExitCode::from(2);
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
                "chaos: shrunk to {} faults / {} sends in {} runs",
                r.plan.faults.len(),
                r.plan.sends.len(),
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

const LOAD_USAGE: &str = "usage:
  newtop-exp load [options]        closed-loop runtime load test

options:
  --nodes N          protocol participants (default 8)
  --groups G         groups; node i joins group (i-1) mod G (default 3)
  --shards S         worker shards for the sharded host
                     (default: available parallelism)
  --secs T           sending duration in seconds, fractions ok (default 2)
  --mode sym|asym    ordering variant for every group (default sym)
  --payload B        application payload bytes, >= 8 (default 64)
  --window W         closed-loop in-flight messages per group (default 16)
  --host sharded|tcp  host under test: the sharded event-loop host or a
                     real multi-process cluster of `newtop-exp serve`
                     processes (default sharded)
  --peers A,B,...    tcp host: the serve processes' control addresses,
                     cluster order (required with --host tcp)
  --stop-peers       tcp host: ask every serve process to shut down
                     after the run
  --omega-ms MS      time-silence interval omega (default 25)
  --big-omega-ms MS  suspicion timeout Omega (default 10000;
                     1500 under --supervise)
  --accrual          run the adaptive accrual suspicion detector instead
                     of the fixed Omega timeout
  --expect-stable    fail (exit 1) if any view change occurs mid-run —
                     asserts zero false exclusions under latency spikes
  --inbox-cap N      shard-inbox admission bound; excess client
                     multicasts are shed as explicit backpressure
  --wan-profile KBPS sharded host: cap the host's whole egress at KBPS
                     kilobytes per second (a WAN uplink). Shards past
                     the budget stall, so latency rises like on a
                     saturated real link; pair with --accrual
                     --expect-stable to assert congestion never causes
                     a false exclusion

churn / crash-recovery:
  --churn SEED       sharded host: seeded mid-run kills of non-driver
                     nodes (exclusions are then expected, not warnings).
                     With --host tcp this routes to --supervise
  --supervise        spawn a real TCP cluster of serve processes and run
                     seeded kill-9 / restart / rejoin cycles against it
                     (ignores --host and --peers)
  --cycles N         supervise: kill/restart cycles (default 3)
  --procs P          supervise: serve processes (default 3; peer 0 is
                     never killed)
  --seed S           supervise: victim-schedule seed (default 1)
  --port-base P      supervise: first listen port (default 7400)";

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

fn parse_load_args(args: &[String]) -> Result<LoadArgs, String> {
    let mut cfg = LoadConfig::default();
    let mut supervise = false;
    let mut cycles = 3u32;
    let mut procs = 3usize;
    let mut seed = 1u64;
    let mut port_base = 7400u16;
    let mut big_omega_set = false;
    let mut expect_stable = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--nodes" => {
                cfg.nodes = val("--nodes")?
                    .parse::<u32>()
                    .map_err(|_| "bad --nodes".to_string())?;
            }
            "--groups" => {
                cfg.groups = val("--groups")?
                    .parse::<u32>()
                    .map_err(|_| "bad --groups".to_string())?;
            }
            "--shards" => {
                cfg.shards = val("--shards")?
                    .parse::<usize>()
                    .map_err(|_| "bad --shards".to_string())?;
            }
            "--secs" => {
                cfg.secs = val("--secs")?
                    .parse::<f64>()
                    .map_err(|_| "bad --secs".to_string())?;
            }
            "--mode" => {
                cfg.mode = match val("--mode")?.as_str() {
                    "sym" => OrderMode::Symmetric,
                    "asym" => OrderMode::Asymmetric,
                    other => return Err(format!("bad --mode {other} (sym|asym)")),
                };
            }
            "--payload" => {
                cfg.payload = val("--payload")?
                    .parse::<usize>()
                    .map_err(|_| "bad --payload".to_string())?;
            }
            "--window" => {
                cfg.window = val("--window")?
                    .parse::<u32>()
                    .map_err(|_| "bad --window".to_string())?;
            }
            "--host" => cfg.host = val("--host")?.parse::<HostKind>()?,
            "--peers" => cfg.peers = parse_addr_list("--peers", &val("--peers")?)?,
            "--stop-peers" => cfg.stop_peers = true,
            "--omega-ms" => {
                cfg.omega = Span::from_millis(
                    val("--omega-ms")?
                        .parse::<u64>()
                        .map_err(|_| "bad --omega-ms".to_string())?,
                );
            }
            "--big-omega-ms" => {
                cfg.big_omega = Span::from_millis(
                    val("--big-omega-ms")?
                        .parse::<u64>()
                        .map_err(|_| "bad --big-omega-ms".to_string())?,
                );
                big_omega_set = true;
            }
            "--accrual" => cfg.suspicion = SuspicionMode::accrual(),
            "--expect-stable" => expect_stable = true,
            "--inbox-cap" => {
                cfg.inbox_cap = Some(
                    val("--inbox-cap")?
                        .parse::<usize>()
                        .map_err(|_| "bad --inbox-cap".to_string())?,
                );
            }
            "--churn" => {
                cfg.churn = Some(
                    val("--churn")?
                        .parse::<u64>()
                        .map_err(|_| "bad --churn seed".to_string())?,
                );
            }
            "--supervise" => supervise = true,
            "--cycles" => {
                cycles = val("--cycles")?
                    .parse::<u32>()
                    .map_err(|_| "bad --cycles".to_string())?;
            }
            "--procs" => {
                procs = val("--procs")?
                    .parse::<usize>()
                    .map_err(|_| "bad --procs".to_string())?;
            }
            "--seed" => {
                seed = val("--seed")?
                    .parse::<u64>()
                    .map_err(|_| "bad --seed".to_string())?;
            }
            "--port-base" => {
                port_base = val("--port-base")?
                    .parse::<u16>()
                    .map_err(|_| "bad --port-base".to_string())?;
            }
            "--wan-profile" => {
                cfg.wan_profile_kbps = Some(
                    val("--wan-profile")?
                        .parse::<u64>()
                        .map_err(|_| "bad --wan-profile".to_string())?,
                );
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown load option {other}")),
        }
    }
    Ok(LoadArgs {
        cfg,
        supervise,
        cycles,
        procs,
        seed,
        port_base,
        big_omega_set,
        expect_stable,
    })
}

/// `load --supervise` (and `load --churn --host tcp`): the supervised
/// crash-recovery scenario against a real spawned TCP cluster.
fn supervise_main(args: &LoadArgs) -> ExitCode {
    let mut cfg = SupervisorConfig::new(args.cfg.churn.unwrap_or(args.seed));
    cfg.nodes = args.cfg.nodes;
    cfg.groups = args.cfg.groups;
    cfg.procs = args.procs;
    cfg.cycles = args.cycles;
    cfg.payload = args.cfg.payload;
    cfg.mode = args.cfg.mode;
    cfg.omega = args.cfg.omega;
    if args.big_omega_set {
        cfg.big_omega = args.cfg.big_omega;
    }
    cfg.accrual = args.cfg.suspicion != SuspicionMode::FixedOmega;
    cfg.port_base = args.port_base;
    eprintln!(
        "supervise: {} nodes / {} groups over {} procs, {} kill/restart cycle(s), seed {}{}",
        cfg.nodes,
        cfg.groups,
        cfg.procs,
        cfg.cycles,
        cfg.seed,
        if cfg.accrual { ", accrual" } else { "" },
    );
    match run_supervisor(&cfg) {
        Ok(r) => {
            println!(
                "supervise [tcp] {} nodes / {} groups / {} procs: {} cycle(s), victims {:?}, \
                 {} rejoin(s), {} deliveries, {} view change(s), {} order violation(s) — green",
                cfg.nodes,
                cfg.groups,
                cfg.procs,
                r.cycles,
                r.victims,
                r.rejoins,
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
    let parsed = match parse_load_args(args) {
        Ok(c) => c,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{LOAD_USAGE}");
            return ExitCode::from(2);
        }
    };
    if parsed.supervise || (parsed.cfg.churn.is_some() && parsed.cfg.host == HostKind::Tcp) {
        return supervise_main(&parsed);
    }
    let cfg = parsed.cfg;
    let host_name = cfg.host.as_str();
    let mode_name = match cfg.mode {
        OrderMode::Symmetric => "sym",
        OrderMode::Asymmetric => "asym",
    };
    eprintln!(
        "load: host={host_name} nodes={} groups={} mode={mode_name} payload={}B window={}/group secs={}",
        cfg.nodes, cfg.groups, cfg.payload, cfg.window, cfg.secs
    );
    let report = match run_load(&cfg) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    println!(
        "load [{host_name}] {} nodes / {} groups / {} shard(s), {mode_name}: \
         {} sent, {} delivered in {:.2}s => {:.0} msgs/sec delivered",
        cfg.nodes,
        cfg.groups,
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
        println!(
            "load wire: {} null-only frames, {} omega nulls suppressed at egress",
            wire.null_frames, wire.suppressed_nulls,
        );
    }
    if cfg.churn.is_some() {
        println!(
            "load churn: {} node(s) killed, {} view change(s) (expected exclusions), {} shed",
            report.killed, report.view_changes, report.shed
        );
    } else if report.view_changes > 0 {
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

const MC_USAGE: &str = "usage:
  newtop-exp mc [options]          exhaustive small-scope model check

Explores every interleaving of one group over N processes within the
budgets, deduping on the canonical state digest and running the safety
checker plus the engine invariant audit at every state. A violation is
ddmin-shrunk and written as a chaos replay script (newtop-exp chaos
--replay re-executes it).

options:
  --nodes N          processes, all in one group (default 3)
  --max-msgs K       application-multicast budget (default 2)
  --max-crashes K    crash budget (default 1)
  --max-wakes K      timer wake-up budget (default 2)
  --depth D          schedule-length bound; 0 = auto (default 0)
  --strategy bfs|iddfs
                     exploration order (default bfs); both find a
                     shallowest counterexample first
  --budget-secs S    wall-clock budget; exceeding it exits 3 (inconclusive:
                     the space was not exhausted; a violation exits 1)
  --mode sym|asym    ordering variant of the group (default sym)
  --omega-us US      time-silence interval omega (default 5000)
  --big-omega-us US  suspicion timeout Omega, must exceed omega
                     (default 10000); short timers make suspicion
                     reachable within a small --max-wakes budget
  --seed S           plan label (the fixed-latency net draws nothing)
  --emit-dir DIR     where counterexample scripts go (default target/mc)";

struct McArgs {
    cfg: McConfig,
    emit_dir: String,
}

fn parse_mc_args(args: &[String]) -> Result<McArgs, String> {
    let mut out = McArgs {
        cfg: McConfig::new(3),
        emit_dir: "target/mc".to_string(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let parse_u32 = |name: &str, v: String| v.parse::<u32>().map_err(|_| format!("bad {name}"));
        match a.as_str() {
            "--nodes" => {
                let n = parse_u32("--nodes", val("--nodes")?)?;
                if !(2..=4).contains(&n) {
                    return Err("--nodes must be 2..=4 (small-scope checker)".to_string());
                }
                out.cfg.nodes = n;
            }
            "--max-msgs" => out.cfg.max_msgs = parse_u32("--max-msgs", val("--max-msgs")?)?,
            "--max-crashes" => {
                out.cfg.max_crashes = parse_u32("--max-crashes", val("--max-crashes")?)?;
            }
            "--max-wakes" => out.cfg.max_wakes = parse_u32("--max-wakes", val("--max-wakes")?)?,
            "--depth" => {
                out.cfg.depth = val("--depth")?
                    .parse::<usize>()
                    .map_err(|_| "bad --depth".to_string())?;
            }
            "--strategy" => {
                out.cfg.strategy = match val("--strategy")?.as_str() {
                    "bfs" => McStrategy::Bfs,
                    "dfs" | "iddfs" => McStrategy::Iddfs,
                    other => return Err(format!("bad --strategy {other} (bfs|iddfs)")),
                };
            }
            "--budget-secs" => {
                out.cfg.budget = Some(Duration::from_secs(
                    val("--budget-secs")?
                        .parse::<u64>()
                        .map_err(|_| "bad --budget-secs".to_string())?,
                ));
            }
            "--mode" => {
                out.cfg.mode = match val("--mode")?.as_str() {
                    "sym" => OrderMode::Symmetric,
                    "asym" => OrderMode::Asymmetric,
                    other => return Err(format!("bad --mode {other} (sym|asym)")),
                };
            }
            "--omega-us" => {
                out.cfg.omega_us = val("--omega-us")?
                    .parse::<u64>()
                    .map_err(|_| "bad --omega-us".to_string())?;
            }
            "--big-omega-us" => {
                out.cfg.big_omega_us = val("--big-omega-us")?
                    .parse::<u64>()
                    .map_err(|_| "bad --big-omega-us".to_string())?;
            }
            "--seed" => {
                out.cfg.seed = val("--seed")?
                    .parse::<u64>()
                    .map_err(|_| "bad --seed".to_string())?;
            }
            "--emit-dir" => out.emit_dir = val("--emit-dir")?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown mc option {other}")),
        }
    }
    if out.cfg.big_omega_us <= out.cfg.omega_us {
        return Err("--big-omega-us must exceed --omega-us".to_string());
    }
    Ok(out)
}

fn mc_main(args: &[String]) -> ExitCode {
    let parsed = match parse_mc_args(args) {
        Ok(p) => p,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{MC_USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = parsed.cfg;
    let strategy = match cfg.strategy {
        McStrategy::Bfs => "bfs",
        McStrategy::Iddfs => "iddfs",
    };
    eprintln!(
        "mc: nodes={} max-msgs={} max-crashes={} max-wakes={} depth={} strategy={strategy}",
        cfg.nodes,
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
         {} states explored, {} deduped, frontier peak {} ({:.1}s)",
        cfg.nodes,
        cfg.max_msgs,
        cfg.max_crashes,
        cfg.max_wakes,
        cfg.effective_depth(),
        report.explored,
        report.deduped,
        report.frontier_peak,
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

/// Parses a comma-separated socket-address list.
fn parse_addr_list(name: &str, v: &str) -> Result<Vec<SocketAddr>, String> {
    v.split(',')
        .map(|a| {
            a.trim()
                .parse::<SocketAddr>()
                .map_err(|_| format!("bad address '{a}' in {name}"))
        })
        .collect()
}

const SERVE_USAGE: &str = "usage:
  newtop-exp serve --nodes N --peers A,B,... --ctrl X,Y,... --me I [options]

Runs one peer process of a real TCP cluster: hosts its contiguous block
of the N nodes on the sharded runtime, speaks the batched frame protocol
to the other peers over --peers, and serves the load generator's control
connections on --ctrl until a client sends shutdown (load --stop-peers).

options:
  --nodes N          protocol participants cluster-wide (required)
  --groups G         groups; node i joins group (i-1) mod G (default 1)
  --peers A,B,...    every peer's data-plane address, cluster order
  --ctrl X,Y,...     every peer's control-plane address, same order
  --me I             this process's index into both lists (0-based)
  --shards S         worker shards for the local sharded host
                     (default: available parallelism)
  --mode sym|asym    ordering variant for every group (default sym)
  --omega-ms MS      time-silence interval omega (default 25)
  --big-omega-ms MS  suspicion timeout Omega (default 10000)
  --accrual          adaptive accrual suspicion instead of fixed Omega
  --inbox-cap N      shard-inbox admission bound (client multicasts
                     beyond it are shed as explicit backpressure)
  --rejoin           crash-recovery restart: skip the group bootstrap
                     (the survivors excluded this peer's old nodes; a
                     fresh group arrives via a client's form op) and
                     retry the data-plane bind over TIME_WAIT residue";

fn parse_serve_args(args: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::new(0, 1, Vec::new(), Vec::new(), 0);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--nodes" => {
                cfg.nodes = val("--nodes")?
                    .parse::<u32>()
                    .map_err(|_| "bad --nodes".to_string())?;
            }
            "--groups" => {
                cfg.groups = val("--groups")?
                    .parse::<u32>()
                    .map_err(|_| "bad --groups".to_string())?;
            }
            "--peers" => cfg.peers = parse_addr_list("--peers", &val("--peers")?)?,
            "--ctrl" => cfg.ctrl = parse_addr_list("--ctrl", &val("--ctrl")?)?,
            "--me" => {
                cfg.me = val("--me")?
                    .parse::<usize>()
                    .map_err(|_| "bad --me".to_string())?;
            }
            "--shards" => {
                let s = val("--shards")?
                    .parse::<usize>()
                    .map_err(|_| "bad --shards".to_string())?;
                if s > 0 {
                    cfg.cluster = cfg.cluster.shards(s);
                }
            }
            "--mode" => {
                cfg.mode = match val("--mode")?.as_str() {
                    "sym" => OrderMode::Symmetric,
                    "asym" => OrderMode::Asymmetric,
                    other => return Err(format!("bad --mode {other} (sym|asym)")),
                };
            }
            "--omega-ms" => {
                cfg.omega = Span::from_millis(
                    val("--omega-ms")?
                        .parse::<u64>()
                        .map_err(|_| "bad --omega-ms".to_string())?,
                );
            }
            "--big-omega-ms" => {
                cfg.big_omega = Span::from_millis(
                    val("--big-omega-ms")?
                        .parse::<u64>()
                        .map_err(|_| "bad --big-omega-ms".to_string())?,
                );
            }
            "--accrual" => cfg.suspicion = SuspicionMode::accrual(),
            "--inbox-cap" => {
                let cap = val("--inbox-cap")?
                    .parse::<usize>()
                    .map_err(|_| "bad --inbox-cap".to_string())?;
                cfg.cluster = cfg.cluster.inbox_cap(cap);
            }
            "--rejoin" => cfg.bootstrap = false,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown serve option {other}")),
        }
    }
    if cfg.nodes == 0 {
        return Err("--nodes is required".to_string());
    }
    Ok(cfg)
}

fn serve_main(args: &[String]) -> ExitCode {
    let cfg = match parse_serve_args(args) {
        Ok(c) => c,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{SERVE_USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "serve: peer {}/{} data={} ctrl={} hosting its block of the {} node(s)",
        cfg.me,
        cfg.peers.len(),
        cfg.peers[cfg.me.min(cfg.peers.len().saturating_sub(1))],
        cfg.ctrl[cfg.me.min(cfg.ctrl.len().saturating_sub(1))],
        cfg.nodes,
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

const PROXY_USAGE: &str = "usage:
  newtop-exp proxy --route LISTEN=UPSTREAM [--route ...] [options]

Frame-level chaos proxy for the TCP data plane: point a peer's --peers
entry at LISTEN and the proxy tunnels every connection to UPSTREAM,
dropping / delaying / reordering whole addressed records in the data
direction and pumping acks back verbatim. All interference resolves
through the runtime's sever-and-resume path, so the cluster must stay
correct under any schedule.

options:
  --route L=U        tunnel: accept on L, forward to U (repeatable)
  --seed S           interference schedule seed (default 0)
  --drop-pct P       percent of data records dropped (default 0)
  --delay-ms MS      max random per-record hold, milliseconds (default 0)
  --reorder-pct P    percent of records held past their successor (default 0)
  --dup-pct P        percent of records emitted twice back-to-back; the
                     receiver must dedup by sequence (default 0)
  --partition-at-ms T    open a partition window T ms after start
  --partition-for-ms D   window length, milliseconds (default 2000)
  --rate-kbps R      token-bucket bandwidth shaping: cap each tunnel's
                     data direction at R kilobytes per second; records
                     past the budget stall like on a saturated WAN
                     uplink (default: unshaped)
  --secs T           run this long then exit; 0 = until killed (default 0)";

struct ProxyArgs {
    cfg: ProxyConfig,
    secs: f64,
}

fn parse_proxy_args(args: &[String]) -> Result<ProxyArgs, String> {
    let mut out = ProxyArgs {
        cfg: ProxyConfig::new(Vec::new()),
        secs: 0.0,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--route" => {
                let v = val("--route")?;
                let (listen, upstream) = v
                    .split_once('=')
                    .ok_or_else(|| format!("bad --route '{v}' (want LISTEN=UPSTREAM)"))?;
                out.cfg.routes.push((
                    listen
                        .trim()
                        .parse::<SocketAddr>()
                        .map_err(|_| format!("bad listen address '{listen}'"))?,
                    upstream
                        .trim()
                        .parse::<SocketAddr>()
                        .map_err(|_| format!("bad upstream address '{upstream}'"))?,
                ));
            }
            "--seed" => {
                out.cfg.seed = val("--seed")?
                    .parse::<u64>()
                    .map_err(|_| "bad --seed".to_string())?;
            }
            "--drop-pct" => {
                out.cfg.drop_pct = val("--drop-pct")?
                    .parse::<u8>()
                    .map_err(|_| "bad --drop-pct".to_string())?
                    .min(100);
            }
            "--delay-ms" => {
                out.cfg.delay_ms = val("--delay-ms")?
                    .parse::<u64>()
                    .map_err(|_| "bad --delay-ms".to_string())?;
            }
            "--reorder-pct" => {
                out.cfg.reorder_pct = val("--reorder-pct")?
                    .parse::<u8>()
                    .map_err(|_| "bad --reorder-pct".to_string())?
                    .min(100);
            }
            "--dup-pct" => {
                out.cfg.dup_pct = val("--dup-pct")?
                    .parse::<u8>()
                    .map_err(|_| "bad --dup-pct".to_string())?
                    .min(100);
            }
            "--partition-at-ms" => {
                out.cfg.partition_at = Some(Duration::from_millis(
                    val("--partition-at-ms")?
                        .parse::<u64>()
                        .map_err(|_| "bad --partition-at-ms".to_string())?,
                ));
            }
            "--partition-for-ms" => {
                out.cfg.partition_for = Duration::from_millis(
                    val("--partition-for-ms")?
                        .parse::<u64>()
                        .map_err(|_| "bad --partition-for-ms".to_string())?,
                );
            }
            "--rate-kbps" => {
                let kbps = val("--rate-kbps")?
                    .parse::<u64>()
                    .map_err(|_| "bad --rate-kbps".to_string())?;
                if kbps == 0 {
                    return Err("--rate-kbps must be nonzero (omit it for unshaped)".to_string());
                }
                out.cfg.rate_kbps = Some(kbps);
            }
            "--secs" => {
                out.secs = val("--secs")?
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| "bad --secs (seconds >= 0)".to_string())?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown proxy option {other}")),
        }
    }
    if out.cfg.routes.is_empty() {
        return Err("at least one --route is required".to_string());
    }
    Ok(out)
}

fn proxy_main(args: &[String]) -> ExitCode {
    let parsed = match parse_proxy_args(args) {
        Ok(p) => p,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{PROXY_USAGE}");
            return ExitCode::from(2);
        }
    };
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
