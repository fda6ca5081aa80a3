//! End-to-end and per-layer benchmark of Newtop.
//!
//! ```text
//! newtop-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                  [--serve-bin PATH] [--out DIR]
//! ```
//!
//! Runs one workload, checks its outputs, and prints one JSON line as the
//! last line of stdout: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`). Human-readable notes
//! go to stderr. `perfbench/run.py` builds this program and the serve
//! binary and is the usual entry point; see `perfbench/README.md`.

mod churn;
mod gen;
mod host;
mod metrics;
mod tcp;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;

/// Workloads this program runs. `BENCHMARK.json` gates the last two; the
/// in-process host workloads run on demand (see the README for why they
/// are not gated).
pub const WORKLOADS: [&str; 4] = ["host_sym", "host_asym_1k", "tcp_sym", "sim_churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    serve_bin: Option<PathBuf>,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        serve_bin: None,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = val()?,
            "--seed" => parsed.seed = val()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                parsed.seconds = val()?.parse().map_err(|_| "bad --seconds")?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                parsed.traced = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--serve-bin" => parsed.serve_bin = Some(PathBuf::from(val()?)),
            "--out" => parsed.out = PathBuf::from(val()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got '{}')",
            WORKLOADS.join(", "),
            parsed.workload
        ));
    }
    Ok(parsed)
}

static SPANS_PATH: OnceLock<PathBuf> = OnceLock::new();

/// Writes a traced run's spans next to the other run outputs.
pub fn write_spans(tracer: &trace::Tracer) {
    if let Some(path) = SPANS_PATH.get() {
        match tracer.write_tsv(path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = SPANS_PATH.set(
        args.out
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed)),
    );
    let steal_before = metrics::cpu_steal_ticks();
    let outcome = match args.workload.as_str() {
        "host_sym" => host::run(&host::host_sym(), args.seed, args.seconds, args.traced),
        "host_asym_1k" => host::run(&host::host_asym_1k(), args.seed, args.seconds, args.traced),
        "tcp_sym" => {
            let Some(bin) = args.serve_bin.as_deref() else {
                eprintln!("error: tcp_sym needs --serve-bin (the newtop-exp binary)");
                return ExitCode::from(2);
            };
            tcp::run(bin, args.seed, args.seconds, args.traced)
        }
        _ => churn::run(args.seed, args.seconds, args.traced),
    };
    for (name, value) in &outcome.values {
        eprintln!("  {name:<44} {value:.6}");
    }
    // Wall-clock figures are only as steady as the machine: say how much
    // CPU time the hypervisor took away during the run.
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, metrics::cpu_steal_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        eprintln!(
            "  cpu time stolen from this machine during the run: {:.1} %",
            share * 100.0
        );
    }
    println!("{}", metrics::render(&outcome, args.traced));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
