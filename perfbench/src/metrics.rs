//! Metric vocabulary, latency histograms and the result line.
//!
//! Every metric the benchmark can print is named here, once, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names;
//! a unit test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("delivered_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("wire_bytes_per_delivery", "B"),
    ("msgs_per_delivery", "count"),
    ("peak_rss_mb", "MB"),
];

/// Message classes of the simulator's wire census and per-class handle
/// timing, in the order they are reported.
pub const CLASSES: [&str; 9] = [
    "app",
    "null",
    "seq_request",
    "relay",
    "suspect",
    "refute",
    "confirmed",
    "view_cut",
    "control",
];

/// Per-layer metrics: printed by every traced run. A workload that does
/// not exercise a layer reports its metrics as 0.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        // Generic to every workload.
        ("trace.overhead_share", "ratio"),
        ("lat.samples", "count"),
        ("lat.p99_plain_us", "us"),
        ("gate.failed_ratio", "ratio"),
        // runtime (NodeHandle calls) — host_* ; deliver_* also on tcp_sym.
        ("runtime.submit_us.p50", "us"),
        ("runtime.submit_us.p99", "us"),
        ("runtime.verdict_us.p50", "us"),
        ("runtime.verdict_us.p99", "us"),
        ("runtime.deliver_self_us.p50", "us"),
        ("runtime.deliver_self_us.p99", "us"),
        ("runtime.deliver_last_us.p99", "us"),
        ("runtime.solo_lat_us.p50", "us"),
        // runtime::transport (WireStats) — host_* and tcp_sym.
        ("transport.frames_per_delivery", "count"),
        ("transport.envelopes_per_frame", "count"),
        ("transport.null_frames_per_delivery", "count"),
        ("transport.suppressed_nulls_per_delivery", "count"),
        ("transport.shed_per_attempt", "ratio"),
        // The generator itself — host_* and tcp_sym.
        ("gen.busy_share", "ratio"),
        ("gen.sweep_us.p99", "us"),
        // harness::remote and runtime::net — tcp_sym.
        ("remote.verdict_rtt_us.p50", "us"),
        ("remote.verdict_rtt_us.p99", "us"),
        ("net.deliver_same_peer_us.p50", "us"),
        ("net.deliver_cross_peer_us.p50", "us"),
        ("net.null_frames_per_delivery", "count"),
        ("net.reconnects", "count"),
        ("net.handshake_rejects", "count"),
        ("net.dropped_dead", "count"),
        ("setup.spawn_s", "s"),
        ("setup.connect_s", "s"),
        ("setup.first_delivery_s", "s"),
        // core, sim and membership — sim_churn.
        ("core.multicast.calls", "count"),
        ("core.multicast.self_us", "us"),
        ("core.tick.calls", "count"),
        ("core.tick.self_us", "us"),
        ("sim.self_us", "us"),
        ("trace.accounted_share", "ratio"),
        ("membership.recovery_ms", "ms"),
        ("membership.exclusion_ms.p50", "ms"),
        ("membership.exclusion_ms.max", "ms"),
        ("membership.view_changes", "count"),
        ("membership.refutes", "count"),
        ("checker.us", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for class in CLASSES {
        v.push((format!("core.handle.{class}.calls"), "count"));
        v.push((format!("core.handle.{class}.self_us"), "us"));
    }
    for class in CLASSES {
        v.push((format!("wire.{class}.msgs_per_delivery"), "count"));
        v.push((format!("wire.{class}.bytes_per_delivery"), "B"));
    }
    v
}

/// Whether `name` is a legal metric or workload name.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Inserts `value` under `name`.
pub fn put(values: &mut Values, name: &str, value: f64) {
    values.insert(name.to_string(), value);
}

/// The outcome of one run, as printed on the last line of stdout.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every correctness gate passed.
    pub correct: bool,
    /// Multicasts attempted in the measured phase.
    pub attempted: u64,
    /// Multicasts that failed (refused, shed, lost, duplicated, or in a
    /// run the gate rejected).
    pub failed: u64,
    /// Measured values.
    pub values: Values,
}

/// Renders the result line. A failed gate reports the failure and no
/// numbers; otherwise every metric of the run's kind is printed, and a
/// per-layer metric the workload does not measure reads 0.
///
/// # Panics
///
/// Panics if a passing run lacks an end-to-end metric (a benchmark bug).
#[must_use]
pub fn render(outcome: &Outcome, traced: bool) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed
    );
    if outcome.correct {
        let names: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = match outcome.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
    }
    out.push_str("}}");
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Log-linear histogram of nanosecond durations: exact below 256 ns,
/// then 256 sub-buckets per power of two (0.4 % resolution). Fixed
/// memory, so a long run's latency record does not grow the process.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;
const MAX_EXP: u32 = 48;

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; SUB + (MAX_EXP - SUB_BITS) as usize * SUB],
            total: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let exp = (63 - v.leading_zeros()).min(MAX_EXP - 1);
        let shift = exp - SUB_BITS;
        let sub = ((v >> shift) as usize) & (SUB - 1);
        SUB + (exp - SUB_BITS) as usize * SUB + sub
    }

    /// `(low, width)` of bucket `i` in ns.
    fn bounds(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, 1.0);
        }
        let band = (i - SUB) / SUB;
        let sub = (i - SUB) % SUB;
        let shift = band as u32;
        let low = ((SUB + sub) as u64) << shift;
        (low as f64, (1u64 << shift) as f64)
    }

    /// Records one duration in ns.
    pub fn record(&mut self, ns: u64) {
        self.counts[Hist::index(ns)] += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0..=1) in ns, interpolated inside its bucket;
    /// 0 when empty.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 > rank {
                let (low, width) = Hist::bounds(i);
                let frac = (rank - seen as f64 + 0.5) / c as f64;
                return low + width * frac.clamp(0.0, 1.0);
            }
            seen += c;
        }
        let (low, width) = Hist::bounds(self.counts.len() - 1);
        low + width
    }

    /// The `q`-quantile in µs.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1000.0
    }
}

/// A quantile of consecutive windows of a fixed number of samples: each
/// full window contributes its own `q`-quantile, and the figure of the
/// stream is the median over the windows. A stall of a few milliseconds
/// (a CPU taken away by the scheduler or the hypervisor) lifts the tail of
/// the few windows it falls in but not the median window, so the figure
/// tracks the tail the system keeps producing rather than how often the
/// machine happened to stall during the run.
#[derive(Debug, Clone)]
pub struct Windowed {
    size: usize,
    q: f64,
    buf: Vec<u64>,
    windows: Vec<f64>,
}

impl Windowed {
    /// Windows of `size` samples, each summarised by its `q`-quantile.
    #[must_use]
    pub fn new(size: usize, q: f64) -> Windowed {
        Windowed {
            size: size.max(1),
            q,
            buf: Vec::with_capacity(size),
            windows: Vec::new(),
        }
    }

    /// Records one sample in ns.
    pub fn record(&mut self, ns: u64) {
        self.buf.push(ns);
        if self.buf.len() == self.size {
            self.buf.sort_unstable();
            self.windows.push(quantile_sorted(&self.buf, self.q));
            self.buf.clear();
        }
    }

    /// The quantile of every full window so far, in µs.
    #[must_use]
    pub fn windows_us(&self) -> Vec<f64> {
        self.windows.iter().map(|ns| ns / 1000.0).collect()
    }
}

/// Linear-interpolated `q`-quantile of sorted integer samples.
#[must_use]
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0] as f64,
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = rank - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

/// Median of a few floats (set-up repetitions).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`None` = this one), MB.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Nanoseconds the calling thread has spent running on a CPU
/// (`/proc/thread-self/schedstat`): unlike wall time, it excludes time
/// the thread waited for a CPU, including time the hypervisor stole.
#[must_use]
pub fn thread_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// Cumulative `(steal, total)` CPU ticks of the machine (`/proc/stat`):
/// the share of time a hypervisor gave this machine's CPUs to others.
#[must_use]
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Distinct sockets this process holds open (dup'd descriptors of one
/// connection count once).
#[must_use]
pub fn open_sockets() -> usize {
    let mut inodes = std::collections::BTreeSet::new();
    if let Ok(dir) = std::fs::read_dir("/proc/self/fd") {
        for entry in dir.flatten() {
            if let Ok(target) = std::fs::read_link(entry.path()) {
                let t = target.to_string_lossy().into_owned();
                if t.starts_with("socket:") {
                    inodes.insert(t);
                }
            }
        }
    }
    inodes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
        {
            assert!(valid_name(&name), "illegal metric name {name}");
            assert!(seen.insert(name.clone()), "duplicate metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
        }
        assert!(per_layer().len() <= 128);
        for w in crate::WORKLOADS {
            assert!(valid_name(w), "illegal workload name {w}");
        }
        assert!(!valid_name("has space"));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name(""));
    }

    /// `BENCHMARK.json` lists exactly the metrics this program prints, and
    /// gates only workloads it runs.
    #[test]
    fn benchmark_json_matches_the_vocabulary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect("section");
            let body = &text[start..];
            let end = body.find(']').expect("section end");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quoted")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(listed("per_layer"), layer);
        assert_eq!(listed("workloads"), ["tcp_sym", "sim_churn"]);
        assert!(listed("workloads")
            .iter()
            .all(|w| crate::WORKLOADS.contains(&w.as_str())));
    }

    #[test]
    fn histogram_quantiles_track_exact_values() {
        let mut h = Hist::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile_ns(0.5);
        assert!((p50 / 5_000_000.0 - 1.0).abs() < 0.01, "p50 {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!((p99 / 9_900_000.0 - 1.0).abs() < 0.01, "p99 {p99}");
        assert_eq!(Hist::new().quantile_ns(0.5), 0.0);
        let mut small = Hist::new();
        small.record(7);
        assert!((small.quantile_ns(0.5) - 7.5).abs() < 1e-9);
    }

    #[test]
    fn windowed_quantile_takes_each_full_window() {
        let mut w = Windowed::new(100, 0.99);
        for v in 0..250u64 {
            // Window 2 holds one stall of 1 s; the partial third is ignored.
            w.record(if v == 150 {
                1_000_000_000
            } else {
                (v % 100) * 1000
            });
        }
        let got = w.windows_us();
        assert_eq!(got.len(), 2);
        assert!((got[0] - 98.01).abs() < 1e-9, "{got:?}");
        assert!(got[1] > got[0]);
        // Median over the windows of a stream with stalls in few windows
        // stays at the undisturbed windows' value.
        let mut s = Windowed::new(100, 0.99);
        for v in 0..1000u64 {
            let stalled = v / 100 == 3 && v % 100 < 20;
            s.record(if stalled { 50_000_000 } else { 1_000_000 });
        }
        assert_eq!(median(&s.windows_us()), 1000.0);
    }

    #[test]
    fn exact_quantiles_interpolate() {
        assert_eq!(quantile_sorted(&[10, 20, 30, 40], 0.5), 25.0);
        assert_eq!(quantile_sorted(&[5], 0.99), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn failed_gate_prints_no_numbers() {
        let line = render(
            &Outcome {
                correct: false,
                attempted: 10,
                failed: 10,
                values: Values::new(),
            },
            false,
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 10, \"failed\": 10, \"metrics\": {}}"
        );
    }
}
