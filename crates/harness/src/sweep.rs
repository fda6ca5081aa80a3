//! Parallel chaos-fleet sweeps: a work-stealing seed queue over scoped
//! worker threads, with deterministic aggregation.
//!
//! Seeds are claimed from an atomic counter (work stealing: fast seeds free
//! their worker for the next claim immediately), each seed runs completely
//! independently — plan generation, simulation and checking share no state
//! — and the aggregate is assembled order-independently: counters are
//! commutative sums and the failing-seed list is sorted by seed. The
//! result is therefore **bit-identical for every worker count**; only
//! wall-clock time changes. `tests/sweep_determinism.rs` pins this.
//!
//! The wall-clock budget (`--budget-secs`) bounds *claiming*: a worker that
//! sees the budget exhausted stops taking new seeds, but every claimed seed
//! finishes, so the swept prefix is always contiguous.

use crate::chaos::{delivery_count, history_hash, ChaosScenario};
use crate::checker::{check_all, Violation};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Everything observed about one swept seed.
#[derive(Debug)]
pub struct SeedOutcome {
    /// The seed.
    pub seed: u64,
    /// History digest, when requested via [`SweepConfig::hash_histories`]
    /// and the engine did not panic.
    pub hash: Option<u64>,
    /// Engine panic payload, if the run crashed the engine itself.
    pub panic: Option<String>,
    /// Checker violations (empty = green).
    pub violations: Vec<Violation>,
    /// Tagged deliveries observed.
    pub deliveries: u64,
}

impl SeedOutcome {
    /// Whether this seed failed (engine panic or any violation).
    #[must_use]
    pub fn failed(&self) -> bool {
        self.panic.is_some() || !self.violations.is_empty()
    }
}

/// Sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Worker threads (1 = run inline on the calling thread).
    pub jobs: usize,
    /// Wall-clock claiming budget; `None` = sweep the whole range.
    pub budget: Option<Duration>,
    /// Record a [`crate::history_hash`] per seed (costs a serialisation
    /// pass per history; the CLI sweep leaves it off, the determinism test
    /// turns it on).
    pub hash_histories: bool,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            jobs: 1,
            budget: None,
            hash_histories: false,
        }
    }
}

/// Deterministic aggregate of a sweep.
#[derive(Debug, Default)]
pub struct SweepReport {
    /// Seeds actually run (the contiguous prefix of the range when a
    /// budget stopped the sweep early).
    pub ran: u64,
    /// Total tagged deliveries across all seeds run.
    pub deliveries: u64,
    /// Failing seeds, sorted by seed.
    pub failures: Vec<SeedOutcome>,
    /// Whether the budget stopped the sweep before the range was done.
    pub stopped_early: bool,
}

impl SweepReport {
    /// The failing seed numbers, sorted.
    #[must_use]
    pub fn failing_seeds(&self) -> Vec<u64> {
        self.failures.iter().map(|o| o.seed).collect()
    }
}

/// Runs one chaos seed end-to-end: plan → simulate (panic-catching) →
/// check, with the plan's own checker options.
#[must_use]
pub fn run_chaos_seed(scenario: &ChaosScenario, hash_history: bool) -> SeedOutcome {
    let plan = scenario.plan();
    let opts = plan.check_options();
    match plan.try_run_history() {
        Ok(history) => SeedOutcome {
            seed: scenario.seed,
            hash: hash_history.then(|| history_hash(&history)),
            panic: None,
            violations: check_all(&history, &opts),
            deliveries: delivery_count(&history) as u64,
        },
        Err(panic_msg) => SeedOutcome {
            seed: scenario.seed,
            hash: None,
            panic: Some(panic_msg),
            violations: Vec::new(),
            deliveries: 0,
        },
    }
}

/// Sweeps `lo..hi` through `runner` on [`SweepConfig::jobs`] workers.
///
/// `runner` maps a seed to its outcome and must be a pure function of the
/// seed — that is what makes the aggregate independent of scheduling.
/// `progress` observes every completed outcome (serialised under a lock,
/// in completion order, which varies across runs; the second argument is
/// the monotone completed-seed count).
pub fn sweep_seeds<R, P>(lo: u64, hi: u64, cfg: &SweepConfig, runner: R, progress: P) -> SweepReport
where
    R: Fn(u64) -> SeedOutcome + Sync,
    P: Fn(&SeedOutcome, u64) + Sync,
{
    let started = Instant::now();
    let next = AtomicU64::new(lo);
    let stopped = AtomicBool::new(false);
    let agg: Mutex<SweepReport> = Mutex::new(SweepReport::default());

    let worker = || loop {
        if let Some(budget) = cfg.budget {
            if started.elapsed() >= budget {
                if next.load(Ordering::Relaxed) < hi {
                    stopped.store(true, Ordering::Relaxed);
                }
                break;
            }
        }
        let seed = next.fetch_add(1, Ordering::Relaxed);
        if seed >= hi {
            break;
        }
        let outcome = runner(seed);
        let mut agg = agg.lock().unwrap();
        // Counted under the lock that serialises `progress`, so the
        // count it sees is monotone in call order.
        agg.ran += 1;
        agg.deliveries += outcome.deliveries;
        progress(&outcome, agg.ran);
        if outcome.failed() {
            agg.failures.push(outcome);
        }
    };

    let jobs = cfg.jobs.max(1);
    if jobs == 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs).map(|_| s.spawn(worker)).collect();
            for h in handles {
                h.join().expect("sweep worker panicked");
            }
        });
    }

    let mut report = agg.into_inner().unwrap();
    report.stopped_early = stopped.load(Ordering::Relaxed);
    report.failures.sort_by_key(|o| o.seed);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_outcome(seed: u64) -> SeedOutcome {
        SeedOutcome {
            seed,
            hash: Some(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            panic: (seed % 13 == 5).then(|| format!("boom {seed}")),
            violations: Vec::new(),
            deliveries: seed % 7,
        }
    }

    #[test]
    fn aggregate_is_identical_for_any_job_count() {
        let run = |jobs: usize| {
            let cfg = SweepConfig {
                jobs,
                ..SweepConfig::default()
            };
            sweep_seeds(10, 200, &cfg, fake_outcome, |_, _| {})
        };
        let a = run(1);
        for jobs in [2, 4, 8] {
            let b = run(jobs);
            assert_eq!(a.ran, b.ran);
            assert_eq!(a.deliveries, b.deliveries);
            assert_eq!(a.failing_seeds(), b.failing_seeds());
            assert!(!b.stopped_early);
        }
        assert_eq!(a.ran, 190);
        assert_eq!(
            a.failing_seeds(),
            (10..200).filter(|s| s % 13 == 5).collect::<Vec<_>>()
        );
    }

    #[test]
    fn progress_sees_every_outcome_and_counts_monotonically() {
        let seen = Mutex::new(Vec::new());
        let cfg = SweepConfig {
            jobs: 4,
            ..SweepConfig::default()
        };
        let report = sweep_seeds(0, 50, &cfg, fake_outcome, |o, done| {
            seen.lock().unwrap().push((o.seed, done));
        });
        let mut seen = seen.into_inner().unwrap();
        assert_eq!(seen.len() as u64, report.ran);
        let counts: Vec<u64> = seen.iter().map(|(_, d)| *d).collect();
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        assert_eq!(counts, sorted, "completed count must be monotone");
        seen.sort_unstable();
        assert_eq!(
            seen.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (0..50).collect::<Vec<_>>(),
            "every seed observed exactly once"
        );
    }

    #[test]
    fn zero_budget_stops_before_claiming() {
        let cfg = SweepConfig {
            jobs: 3,
            budget: Some(Duration::ZERO),
            hash_histories: false,
        };
        let report = sweep_seeds(0, 1000, &cfg, fake_outcome, |_, _| {});
        assert_eq!(report.ran, 0);
        assert!(report.stopped_early);
    }
}
