//! Deterministic stress sweep: many seeded classic chaos scenarios
//! (overlapping groups, mixed ordering modes, crashes, partitions,
//! departures, latency spikes) through the property checker. Complements
//! the proptest fleet with a fixed, reviewable seed set that always runs
//! in CI.

use newtop::harness::chaos::{history_hash, ChaosScenario};

#[test]
fn thirty_seeded_scenarios_hold_all_properties() {
    let mut failures = Vec::new();
    for seed in 0..30u64 {
        let plan =
            ChaosScenario::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13)).plan();
        let v = plan.run_and_check(&plan.check_options());
        if !v.is_empty() {
            failures.push((seed, format!("{v:?}")));
        }
    }
    assert!(failures.is_empty(), "failing seeds: {failures:#?}");
}

#[test]
fn deterministic_replay_across_full_scenarios() {
    let plan = ChaosScenario::new(0xDEAD_BEEF).plan();
    let h1 = plan.run().history();
    let h2 = plan.run().history();
    for p in h1.processes() {
        assert_eq!(
            h1.delivered_mids_all(p),
            h2.delivered_mids_all(p),
            "replay diverged at {p}"
        );
    }
    assert_eq!(history_hash(&h1), history_hash(&h2));
}
