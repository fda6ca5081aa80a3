//! The E1–E10 experiment suite (see DESIGN.md §4 for the claim → experiment
//! map; `newtop-exp --list` names the experiments).
//!
//! Every experiment returns a [`Table`]; `quick` mode shrinks sweeps for
//! the tests and CI. Experiments that run protocol traffic also pass their
//! histories through the property [`checker`](crate::checker) — a run that
//! violates MD/VC properties panics rather than reporting numbers.

mod e01_header_overhead;
mod e02_time_silence;
mod e03_sym_vs_asym;
mod e04_throughput;
mod e05_multi_group;
mod e06_membership;
mod e07_partition;
mod e08_blocking;
mod e09_flow_control;
mod e10_formation;

pub use e01_header_overhead::run as e1_header_overhead;
pub use e02_time_silence::run as e2_time_silence;
pub use e03_sym_vs_asym::run as e3_sym_vs_asym;
pub use e04_throughput::run as e4_throughput;
pub use e04_throughput::run_wan as e4_wan_throughput;
pub use e05_multi_group::run as e5_multi_group;
pub use e06_membership::run as e6_membership;
pub use e07_partition::run as e7_partition;
pub use e08_blocking::run as e8_blocking;
pub use e09_flow_control::run as e9_flow_control;
pub use e10_formation::run as e10_formation;

use crate::history::{History, MessageId};
use crate::table::Table;
use newtop_types::{GroupId, Instant};
use std::collections::BTreeMap;

/// An experiment runner: called with `quick = true` for reduced sweeps.
pub type ExperimentFn = fn(bool) -> Table;

/// The registry: (id, description, runner).
#[must_use]
pub fn all() -> Vec<(&'static str, &'static str, ExperimentFn)> {
    vec![
        (
            "e1",
            "header overhead: Newtop O(1) vs vector clocks O(n·groups) (§2/§6)",
            e1_header_overhead,
        ),
        (
            "e2",
            "symmetric delivery latency vs time-silence interval ω (§4.1)",
            e2_time_silence,
        ),
        (
            "e3",
            "symmetric vs asymmetric vs Lamport all-ack: latency and messages (§4.2)",
            e3_sym_vs_asym,
        ),
        (
            "e4",
            "throughput and per-multicast cost vs group size (§6)",
            e4_throughput,
        ),
        (
            "e4wan",
            "uplink saturation: goodput plateaus at the capped capacity (WAN model)",
            e4_wan_throughput,
        ),
        (
            "e5",
            "multi-group member: one clock, D = min over groups (§4.1/MD4')",
            e5_multi_group,
        ),
        (
            "e6",
            "membership: crash detection to view installation (§5.2)",
            e6_membership,
        ),
        (
            "e7",
            "partition: subgroup views stabilise non-intersecting (§5.2, Example 3)",
            e7_partition,
        ),
        (
            "e8",
            "send blocking: symmetric never blocks; mixed mode blocks one sequencer round (§4.3/§7)",
            e8_blocking,
        ),
        (
            "e9",
            "flow control: window bounds unstable backlog (§7/[11])",
            e9_flow_control,
        ),
        (
            "e10",
            "dynamic group formation latency (§5.3)",
            e10_formation,
        ),
    ]
}

/// Send instants per message id (from the senders' logs).
pub(crate) fn send_times(h: &History) -> BTreeMap<MessageId, Instant> {
    let mut map = BTreeMap::new();
    for p in h.processes() {
        if let Some(evs) = h.events.get(&p) {
            for e in evs {
                if let crate::history::HistoryEvent::Sent { at, mid, .. } = e {
                    map.insert(*mid, *at);
                }
            }
        }
    }
    map
}

/// Mean and maximum delivery latency (ms) over every delivery of every
/// tagged message, optionally restricted to one group.
pub(crate) fn latency_ms(h: &History, group: Option<GroupId>) -> (f64, f64) {
    let sends = send_times(h);
    let mut total = 0.0f64;
    let mut max = 0.0f64;
    let mut count = 0u64;
    for p in h.processes() {
        for (at, d, mid) in h.deliveries(p) {
            if let Some(g) = group {
                if d.group != g {
                    continue;
                }
            }
            let Some(mid) = mid else { continue };
            let Some(sent) = sends.get(&mid) else {
                continue;
            };
            let lat = at.saturating_since(*sent).as_millis_f64();
            total += lat;
            max = max.max(lat);
            count += 1;
        }
    }
    if count == 0 {
        (f64::NAN, f64::NAN)
    } else {
        (total / count as f64, max)
    }
}

/// Panics if the history violates any checked property — experiments never
/// report numbers from an incorrect run.
pub(crate) fn assert_correct(h: &History, opts: &crate::checker::CheckOptions) {
    let v = crate::checker::check_all(h, opts);
    assert!(v.is_empty(), "experiment run violated properties: {v:?}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every experiment must run in quick mode and produce a non-empty
    /// table. This is the smoke test the bench suite builds on.
    #[test]
    fn all_experiments_run_quick() {
        for (id, _desc, run) in all() {
            let t = run(true);
            assert!(!t.rows.is_empty(), "{id} produced an empty table");
            assert!(!t.headers.is_empty());
        }
    }
}
