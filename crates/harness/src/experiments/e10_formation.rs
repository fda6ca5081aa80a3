//! E10 — dynamic group formation latency.
//!
//! Claim (§5.3, §6): group formation is a two-phase invitation followed by
//! a start-number agreement, and it replaces the join facility entirely
//! ("the effect of joining a group can be obtained by processes forming a
//! new group and exiting the previous ones"). The time from initiation to
//! the last member's activation should be a small constant number of
//! network rounds, independent of traffic.

use crate::checker::CheckOptions;
use crate::cluster::{Command, SimCluster, SimInput};
use crate::experiments::assert_correct;
use crate::history::{HistoryEvent, MessageId};
use crate::table::Table;
use newtop_sim::{LatencyModel, NetConfig};
use newtop_types::{GroupConfig, GroupId, Instant, OrderMode, ProcessId, Span};

const GN: GroupId = GroupId(50);

fn one_run(n: u32) -> (f64, f64) {
    let net = NetConfig::new(101).with_latency(LatencyModel::Fixed(Span::from_millis(2)));
    let mut cluster = SimCluster::new(n, net);
    let cfg = GroupConfig::new(OrderMode::Symmetric)
        .with_omega(Span::from_millis(5))
        .with_big_omega(Span::from_millis(400));
    let initiate = Command::Initiate(GN, (1..=n).map(ProcessId).collect(), cfg);
    let start = Instant::from_micros(10_000);
    cluster.schedule(start, SimInput::Command(1, initiate));
    // Prove usability after formation with one tagged multicast.
    cluster.schedule_send(start + Span::from_millis(200), 2, GN, MessageId(1));
    cluster.run_for(Span::from_millis(800));
    let h = cluster.history();
    assert_correct(&h, &CheckOptions::default());
    let mut first = f64::INFINITY;
    let mut last: f64 = 0.0;
    for p in 1..=n {
        let evs = h.events.get(&ProcessId(p)).expect("log");
        let at = evs
            .iter()
            .find_map(|e| match e {
                HistoryEvent::GroupActive { at, group } if *group == GN => Some(*at),
                _ => None,
            })
            .expect("every member activates");
        let ms = at.saturating_since(start).as_millis_f64();
        first = first.min(ms);
        last = last.max(ms);
    }
    assert_eq!(
        h.delivered_mids(ProcessId(n), GN),
        vec![MessageId(1)],
        "the formed group must carry traffic"
    );
    (first, last)
}

/// Runs E10.
#[must_use]
pub fn run(quick: bool) -> Table {
    let sizes: &[u32] = if quick { &[2, 8] } else { &[2, 4, 8, 16, 32] };
    let mut t = Table::new(
        "E10 dynamic formation: initiate → every member active (2 ms links)",
        &["n", "first active (ms)", "last active (ms)"],
    );
    for &n in sizes {
        let (first, last) = one_run(n);
        t.push(&[n.to_string(), format!("{first:.1}"), format!("{last:.1}")]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formation_completes_in_a_few_rounds() {
        let t = run(true);
        for row in &t.rows {
            let last: f64 = row[2].parse().unwrap();
            // Invite + votes + start-groups ≈ 3-4 rounds of 2 ms, far under
            // 100 ms even with scheduling slack.
            assert!(last < 100.0, "formation too slow: {last} ms");
        }
    }
}
