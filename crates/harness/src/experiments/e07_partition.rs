//! E7 — partition: concurrent subgroup views stabilise non-intersecting.
//!
//! Claim (§5.2, Example 3): when a group partitions, "the functioning
//! processes within any given subgroup will have identical views about the
//! membership, and the views of processes belonging to different subgroups
//! are guaranteed to stabilise into non-intersecting ones" — without any
//! primary-partition majority requirement.

use crate::checker::{check_all, CheckOptions};
use crate::cluster::SimCluster;
use crate::history::HistoryEvent;
use crate::table::Table;
use newtop_sim::{LatencyModel, NetConfig};
use newtop_types::{GroupConfig, GroupId, Instant, OrderMode, ProcessId, Span, View};

const G: GroupId = GroupId(1);

fn one_run(n: u32) -> (f64, bool, bool) {
    let net = NetConfig::new(71).with_latency(LatencyModel::Fixed(Span::from_millis(1)));
    let mut cluster = SimCluster::new(n, net);
    let cfg = GroupConfig::new(OrderMode::Symmetric)
        .with_omega(Span::from_millis(5))
        .with_big_omega(Span::from_millis(60));
    cluster.bootstrap_group(G, &(1..=n).collect::<Vec<_>>(), cfg);
    let half: Vec<u32> = (1..=n / 2).collect();
    let rest: Vec<u32> = (n / 2 + 1..=n).collect();
    let cut_at = Instant::from_micros(100_000);
    cluster.schedule_partition(cut_at, &[&half, &rest]);
    cluster.run_for(Span::from_millis(1_200));
    let h = cluster.history();
    // Safety only: liveness is unattainable across the partition.
    let opts = CheckOptions { liveness: false };
    let v = check_all(&h, &opts);
    assert!(
        v.is_empty(),
        "partition run violated view properties: {v:?}"
    );
    // Stabilisation: last view change anywhere.
    let mut last_ms: f64 = 0.0;
    let mut finals: Vec<(u32, View)> = Vec::new();
    for p in 1..=n {
        let evs = h.events.get(&ProcessId(p)).expect("log");
        let mut last_view: Option<(Instant, View)> = None;
        for e in evs {
            if let HistoryEvent::ViewChange {
                at, group, view, ..
            } = e
            {
                if *group == G {
                    last_view = Some((*at, view.clone()));
                }
            }
        }
        if let Some((at, view)) = last_view {
            last_ms = last_ms.max(at.saturating_since(cut_at).as_millis_f64());
            finals.push((p, view));
        }
    }
    // Within-side identical, across-side disjoint.
    let side_of = |p: u32| p <= n / 2;
    let mut identical = true;
    let mut disjoint = true;
    for (p, vp) in &finals {
        for (q, vq) in &finals {
            if p >= q {
                continue;
            }
            if side_of(*p) == side_of(*q) {
                identical &= vp == vq;
            } else {
                disjoint &= vp.members().intersection(vq.members()).next().is_none();
            }
        }
    }
    (last_ms, identical, disjoint)
}

/// Runs E7.
#[must_use]
pub fn run(quick: bool) -> Table {
    let sizes: &[u32] = if quick { &[4, 6] } else { &[4, 6, 8, 12, 16] };
    let mut t = Table::new(
        "E7 half/half partition → stabilised subgroup views (Ω = 60 ms)",
        &[
            "n",
            "stabilise (ms)",
            "within-side identical",
            "across-side disjoint",
        ],
    );
    for &n in sizes {
        let (ms, identical, disjoint) = one_run(n);
        t.push(&[
            n.to_string(),
            format!("{ms:.1}"),
            identical.to_string(),
            disjoint.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_stabilise_identical_within_and_disjoint_across() {
        let t = run(true);
        for row in &t.rows {
            assert_eq!(row[2], "true", "within-side identical failed: {row:?}");
            assert_eq!(row[3], "true", "across-side disjoint failed: {row:?}");
        }
    }
}
