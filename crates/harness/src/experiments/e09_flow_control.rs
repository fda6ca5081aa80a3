//! E9 — the flow-control window bounds the unstable backlog.
//!
//! Claim (§7, detailed in the companion thesis, reference 11 of the paper): "a flow control mechanism …
//! ensures that a sender process does not cause buffers to overflow at any
//! of the functioning destination processes". Our window caps a member's
//! own unstable messages; the observable is the peak retained-message count
//! under a burst, with and without the window.

use crate::checker::CheckOptions;
use crate::cluster::SimCluster;
use crate::experiments::assert_correct;
use crate::history::MessageId;
use crate::table::Table;
use newtop_sim::{LatencyModel, NetConfig};
use newtop_types::{GroupConfig, GroupId, Instant, OrderMode, ProcessId, Span};

const G: GroupId = GroupId(1);

fn one_run(window: Option<u32>, quick: bool) -> (usize, f64) {
    let burst: u32 = if quick { 30 } else { 100 };
    // Slow network: stability lags the burst, so the backlog is visible.
    let net = NetConfig::new(91).with_latency(LatencyModel::Fixed(Span::from_millis(15)));
    let mut cluster = SimCluster::new(3, net);
    let mut cfg = GroupConfig::new(OrderMode::Symmetric)
        .with_omega(Span::from_millis(5))
        .with_big_omega(Span::from_millis(1_000));
    if let Some(w) = window {
        cfg = cfg.with_flow_window(w);
    }
    cluster.bootstrap_group(G, &[1, 2, 3], cfg);
    for k in 0..burst {
        cluster.schedule_send(
            Instant::from_micros(10_000 + u64::from(k) * 100),
            1,
            G,
            MessageId(u64::from(k)),
        );
    }
    // Sample the sender's retained-application backlog every 5 ms.
    let mut peak = 0;
    for probe in 0..400u64 {
        cluster.run_until(Instant::from_micros(10_000 + probe * 5_000));
        peak = cluster.proc(1).retained_app(G).max(peak);
    }
    cluster.run_until(Instant::from_micros(4_000_000));
    let h = cluster.history();
    assert_correct(&h, &CheckOptions::default());
    // Completion: everything delivered at the slowest member.
    let deliveries = h.deliveries(ProcessId(3));
    assert_eq!(
        deliveries.iter().filter(|(_, d, _)| d.group == G).count(),
        burst as usize,
        "burst must fully drain"
    );
    let done = deliveries
        .iter()
        .filter(|(_, d, _)| d.group == G)
        .map(|(at, _, _)| *at)
        .max()
        .expect("deliveries exist");
    (
        peak,
        done.saturating_since(Instant::from_micros(10_000))
            .as_millis_f64(),
    )
}

/// Runs E9.
#[must_use]
pub fn run(quick: bool) -> Table {
    let windows: &[Option<u32>] = if quick {
        &[Some(4), None]
    } else {
        &[Some(1), Some(4), Some(16), Some(64), None]
    };
    let mut t = Table::new(
        "E9 burst into a slow network: peak unstable backlog vs flow window (15 ms links)",
        &["window", "peak unstable at sender", "drain time (ms)"],
    );
    for &w in windows {
        let (peak, drain) = one_run(w, quick);
        t.push(&[
            w.map_or_else(|| "off".to_string(), |x| x.to_string()),
            peak.to_string(),
            format!("{drain:.0}"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_caps_backlog() {
        let t = run(true);
        let with: usize = t.rows[0][1].parse().unwrap(); // window = 4
        let without: usize = t.rows[1][1].parse().unwrap(); // off
        assert!(with <= 4 + 1, "window of 4 exceeded: {with}");
        assert!(
            without > with,
            "without a window the burst must pile up: {with} vs {without}"
        );
    }
}
