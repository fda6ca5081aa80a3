//! Property fleet for the WAN model: per-link FIFO and exactly-once
//! delivery must survive every seeded combination of fair-share
//! bandwidth, high-variance latency and the reorder knob, and the transfer
//! counters must balance exactly at quiescence.
//!
//! The clamp under test is the same per-link FIFO clamp the classic path
//! uses — the WAN path feeds it scheduled arrivals that already went
//! through two bandwidth stages and a reorder hold, so these runs exercise
//! far wilder candidate arrival times than the constant-latency model
//! ever produces. Failures reproduce exactly from the printed inputs.

use newtop_sim::{LatencyModel, NetConfig, Outbox, Sim, SimNode, WanConfig, WanLinkSpec};
use newtop_types::{Instant, ProcessId, Span};
use proptest::prelude::*;

/// Records every arrival; sends nothing back.
struct Recorder {
    seen: Vec<(Instant, ProcessId, u64)>,
}

impl SimNode for Recorder {
    type Msg = u64;
    fn on_message(&mut self, now: Instant, from: ProcessId, msg: u64, _out: &mut Outbox<u64>) {
        self.seen.push((now, from, msg));
    }
}

fn p(i: u32) -> ProcessId {
    ProcessId(i)
}

/// Deterministic per-message wire size in `1..=256` bytes, so the test can
/// recompute the exact byte totals the counters must report.
fn msg_bytes(m: u64) -> usize {
    1 + ((m.wrapping_mul(37) % 256) as usize)
}

/// Asserts `seen` is FIFO per sender: each link's payloads count up from 0
/// with no gap and no repeat.
fn assert_per_link_fifo(seen: &[(Instant, ProcessId, u64)]) {
    let mut last_at = Instant::ZERO;
    let mut last_msg: std::collections::BTreeMap<ProcessId, u64> = Default::default();
    for &(at, from, msg) in seen {
        assert!(at >= last_at, "arrival times must be non-decreasing");
        last_at = at;
        if let Some(&prev) = last_msg.get(&from) {
            assert_eq!(msg, prev + 1, "link {from} reordered: {msg} after {prev}");
        } else {
            assert_eq!(msg, 0, "link {from} must start at message 0");
        }
        last_msg.insert(from, msg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case is a full congested-WAN simulation
        .. ProptestConfig::default()
    })]

    /// One congested flow through a capped uplink and (optionally) a
    /// cross-region trunk, under high-variance latency plus the reorder
    /// knob: every message arrives once, in order, and every counter
    /// balances.
    #[test]
    fn wan_fifo_holds_for_every_seeded_model(
        seed in 0u64..100_000,
        msgs in 1u64..60,
        uplink_bps in 2_000u64..200_000,
        hi_ms in 1u64..50,
        reorder_pm in 0u32..=1000,
        cross_region in any::<bool>(),
    ) {
        let latency = LatencyModel::Uniform {
            lo: Span::from_micros(10),
            hi: Span::from_millis(hi_ms),
        };
        let mut sim: Sim<Recorder> = Sim::new(NetConfig::new(seed).with_latency(latency));
        sim.add_node(p(1), Recorder { seen: Vec::new() });
        sim.add_node(p(2), Recorder { seen: Vec::new() });
        let mut cfg = WanConfig::new()
            .with_default_uplink(uplink_bps)
            .with_reorder(reorder_pm, Span::from_millis(10));
        if cross_region {
            cfg = cfg
                .attach(p(1), 0)
                .attach(p(2), 1)
                .with_route(0, 1, WanLinkSpec::new(latency, uplink_bps));
        }
        sim.set_wan(cfg, |m| msg_bytes(*m)).unwrap();
        sim.schedule_call(Instant::ZERO, p(1), move |_, out| {
            for k in 0..msgs {
                out.send(p(2), k);
            }
        });
        // Generous horizon: worst case ~60 msgs * 257 B over two 2 kB/s
        // stages is ~15 s of virtual time. The link table is audited
        // every 100 ms on the way.
        for t in 1..=3_000 {
            sim.run_until(Instant::from_micros(t * 100_000));
            prop_assert!(sim.links_coherent());
        }

        let seen = &sim.node(p(2)).unwrap().seen;
        assert_per_link_fifo(seen);
        let payloads: Vec<u64> = seen.iter().map(|s| s.2).collect();
        prop_assert_eq!(payloads, (0..msgs).collect::<Vec<_>>(),
            "every message delivered exactly once, in send order");

        let stats = sim.stats();
        prop_assert_eq!(stats.sent, msgs);
        prop_assert_eq!(stats.delivered, msgs, "exactly once: no copies");
        prop_assert_eq!(stats.wan_inflight, 0, "quiescent: nothing in flight");
        prop_assert_eq!(stats.wan_backlog_bytes, 0, "quiescent: no backlog");
        let total: u64 = (0..msgs).map(|k| msg_bytes(k) as u64).sum();
        prop_assert_eq!(stats.wan_uplink_bytes, total,
            "uplink carried every admitted byte exactly once");
        prop_assert!(stats.wan_backlog_peak_bytes <= total);
        prop_assert!(stats.wan_inflight_peak as u64 <= msgs);
    }

    /// Two senders congesting one receiver's region: each link is FIFO on
    /// its own even though the trunk fair-shares between them.
    #[test]
    fn wan_fifo_is_per_link_under_fair_sharing(
        seed in 0u64..100_000,
        msgs in 1u64..30,
        uplink_bps in 2_000u64..50_000,
        hi_ms in 1u64..20,
    ) {
        let latency = LatencyModel::Uniform {
            lo: Span::from_micros(10),
            hi: Span::from_millis(hi_ms),
        };
        let mut sim: Sim<Recorder> = Sim::new(NetConfig::new(seed).with_latency(latency));
        for i in 1..=3 {
            sim.add_node(p(i), Recorder { seen: Vec::new() });
        }
        sim.set_wan(
            WanConfig::new()
                .attach(p(1), 0)
                .attach(p(2), 0)
                .attach(p(3), 1)
                .with_default_uplink(uplink_bps)
                .with_route(0, 1, WanLinkSpec::new(latency, uplink_bps)),
            |m| msg_bytes(*m),
        )
        .unwrap();
        for src in [1u32, 2] {
            sim.schedule_call(Instant::ZERO, p(src), move |_, out| {
                for k in 0..msgs {
                    out.send(p(3), k);
                }
            });
        }
        sim.run_until(Instant::from_micros(300_000_000));

        let seen = &sim.node(p(3)).unwrap().seen;
        assert_per_link_fifo(seen);
        for src in [1u32, 2] {
            let from_src: Vec<u64> =
                seen.iter().filter(|s| s.1 == p(src)).map(|s| s.2).collect();
            prop_assert_eq!(from_src, (0..msgs).collect::<Vec<_>>(),
                "sender {} must arrive in send order", src);
        }
        let stats = sim.stats();
        prop_assert_eq!(stats.delivered, 2 * msgs);
        prop_assert_eq!(stats.wan_inflight, 0);
        prop_assert_eq!(stats.wan_backlog_bytes, 0);
    }
}
