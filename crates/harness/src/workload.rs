//! Scripted traffic helpers for hand-built scenarios.
//!
//! Randomised topologies, traffic and fault schedules all come from one
//! generator, [`crate::chaos::ChaosScenario`]: its network profile (LAN or
//! WAN) and fault mix (classic or churn) are two tables, and the property
//! and stress tests draw their scenarios from it too.

use crate::cluster::SimCluster;
use crate::history::MessageId;
use newtop_types::{GroupId, Instant, Span};

/// Schedules `count` tagged sends from rotating senders at a fixed
/// inter-send gap, starting at `start`. Returns the ids used.
pub fn rotating_sends(
    cluster: &mut SimCluster,
    group: GroupId,
    senders: &[u32],
    count: u32,
    start: Instant,
    gap: Span,
) -> Vec<MessageId> {
    let mut mids = Vec::new();
    let mut at = start;
    for k in 0..count {
        let from = senders[(k as usize) % senders.len()];
        let mid = MessageId(u64::from(group.0) << 32 | u64::from(k));
        cluster.schedule_send(at, from, group, mid);
        mids.push(mid);
        at += gap;
    }
    mids
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_sim::NetConfig;
    use newtop_types::{GroupConfig, OrderMode};

    #[test]
    fn rotating_sends_schedules_all() {
        let mut c = SimCluster::new(3, NetConfig::new(3));
        c.bootstrap_group(
            GroupId(1),
            &[1, 2, 3],
            GroupConfig::new(OrderMode::Symmetric),
        );
        let mids = rotating_sends(
            &mut c,
            GroupId(1),
            &[1, 2, 3],
            9,
            Instant::from_micros(1000),
            Span::from_millis(1),
        );
        assert_eq!(mids.len(), 9);
        c.run_for(Span::from_millis(300));
        let h = c.history();
        assert_eq!(
            h.delivered_mids(newtop_types::ProcessId(2), GroupId(1))
                .len(),
            9
        );
    }
}
