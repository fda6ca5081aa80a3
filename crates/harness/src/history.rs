//! Recorded observable history of a simulated run.

use newtop_core::{Delivery, ProtocolEvent};
use newtop_types::{GroupId, Instant, ProcessId, SignedView, View, ViewSeq};
use std::collections::BTreeMap;

/// Identity of an application message across the whole run.
///
/// Workload payloads embed this tag (eight big-endian bytes), so a message
/// keeps one identity from the `multicast` call through every delivery —
/// including sequencer relays, where the on-wire number is assigned late.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub u64);

impl MessageId {
    /// Encodes the id as a payload.
    #[must_use]
    pub fn to_payload(self) -> bytes::Bytes {
        bytes::Bytes::copy_from_slice(&self.0.to_be_bytes())
    }

    /// Decodes an id from a payload (must be at least eight bytes).
    #[must_use]
    pub fn from_payload(p: &[u8]) -> Option<MessageId> {
        let bytes: [u8; 8] = p.get(..8)?.try_into().ok()?;
        Some(MessageId(u64::from_be_bytes(bytes)))
    }
}

/// One observable event at one process, in emission order.
#[derive(Debug, Clone)]
pub enum HistoryEvent {
    /// The group was installed with this initial view (bootstrap or
    /// formation activation).
    InitialView {
        /// Group concerned.
        group: GroupId,
        /// The initial membership `V0`.
        view: View,
    },
    /// The application asked to multicast `mid` (it may still be deferred
    /// by blocking rules at this point).
    Sent {
        /// When the request was accepted.
        at: Instant,
        /// Group addressed.
        group: GroupId,
        /// Message identity.
        mid: MessageId,
    },
    /// An application delivery.
    Delivered {
        /// When it was delivered.
        at: Instant,
        /// The delivery (group, origin, number, view, payload).
        delivery: Delivery,
        /// Message identity parsed from the payload (None for payloads not
        /// produced by the workload tagger).
        mid: Option<MessageId>,
    },
    /// A view change.
    ViewChange {
        /// When it was installed.
        at: Instant,
        /// Group concerned.
        group: GroupId,
        /// The new view.
        view: View,
        /// Its §6 signed form.
        signed: SignedView,
    },
    /// Formation completed.
    GroupActive {
        /// When.
        at: Instant,
        /// Group concerned.
        group: GroupId,
    },
    /// A membership protocol event.
    Protocol {
        /// When.
        at: Instant,
        /// The event.
        event: ProtocolEvent,
    },
    /// This process voluntarily departed the group (it keeps no view
    /// afterwards, §3 — liveness obligations end here).
    Departed {
        /// When.
        at: Instant,
        /// The group left.
        group: GroupId,
    },
}

/// Everything recorded about one run: per-process ordered event logs.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Ordered events per process.
    pub events: BTreeMap<ProcessId, Vec<HistoryEvent>>,
    /// Processes crashed by the fault schedule (exempt from liveness).
    pub crashed: Vec<ProcessId>,
}

impl History {
    /// The processes recorded.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.events.keys().copied()
    }

    /// Ordered delivery records of `p` (all groups).
    #[must_use]
    pub fn deliveries(&self, p: ProcessId) -> Vec<(Instant, Delivery, Option<MessageId>)> {
        self.events
            .get(&p)
            .map(|evs| {
                evs.iter()
                    .filter_map(|e| match e {
                        HistoryEvent::Delivered { at, delivery, mid } => {
                            Some((*at, delivery.clone(), *mid))
                        }
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Delivered message ids of `p` in `group`, in delivery order.
    #[must_use]
    pub fn delivered_mids(&self, p: ProcessId, group: GroupId) -> Vec<MessageId> {
        self.deliveries(p)
            .into_iter()
            .filter(|(_, d, _)| d.group == group)
            .filter_map(|(_, _, mid)| mid)
            .collect()
    }

    /// Delivered message ids of `p` across all groups, in delivery order.
    #[must_use]
    pub fn delivered_mids_all(&self, p: ProcessId) -> Vec<MessageId> {
        self.deliveries(p)
            .into_iter()
            .filter_map(|(_, _, mid)| mid)
            .collect()
    }

    /// The view sequence → members map of `p` for `group`, including `V0`.
    #[must_use]
    pub fn views_of(&self, p: ProcessId, group: GroupId) -> BTreeMap<ViewSeq, View> {
        let mut map = BTreeMap::new();
        if let Some(evs) = self.events.get(&p) {
            for e in evs {
                match e {
                    HistoryEvent::InitialView { group: g, view } if *g == group => {
                        map.insert(view.seq(), view.clone());
                    }
                    HistoryEvent::ViewChange { group: g, view, .. } if *g == group => {
                        map.insert(view.seq(), view.clone());
                    }
                    _ => {}
                }
            }
        }
        map
    }

    /// Whether `p` crashed during the run.
    #[must_use]
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.crashed.contains(&p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_id_payload_roundtrip() {
        let mid = MessageId(0xDEAD_BEEF_0042);
        let p = mid.to_payload();
        assert_eq!(MessageId::from_payload(&p), Some(mid));
        assert_eq!(MessageId::from_payload(b"short"), None);
    }

    #[test]
    fn empty_history_queries_are_empty() {
        let h = History::default();
        assert_eq!(h.deliveries(ProcessId(1)).len(), 0);
        assert!(h.views_of(ProcessId(1), GroupId(1)).is_empty());
        assert!(!h.is_crashed(ProcessId(1)));
    }
}
