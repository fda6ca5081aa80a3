//! Outputs of the sans-IO protocol engine.
//!
//! A [`crate::Process`] never performs I/O. Every public entry point returns
//! a sequence of [`Action`]s that the host (simulator, threaded runtime, or
//! a test) executes: transport sends, application deliveries, view-change
//! notifications and trace events.

use bytes::Bytes;
use newtop_types::{Envelope, GroupId, Msn, ProcessId, SignedView, Suspicion, View, ViewSeq};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One delivered application message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delivery {
    /// Group the message was multicast in.
    pub group: GroupId,
    /// The application-level originator (for sequencer relays, the member
    /// whose send this was — not the sequencer).
    pub origin: ProcessId,
    /// The message number under which it was delivered (the sequencer's
    /// number in asymmetric groups).
    pub c: Msn,
    /// The view sequence in force at delivery (`r` of `delivery_i(m, r)`).
    pub view_seq: ViewSeq,
    /// Application payload.
    pub payload: Bytes,
}

/// Why a group formation attempt did not produce a group (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FormationFailure {
    /// Some intended member voted no — a veto (step 3).
    Vetoed {
        /// The vetoing process.
        by: ProcessId,
    },
    /// The initiator's vote-collection timer expired before all votes
    /// arrived; the initiator diffuses a veto of its own (step 3).
    TimedOut,
}

impl fmt::Display for FormationFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormationFailure::Vetoed { by } => write!(f, "vetoed by {by}"),
            FormationFailure::TimedOut => write!(f, "vote collection timed out"),
        }
    }
}

/// Membership-protocol trace events, emitted for observability and consumed
/// by the property checker and the experiment harness.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolEvent {
    /// The local failure suspector raised suspicion `pair` (step (i)), or
    /// step (vii) forced it after a confirmed detection named this process.
    Suspected {
        /// Group concerned.
        group: GroupId,
        /// The raised suspicion.
        pair: Suspicion,
    },
    /// A suspicion of ours was refuted by `by`; any missing messages came
    /// piggybacked (step (iv)).
    Refuted {
        /// Group concerned.
        group: GroupId,
        /// The withdrawn suspicion.
        pair: Suspicion,
        /// Who refuted it.
        by: ProcessId,
        /// How many missing messages were recovered from the piggyback.
        recovered: usize,
    },
    /// This process reached consensus on a detection set (steps (v)/(vi)).
    DetectionAdopted {
        /// Group concerned.
        group: GroupId,
        /// The agreed suspicion pairs.
        detection: Vec<Suspicion>,
    },
    /// Messages of a failed process above the agreed bound were discarded
    /// (the step-(viii) safety measure preserving MD5).
    Discarded {
        /// Group concerned.
        group: GroupId,
        /// The failed process whose tail was discarded.
        from: ProcessId,
        /// The bound above which messages were dropped.
        above: Msn,
        /// Number of undelivered messages dropped.
        count: usize,
    },
    /// A deferred voluntary departure ([`crate::Process::depart`]) actually
    /// executed: the `Depart` message is on the wire and the group state is
    /// gone. Deliveries in the group are legitimate between the departure
    /// *request* and this event (§3: the leaver first completes the current
    /// view's obligations), never after it.
    DepartureCompleted {
        /// The group left.
        group: GroupId,
    },
    /// The sequencer of an asymmetric group changed after a view install.
    SequencerChanged {
        /// Group concerned.
        group: GroupId,
        /// The new sequencer.
        new: ProcessId,
        /// Outstanding unicasts resubmitted to it.
        resubmitted: usize,
    },
}

/// An instruction from the protocol engine to its host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Hand `envelope` to the reliable FIFO transport, addressed to `to`.
    Send {
        /// Destination process.
        to: ProcessId,
        /// The frame to transmit.
        envelope: Envelope,
    },
    /// Deliver an application message (MD-ordered unless the group runs in
    /// atomic mode).
    Deliver(Delivery),
    /// A new membership view was installed (step (viii)).
    ViewChange {
        /// Group concerned.
        group: GroupId,
        /// The installed view.
        view: View,
        /// The §6 signed form of the view.
        signed: SignedView,
    },
    /// Group formation completed; application multicasts may now flow
    /// (§5.3 step 5 condition satisfied).
    GroupActive {
        /// The newly formed group.
        group: GroupId,
        /// Its initial view as seen at activation.
        view: View,
    },
    /// Group formation failed; no group state remains.
    FormationFailed {
        /// The proposed group.
        group: GroupId,
        /// Why it failed.
        reason: FormationFailure,
    },
    /// A membership-protocol trace event.
    Event(ProtocolEvent),
}

impl Action {
    /// Convenience: the delivery carried by this action, if any.
    #[must_use]
    pub fn as_delivery(&self) -> Option<&Delivery> {
        match self {
            Action::Deliver(d) => Some(d),
            _ => None,
        }
    }
}

/// Counters a process maintains about its own protocol activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessStats {
    /// Application multicasts accepted from the local application.
    pub app_sends: u64,
    /// Null messages sent by the time-silence mechanism.
    pub nulls_sent: u64,
    /// Null sends credited to covered groups: one per numbered multicast
    /// per group its group covers. Each restarts that group's ω timer as a
    /// null would, so the group sends no null of its own while the
    /// covering group talks.
    pub nulls_covered: u64,
    /// Application messages delivered.
    pub deliveries: u64,
    /// Suspect messages multicast.
    pub suspects_sent: u64,
    /// Refute messages multicast.
    pub refutes_sent: u64,
    /// Confirmed messages multicast.
    pub confirms_sent: u64,
    /// Messages integrated from refute piggybacks.
    pub recovered: u64,
    /// Group messages received (all classes).
    pub received: u64,
    /// Views installed across all groups.
    pub views_installed: u64,
    /// Sends currently parked in the deferred queue (blocking rule, flow
    /// control or formation phase).
    pub deferred_now: u64,
    /// Cumulative sends that had to be deferred at least once.
    pub deferred_total: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_delivery_filters() {
        let d = Delivery {
            group: GroupId(1),
            origin: ProcessId(1),
            c: Msn(1),
            view_seq: ViewSeq(0),
            payload: Bytes::new(),
        };
        assert!(Action::Deliver(d.clone()).as_delivery().is_some());
        let e = Action::Event(ProtocolEvent::SequencerChanged {
            group: GroupId(1),
            new: ProcessId(2),
            resubmitted: 0,
        });
        assert!(e.as_delivery().is_none());
    }

    #[test]
    fn formation_failure_display() {
        assert_eq!(
            FormationFailure::Vetoed { by: ProcessId(3) }.to_string(),
            "vetoed by P3"
        );
        assert_eq!(
            FormationFailure::TimedOut.to_string(),
            "vote collection timed out"
        );
    }
}
