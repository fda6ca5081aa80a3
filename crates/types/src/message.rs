//! The message model: numbered group messages, their bodies, and the
//! un-numbered control messages of the group-formation protocol (§5.3).

use crate::config::GroupConfig;
use crate::{GroupId, Msn, ProcessId};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A suspicion pair `{P_k, ln}`: process `P_k` is suspected to have crashed,
/// and `ln` is the number of the last message the suspector received from it
/// (§5.2).
///
/// # Examples
///
/// ```
/// use newtop_types::{Msn, ProcessId, Suspicion};
/// let s = Suspicion { suspect: ProcessId(3), ln: Msn(17) };
/// assert_eq!(s.to_string(), "{P3,17}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Suspicion {
    /// The process suspected to have crashed, departed or disconnected.
    pub suspect: ProcessId,
    /// Number of the last message received from `suspect`.
    pub ln: Msn,
}

impl fmt::Display for Suspicion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{},{}}}", self.suspect, self.ln)
    }
}

/// A numbered group message (`m` in the paper).
///
/// Every message multicast or unicast within a group carries:
/// * `c` — its logical-clock number, assigned by counter-advance rule CA1;
/// * `ldn` — the sender's current largest-deliverable-number `D_{x,i}`,
///   piggybacked for message-stability tracking (§5.1).
///
/// The fixed-size protocol header (group and body kind in one key, sender,
/// `c`, `ldn`) is the entirety of Newtop's per-message ordering overhead —
/// the paper's central efficiency claim against vector-clock protocols
/// (§6). The wire codec in [`crate::wire`] makes this measurable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Message {
    /// The destination group (`m.g`).
    pub group: GroupId,
    /// The transmitting process (`m.s`). For sequencer relays this is the
    /// sequencer; the originating member is in [`MessageBody::Relay`].
    pub sender: ProcessId,
    /// The message number (`m.c`), from the sender's logical clock.
    pub c: Msn,
    /// The sender's `D_{x,i}` at transmission time (`m.ldn`, §5.1).
    pub ldn: Msn,
    /// What the message carries.
    pub body: MessageBody,
}

impl Message {
    /// Whether this message carries application data that must be delivered
    /// to the application (directly or as a sequencer relay).
    #[must_use]
    pub fn is_app(&self) -> bool {
        matches!(self.body, MessageBody::App(_) | MessageBody::Relay { .. })
    }

    /// Whether this message is retained for recovery while unstable.
    ///
    /// Every numbered multicast is retained until stable — including nulls
    /// and membership messages — because suspicion pairs `{P_k, ln}` can
    /// only converge across members if a refute can supply *any* missing
    /// message of `P_k`, whatever its body (§5.2 step (iii): "all received
    /// m of Pk, m.c > ln, can be piggybacked on the refute message"). The
    /// single exception is the sequencer unicast request, which is not a
    /// multicast, does not advance receive vectors, and is recovered by
    /// resubmission instead (§4.2 fail-over).
    #[must_use]
    pub fn is_retained(&self) -> bool {
        !matches!(self.body, MessageBody::SeqRequest { .. })
    }

    /// The copy of this message that the retention store keeps: identical,
    /// except that a refute's own recovery piggyback is stripped (the inner
    /// messages are retained individually by every receiver, so re-carrying
    /// them nested inside retained refutes would only compound memory).
    #[must_use]
    pub fn for_retention(&self) -> Message {
        match &self.body {
            MessageBody::Refute {
                suspicion, upto, ..
            } => Message {
                body: MessageBody::Refute {
                    suspicion: *suspicion,
                    upto: *upto,
                    recovered: Vec::new(),
                },
                ..self.clone()
            },
            _ => self.clone(),
        }
    }

    /// The process whose application send this message represents: the
    /// relay origin for [`MessageBody::Relay`], the sender otherwise.
    #[must_use]
    pub fn origin(&self) -> ProcessId {
        match &self.body {
            MessageBody::Relay { origin, .. } => *origin,
            _ => self.sender,
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {} c={} ldn={} {}]",
            self.group, self.sender, self.c, self.ldn, self.body
        )
    }
}

/// The payload variants a numbered group message can carry.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageBody {
    /// An application multicast (symmetric protocol, §4.1).
    App(Bytes),
    /// A time-silence null message (§4.1): advances clocks and receive
    /// vectors, is never delivered to the application.
    Null,
    /// A member's unicast to the group sequencer requesting dissemination
    /// (asymmetric protocol, §4.2). `origin_c` is the number the member
    /// assigned; the sequencer re-numbers on relay.
    SeqRequest {
        /// The number the originating member assigned on unicast.
        origin_c: Msn,
        /// The application payload to disseminate.
        payload: Bytes,
    },
    /// The sequencer's multicast of a member's request (asymmetric, §4.2).
    Relay {
        /// The member whose application send this relays.
        origin: ProcessId,
        /// The number the member assigned to its unicast (for matching
        /// outstanding requests under the send-blocking rule).
        origin_c: Msn,
        /// The application payload.
        payload: Bytes,
    },
    /// Membership step (i): the sender suspects `suspicion.suspect`.
    Suspect(Suspicion),
    /// Membership steps (iii)/(iv): the sender refutes `suspicion`, with the
    /// suspect's retained unstable messages piggybacked for recovery.
    Refute {
        /// The suspicion being refuted.
        suspicion: Suspicion,
        /// The refuter's receive-vector entry for the suspect. The refuter
        /// holds every message of the suspect in this group numbered up to
        /// `upto` and piggybacks each one that is not yet stable, so a
        /// receiver that has integrated `recovered` may adopt `upto` as its
        /// own entry — even where the last step of that entry was an
        /// implicit null that no retained message records.
        upto: Msn,
        /// Retained messages of the suspect.
        recovered: Vec<Message>,
    },
    /// Membership steps (v)/(vi): the sender has confirmed `detection` as an
    /// agreed failure set.
    Confirmed {
        /// The agreed set of suspicion pairs.
        detection: Vec<Suspicion>,
    },
    /// Group formation step 4 (§5.3): the sender proposes that computational
    /// messages start above this message's own number `c` (the
    /// *start-number*).
    StartGroup,
    /// Voluntary departure from the group: receivers treat this as an
    /// immediate, unanimous suspicion `{sender, c}` so that the membership
    /// agreement excludes the departing member after its last message.
    /// (The paper lists departures among the membership changes handled by
    /// the `GV` processes; the explicit announcement is our fast path —
    /// silence would achieve the same through the Ω timeout.)
    Depart,
    /// Asymmetric-group view installation (our completion of the part the
    /// paper defers to its technical-report version): the sequencer's
    /// in-stream announcement that the view excluding `detection` is to be
    /// installed at this position of the sequencer's delivery stream.
    ViewCut {
        /// The agreed detection this cut installs.
        detection: Vec<Suspicion>,
    },
}

impl fmt::Display for MessageBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MessageBody::App(b) => write!(f, "app({}B)", b.len()),
            MessageBody::Null => write!(f, "null"),
            MessageBody::SeqRequest { origin_c, payload } => {
                write!(f, "seqreq(oc={origin_c},{}B)", payload.len())
            }
            MessageBody::Relay {
                origin,
                origin_c,
                payload,
            } => write!(f, "relay({origin},oc={origin_c},{}B)", payload.len()),
            MessageBody::Suspect(s) => write!(f, "suspect{s}"),
            MessageBody::Refute {
                suspicion,
                upto,
                recovered,
            } => write!(f, "refute{suspicion}^{upto}+{}", recovered.len()),
            MessageBody::Confirmed { detection } => {
                write!(f, "confirmed({} pairs)", detection.len())
            }
            MessageBody::StartGroup => write!(f, "start-group"),
            MessageBody::Depart => write!(f, "depart"),
            MessageBody::ViewCut { detection } => {
                write!(f, "view-cut({} pairs)", detection.len())
            }
        }
    }
}

/// The yes/no vote of group-formation step 2 (§5.3). A single `No` vetoes
/// the formation (step 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FormationDecision {
    /// The voter accepts membership of the proposed group.
    Yes,
    /// The voter vetoes the proposed group.
    No,
}

/// Un-numbered control messages: the two-phase group-formation exchange of
/// §5.3 happens before the group (and hence its logical-clock numbering)
/// exists.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ControlMessage {
    /// Step 1: the initiator invites `members` to form group `group`.
    /// The shared `config` guarantees all members run the group with
    /// identical ordering mode and timeouts.
    FormGroup {
        /// Identifier of the proposed group.
        group: GroupId,
        /// The initiating process (coordinator of the two-phase exchange).
        initiator: ProcessId,
        /// The full intended membership.
        members: BTreeSet<ProcessId>,
        /// Group configuration every member will apply.
        config: GroupConfig,
    },
    /// Steps 2–3: a member diffuses its vote to every intended member.
    FormVote {
        /// Identifier of the proposed group.
        group: GroupId,
        /// The voting process.
        voter: ProcessId,
        /// Accept or veto.
        decision: FormationDecision,
    },
}

impl ControlMessage {
    /// The group this control message concerns.
    #[must_use]
    pub fn group(&self) -> GroupId {
        match self {
            ControlMessage::FormGroup { group, .. } | ControlMessage::FormVote { group, .. } => {
                *group
            }
        }
    }
}

/// Everything that can travel on the transport: a numbered group message or
/// an un-numbered control message.
///
/// Group messages are carried behind an [`Arc`], so a multicast fan-out
/// materialises the message **once** and every per-destination envelope is
/// a reference-count bump — payload bytes and body allocations are shared
/// across all destinations (and with the sender's own retention/delivery
/// buffers). This deviates from the seed's by-value envelopes; see
/// DESIGN.md §5 and §7.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Envelope {
    /// A numbered group message (shared across fan-out destinations).
    Group(Arc<Message>),
    /// A formation control message.
    Control(ControlMessage),
}

impl Envelope {
    /// The group the enveloped message concerns.
    #[must_use]
    pub fn group(&self) -> GroupId {
        match self {
            Envelope::Group(m) => m.group,
            Envelope::Control(c) => c.group(),
        }
    }

    /// The process that originated this envelope.
    ///
    /// Every envelope is self-identifying: group messages name their
    /// sender, control messages their initiator or voter. Transports that
    /// coalesce envelopes from several co-located senders into one frame
    /// per destination rely on this to recover the per-envelope source
    /// without carrying it out of band.
    #[must_use]
    pub fn source(&self) -> ProcessId {
        match self {
            Envelope::Group(m) => m.sender,
            Envelope::Control(ControlMessage::FormGroup { initiator, .. }) => *initiator,
            Envelope::Control(ControlMessage::FormVote { voter, .. }) => *voter,
        }
    }
}

impl From<Message> for Envelope {
    fn from(m: Message) -> Envelope {
        Envelope::Group(Arc::new(m))
    }
}

impl From<Arc<Message>> for Envelope {
    fn from(m: Arc<Message>) -> Envelope {
        Envelope::Group(m)
    }
}

impl From<ControlMessage> for Envelope {
    fn from(c: ControlMessage) -> Envelope {
        Envelope::Control(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(body: MessageBody) -> Message {
        Message {
            group: GroupId(1),
            sender: ProcessId(2),
            c: Msn(10),
            ldn: Msn(8),
            body,
        }
    }

    #[test]
    fn app_and_relay_are_app() {
        assert!(msg(MessageBody::App(Bytes::from_static(b"x"))).is_app());
        assert!(msg(MessageBody::Relay {
            origin: ProcessId(4),
            origin_c: Msn(3),
            payload: Bytes::from_static(b"y"),
        })
        .is_app());
        assert!(!msg(MessageBody::Null).is_app());
        assert!(!msg(MessageBody::StartGroup).is_app());
    }

    #[test]
    fn retention_excludes_only_sequencer_requests() {
        assert!(msg(MessageBody::App(Bytes::new())).is_retained());
        assert!(msg(MessageBody::StartGroup).is_retained());
        assert!(msg(MessageBody::Depart).is_retained());
        assert!(msg(MessageBody::ViewCut { detection: vec![] }).is_retained());
        assert!(msg(MessageBody::Null).is_retained());
        assert!(msg(MessageBody::Suspect(Suspicion {
            suspect: ProcessId(9),
            ln: Msn(1),
        }))
        .is_retained());
        assert!(msg(MessageBody::Confirmed { detection: vec![] }).is_retained());
        assert!(!msg(MessageBody::SeqRequest {
            origin_c: Msn(1),
            payload: Bytes::new(),
        })
        .is_retained());
    }

    #[test]
    fn retention_copy_strips_refute_piggyback() {
        let inner = msg(MessageBody::Null);
        let refute = msg(MessageBody::Refute {
            suspicion: Suspicion {
                suspect: ProcessId(9),
                ln: Msn(1),
            },
            upto: Msn(4),
            recovered: vec![inner],
        });
        let kept = refute.for_retention();
        match kept.body {
            MessageBody::Refute { recovered, .. } => assert!(recovered.is_empty()),
            other => panic!("unexpected body {other:?}"),
        }
        assert_eq!(kept.c, refute.c);
        // Non-refutes are retained verbatim.
        let app = msg(MessageBody::App(Bytes::from_static(b"x")));
        assert_eq!(app.for_retention(), app);
    }

    #[test]
    fn origin_prefers_relay_origin() {
        let m = msg(MessageBody::Relay {
            origin: ProcessId(7),
            origin_c: Msn(1),
            payload: Bytes::new(),
        });
        assert_eq!(m.origin(), ProcessId(7));
        assert_eq!(msg(MessageBody::Null).origin(), ProcessId(2));
    }

    #[test]
    fn envelope_group_of_both_variants() {
        let e: Envelope = msg(MessageBody::Null).into();
        assert_eq!(e.group(), GroupId(1));
        let c: Envelope = ControlMessage::FormVote {
            group: GroupId(5),
            voter: ProcessId(1),
            decision: FormationDecision::Yes,
        }
        .into();
        assert_eq!(c.group(), GroupId(5));
    }

    #[test]
    fn display_formats_are_informative() {
        let m = msg(MessageBody::App(Bytes::from_static(b"abc")));
        assert_eq!(m.to_string(), "[g1 P2 c=10 ldn=8 app(3B)]");
        let s = Suspicion {
            suspect: ProcessId(3),
            ln: Msn(17),
        };
        assert_eq!(
            msg(MessageBody::Suspect(s)).to_string(),
            "[g1 P2 c=10 ldn=8 suspect{P3,17}]"
        );
    }
}
