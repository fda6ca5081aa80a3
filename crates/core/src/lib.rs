//! # newtop-core — the Newtop protocol engine
//!
//! A from-scratch implementation of
//!
//! > P. D. Ezhilchelvan, R. A. Macêdo, S. K. Shrivastava,
//! > *"Newtop: A Fault-Tolerant Group Communication Protocol"*, ICDCS 1995,
//!
//! as a deterministic, sans-IO state machine. One [`Process`] per
//! participant; hosts feed envelopes and clock ticks in, and execute the
//! [`Action`]s that come back out. The engine implements:
//!
//! * **Logical-clock total order** (§4.1): counter-advance rules CA1/CA2
//!   ([`LogicalClock`]), per-group receive vectors ([`MsnVector`]), the
//!   deliverability bound `D_i = min over groups of min(RV)` and delivery
//!   conditions *safe1'*/*safe2*;
//! * **Overlapping groups** (MD4'/MD5'): one clock per process, any number
//!   of groups, O(1) ordering header per message;
//! * **Symmetric, asymmetric and mixed ordering** (§4.1–§4.3), including the
//!   send-blocking rules for multi-group members and deterministic
//!   sequencer selection;
//! * **Time-silence** (§4.1) null messages and the failure suspector built
//!   on it (§5.2);
//! * **Message stability** (§5.1): `ldn` piggybacking, stability vectors,
//!   retention of unstable messages, and refute-piggyback recovery;
//! * **Partitionable membership** (§5.2): the suspect/refute/confirmed
//!   agreement (steps (i)–(vii)), view installation with the `update_view`
//!   delivery barrier and the `lnmn` discard rule (step (viii)), concurrent
//!   subgroup views that stabilise into non-intersecting ones, and the §6
//!   signed-view extension;
//! * **Dynamic group formation** (§5.3): two-phase invite with veto, then
//!   start-number agreement;
//! * **Flow control** (§7): a window on unstable own messages;
//! * **Atomic-only delivery** (§2) as a per-group mode.
//!
//! See `DESIGN.md` at the repository root for the paper-to-module map and
//! the deviations we document (conservative formation deliverability, the
//! asymmetric `ViewCut` completion, departure announcements).
//!
//! # Examples
//!
//! ```
//! use newtop_core::testkit::TestNet;
//! use newtop_types::{GroupConfig, GroupId, OrderMode};
//!
//! // Three processes, one symmetric total-order group.
//! let mut net = TestNet::new([1, 2, 3]);
//! net.bootstrap_group(GroupId(1), &[1, 2, 3], GroupConfig::new(OrderMode::Symmetric));
//! net.multicast(1, GroupId(1), b"a");
//! net.multicast(2, GroupId(1), b"b");
//! net.run_to_quiescence();
//! net.advance_past_omega(GroupId(1)); // time-silence makes them deliverable
//! let d1 = net.deliveries(1);
//! let d3 = net.deliveries(3);
//! assert_eq!(d1.len(), 2);
//! // Total order: every member delivers the same sequence.
//! assert_eq!(
//!     d1.iter().map(|d| (d.c, d.origin)).collect::<Vec<_>>(),
//!     d3.iter().map(|d| (d.c, d.origin)).collect::<Vec<_>>(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod buffer;
mod clock;
mod formation;
mod group;
mod membership;
mod process;
pub mod testkit;
mod vectors;

pub use action::{Action, Delivery, FormationFailure, ProcessStats, ProtocolEvent};
pub use buffer::{DeliveryBuffer, RetentionStore};
pub use clock::LogicalClock;
pub use process::{GroupError, Process};
pub use vectors::MsnVector;
