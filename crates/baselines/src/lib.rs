//! Comparator cost models for the reproduction's evaluation.
//!
//! §6 of the Newtop paper compares against the best-known protocol families
//! of its day. Two modules regenerate those comparisons:
//!
//! * [`headers`] — wire-size models of the per-message header: Newtop's
//!   O(1) header against an ISIS-style vector clock per group (the
//!   O(members × groups) growth the paper contrasts) and a bare
//!   fixed-sequencer (ABCAST) header; experiment E1 prints them;
//! * [`lamport`] — the classic **all-ack total order** built directly on
//!   Lamport clocks (every receipt is acknowledged to everyone; a message
//!   delivers when it heads the timestamp queue and everyone has spoken
//!   past it), run on the same simulated network as Newtop itself —
//!   experiment E3's n²-messages-per-multicast baseline, the cost Newtop's
//!   time-silence design amortises away.
//!
//! Neither is fault-tolerant — that is the point of the comparison: they
//! reproduce the *ordering* cost models, while Newtop adds partitionable
//! membership on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod headers;
pub mod lamport;
