//! # newtop — a reproduction of the Newtop group communication protocol
//!
//! This is the facade crate of a full reproduction of
//!
//! > P. D. Ezhilchelvan, R. A. Macêdo, S. K. Shrivastava,
//! > *"Newtop: A Fault-Tolerant Group Communication Protocol"*,
//! > ICDCS 1995,
//!
//! re-exporting the workspace crates:
//!
//! * [`core`] (`newtop-core`) — the protocol engine: causality-preserving
//!   total order over overlapping process groups, symmetric and asymmetric
//!   (sequencer) variants, time-silence, message stability, partitionable
//!   membership with the suspect/refute/confirmed agreement, dynamic group
//!   formation, flow control;
//! * [`types`] (`newtop-types`) — identifiers, views, messages, wire codec;
//! * [`sim`] (`newtop-sim`) — the deterministic discrete-event network used
//!   by tests and experiments;
//! * [`runtime`] (`newtop-runtime`) — a sharded event-loop real-time host
//!   with a framed, batched wire transport, in-process or over TCP;
//! * [`baselines`] (`newtop-baselines`) — vector-clock causal multicast,
//!   Lamport all-ack total order and bare-sequencer comparators;
//! * [`harness`] (`newtop-harness`) — the E1–E10 experiment suite and the
//!   MD/VC property checker.
//!
//! Start with the `examples/` directory: `quickstart.rs` is a five-minute
//! tour; `server_migration.rs` and `causal_chain.rs` reproduce the paper's
//! Figures 1 and 2; `partition_demo.rs` walks Example 3's partitioned
//! subgroups; `mixed_mode.rs` shows a process running the symmetric and
//! asymmetric variants simultaneously (§4.3).
//!
//! # Examples
//!
//! ```
//! use newtop::core::testkit::TestNet;
//! use newtop::types::{GroupConfig, GroupId, OrderMode};
//!
//! let mut net = TestNet::new([1, 2, 3]);
//! net.bootstrap_group(GroupId(1), &[1, 2, 3], GroupConfig::new(OrderMode::Symmetric));
//! net.multicast(1, GroupId(1), b"hello newtop");
//! net.run_to_quiescence();
//! net.advance_past_omega(GroupId(1));
//! assert_eq!(net.delivered_payloads(3, GroupId(1)), vec!["hello newtop"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use newtop_baselines as baselines;
pub use newtop_core as core;
pub use newtop_harness as harness;
pub use newtop_runtime as runtime;
pub use newtop_sim as sim;
pub use newtop_types as types;
