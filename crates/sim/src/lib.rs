//! Deterministic discrete-event network simulator for the Newtop
//! reproduction.
//!
//! The paper assumes a message transport layer "permitting uncorrupted and
//! sequenced message transmission between a sender and destination
//! processes, if the processes are alive and the destination processes are
//! not partitioned from the sender" (§3). This crate is that substrate,
//! built for experiments rather than production traffic:
//!
//! * **Virtual time** — a microsecond event clock; no wall-clock, no
//!   threads, perfectly repeatable.
//! * **Reliable FIFO links** — every ordered pair of nodes is a link;
//!   random per-message latency is clamped so arrivals never reorder
//!   (matching the paper's sequenced-transmission assumption).
//! * **Fault injection** — crashes (which can sever a multicast mid-flight,
//!   as in the paper's Example 1), network partitions with either
//!   *loss* semantics (messages crossing the cut are dropped — a permanent
//!   or UDP-style partition) or *delay* semantics (messages are parked and
//!   released on heal — a TCP-style transient partition), healing and
//!   latency changes. Each is a [`NetOp`], scheduled with [`Sim::schedule`]
//!   or applied at once with [`Sim::apply`] (the synchronous
//!   `newtop-harness` `TestNet` drives the engine tests with the latter);
//!   directed link cuts act at once.
//! * **Inputs as data** — scheduled node inputs are values of a type the
//!   caller picks ([`NodeInput`]; a boxed [`Call`] by default). When they
//!   and the nodes are `Clone`, a running [`Sim`] can be forked.
//! * **Determinism** — all randomness comes from a seeded
//!   [`rand::rngs::StdRng`]; the same seed and script replay the same
//!   history, so failing property tests reproduce exactly.
//! * **Pluggable WAN realism** — [`Sim::set_wan`] swaps the default
//!   constant-latency transport (preserved bit-identical when off) for a
//!   topology-aware model: regions, finite-capacity uplinks and asymmetric
//!   inter-region trunks with fair-share bandwidth, plus a seeded reorder
//!   knob (see [`WanConfig`] and the `wan` module docs).
//!
//! The simulator is generic over the node behaviour ([`SimNode`]) and the
//! message type, so the Lamport all-ack baseline of experiment E3 runs on
//! the very same network model as Newtop itself.
//!
//! # Examples
//!
//! A ping-pong over 1 ms links, served by a data input and forked
//! mid-rally; crashing P1 in the fork ends the rally there:
//!
//! ```
//! use newtop_sim::{LatencyModel, NetConfig, NetOp, NodeInput, Outbox, Sim, SimNode};
//! use newtop_types::{Instant, ProcessId, Span};
//!
//! #[derive(Clone)]
//! struct Pinger {
//!     peer: ProcessId,
//!     got: u32,
//! }
//!
//! impl SimNode for Pinger {
//!     type Msg = u32;
//!     fn on_message(&mut self, _now: Instant, _from: ProcessId, msg: u32,
//!                   out: &mut Outbox<u32>) {
//!         self.got = msg;
//!         if msg < 3 {
//!             out.send(self.peer, msg + 1);
//!         }
//!     }
//! }
//!
//! #[derive(Clone)]
//! struct Serve;
//! impl NodeInput<Pinger> for Serve {
//!     fn apply_to(self, _now: Instant, n: &mut Pinger, out: &mut Outbox<u32>) {
//!         out.send(n.peer, 1);
//!     }
//! }
//!
//! let cfg = NetConfig::new(7).with_latency(LatencyModel::Fixed(Span::from_millis(1)));
//! let mut sim: Sim<Pinger, Serve> = Sim::new(cfg);
//! sim.add_node(ProcessId(1), Pinger { peer: ProcessId(2), got: 0 });
//! sim.add_node(ProcessId(2), Pinger { peer: ProcessId(1), got: 0 });
//! sim.schedule_input(Instant::ZERO, ProcessId(1), Serve);
//! sim.run_until(Instant::from_micros(1_500));
//! let mut fork = sim.clone();
//! fork.apply(NetOp::Crash(ProcessId(1)));
//! sim.run_until(Instant::from_micros(10_000));
//! fork.run_until(Instant::from_micros(10_000));
//! assert_eq!(sim.node(ProcessId(2)).unwrap().got, 3);
//! assert_eq!(fork.node(ProcessId(2)).unwrap().got, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod sim;
mod wan;

pub use model::{LatencyModel, NetConfig, NetStats, PartitionMode, PartitionSpec};
pub use sim::{Call, NetOp, NodeInput, Outbox, PendingEvent, Sim, SimNode};
pub use wan::{WanAttachment, WanConfig, WanLinkSpec, WanRoute};
