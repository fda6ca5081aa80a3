//! Experiment harness for the Newtop reproduction.
//!
//! The ICDCS'95 paper has no quantitative evaluation section; its
//! measurable claims live in prose (§2, §6, §7) and in three worked
//! examples. This crate turns each claim into a reproducible experiment:
//!
//! * [`cluster`] — hosts `newtop_core::Process` state machines on the
//!   deterministic `newtop_sim` network, with scripted workloads and fault
//!   injection;
//! * [`history`] — per-process records of everything observable (sends,
//!   deliveries, view changes, protocol events), in emission order;
//! * [`checker`] — validates the paper's ordering and view-consistency
//!   properties (MD1, MD4/MD4', MD5/MD5', VC1, VC3, and quiescent
//!   liveness/atomicity) over a recorded history; used by the property
//!   tests and by every experiment as a built-in sanity gate;
//! * [`testnet`] — `TestNet`, the synchronous facade over the same
//!   simulator that the engine's own tests and doc examples drive: zero
//!   latency, test-driven timers, immediate faults;
//! * [`workload`] — scripted traffic helpers for hand-built scenarios;
//! * [`chaos`] — the seeded fault-schedule explorer: seed → deterministic
//!   topology + traffic + timed fault schedule, replay scripts, ddmin
//!   shrinking (`newtop-exp chaos`);
//! * [`mc`] — the exhaustive small-scope model checker: full interleaving
//!   exploration of 2–4 node systems with state dedup, invariant audit and
//!   shrunk replayable counterexamples (`newtop-exp mc`);
//! * [`sweep`] — work-stealing parallel seed sweeps with deterministic
//!   (worker-count-independent) aggregation;
//! * [`loadgen`] — closed-loop wall-clock load generation against the
//!   real-time runtime host (`newtop-exp load`): delivered msgs/sec and
//!   end-to-end latency percentiles, for the sharded host and a real
//!   multi-process TCP cluster;
//! * [`remote`] — the control plane for real multi-process clusters:
//!   the `newtop-exp serve` node process, the client handle the load
//!   generator drives it with, and the [`ClusterShape`] (nodes, groups,
//!   group config) that serve, load and the supervisor all hold;
//! * [`supervisor`] — seeded kill -9 / restart / rejoin cycles against a
//!   spawned serve fleet (`newtop-exp load --supervise`);
//! * [`proxy`] — a frame-aware chaos proxy (`newtop-exp proxy`) that
//!   drops, delays, reorders and partitions peer-link records so
//!   recovery paths can be exercised on real sockets;
//! * [`experiments`] — E1–E10, one per claim (see DESIGN.md §4;
//!   `newtop-exp --list` names them), each printing one table;
//! * [`table`] — plain-text aligned table rendering.
//!
//! Run everything with `cargo run -p newtop-harness --bin newtop-exp all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod checker;
pub mod cluster;
pub mod experiments;
pub mod history;
pub mod loadgen;
pub mod mc;
pub mod proxy;
pub mod remote;
pub mod supervisor;
pub mod sweep;
pub mod table;
pub mod testnet;
pub mod workload;

pub use chaos::{history_hash, ChaosPlan, ChaosScenario, McStep};
pub use checker::{check_all, CheckOptions, Violation};
pub use cluster::{Command, SimCluster, SimInput};
pub use history::{History, HistoryEvent, MessageId};
pub use loadgen::{run_load, HostKind, LoadConfig, LoadReport};
pub use mc::{explore, McConfig, McReport, McViolation};
pub use proxy::{run_proxy, ProxyConfig, ProxyHandle};
pub use remote::{peer_of, serve, ClusterShape, RemoteCluster, ServeConfig};
pub use supervisor::{run_supervisor, FormationRetry, SupervisorConfig, SupervisorReport};
pub use sweep::{run_chaos_seed, sweep_seeds, SeedOutcome, SweepConfig, SweepReport};
pub use table::Table;
