//! Simulators for asynchronous message-passing systems running RDT
//! checkpointing with garbage collection.
//!
//! Two execution engines run the `rdt-protocols` middleware stack over
//! the `rdt-env` runtime abstraction, and both drive one crate-private
//! step core: each per-process event — checkpoint, send, receive, a
//! process's share of a control round or recovery session — is
//! implemented once, and an engine only decides *when* it runs and *where
//! its observables go*.
//!
//! * [`SimulationBuilder`] / [`Simulation`] — a deterministic, seeded
//!   **discrete-event simulator** over `SimEnv` (virtual clock + a heap
//!   of the events in flight) implementing the paper's system model
//!   (Section 2): asynchronous processes, channels with variable delay,
//!   loss and reordering, crash/recover failures with a centralized
//!   recovery manager, and optional coordinator control rounds for the
//!   coordinated baseline collectors. The application op stream, whose
//!   order is final before the run starts, reaches the run through an
//!   ordered lane beside the queue; the queue holds only the deliveries
//!   and control rounds the run creates, so a crash cancels what is in
//!   flight at a cost independent of the ops still to come.
//!
//!   **Memory model.** [`SimulationBuilder::run`] never holds its
//!   workload: it fixes every op's `(tick, sequence)` key up front — a
//!   block of sequence numbers reserved in `SimEnv`, so keys, rng draws
//!   and output are those of a run handed the whole generated slice — and
//!   the lane then takes a fixed block of ops at a time from the
//!   workload's resumable generator
//!   ([`WorkloadSpec::ops`](rdt_workloads::WorkloadSpec::ops)) whenever
//!   the run finds it empty. The sequential engine's memory is therefore
//!   the system's — O(n²) for n processes keeping ≤ n + 1 checkpoints of
//!   n entries each, plus what is in flight — and independent of the
//!   run's length (recordings, when asked for, grow with it). A caller
//!   that holds a slice still schedules it with
//!   [`Simulation::schedule_ops`], which keeps the slice's length in the
//!   lane.
//! * The **sharded parallel engine** — reached through the same builder
//!   via [`SimulationBuilder::shards`]: processes partitioned across
//!   worker shards, each running its planned events as the coordinator's
//!   planner pops them from the sequential engine's own schedule, merged
//!   with its own event queue of deliveries inside conservative lookahead
//!   windows derived from the channel's `min_delay`, with cross-shard
//!   deliveries exchanged at window barriers. Output is byte-identical to
//!   the sequential engine for a fixed seed, at any shard count. The plan
//!   is streamed and the metrics are folded in place, so with trace and
//!   occupancy off this engine's memory does not grow with the run
//!   either.
//!
//! Beside the engines:
//!
//! * [`run_script`] — exact, delivery-placed execution of
//!   [`Script`](rdt_workloads::Script)s through the same step core, used
//!   to reproduce the paper's worked figures (2, 4 and 5);
//!   [`run_script_with`] shows the state after every op.
//! * [`LiveNode`] — the wire-frame driver around one middleware that the
//!   `rdt serve` multi-process runtime runs over real sockets (and
//!   `examples/threaded_runtime.rs` over OS threads), validating that the
//!   algorithm's guarantees do not depend on the simulator's determinism.
//!   It logs the step core's trace events for what it does.
//! * [`TraceLine`] — the one JSONL codec of those events: `rdt trace`,
//!   a live node's event log and `rdt causal` write it, and the merge of
//!   event logs reads it.
//!
//! ```
//! use rdt_sim::SimulationBuilder;
//! use rdt_workloads::WorkloadSpec;
//!
//! let report = SimulationBuilder::new(WorkloadSpec::uniform_random(5, 200).with_seed(42))
//!     .run()
//!     .expect("simulation runs");
//! // The paper's bound: at most n (+1 transient) retained checkpoints.
//! assert!(report.metrics.max_retained_per_process() <= 6);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod live;
mod metrics;
mod parallel;
mod script;
mod step;
mod trace_line;
mod worker;

pub use config::{ChannelConfig, Partitioning, ShardConfig, SimConfig, ZeroLookaheadFallback};
pub use engine::{Simulation, SimulationBuilder, SimulationReport};
pub use live::{DeliverOutcome, LiveNode};
pub use metrics::{Metrics, ProcessMetrics};
pub use script::{run_script, run_script_with, ScriptRun};
pub use trace_line::TraceLine;

// Re-exported so report consumers can name the profile types without
// depending on `rdt-obs` directly.
pub use rdt_obs::{PhaseStats, ProfileReport};
