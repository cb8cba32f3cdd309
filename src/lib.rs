//! # rdt-checkpointing
//!
//! A production-quality Rust reproduction of
//! *Optimal Asynchronous Garbage Collection for RDT Checkpointing Protocols*
//! (Schmidt, Garcia, Pedone, Buzato — ICDCS 2005).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`base`] — typed ids, dependency vectors, message metadata.
//! * [`ccp`] — offline checkpoint-and-communication-pattern model: causal
//!   precedence, zigzag paths, the RDT predicate, recovery lines and the
//!   obsolete-checkpoint oracle (Theorem 1).
//! * [`core`] — the paper's contribution: the RDT-LGC garbage collector
//!   (Algorithms 1–3) plus the baseline collectors it is compared against.
//! * [`protocols`] — RDT checkpointing protocols (FDAS, FDI, MRS, CAS,
//!   CASBR, CBR, plus the BCS and no-forced baselines) and the merged
//!   FDAS + RDT-LGC implementation (Algorithm 4).
//! * [`analysis`] — rollback-dependency graphs, rollback-propagation
//!   quantification, CCP statistics and storage timelines.
//! * [`sim`] — deterministic discrete-event simulators (sequential and
//!   sharded), the script runner and the `LiveNode` wire-frame driver.
//! * [`recovery`] — recovery-line computation, rollback orchestration, and
//!   Wang's decentralized online min/max consistent global checkpoints.
//! * [`storage`] — file-backed stable storage that survives crashes, with
//!   restart-from-disk.
//! * [`workloads`] — workload generators and the paper's figure scenarios.
//!
//! ## Quickstart
//!
//! Run a simulated system of five processes under FDAS with RDT-LGC garbage
//! collection and inspect the storage statistics:
//!
//! ```
//! use rdt_checkpointing::prelude::*;
//!
//! let spec = WorkloadSpec::uniform_random(5, 200).with_seed(42);
//! let report = SimulationBuilder::new(spec)
//!     .protocol(ProtocolKind::Fdas)
//!     .garbage_collector(GcKind::RdtLgc)
//!     .run()
//!     .expect("simulation runs");
//!
//! // The paper's bound: never more than n (+1 transient) retained checkpoints.
//! assert!(report.metrics.max_retained_per_process() <= 5 + 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rdt_analysis as analysis;
pub use rdt_base as base;
pub use rdt_ccp as ccp;
pub use rdt_core as core;
pub use rdt_protocols as protocols;
pub use rdt_recovery as recovery;
pub use rdt_sim as sim;
pub use rdt_storage as storage;
pub use rdt_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use rdt_analysis::{CcpStats, OccupancyTimeline, PropagationReport, RollbackGraph};
    pub use rdt_base::{
        CheckpointId, CheckpointIndex, DependencyVector, IntervalIndex, Message, MessageId,
        MessageMeta, Payload, ProcessId,
    };
    pub use rdt_ccp::{Ccp, CcpBuilder, GeneralCheckpoint, GlobalCheckpoint};
    pub use rdt_core::{CheckpointStore, GarbageCollector, GcKind, LastIntervals, RdtLgc};
    pub use rdt_protocols::{Middleware, ProtocolKind};
    pub use rdt_recovery::{RecoveryManager, RecoveryMode};
    pub use rdt_sim::{run_script, ChannelConfig, SimConfig, SimulationBuilder, SimulationReport};
    pub use rdt_storage::{
        DurableStore, FaultFs, FaultKind, FaultPlan, RestartReport, StdFs, StorageBackend,
    };
    pub use rdt_workloads::{Pattern, Script, WorkloadSpec};
}
