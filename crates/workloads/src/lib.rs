//! Workload generators and scripted scenarios for the RDT checkpointing
//! experiments.
//!
//! * [`WorkloadSpec`] + [`Pattern`] — reproducible random application
//!   workloads (uniform random, ring, client–server, bursty, token ring)
//!   with configurable basic-checkpoint and crash rates. These drive the
//!   storage-overhead and optimality tables.
//! * [`Script`] — deterministic scenarios with exact delivery placement,
//!   used for the paper's figures: [`figures::figure2_script`] (domino
//!   effect), [`figures::figure4_script`] (the RDT-LGC trace) and
//!   [`figures::figure5_worst_case`] (the `n²` / `n(n+1)` bound).
//!
//! ```
//! use rdt_workloads::{Pattern, WorkloadSpec};
//! let ops = WorkloadSpec::uniform_random(4, 50)
//!     .with_pattern(Pattern::Ring)
//!     .with_seed(1)
//!     .generate();
//! assert_eq!(ops.len(), 50);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
mod ops;
mod spec;

pub use ops::{AppOp, Script, ScriptOp};
pub use spec::{OpStream, Pattern, WorkloadSpec};
