//! **RDT-LGC** — the optimal asynchronous garbage collector for RDT
//! checkpointing protocols (Schmidt, Garcia, Pedone, Buzato — ICDCS 2005),
//! plus the coordinated baselines it is evaluated against.
//!
//! # What this crate provides
//!
//! * [`RdtLgc`] — the paper's contribution: Algorithm 1's data structures
//!   (the `UC` vector and its reference-counted *checkpoint control
//!   blocks*, kept as one pin bitmap per retained checkpoint),
//!   Algorithm 2's normal-execution collection, and Algorithm 3's
//!   recovery-session rebuild (both the coordinated `LI` variant and the
//!   uncoordinated `DV` variant).
//! * [`GarbageCollector`] — the hook interface a checkpointing protocol
//!   drives: `after_checkpoint`, `after_receive`, `after_rollback`,
//!   `on_recovery_info`, `on_control`.
//! * [`CheckpointStore`] — the stable-storage model (dependency vector kept
//!   with each checkpoint, peak-occupancy accounting for the paper's
//!   `n`/`n+1` bounds).
//! * Baselines (Section 5 of the paper): [`NoGc`],
//!   [`SimpleCoordinatedGc`] (recovery line for the failure of all
//!   processes, after Bhargava & Lian) and [`WangGlobalGc`] (complete
//!   Theorem-1 elimination via distributed last-interval vectors, after
//!   Wang et al.).
//!
//! # Guarantees
//!
//! RDT-LGC is *safe* (Theorem 4: only obsolete checkpoints are eliminated)
//! and *optimal among asynchronous collectors* (Theorem 5: every obsolete
//! checkpoint identifiable from causal knowledge is eliminated). Its
//! retention never exceeds `n` checkpoints per process, `n + 1` transiently
//! while a new checkpoint is stored but the previous one not yet released
//! (Section 4.5). These properties are validated in this workspace against
//! the exhaustive oracles of the `rdt-ccp` crate.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
mod lgc;
mod store;
mod theorem1;
mod traits;

pub use baselines::{NoGc, SimpleCoordinatedGc, TimeBasedGc, WangGlobalGc};
pub use lgc::RdtLgc;
pub use store::CheckpointStore;
pub use traits::{ControlInfo, GarbageCollector, GcKind, LastIntervals};
