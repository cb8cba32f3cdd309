//! Core identifiers, dependency vectors and message metadata shared by every
//! crate in the `rdt-checkpointing` workspace.
//!
//! This crate implements the *vocabulary* of the ICDCS 2005 paper
//! ["Optimal Asynchronous Garbage Collection for RDT Checkpointing
//! Protocols"][paper]:
//!
//! * [`ProcessId`], [`CheckpointIndex`] and [`IntervalIndex`] — typed indices
//!   for processes `p_i`, stable checkpoints `s_i^γ` and checkpoint intervals
//!   `I_i^γ` (Section 2.2 of the paper); [`Incarnation`] and [`DvEntry`] —
//!   the incarnation-numbered interval identity (Strom/Yemini style) that
//!   keeps causal knowledge unambiguous across rollbacks: every rollback
//!   opens a fresh incarnation, and entries order lexicographically so
//!   newer-incarnation knowledge supersedes the dead execution's.
//! * [`DependencyVector`] — the transitive dependency vector of Strom and
//!   Yemini that RDT checkpointing protocols piggyback on every application
//!   message (Section 4.2). Equation 2 of the paper,
//!   `c_a^α → c_b^β ⟺ α < DV(c_b^β)[a]`, is exposed as
//!   [`DependencyVector::dominates_checkpoint`].
//! * [`MessageMeta`] / [`Message`] — the control information piggybacked on
//!   application messages, and an application message with an opaque payload.
//!
//! # Example
//!
//! ```
//! use rdt_base::{DependencyVector, ProcessId};
//!
//! let n = 3;
//! let p0 = ProcessId::new(0);
//! let p1 = ProcessId::new(1);
//!
//! // p0 takes its initial checkpoint and moves to interval 1.
//! let mut dv0 = DependencyVector::new(n);
//! let s0 = dv0.clone();               // DV stored with checkpoint s_0^0
//! dv0.begin_next_interval(p0);
//!
//! // p0 sends a message to p1; p1 merges the piggybacked vector. The
//! // update report is an allocation-free bitset.
//! let mut dv1 = DependencyVector::new(n);
//! dv1.begin_next_interval(p1);
//! let updated = dv1.merge_from(&dv0);
//! assert_eq!(updated.to_vec(), vec![p0]);
//!
//! // p1's volatile state now causally depends on checkpoint s_0^0 (Eq. 2).
//! assert!(dv1.dominates_checkpoint(p0, s0.entry(p0).as_checkpoint()));
//! ```
//!
//! [paper]: https://doi.org/10.1109/ICDCS.2005.55

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod dv;
mod error;
mod ids;
mod message;
mod share;
mod trace;
mod update_set;

pub use dv::DependencyVector;
pub use error::{Error, Result};
pub use ids::{CheckpointId, CheckpointIndex, DvEntry, Incarnation, IntervalIndex, ProcessId};
pub use message::{Message, MessageId, MessageMeta, Payload};
pub use share::SharedDv;
pub use trace::TraceEvent;
pub use update_set::UpdateSet;
