//! Communication-induced checkpointing protocols with rollback-dependency
//! trackability, and the merged protocol + garbage-collection middleware of
//! the paper's Algorithm 4.
//!
//! # Protocols
//!
//! | Kind | Forced-checkpoint rule | RDT? |
//! |------|------------------------|------|
//! | [`ProtocolKind::NoForced`] | never | no (domino-prone baseline) |
//! | [`ProtocolKind::Cbr`] | before every receive | yes |
//! | [`ProtocolKind::Fdi`] | receive brings new causal info | yes |
//! | [`ProtocolKind::Fdas`] | new causal info after a send (Wang) | yes |
//! | [`ProtocolKind::Bcs`] | higher piggybacked index (Briatico et al.) | no (but domino-free) |
//!
//! # Middleware
//!
//! [`Middleware`] composes a protocol, a garbage collector from `rdt-core`
//! and a stable [`CheckpointStore`](rdt_core::CheckpointStore), enforcing the
//! ordering rules of the paper's Section 4.5 (forced checkpoints stored
//! before the receive's garbage collection runs; checkpoints inserted before
//! predecessors are released).
//!
//! ```
//! use rdt_base::{Payload, ProcessId};
//! use rdt_core::GcKind;
//! use rdt_protocols::{Middleware, ProtocolKind};
//!
//! let mut a = Middleware::new(ProcessId::new(0), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
//! let mut b = Middleware::new(ProcessId::new(1), 2, ProtocolKind::Fdas, GcKind::RdtLgc);
//! let m = a.send(ProcessId::new(1), Payload::empty());
//! b.receive(&m)?;
//! # Ok::<(), rdt_base::Error>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod middleware;
mod protocol;

pub use middleware::{CheckpointReport, Middleware, ReceiveReport, RollbackReport};
pub use protocol::{Piggyback, ProtocolKind, ProtocolState};
