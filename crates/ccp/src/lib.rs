//! Offline model of **checkpoint and communication patterns** (CCPs) with the
//! analyses of the ICDCS 2005 paper *Optimal Asynchronous Garbage Collection
//! for RDT Checkpointing Protocols*:
//!
//! * causal precedence between checkpoints (Definition 1, via Equation 2);
//! * zigzag and causal paths, useless checkpoints and the
//!   **rollback-dependency trackability** predicate (Definitions 3–4);
//! * consistent global checkpoints (Section 2.2);
//! * recovery lines — Lemma 1 for RD-trackable CCPs plus an exhaustive
//!   Definition-5 computation for validation (Section 2.4);
//! * the **obsolete-checkpoint** characterizations: Theorem 1 (exact),
//!   Theorem 2 (causal knowledge only), needlessness by Definition 7 and by
//!   Lemma 2 (Section 3).
//!
//! This crate is the *oracle* of the workspace: the online algorithms in
//! `rdt-core` and `rdt-protocols` are validated against these exhaustive,
//! trusted-but-slow implementations. The paper's Figures 1–3 ship as
//! ready-made CCPs in [`figures`].
//!
//! # Example
//!
//! ```
//! use rdt_base::ProcessId;
//! use rdt_ccp::CcpBuilder;
//!
//! let p1 = ProcessId::new(0);
//! let p2 = ProcessId::new(1);
//!
//! let mut b = CcpBuilder::new(2);
//! b.checkpoint(p1);
//! b.message(p1, p2);
//! let ccp = b.build();
//!
//! assert!(ccp.is_rdt());
//! // p1's failure rolls p2 back to its initial checkpoint.
//! let line = ccp.recovery_line(&[p1].into_iter().collect());
//! assert_eq!(line.to_raw(), vec![1, 0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod builder;
mod causality;
mod consistency;
pub mod figures;
mod minmax;
mod model;
mod obsolete;
mod paths;
mod provenance;
mod recovery_line;
mod render;

pub use audit::{collection_safety_violations, collection_safety_violations_through_sessions};
pub use builder::CcpBuilder;
pub use consistency::GlobalCheckpoint;
pub use model::{Ccp, GeneralCheckpoint, LocalEvent, MessageRecord};
pub use paths::ZigzagAnalysis;
pub use provenance::{AmnestiedEntry, ComponentProvenance, LineExplanation, PinCause};
pub use recovery_line::FaultySet;
