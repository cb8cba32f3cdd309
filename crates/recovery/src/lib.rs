//! Rollback-recovery orchestration for RDT checkpointing systems.
//!
//! Provides the centralized [`RecoveryManager`] the paper assumes
//! (Section 2.4): it stops the world, determines the recovery line by
//! Lemma 1 from the dependency vectors stored with the checkpoints,
//! distributes the last-interval vector `LI`, and drives each process's
//! Algorithm-3 rollback through the `rdt-protocols` middleware.
//!
//! Two modes mirror Section 4.3:
//!
//! * [`RecoveryMode::Coordinated`] — global information available, garbage
//!   collection during rollback uses Theorem 1 via `LI`;
//! * [`RecoveryMode::Uncoordinated`] — no global information, Algorithm 3
//!   substitutes the process's own `DV` (Theorem 2).
//!
//! # Incarnations and Lemma-1 totality
//!
//! The paper's model describes one execution epoch; under *repeated*
//! crash/rollback sessions, re-executed intervals reuse their indices and
//! raw dependency-vector comparisons alias knowledge of abandoned
//! executions with knowledge of live ones. The manager therefore works
//! with **incarnation-numbered intervals** (à la Strom/Yemini's optimistic
//! recovery, see `rdt_base::ids`): every rollback opens a fresh
//! incarnation, each vector entry carries the incarnation it refers to,
//! and blocking in Lemma 1 only counts dependencies on the faulty
//! process's *live* incarnation. The surviving prefix of every dead
//! incarnation lies at or below the live execution's restore points, so
//! dead-incarnation knowledge can never refer to states above the current
//! last stable checkpoint — which makes the recovery line **total**: some
//! stored checkpoint of every process is always unblocked.
//!
//! Totality is enforced, not assumed: exhausting a process's stored
//! checkpoints under a safe collector surfaces as
//! [`RecoveryError::LineExhausted`] (a garbage-collection safety bug),
//! while the time-based baseline — unsafe by design when its delay
//! assumptions break — degrades to the oldest survivor and is reported in
//! [`RecoverySessionReport::degraded`].
//!
//! The decentralized minimum/maximum consistent-global-checkpoint
//! calculations the RDT property enables (Wang, reference \[20\]) are
//! provided both offline (`rdt-ccp`'s `max_consistent_containing` /
//! `min_consistent_containing` oracles) and **online** over live
//! middleware state in [`wang`], with property tests pinning the two
//! against each other.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod manager;
pub mod wang;

pub use manager::{
    FaultySet, LineSource, ProcessView, RecoveryError, RecoveryManager, RecoveryMode, RecoveryPlan,
    RecoverySessionReport, SessionOutcomes,
};
