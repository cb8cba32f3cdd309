//! Rollback-recovery orchestration for RDT checkpointing systems.
//!
//! Provides the centralized [`RecoveryManager`] the paper assumes
//! (Section 2.4): it stops the world, determines the recovery line by
//! Lemma 1 from the dependency vectors stored with the checkpoints,
//! distributes the last-interval vector `LI`, and drives each process's
//! Algorithm-3 rollback through the `rdt-protocols` middleware.
//!
//! # What a session reads of another process
//!
//! By Lemma 1 a process's line component depends on its own volatile and
//! stored vectors and, of every *other* process, only on the faulty ones'
//! last stable checkpoint and live incarnation. A session therefore reads
//! those triples into [`Blockers`] once; each process's
//! [`choose`](RecoveryManager::choose) then runs where the process lives,
//! over its own store, and [`plan_from`](RecoveryManager::plan_from)
//! assembles the line, the degraded set and `LI` from the choices. No
//! vector and no store of one process is ever read on behalf of another:
//! the sharded simulator ships the triples, the blockers and the choices
//! between threads, nothing else. [`RecoveryManager::plan`] is the same
//! composition over a slice of middlewares in one place.
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
    Blockers, Chosen, FaultySet, RecoveryError, RecoveryManager, RecoveryMode, RecoveryPlan,
    RecoverySessionReport, SessionOutcomes,
};
