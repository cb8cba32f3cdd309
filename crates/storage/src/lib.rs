//! File-backed stable storage for RDT checkpointing.
//!
//! The paper's model (Section 2) gives every process a stable storage that
//! "persists through failures, preserving the stored information". The
//! rest of this workspace models it in memory; this crate makes it literal:
//! one append-only record log per process ([`log`]: checksummed
//! checkpoint records in the [`codec`] format, collects, the incarnation
//! floor), a commit that is one append and one flush, and a
//! [`DurableStore::rebuild`] path that replays the surviving log back into
//! the in-memory [`CheckpointStore`](rdt_core::CheckpointStore) a
//! restarting process recovers from (see `Middleware::from_store` in
//! `rdt-protocols`).
//!
//! ```
//! use rdt_base::{CheckpointIndex, DependencyVector, ProcessId};
//! use rdt_core::CheckpointStore;
//! use rdt_storage::DurableStore;
//!
//! # fn main() -> Result<(), rdt_storage::Error> {
//! let dir = std::env::temp_dir().join(format!("rdt-doc-{}", std::process::id()));
//! let mut stable = CheckpointStore::new(ProcessId::new(0));
//! stable.insert(CheckpointIndex::ZERO, DependencyVector::new(2));
//! let store = DurableStore::open(&dir, ProcessId::new(0))?;
//! store.sync(&stable)?;
//! assert_eq!(store.rebuild()?.len(), 1);
//! # std::fs::remove_dir_all(dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod codec;
mod durable;
mod error;
pub mod log;
mod sink;
pub mod torture;

pub use backend::{FaultFs, FaultKind, FaultPlan, StdFs, StorageBackend};
pub use durable::{DurableStore, RestartReport};
pub use error::{Error, Result};
pub use sink::DiskSink;
