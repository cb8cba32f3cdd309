//! File-backed stable storage for RDT checkpointing.
//!
//! The paper's model (Section 2) gives every process a stable storage that
//! "persists through failures, preserving the stored information". The
//! rest of this workspace models it in memory; this crate makes it literal:
//! one directory per process, one checksummed record per checkpoint
//! ([`codec`]), atomic writes, and a [`DurableStore::rebuild`] path that
//! turns the surviving files back into the in-memory
//! [`CheckpointStore`](rdt_core::CheckpointStore) a restarting process
//! recovers from (see `Middleware::from_store` in `rdt-protocols`).
//!
//! ```
//! use rdt_base::{CheckpointIndex, DependencyVector, ProcessId};
//! use rdt_storage::DurableStore;
//!
//! # fn main() -> Result<(), rdt_storage::Error> {
//! let dir = std::env::temp_dir().join(format!("rdt-doc-{}", std::process::id()));
//! let store = DurableStore::open(&dir, ProcessId::new(0))?;
//! store.persist(CheckpointIndex::ZERO, &DependencyVector::new(2), 0)?;
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
mod sink;
pub mod torture;

pub use backend::{FaultFs, FaultKind, FaultPlan, StdFs, StorageBackend};
pub use durable::{DurableStore, RestartReport};
pub use error::{Error, Result};
pub use sink::DiskSink;
