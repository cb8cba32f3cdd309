//! The durable [`Storage`](rdt_env::Storage) sink: a [`DurableStore`]
//! plugged directly into a generic `Middleware<DiskSink>`.
//!
//! This is the glue between the runtime-abstraction layer (`rdt-env`,
//! where the `Storage` trait lives) and this crate's file-backed store.
//! A middleware constructed with a `DiskSink` persists every stable-store
//! mutation and write-aheads incarnations without any wrapper forwarding:
//! the middleware itself calls [`Storage::commit`] after each mutating
//! event and [`Storage::wal_incarnation`] before a rollback.

use rdt_base::Incarnation;
use rdt_core::CheckpointStore;
use rdt_env::Storage;

use crate::durable::DurableStore;
use crate::error::Error;

/// A [`DurableStore`] speaking the `rdt-env` [`Storage`] contract.
#[derive(Debug)]
pub struct DiskSink {
    disk: DurableStore,
}

impl DiskSink {
    /// Wraps an opened durable store.
    pub fn over(disk: DurableStore) -> Self {
        Self { disk }
    }

    /// The wrapped durable store.
    pub fn disk(&self) -> &DurableStore {
        &self.disk
    }
}

impl Storage for DiskSink {
    type Error = Error;

    fn commit(&mut self, store: &CheckpointStore) -> Result<(), Error> {
        self.disk.sync(store).map(|_counts| ())
    }

    fn wal_incarnation(&mut self, incarnation: Incarnation) -> Result<(), Error> {
        self.disk.persist_incarnation_floor(incarnation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdt_base::{CheckpointIndex, DependencyVector, ProcessId};

    fn scratch(tag: &str) -> std::path::PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rdt-sink-test-{}-{tag}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn commit_and_wal_reach_the_disk() {
        let dir = scratch("basic");
        let owner = ProcessId::new(0);
        let mut sink = DiskSink::over(DurableStore::open(&dir, owner).unwrap());
        let mut store = CheckpointStore::new(owner);
        store.insert(CheckpointIndex::ZERO, DependencyVector::new(2));
        sink.commit(&store).unwrap();
        sink.wal_incarnation(Incarnation::new(2)).unwrap();
        assert_eq!(sink.disk().indices().unwrap().len(), 1);
        assert_eq!(
            sink.disk().incarnation_floor().unwrap(),
            Incarnation::new(2)
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
}
