//! A per-process checkpoint directory that survives crashes.
//!
//! One file per stable checkpoint (`ckpt_<γ>.bin`, the [`codec`] format),
//! written atomically (temp file + fsync + rename + parent-directory
//! fsync) so a crash mid-write never leaves a half-checkpoint that could
//! be restored, and a crash right after the rename cannot lose it either.
//! This is the "stable storage persists through failures" of the paper's
//! Section 2, made literal — and made testable: every filesystem call goes
//! through a [`StorageBackend`], so the fault injector in
//! [`backend`](crate::backend) can crash, tear, or corrupt any single
//! operation deterministically.
//!
//! Alongside the checkpoints lives the **incarnation log**: the highest
//! incarnation the owner ever opened. Rollbacks bump the incarnation
//! without storing a checkpoint, so a restart that read only the
//! checkpoint files could resume at an incarnation the dead execution
//! already used and propagated — aliasing the very knowledge incarnation
//! numbers exist to disambiguate. Because reusing an incarnation is never
//! safe, the log keeps hard-error semantics (an unreadable log fails the
//! restart) but is **double-slotted** (`incarnation_a.bin` /
//! `incarnation_b.bin`, each checksummed): the slots are written one after
//! the other, so a torn write can corrupt at most the slot being written
//! and the other still carries an acknowledged value. Reads take the
//! maximum over the valid slots (plus the legacy 4-byte
//! `incarnation.bin`, still decoded for old directories).
//!
//! Restart is **lenient** where that is safe: [`DurableStore::rebuild`]
//! quarantines checkpoint files that fail validation (renamed to
//! `*.quarantined`, counted in the [`RestartReport`]) and restores from
//! the remaining intact records, and unrecognized alien files are skipped
//! and counted instead of failing the restart. Transient `EIO`/`ENOSPC`
//! style failures are absorbed by a bounded retry-with-backoff path;
//! exhaustion surfaces as [`Error::Transient`]. Every absorbed retry is
//! reported as a structured `transient_retry` info event through the
//! [`rdt_obs`] sink (exhaustion as a `transient_exhausted` warning), and
//! when profiling is on (see [`DurableStore::set_profiling`]) each
//! backend operation's latency lands in a `store/*` phase.
//!
//! [`codec`]: crate::codec

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use rdt_base::codec::checksum;
use rdt_base::{CheckpointIndex, DependencyVector, Incarnation, ProcessId};
use rdt_core::CheckpointStore;

use crate::backend::{is_transient, StdFs, StorageBackend};
use crate::codec::{decode, encode, Record};
use crate::error::{Error, Result};

/// Magic prefix of an incarnation-log slot.
const INCARNATION_MAGIC: [u8; 4] = *b"RDTI";
/// Bounded retry attempts for transient I/O errors.
const RETRY_ATTEMPTS: u32 = 5;

/// What a restart found on disk: how much was restored, and what had to
/// be set aside to get there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestartReport {
    /// Checkpoint records restored intact.
    pub loaded: usize,
    /// Checkpoint files that failed validation during this restart and
    /// were renamed to `*.quarantined`.
    pub quarantined: usize,
    /// Files in the directory that match no known naming scheme and were
    /// skipped.
    pub skipped_alien: usize,
    /// Transient I/O errors absorbed by the retry path over this store's
    /// lifetime so far.
    pub transient_retries: u64,
}

/// What one directory listing classified.
#[derive(Debug, Default)]
struct DirScan {
    /// Well-formed `ckpt_<γ>.bin` names, ascending.
    checkpoints: BTreeSet<CheckpointIndex>,
    /// Files already quarantined by an earlier restart.
    quarantined: usize,
    /// Names matching no known scheme.
    alien: usize,
}

/// A durable, per-process stable store.
#[derive(Debug)]
pub struct DurableStore {
    owner: ProcessId,
    dir: PathBuf,
    fs: Box<dyn StorageBackend>,
    /// The incarnation floor, cached after the first disk read; all writes
    /// to the log go through this handle, so the cache never goes stale.
    floor: Cell<Option<Incarnation>>,
    /// Transient errors absorbed by the retry path (for reports).
    retries: Cell<u64>,
    /// Per-operation latency phases (`store/write`, `store/fsync`, …);
    /// off unless `RDT_PROFILE` is set or [`set_profiling`] turned it on.
    ///
    /// [`set_profiling`]: Self::set_profiling
    prof: RefCell<rdt_obs::Profiler>,
}

impl DurableStore {
    /// Opens (creating if needed) the checkpoint directory for `owner`,
    /// on the real filesystem.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open(dir: impl Into<PathBuf>, owner: ProcessId) -> Result<Self> {
        Self::open_with(dir, owner, Box::new(StdFs))
    }

    /// Opens the checkpoint directory through an explicit backend — the
    /// entry point for fault injection.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        owner: ProcessId,
        fs: Box<dyn StorageBackend>,
    ) -> Result<Self> {
        let dir = dir.into();
        let store = Self {
            owner,
            dir,
            fs,
            floor: Cell::new(None),
            retries: Cell::new(0),
            prof: RefCell::new(rdt_obs::Profiler::new(rdt_obs::profile::env_enabled())),
        };
        store.with_retry("store/create_dir", || store.fs.create_dir_all(&store.dir))?;
        Ok(store)
    }

    /// Enables (or disables) per-operation latency profiling: every
    /// backend call records into a `store/*` phase (`store/write`,
    /// `store/fsync`, `store/fsync_dir`, `store/rename`, `store/read`,
    /// `store/list`, `store/remove`, `store/create_dir`), and absorbed
    /// transient retries count under the `store/transient_retries`
    /// counter. Replaces any previously accumulated timings. Latencies
    /// include time spent inside the bounded retry loop, backoff sleeps
    /// included — a retried fsync *is* that slow from the caller's seat.
    pub fn set_profiling(&self, on: bool) {
        *self.prof.borrow_mut() = rdt_obs::Profiler::new(on);
    }

    /// A snapshot of the accumulated I/O timings (`Some` iff profiling
    /// is on).
    pub fn profile(&self) -> Option<rdt_obs::ProfileReport> {
        self.prof.borrow().report().cloned()
    }

    /// Removes and returns the accumulated I/O timings, leaving
    /// profiling in its current on/off state.
    pub fn take_profile(&self) -> Option<rdt_obs::ProfileReport> {
        let on = self.prof.borrow().enabled();
        self.prof.replace(rdt_obs::Profiler::new(on)).into_report()
    }

    /// The owning process.
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Transient I/O errors absorbed by the bounded retry path so far.
    pub fn transient_retries(&self) -> u64 {
        self.retries.get()
    }

    fn path_for(&self, index: CheckpointIndex) -> PathBuf {
        self.dir.join(format!("ckpt_{}.bin", index.value()))
    }

    /// Runs one backend operation under the bounded retry-with-backoff
    /// policy: transient errors (see [`is_transient`]) are retried up to
    /// [`RETRY_ATTEMPTS`] times with escalating micro-sleeps; anything
    /// else is permanent and returned immediately. `phase` names the
    /// operation for the latency profile and the structured retry events
    /// (info per absorbed retry, warn on exhaustion).
    fn with_retry<T>(
        &self,
        phase: &'static str,
        mut op: impl FnMut() -> io::Result<T>,
    ) -> Result<T> {
        let t = self.prof.borrow().start();
        let out = self.retry_loop(phase, &mut op);
        self.prof.borrow_mut().stop(phase, t);
        out
    }

    fn retry_loop<T>(
        &self,
        phase: &'static str,
        op: &mut impl FnMut() -> io::Result<T>,
    ) -> Result<T> {
        let mut delay = Duration::from_micros(100);
        let mut last = None;
        for attempt in 0..RETRY_ATTEMPTS {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) => {
                    self.retries.set(self.retries.get() + 1);
                    self.prof.borrow_mut().add("store/transient_retries", 1);
                    rdt_obs::info("rdt_storage::durable", "transient_retry")
                        .message(&e)
                        .str("op", phase)
                        .str("process", self.owner)
                        .u64("attempt", u64::from(attempt + 1))
                        .emit();
                    last = Some(e);
                    if attempt + 1 < RETRY_ATTEMPTS {
                        std::thread::sleep(delay);
                        delay *= 2;
                    }
                }
                Err(e) => return Err(Error::Io(e)),
            }
        }
        let source = last.expect("loop exits early unless a transient error occurred");
        rdt_obs::warn("rdt_storage::durable", "transient_exhausted")
            .message(&source)
            .str("op", phase)
            .str("process", self.owner)
            .u64("attempts", u64::from(RETRY_ATTEMPTS))
            .emit();
        Err(Error::Transient {
            source,
            attempts: RETRY_ATTEMPTS,
        })
    }

    /// Reads a whole file, treating "not found" as `None`.
    fn read_opt(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        match self.with_retry("store/read", || self.fs.read(path)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(Error::Io(e)) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Writes `bytes` to `name` with the full atomic-replace discipline:
    /// temp file, fsync, rename, parent-directory fsync. The final fsync
    /// is what actually commits the rename — without it a crash can roll
    /// the directory entry back to the old state (the lost-rename image).
    fn atomic_write(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let tmp = self.dir.join(format!(".{name}.tmp"));
        let target = self.dir.join(name);
        self.with_retry("store/write", || self.fs.write(&tmp, bytes))?;
        self.with_retry("store/fsync", || self.fs.fsync(&tmp))?;
        self.with_retry("store/rename", || self.fs.rename(&tmp, &target))?;
        self.with_retry("store/fsync_dir", || self.fs.fsync_dir(&self.dir))?;
        Ok(())
    }

    /// Encodes one incarnation-log slot: magic, value, checksum.
    fn encode_incarnation(v: Incarnation) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..4].copy_from_slice(&INCARNATION_MAGIC);
        out[4..8].copy_from_slice(&v.value().to_le_bytes());
        let check = checksum(&out[..8]);
        out[8..16].copy_from_slice(&check.to_le_bytes());
        out
    }

    /// Decodes one slot; `None` if torn or corrupt (the *other* slot still
    /// carries an acknowledged value).
    fn decode_incarnation(bytes: &[u8]) -> Option<Incarnation> {
        let arr: &[u8; 16] = bytes.try_into().ok()?;
        if arr[..4] != INCARNATION_MAGIC {
            return None;
        }
        let check = u64::from_le_bytes(arr[8..16].try_into().expect("len 8"));
        if checksum(&arr[..8]) != check {
            return None;
        }
        let value = u32::from_le_bytes(arr[4..8].try_into().expect("len 4"));
        Some(Incarnation::new(value))
    }

    /// The incarnation log on disk: the highest incarnation the owner ever
    /// opened, or [`Incarnation::ZERO`] if never written (crash-free
    /// stores). Reads the maximum over the valid slots; the legacy 4-byte
    /// `incarnation.bin` format still decodes.
    ///
    /// # Errors
    ///
    /// I/O errors; [`Error::Corrupt`] if log files exist but **none**
    /// decodes — resuming at an unknown incarnation is never safe, so this
    /// is the one restart path that stays a hard error.
    pub fn incarnation_floor(&self) -> Result<Incarnation> {
        if let Some(v) = self.floor.get() {
            return Ok(v);
        }
        let mut present = false;
        let mut best: Option<Incarnation> = None;
        for name in ["incarnation_a.bin", "incarnation_b.bin"] {
            if let Some(bytes) = self.read_opt(&self.dir.join(name))? {
                present = true;
                if let Some(v) = Self::decode_incarnation(&bytes) {
                    best = Some(best.map_or(v, |b| b.max(v)));
                }
            }
        }
        if let Some(bytes) = self.read_opt(&self.dir.join("incarnation.bin"))? {
            present = true;
            if let Ok(arr) = <[u8; 4]>::try_from(bytes.as_slice()) {
                let v = Incarnation::new(u32::from_le_bytes(arr));
                best = Some(best.map_or(v, |b| b.max(v)));
            }
        }
        let floor = match (present, best) {
            (false, _) => Incarnation::ZERO,
            (true, Some(v)) => v,
            (true, None) => return Err(Error::Corrupt("no incarnation-log slot decodes")),
        };
        self.floor.set(Some(floor));
        Ok(floor)
    }

    /// Persists the incarnation log. Monotone: never lowers the on-disk
    /// value. Both slots are written in sequence, each with the full
    /// atomic-replace discipline, so a crash tears at most the slot being
    /// written and the maximum over valid slots never lags a value that
    /// was acknowledged to the caller.
    ///
    /// # Errors
    ///
    /// I/O errors along the write path.
    pub fn persist_incarnation_floor(&self, v: Incarnation) -> Result<()> {
        if v <= self.incarnation_floor()? {
            return Ok(());
        }
        let bytes = Self::encode_incarnation(v);
        self.atomic_write("incarnation_a.bin", &bytes)?;
        self.atomic_write("incarnation_b.bin", &bytes)?;
        self.floor.set(Some(v));
        Ok(())
    }

    /// Persists one checkpoint atomically: temp file, fsync, rename,
    /// parent-directory fsync.
    ///
    /// # Errors
    ///
    /// I/O errors anywhere along the write path.
    pub fn persist(
        &self,
        index: CheckpointIndex,
        dv: &DependencyVector,
        state_size: usize,
    ) -> Result<()> {
        let record = Record {
            owner: self.owner,
            index,
            dv: dv.clone(),
            state_size,
        };
        let bytes = encode(&record);
        self.atomic_write(&format!("ckpt_{}.bin", index.value()), &bytes)
    }

    /// Eliminates one checkpoint from disk. Missing files are fine, and
    /// the removal is not followed by a directory fsync: a crash may
    /// resurrect the file, but an eliminated checkpoint is Theorem-1
    /// obsolete — a strictly newer dominating checkpoint exists on disk,
    /// so the newest-first recovery scan never restores the revenant and
    /// the next sync removes it again.
    ///
    /// # Errors
    ///
    /// I/O errors other than "not found".
    pub fn remove(&self, index: CheckpointIndex) -> Result<()> {
        let path = self.path_for(index);
        match self.with_retry("store/remove", || self.fs.remove(&path)) {
            Ok(()) => Ok(()),
            Err(Error::Io(e)) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Classifies every name in the directory.
    fn scan(&self) -> Result<DirScan> {
        let mut out = DirScan::default();
        for name in self.with_retry("store/list", || self.fs.list(&self.dir))? {
            if name.starts_with('.') {
                continue; // incomplete temp file from a crash: ignored
            }
            if name == "incarnation.bin"
                || name == "incarnation_a.bin"
                || name == "incarnation_b.bin"
            {
                continue; // the incarnation log is not a checkpoint
            }
            if name.ends_with(".quarantined") {
                out.quarantined += 1;
                continue; // set aside by an earlier restart
            }
            match name
                .strip_prefix("ckpt_")
                .and_then(|rest| rest.strip_suffix(".bin"))
                .and_then(|num| num.parse::<usize>().ok())
            {
                Some(index) => {
                    out.checkpoints.insert(CheckpointIndex::new(index));
                }
                None => out.alien += 1,
            }
        }
        Ok(out)
    }

    /// The checkpoint indices currently on disk, ascending. Files that
    /// match no known naming scheme are skipped (they are counted in the
    /// [`RestartReport`] of a restart), never an error: a stray file must
    /// not brick a restart.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn indices(&self) -> Result<Vec<CheckpointIndex>> {
        Ok(self.scan()?.checkpoints.into_iter().collect())
    }

    /// Loads and validates every checkpoint record, ascending by index.
    /// Strict: any invalid record fails the whole load. Restart paths
    /// should prefer [`rebuild`](Self::rebuild), which quarantines instead.
    ///
    /// # Errors
    ///
    /// I/O errors; [`Error::Corrupt`] if any record fails validation.
    pub fn load(&self) -> Result<Vec<Record>> {
        self.indices()?
            .into_iter()
            .map(|index| {
                let path = self.path_for(index);
                let bytes = self.with_retry("store/read", || self.fs.read(&path))?;
                let record = decode(&bytes)?;
                if record.owner != self.owner || record.index != index {
                    return Err(Error::Corrupt("record does not match its file name"));
                }
                Ok(record)
            })
            .collect()
    }

    /// Moves one checkpoint file out of the restorable set.
    fn quarantine(&self, index: CheckpointIndex) -> Result<()> {
        let from = self.path_for(index);
        let to = self
            .dir
            .join(format!("ckpt_{}.bin.quarantined", index.value()));
        self.with_retry("store/rename", || self.fs.rename(&from, &to))?;
        self.with_retry("store/fsync_dir", || self.fs.fsync_dir(&self.dir))?;
        Ok(())
    }

    /// Rebuilds an in-memory [`CheckpointStore`] from disk — the first step
    /// of a process restart — and reports what it found. Lenient:
    /// checkpoint files that fail validation (torn, bit-flipped,
    /// mislabeled) are renamed to `*.quarantined` and the store is rebuilt
    /// from the remaining intact records; alien files are skipped and
    /// counted.
    ///
    /// # Errors
    ///
    /// I/O errors; [`Error::Corrupt`] if checkpoint files exist but **all**
    /// fail validation (there is no intact state to restore from), or if
    /// the incarnation log is unreadable (see
    /// [`incarnation_floor`](Self::incarnation_floor)).
    pub fn rebuild_reported(&self) -> Result<(CheckpointStore, RestartReport)> {
        let scan = self.scan()?;
        let had_files = !scan.checkpoints.is_empty();
        let mut report = RestartReport {
            skipped_alien: scan.alien,
            ..RestartReport::default()
        };
        let mut store = CheckpointStore::new(self.owner);
        for index in scan.checkpoints {
            let path = self.path_for(index);
            let Some(bytes) = self.read_opt(&path)? else {
                continue; // listed then vanished: a racing cleanup
            };
            match decode(&bytes) {
                Ok(record) if record.owner == self.owner && record.index == index => {
                    store.insert_with_size(index, record.dv, record.state_size);
                    report.loaded += 1;
                }
                _ => {
                    self.quarantine(index)?;
                    report.quarantined += 1;
                }
            }
        }
        if had_files && report.loaded == 0 {
            return Err(Error::Corrupt("every checkpoint file failed validation"));
        }
        store.raise_incarnation_floor(self.incarnation_floor()?);
        report.transient_retries = self.retries.get();
        Ok((store, report))
    }

    /// Rebuilds an in-memory [`CheckpointStore`] from disk, discarding the
    /// [`RestartReport`].
    ///
    /// # Errors
    ///
    /// As for [`rebuild_reported`](Self::rebuild_reported).
    pub fn rebuild(&self) -> Result<CheckpointStore> {
        self.rebuild_reported().map(|(store, _)| store)
    }

    /// Synchronizes disk with an in-memory store: persists checkpoints the
    /// disk lacks, removes checkpoints the store no longer holds. Called
    /// after each middleware event (the reports say when something
    /// changed).
    ///
    /// Returns `(persisted, removed)` counts.
    ///
    /// # Errors
    ///
    /// I/O errors along either path.
    pub fn sync(&self, store: &CheckpointStore) -> Result<(usize, usize)> {
        self.persist_incarnation_floor(store.incarnation_floor())?;
        let on_disk: BTreeSet<CheckpointIndex> = self.indices()?.into_iter().collect();
        let in_memory: BTreeSet<CheckpointIndex> = store.indices().collect();
        let mut persisted = 0;
        for &index in in_memory.difference(&on_disk) {
            let dv = store.dv(index).expect("index from the store");
            self.persist(index, dv, 0)?;
            persisted += 1;
        }
        let mut removed = 0;
        for &index in on_disk.difference(&in_memory) {
            self.remove(index)?;
            removed += 1;
        }
        Ok((persisted, removed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultFs, FaultKind, FaultPlan};
    use std::fs;

    fn scratch(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "rdt-storage-test-{}-{tag}-{seq}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn dv(raw: Vec<usize>) -> DependencyVector {
        DependencyVector::from_raw(raw)
    }

    fn idx(i: usize) -> CheckpointIndex {
        CheckpointIndex::new(i)
    }

    #[test]
    fn persist_survives_reopen() {
        let dir = scratch("reopen");
        let owner = ProcessId::new(1);
        {
            let store = DurableStore::open(&dir, owner).unwrap();
            store.persist(idx(0), &dv(vec![0, 0]), 10).unwrap();
            store.persist(idx(1), &dv(vec![2, 1]), 20).unwrap();
        } // "crash"
        let store = DurableStore::open(&dir, owner).unwrap();
        let records = store.load().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].dv, dv(vec![2, 1]));
        assert_eq!(records[1].state_size, 20);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rebuild_produces_an_equivalent_checkpoint_store() {
        let dir = scratch("rebuild");
        let owner = ProcessId::new(0);
        let durable = DurableStore::open(&dir, owner).unwrap();
        durable.persist(idx(3), &dv(vec![3, 5]), 7).unwrap();
        durable.persist(idx(1), &dv(vec![1, 0]), 9).unwrap();
        let store = durable.rebuild().unwrap();
        assert_eq!(store.indices().collect::<Vec<_>>(), vec![idx(1), idx(3)]);
        assert_eq!(store.dv(idx(3)).unwrap(), &dv(vec![3, 5]));
        assert_eq!(store.bytes(), 16);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn remove_is_idempotent() {
        let dir = scratch("remove");
        let durable = DurableStore::open(&dir, ProcessId::new(0)).unwrap();
        durable.persist(idx(0), &dv(vec![0]), 0).unwrap();
        durable.remove(idx(0)).unwrap();
        durable.remove(idx(0)).unwrap(); // second time: no error
        assert!(durable.indices().unwrap().is_empty());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_file_fails_the_load() {
        let dir = scratch("corrupt");
        let durable = DurableStore::open(&dir, ProcessId::new(0)).unwrap();
        durable.persist(idx(0), &dv(vec![0]), 0).unwrap();
        fs::write(dir.join("ckpt_0.bin"), b"garbage").unwrap();
        assert!(durable.load().is_err());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn mislabeled_record_is_rejected() {
        let dir = scratch("mislabel");
        let durable = DurableStore::open(&dir, ProcessId::new(0)).unwrap();
        durable.persist(idx(0), &dv(vec![0]), 0).unwrap();
        // A valid record, but under the wrong file name.
        fs::rename(dir.join("ckpt_0.bin"), dir.join("ckpt_5.bin")).unwrap();
        assert!(matches!(durable.load(), Err(Error::Corrupt(_))));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn alien_files_are_skipped_and_counted() {
        let dir = scratch("alien");
        let durable = DurableStore::open(&dir, ProcessId::new(0)).unwrap();
        durable.persist(idx(0), &dv(vec![0]), 0).unwrap();
        fs::write(dir.join("notes.txt"), b"hello").unwrap();
        // A stray file must not brick the restart.
        assert_eq!(durable.indices().unwrap(), vec![idx(0)]);
        let (store, report) = durable.rebuild_reported().unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(report.skipped_alien, 1);
        assert_eq!(report.loaded, 1);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn leftover_temp_files_are_ignored() {
        let dir = scratch("tmp");
        let durable = DurableStore::open(&dir, ProcessId::new(0)).unwrap();
        durable.persist(idx(0), &dv(vec![0]), 0).unwrap();
        // Simulate a crash between write and rename.
        fs::write(dir.join(".ckpt_1.tmp"), b"half-written").unwrap();
        assert_eq!(durable.indices().unwrap(), vec![idx(0)]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn sync_mirrors_an_in_memory_store() {
        let dir = scratch("sync");
        let owner = ProcessId::new(0);
        let durable = DurableStore::open(&dir, owner).unwrap();
        let mut store = CheckpointStore::new(owner);
        store.insert(idx(0), dv(vec![0, 0]));
        store.insert(idx(1), dv(vec![1, 2]));
        assert_eq!(durable.sync(&store).unwrap(), (2, 0));
        store.remove(idx(0)).unwrap();
        store.insert(idx(2), dv(vec![2, 2]));
        assert_eq!(durable.sync(&store).unwrap(), (1, 1));
        let rebuilt = durable.rebuild().unwrap();
        assert_eq!(
            rebuilt.indices().collect::<Vec<_>>(),
            store.indices().collect::<Vec<_>>()
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_is_quarantined_and_the_rest_restored() {
        let dir = scratch("quarantine");
        let durable = DurableStore::open(&dir, ProcessId::new(0)).unwrap();
        durable.persist(idx(0), &dv(vec![0]), 0).unwrap();
        durable.persist(idx(1), &dv(vec![1]), 0).unwrap();
        durable.persist(idx(2), &dv(vec![2]), 0).unwrap();
        // Tear the newest checkpoint to a prefix.
        let bytes = fs::read(dir.join("ckpt_2.bin")).unwrap();
        fs::write(dir.join("ckpt_2.bin"), &bytes[..bytes.len() / 2]).unwrap();
        let (store, report) = durable.rebuild_reported().unwrap();
        assert_eq!(store.indices().collect::<Vec<_>>(), vec![idx(0), idx(1)]);
        assert_eq!(report.loaded, 2);
        assert_eq!(report.quarantined, 1);
        assert!(dir.join("ckpt_2.bin.quarantined").exists());
        assert!(!dir.join("ckpt_2.bin").exists());
        // The quarantined file stays out of later scans.
        assert_eq!(durable.indices().unwrap(), vec![idx(0), idx(1)]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rebuild_refuses_when_nothing_intact_remains() {
        let dir = scratch("all-bad");
        let durable = DurableStore::open(&dir, ProcessId::new(0)).unwrap();
        durable.persist(idx(0), &dv(vec![0]), 0).unwrap();
        fs::write(dir.join("ckpt_0.bin"), b"garbage").unwrap();
        assert!(matches!(
            durable.rebuild_reported(),
            Err(Error::Corrupt("every checkpoint file failed validation"))
        ));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn incarnation_floor_survives_a_torn_slot() {
        let dir = scratch("torn-slot");
        let owner = ProcessId::new(0);
        let durable = DurableStore::open(&dir, owner).unwrap();
        durable
            .persist_incarnation_floor(Incarnation::new(3))
            .unwrap();
        // Tear slot B to a prefix — the crash image of a torn write.
        let bytes = fs::read(dir.join("incarnation_b.bin")).unwrap();
        fs::write(dir.join("incarnation_b.bin"), &bytes[..7]).unwrap();
        let reopened = DurableStore::open(&dir, owner).unwrap();
        assert_eq!(reopened.incarnation_floor().unwrap(), Incarnation::new(3));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn incarnation_floor_hard_fails_when_no_slot_decodes() {
        let dir = scratch("both-torn");
        let owner = ProcessId::new(0);
        let durable = DurableStore::open(&dir, owner).unwrap();
        durable
            .persist_incarnation_floor(Incarnation::new(2))
            .unwrap();
        fs::write(dir.join("incarnation_a.bin"), b"junk").unwrap();
        fs::write(dir.join("incarnation_b.bin"), b"junk").unwrap();
        let reopened = DurableStore::open(&dir, owner).unwrap();
        assert!(matches!(
            reopened.incarnation_floor(),
            Err(Error::Corrupt("no incarnation-log slot decodes"))
        ));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn legacy_single_file_incarnation_log_still_decodes() {
        let dir = scratch("legacy");
        let owner = ProcessId::new(0);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("incarnation.bin"), 4u32.to_le_bytes()).unwrap();
        let durable = DurableStore::open(&dir, owner).unwrap();
        assert_eq!(durable.incarnation_floor().unwrap(), Incarnation::new(4));
        // A new write moves the log to the slotted format, monotone.
        durable
            .persist_incarnation_floor(Incarnation::new(5))
            .unwrap();
        let reopened = DurableStore::open(&dir, owner).unwrap();
        assert_eq!(reopened.incarnation_floor().unwrap(), Incarnation::new(5));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn transient_errors_are_absorbed_by_the_retry_path() {
        let dir = scratch("transient");
        let plan = FaultPlan::none()
            .with_fault(2, FaultKind::TransientEio)
            .with_fault(5, FaultKind::TransientEnospc);
        let durable =
            DurableStore::open_with(&dir, ProcessId::new(0), Box::new(FaultFs::new(plan))).unwrap();
        durable.persist(idx(0), &dv(vec![0]), 0).unwrap();
        durable.persist(idx(1), &dv(vec![1]), 0).unwrap();
        assert_eq!(durable.transient_retries(), 2);
        assert_eq!(durable.indices().unwrap(), vec![idx(0), idx(1)]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn profiling_records_store_phases_and_retry_counter() {
        let dir = scratch("profiled");
        let plan = FaultPlan::none().with_fault(3, FaultKind::TransientEio);
        let durable =
            DurableStore::open_with(&dir, ProcessId::new(0), Box::new(FaultFs::new(plan))).unwrap();
        durable.set_profiling(true);
        durable.persist(idx(0), &dv(vec![0]), 0).unwrap();
        let report = durable.profile().expect("profiling is on");
        for phase in [
            "store/write",
            "store/fsync",
            "store/rename",
            "store/fsync_dir",
        ] {
            assert_eq!(report.phase(phase).map(|p| p.count), Some(1), "{phase}");
        }
        assert_eq!(report.counters.get("store/transient_retries"), Some(&1));
        // take_profile drains but keeps profiling on.
        assert!(durable.take_profile().is_some());
        let report = durable.profile().expect("still on");
        assert!(report.phase("store/write").is_none());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn injected_crash_surfaces_as_a_permanent_error() {
        let dir = scratch("inj-crash");
        let durable = DurableStore::open_with(
            &dir,
            ProcessId::new(0),
            Box::new(FaultFs::new(FaultPlan::crash_after(3))),
        )
        .unwrap();
        // open consumed 1 op; the persist (4 ops) trips the crash point.
        let err = durable.persist(idx(0), &dv(vec![0]), 0).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "crash errors are permanent");
        let _ = fs::remove_dir_all(dir);
    }
}
