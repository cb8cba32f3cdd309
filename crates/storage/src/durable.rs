//! A per-process stable store that survives crashes: one append-only
//! record log ([`log`](crate::log)) of checkpoints (the [`codec`] format),
//! collects of the checkpoints the garbage collector eliminated, and the
//! **incarnation floor** — the highest incarnation the owner ever opened.
//! Rollbacks bump the incarnation without storing a checkpoint, so a
//! restart that read only checkpoints could resume at an incarnation the
//! dead execution already used and propagated; reusing one is never safe,
//! so a log whose floor records are all damaged fails the restart.
//!
//! **A commit is one append and one flush.** [`DurableStore::sync`]
//! remembers what the log holds and appends exactly the difference — new
//! checkpoints *first*, then collects — so a torn append leaves a valid
//! prefix: persist before remove, never without an anchor. **Opening
//! touches nothing, and a restart is one read** that writes nothing
//! ([`DurableStore::rebuild_reported`]): a missing directory is an empty
//! log, and the commit that creates the log creates the directory and
//! fsyncs its parent first. **Compaction is what the paper's bound
//! buys**: RDT-LGC retains at most n + 1 checkpoints, so the commit that
//! would leave more dead bytes than live ones writes the live set instead
//! (temp file, fsync, rename, directory fsync) and the log never exceeds
//! twice its live set plus one commit. The full contract is in
//! `CRASH_CONSISTENCY.md`.
//!
//! Every filesystem call goes through a [`StorageBackend`], so the fault
//! injector in [`backend`](crate::backend) can crash, tear, or corrupt any
//! single operation deterministically. Transient `EIO`/`ENOSPC` style
//! failures are absorbed by a bounded retry-with-backoff path; exhaustion
//! surfaces as [`Error::Transient`], which names the operation. Every
//! absorbed retry is counted ([`DurableStore::transient_retries`], the
//! restart's [`RestartReport::transient_retries`] and the profile's
//! `store/transient_retries` counter), and when profiling is on (see
//! [`DurableStore::set_profiling`]) each backend operation's latency lands
//! in a `store/*` phase.
//!
//! [`codec`]: crate::codec

use std::cell::{Cell, RefCell, RefMut};
use std::collections::btree_map::{BTreeMap, Entry};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use rdt_base::{CheckpointIndex, DependencyVector, Incarnation, ProcessId};
use rdt_core::CheckpointStore;

use crate::backend::{is_transient, StdFs, StorageBackend};
use crate::codec::encode_into;
use crate::error::{Error, Result};
use crate::log::{self, Replay, FLOOR_BYTES};

/// Bounded retry attempts for transient I/O errors.
const RETRY_ATTEMPTS: u32 = 5;
/// Compact past this multiple of the live bytes: at 2, dead bytes never outweigh live ones.
const COMPACT_AT: usize = 2;

/// What a restart found on disk: how much was restored, and what had to
/// be set aside to get there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestartReport {
    /// Checkpoint records restored intact.
    pub loaded: usize,
    /// Stretches of the log that failed validation during this restart
    /// and were skipped (a torn tail included).
    pub quarantined: usize,
    /// Size of the log the restart read, in bytes.
    pub log_bytes: usize,
    /// Transient I/O errors absorbed by the retry path over this store's
    /// lifetime so far.
    pub transient_retries: u64,
}

/// What the store remembers of its log, so a commit appends only the
/// difference and never reads.
#[derive(Debug)]
struct LogState {
    /// Whether the fields below describe the file (a replay filled them
    /// and no failed commit has left the file unknown since).
    known: bool,
    /// Encoded length of each checkpoint record the log holds live.
    live: BTreeMap<CheckpointIndex, usize>,
    floor: Incarnation,
    /// Size of the file; 0 also when there is none.
    bytes: usize,
    /// The last replay skipped something: rewrite before appending.
    damaged: bool,
    /// The records of the commit being built; reused across commits.
    buf: Vec<u8>,
    /// The vector of the checkpoint being written; reused likewise.
    dv: DependencyVector,
}

impl Default for LogState {
    fn default() -> Self {
        Self {
            known: false,
            live: BTreeMap::new(),
            floor: Incarnation::ZERO,
            bytes: 0,
            damaged: false,
            buf: Vec::new(),
            dv: DependencyVector::new(1),
        }
    }
}

impl LogState {
    fn adopt(&mut self, replay: &Replay<'_>, floor: Incarnation, bytes: usize) {
        self.live.clear();
        let lens = replay.live.iter().map(|(&i, f)| (i, f.bytes.len()));
        self.live.extend(lens);
        (self.floor, self.bytes) = (floor, bytes);
        (self.known, self.damaged) = (true, replay.damaged > 0);
    }
}

/// A durable, per-process stable store.
#[derive(Debug)]
pub struct DurableStore {
    owner: ProcessId,
    dir: PathBuf,
    fs: Box<dyn StorageBackend>,
    log: RefCell<LogState>,
    /// Transient errors absorbed by the retry path (for reports).
    retries: Cell<u64>,
    /// Per-operation latency phases (`store/append`, `store/fsync`, …);
    /// off unless `RDT_PROFILE` is set or [`set_profiling`] turned it on.
    ///
    /// [`set_profiling`]: Self::set_profiling
    prof: RefCell<rdt_obs::Profiler>,
}

impl DurableStore {
    /// Opens the store directory for `owner`, on the real filesystem.
    /// Touches nothing: the directory need not exist until the first
    /// commit creates it.
    ///
    /// # Errors
    ///
    /// None today; an unusable `dir` surfaces at the first read or commit.
    pub fn open(dir: impl Into<PathBuf>, owner: ProcessId) -> Result<Self> {
        Self::open_with(dir, owner, Box::new(StdFs))
    }

    /// Opens the store directory through an explicit backend — the entry
    /// point for fault injection. Makes no backend call.
    ///
    /// # Errors
    ///
    /// As for [`open`](Self::open).
    pub fn open_with(
        dir: impl Into<PathBuf>,
        owner: ProcessId,
        fs: Box<dyn StorageBackend>,
    ) -> Result<Self> {
        Ok(Self {
            owner,
            dir: dir.into(),
            fs,
            log: RefCell::default(),
            retries: Cell::new(0),
            prof: RefCell::new(rdt_obs::Profiler::new(rdt_obs::profile::env_enabled())),
        })
    }

    /// Enables (or disables) per-operation latency profiling: every
    /// backend call records into a `store/*` phase (`store/append`,
    /// `store/fsync`, `store/read`, and for compactions `store/write`,
    /// `store/rename`, `store/fsync_dir`; the commit that creates the log
    /// also `store/create_dir`), and absorbed transient retries count
    /// under the `store/transient_retries` counter. Replaces any
    /// previously accumulated timings. Latencies include time spent inside
    /// the bounded retry loop, backoff sleeps included — a retried fsync
    /// *is* that slow from the caller's seat.
    pub fn set_profiling(&self, on: bool) {
        *self.prof.borrow_mut() = rdt_obs::Profiler::new(on);
    }

    /// A snapshot of the accumulated I/O timings (`Some` iff profiling
    /// is on).
    pub fn profile(&self) -> Option<rdt_obs::ProfileReport> {
        self.prof.borrow().report().cloned()
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The one file a restart reads.
    pub fn log_path(&self) -> PathBuf {
        self.dir.join("store.log")
    }

    /// Transient I/O errors absorbed by the bounded retry path so far.
    pub fn transient_retries(&self) -> u64 {
        self.retries.get()
    }

    /// Runs one backend operation under the bounded retry-with-backoff
    /// policy: transient errors (see [`is_transient`]) are retried up to
    /// [`RETRY_ATTEMPTS`] times with escalating micro-sleeps; anything
    /// else is permanent and returned immediately. `phase` names the
    /// operation for the latency profile and for the error an exhausted
    /// retry returns; every retry is counted.
    fn with_retry<T>(
        &self,
        phase: &'static str,
        mut op: impl FnMut() -> io::Result<T>,
    ) -> Result<T> {
        let t = self.prof.borrow().start();
        let mut delay = Duration::from_micros(100);
        let mut attempt = 1;
        let out = loop {
            match op() {
                Ok(v) => break Ok(v),
                Err(source) if is_transient(&source) => {
                    self.retries.set(self.retries.get() + 1);
                    self.prof.borrow_mut().add("store/transient_retries", 1);
                    if attempt == RETRY_ATTEMPTS {
                        break Err(Error::Transient {
                            op: phase,
                            source,
                            attempts: RETRY_ATTEMPTS,
                        });
                    }
                    std::thread::sleep(delay);
                    delay *= 2;
                    attempt += 1;
                }
                Err(e) => break Err(Error::Io(e)),
            }
        };
        self.prof.borrow_mut().stop(phase, t);
        out
    }

    /// Reads the whole log; a missing file or directory is an empty log.
    fn read_log(&self) -> Result<Vec<u8>> {
        let path = self.log_path();
        match self.with_retry("store/read", || self.fs.read(&path)) {
            Ok(bytes) => Ok(bytes),
            Err(Error::Io(e)) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// Replaces the log with `bytes`: temp file, fsync, rename,
    /// parent-directory fsync. The final fsync is what actually commits
    /// the rename — without it a crash can roll the directory entry back
    /// to the old log (the lost-rename image).
    fn replace_log(&self, bytes: &[u8]) -> Result<()> {
        let tmp = self.dir.join(".store.log.tmp");
        let target = self.log_path();
        self.with_retry("store/write", || self.fs.write(&tmp, bytes))?;
        self.with_retry("store/fsync", || self.fs.fsync(&tmp))?;
        self.with_retry("store/rename", || self.fs.rename(&tmp, &target))?;
        self.with_retry("store/fsync_dir", || self.fs.fsync_dir(&self.dir))?;
        Ok(())
    }

    /// Creates the store directory and every missing ancestor, then
    /// fsyncs the parent of each directory it made — the store's parent,
    /// and up from there to the first ancestor that already existed — so
    /// that a power loss cannot drop the directory entry of a log whose
    /// commits were acknowledged. The parent is fsynced even if the
    /// directory existed; a backend that cannot count what it made
    /// ([`StorageBackend::create_dirs`]) gets that one fsync only.
    fn create_dir(&self) -> Result<()> {
        let made = std::cell::Cell::new(0);
        self.with_retry("store/create_dir", || {
            // A retried attempt may find what a failed one made.
            made.set(made.get().max(self.fs.create_dirs(&self.dir)?));
            Ok(())
        })?;
        let mut at = self.dir.as_path();
        for _ in 0..made.get().max(1) {
            let parent = at.parent().filter(|p| !p.as_os_str().is_empty());
            let parent = parent.unwrap_or(Path::new("."));
            self.with_retry("store/fsync_dir", || self.fs.fsync_dir(parent))?;
            at = parent;
        }
        Ok(())
    }

    /// What the store remembers of its log, replaying the file first if
    /// it remembers nothing.
    fn log(&self) -> Result<RefMut<'_, LogState>> {
        if !self.log.borrow().known {
            self.rebuild_reported()?;
        }
        Ok(self.log.borrow_mut())
    }

    /// Makes the records in `st.buf` durable; `st.live` and `st.floor`
    /// already say what the log holds once they are. One append and one
    /// flush — unless the log would outgrow [`COMPACT_AT`] times its live
    /// bytes, is damaged, or does not exist yet (a new file's directory
    /// entry needs the atomic-replace discipline anyway, and its directory
    /// is created first): then the file is read back, replayed together
    /// with the new records, and replaced by what is live at the end. A
    /// failure leaves the file unknown.
    fn commit(&self, st: &mut LogState) -> Result<()> {
        st.known = false;
        let floor_bytes = usize::from(st.floor > Incarnation::ZERO) * FLOOR_BYTES;
        let live_bytes = st.live.values().sum::<usize>() + floor_bytes;
        if st.bytes > 0 && !st.damaged && st.bytes + st.buf.len() <= COMPACT_AT * live_bytes {
            let path = self.log_path();
            self.with_retry("store/append", || self.fs.append(&path, &st.buf))?;
            self.with_retry("store/fsync", || self.fs.fsync(&path))?;
            st.bytes += st.buf.len();
        } else {
            let mut image = if st.bytes > 0 {
                self.read_log()?
            } else {
                self.create_dir()?;
                Vec::new()
            };
            let on_disk = image.len();
            image.extend_from_slice(&st.buf);
            let replay = log::replay(&image, self.owner);
            if replay.damaged > 0 {
                // For forensics only: nothing reads it back, so no flush.
                let aside = self.dir.join("store.log.quarantined");
                self.with_retry("store/write", || self.fs.write(&aside, &image[..on_disk]))?;
            }
            st.buf.clear();
            replay.compact_into(st.floor, &mut st.buf);
            self.replace_log(&st.buf)?;
            st.adopt(&replay, st.floor, st.buf.len());
        }
        st.known = true;
        Ok(())
    }

    /// The incarnation floor the log holds: the highest incarnation the
    /// owner ever opened, or [`Incarnation::ZERO`] if never written
    /// (crash-free stores).
    ///
    /// # Errors
    ///
    /// As for [`rebuild_reported`](Self::rebuild_reported), when this is
    /// the handle's first look at the log.
    pub fn incarnation_floor(&self) -> Result<Incarnation> {
        Ok(self.log()?.floor)
    }

    /// Persists the incarnation floor: one append (both copies of the
    /// record) and one flush. Monotone: never lowers the value.
    ///
    /// # Errors
    ///
    /// I/O errors along the write path.
    pub fn persist_incarnation_floor(&self, v: Incarnation) -> Result<()> {
        let mut st = self.log()?;
        if v <= st.floor {
            return Ok(());
        }
        st.buf.clear();
        log::encode_floor(v, &mut st.buf);
        st.floor = v;
        self.commit(&mut st)
    }

    /// The checkpoint indices the log holds live, ascending.
    ///
    /// # Errors
    ///
    /// As for [`incarnation_floor`](Self::incarnation_floor).
    pub fn indices(&self) -> Result<Vec<CheckpointIndex>> {
        Ok(self.log()?.live.keys().copied().collect())
    }

    /// Rebuilds an in-memory [`CheckpointStore`] from the log — the first
    /// step of a process restart — and reports what it found. One read, no
    /// write. Lenient: records that fail validation (torn, bit-flipped,
    /// another owner's) are skipped and counted, and the store is rebuilt
    /// from the intact remainder; files other than the log are never
    /// looked at.
    ///
    /// # Errors
    ///
    /// I/O errors; [`Error::Corrupt`] if the log is damaged and **no**
    /// checkpoint record validates (there is no intact state to restore
    /// from), or if incarnation records were damaged and **none**
    /// validates — resuming at an unknown incarnation is never safe.
    pub fn rebuild_reported(&self) -> Result<(CheckpointStore, RestartReport)> {
        self.log.borrow_mut().known = false;
        let bytes = self.read_log()?;
        let mut replay = log::replay(&bytes, self.owner);
        let mut store = CheckpointStore::new(self.owner);
        // A record the checksum vouches for can still name a lineage the
        // packed vector cannot hold; it is as unusable as a damaged one.
        replay.live.retain(|&index, frame| match frame.dv() {
            Ok(dv) => {
                store.insert_with_size(index, dv, frame.state_size);
                true
            }
            Err(_) => {
                replay.damaged += 1;
                false
            }
        });
        if replay.damaged > 0 && store.is_empty() {
            return Err(Error::Corrupt("no checkpoint record of the log validates"));
        }
        if replay.floor_damaged && replay.floor.is_none() {
            return Err(Error::Corrupt("no incarnation record of the log validates"));
        }
        let floor = replay.floor.unwrap_or(Incarnation::ZERO);
        store.raise_incarnation_floor(floor);
        self.log.borrow_mut().adopt(&replay, floor, bytes.len());
        let report = RestartReport {
            loaded: store.len(),
            quarantined: replay.damaged,
            log_bytes: bytes.len(),
            transient_retries: self.retries.get(),
        };
        Ok((store, report))
    }

    /// Rebuilds an in-memory [`CheckpointStore`] from the log, discarding
    /// the [`RestartReport`].
    ///
    /// # Errors
    ///
    /// As for [`rebuild_reported`](Self::rebuild_reported).
    pub fn rebuild(&self) -> Result<CheckpointStore> {
        self.rebuild_reported().map(|(store, _)| store)
    }

    /// Synchronizes the log with an in-memory store — the commit. Appends,
    /// in one buffer, a raised incarnation floor, the checkpoints the log
    /// lacks, then collects for those the store no longer holds; nothing
    /// at all when nothing changed. Called after each middleware event.
    /// Only the vectors of the checkpoints the log lacks are read out of
    /// the store, each a full record on disk.
    ///
    /// Returns `(persisted, removed)` counts.
    ///
    /// # Errors
    ///
    /// I/O errors along the write path.
    pub fn sync(&self, store: &CheckpointStore) -> Result<(usize, usize)> {
        let mut guard = self.log()?;
        let st = &mut *guard;
        st.buf.clear();
        if store.incarnation_floor() > st.floor {
            st.floor = store.incarnation_floor();
            log::encode_floor(st.floor, &mut st.buf);
        }
        let mut persisted = 0;
        for index in store.indices() {
            if let Entry::Vacant(slot) = st.live.entry(index) {
                store.dv(index, &mut st.dv).expect("stored");
                let at = st.buf.len();
                encode_into(self.owner, index, &st.dv, 0, &mut st.buf);
                slot.insert(st.buf.len() - at);
                persisted += 1;
            }
        }
        let before = st.live.len();
        st.live.retain(|&index, _| {
            let keep = store.contains(index);
            if !keep {
                log::encode_collect(self.owner, index, &mut st.buf);
            }
            keep
        });
        let removed = before - st.live.len();
        if !st.buf.is_empty() {
            self.commit(st)?;
        }
        Ok((persisted, removed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultFs, FaultKind, FaultPlan};
    use crate::sink::DiskSink;
    use rdt_base::DependencyVector;
    use rdt_core::GcKind;
    use rdt_protocols::{Middleware, ProtocolKind};
    use std::fs;
    use std::rc::Rc;

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

    const OWNER: ProcessId = ProcessId::new(0);

    fn idx(i: usize) -> CheckpointIndex {
        CheckpointIndex::new(i)
    }

    /// A two-process store holding `indices`, checkpoint γ stored with
    /// vector `[γ, 2γ]`.
    fn store_of(indices: &[usize]) -> CheckpointStore {
        let mut store = CheckpointStore::new(OWNER);
        for &i in indices {
            store.insert(idx(i), DependencyVector::from_raw(vec![i, 2 * i]));
        }
        store
    }

    fn contents(store: &CheckpointStore) -> Vec<(CheckpointIndex, DependencyVector)> {
        store.iter().map(|(i, dv)| (i, dv.clone())).collect()
    }

    /// Bytes of one two-entry checkpoint record.
    const RECORD: usize = 38 + 2 * 12;

    /// `StdFs`, counting calls per operation.
    #[derive(Debug, Default)]
    struct Counts {
        read: Cell<u32>,
        write: Cell<u32>,
        append: Cell<u32>,
        fsync: Cell<u32>,
        fsync_dir: Cell<u32>,
        rename: Cell<u32>,
        remove: Cell<u32>,
        list: Cell<u32>,
        create_dir: Cell<u32>,
    }

    impl Counts {
        /// `[read, write, append, fsync, fsync_dir, rename, remove, list,
        /// create_dir]` since the last call.
        fn take(&self) -> [u32; 9] {
            [
                &self.read,
                &self.write,
                &self.append,
                &self.fsync,
                &self.fsync_dir,
                &self.rename,
                &self.remove,
                &self.list,
                &self.create_dir,
            ]
            .map(|c| c.replace(0))
        }
    }

    #[derive(Debug)]
    struct CountingFs(Rc<Counts>);

    fn tick(c: &Cell<u32>) {
        c.set(c.get() + 1);
    }

    impl StorageBackend for CountingFs {
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            tick(&self.0.create_dir);
            StdFs.create_dir_all(dir)
        }
        fn create_dirs(&self, dir: &Path) -> io::Result<usize> {
            tick(&self.0.create_dir);
            StdFs.create_dirs(dir)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            tick(&self.0.read);
            StdFs.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            tick(&self.0.write);
            StdFs.write(path, bytes)
        }
        fn fsync(&self, path: &Path) -> io::Result<()> {
            tick(&self.0.fsync);
            StdFs.fsync(path)
        }
        fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
            tick(&self.0.fsync_dir);
            StdFs.fsync_dir(dir)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            tick(&self.0.rename);
            StdFs.rename(from, to)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            tick(&self.0.remove);
            StdFs.remove(path)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
            tick(&self.0.list);
            StdFs.list(dir)
        }
        fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            tick(&self.0.append);
            StdFs.append(path, bytes)
        }
    }

    #[test]
    fn a_commit_is_one_append_and_one_flush_and_a_restart_is_one_read() {
        const APPEND: [u32; 9] = [0, 0, 1, 1, 0, 0, 0, 0, 0];
        const COMPACT: [u32; 9] = [1, 1, 0, 1, 1, 1, 0, 0, 0];
        let dir = scratch("counts");
        let counts = Rc::new(Counts::default());
        let open = || {
            DurableStore::open_with(&dir, OWNER, Box::new(CountingFs(Rc::clone(&counts)))).unwrap()
        };
        // Opening touches nothing, not even the directory it names.
        let durable = open();
        assert_eq!(counts.take(), [0; 9]);
        // The first commit creates the file: a first look at the (absent)
        // log, the directory and its parent's fsync, then the
        // atomic-replace discipline, no read-back.
        durable.sync(&store_of(&[0])).unwrap();
        assert_eq!(counts.take(), [1, 1, 0, 1, 2, 1, 0, 0, 1]);
        // Growth, then steady state: every commit that changes something
        // is an append and a flush — or, when dead bytes would outweigh
        // live ones, a read and an atomic replace. Never a list, a remove
        // or another directory creation.
        let mut compactions = 0;
        for i in 1..40usize {
            let held: Vec<usize> = (i.saturating_sub(3)..=i).collect();
            durable.sync(&store_of(&held)).unwrap();
            let seen = counts.take();
            assert!(seen == APPEND || seen == COMPACT, "commit {i}: {seen:?}");
            compactions += usize::from(seen == COMPACT);
            durable.sync(&store_of(&held)).unwrap();
            assert_eq!(counts.take(), [0; 9], "nothing changed, nothing done");
        }
        assert!((5..20).contains(&compactions), "{compactions} compactions");
        // An incarnation bump is the same one and one.
        durable
            .persist_incarnation_floor(Incarnation::new(1))
            .unwrap();
        assert_eq!(counts.take(), APPEND);
        // A restart — new handle, rebuild — is one read and nothing else.
        let (store, report) = open().rebuild_reported().unwrap();
        assert_eq!(counts.take(), [1, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(contents(&store), contents(&store_of(&[36, 37, 38, 39])));
        assert_eq!(store.incarnation_floor(), Incarnation::new(1));
        assert_eq!(report.loaded, 4);
        assert_eq!(report.quarantined, 0);
        assert_eq!(
            report.log_bytes as u64,
            fs::metadata(durable.log_path()).unwrap().len()
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn the_log_never_exceeds_twice_its_live_set_plus_one_commit() {
        let dir = scratch("bound");
        let durable = DurableStore::open(&dir, OWNER).unwrap();
        let mut before = 0;
        for i in 0..200usize {
            // The retained set breathes between 1 and 6 checkpoints.
            let keep = 1 + (i * 7) % 6;
            let held: Vec<usize> = (i.saturating_sub(keep - 1)..=i).collect();
            durable.sync(&store_of(&held)).unwrap();
            let log = fs::metadata(durable.log_path()).unwrap().len() as usize;
            let commit = log.saturating_sub(before);
            assert!(
                log <= 2 * held.len() * RECORD + commit,
                "event {i}: {log} bytes for {} live records",
                held.len()
            );
            before = log;
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn sync_mirrors_an_in_memory_store() {
        let dir = scratch("sync");
        let durable = DurableStore::open(&dir, OWNER).unwrap();
        assert_eq!(durable.sync(&store_of(&[0, 1])).unwrap(), (2, 0));
        assert_eq!(durable.sync(&store_of(&[1, 2])).unwrap(), (1, 1));
        assert_eq!(durable.indices().unwrap(), vec![idx(1), idx(2)]);
        assert_eq!(
            contents(&durable.rebuild().unwrap()),
            contents(&store_of(&[1, 2]))
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn persist_survives_reopen() {
        let dir = scratch("reopen");
        {
            let durable = DurableStore::open(&dir, OWNER).unwrap();
            durable.sync(&store_of(&[0])).unwrap();
            durable.sync(&store_of(&[0, 1])).unwrap();
        } // "crash"
        let reopened = DurableStore::open(&dir, OWNER).unwrap();
        assert_eq!(reopened.indices().unwrap(), vec![idx(0), idx(1)]);
        // And the handle goes on appending where the dead one stopped.
        assert_eq!(reopened.sync(&store_of(&[1, 2])).unwrap(), (1, 1));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rebuild_produces_an_equivalent_checkpoint_store() {
        let dir = scratch("rebuild");
        let durable = DurableStore::open(&dir, OWNER).unwrap();
        let mut store = store_of(&[1, 3]);
        store.raise_incarnation_floor(Incarnation::new(2));
        durable.sync(&store).unwrap();
        let (rebuilt, report) = durable.rebuild_reported().unwrap();
        assert_eq!(contents(&rebuilt), contents(&store));
        assert_eq!(rebuilt.incarnation_floor(), Incarnation::new(2));
        assert_eq!(report.loaded, 2);
        assert_eq!(report.log_bytes, FLOOR_BYTES + 2 * RECORD);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn remove_is_idempotent() {
        let dir = scratch("remove");
        let durable = DurableStore::open(&dir, OWNER).unwrap();
        durable.sync(&store_of(&[0, 1, 2])).unwrap();
        assert_eq!(durable.sync(&store_of(&[2])).unwrap(), (0, 2));
        assert_eq!(durable.sync(&store_of(&[2])).unwrap(), (0, 0));
        // A collect of what is not live (one replayed twice, say) is
        // nothing.
        let mut again = Vec::new();
        log::encode_collect(OWNER, idx(0), &mut again);
        StdFs.append(&durable.log_path(), &again).unwrap();
        let (store, report) = durable.rebuild_reported().unwrap();
        assert_eq!(contents(&store), contents(&store_of(&[2])));
        assert_eq!(report.quarantined, 0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn leftover_temp_files_are_ignored() {
        // A restart reads the one file the store owns and never lists: a
        // compaction's orphaned temp file, an old quarantine image and a
        // stray note cannot matter.
        let dir = scratch("tmp");
        let durable = DurableStore::open(&dir, OWNER).unwrap();
        durable.sync(&store_of(&[0])).unwrap();
        fs::write(dir.join(".store.log.tmp"), b"half-written").unwrap();
        fs::write(dir.join("store.log.quarantined"), b"old damage").unwrap();
        fs::write(dir.join("notes.txt"), b"hello").unwrap();
        let (store, report) = durable.rebuild_reported().unwrap();
        assert_eq!(contents(&store), contents(&store_of(&[0])));
        assert_eq!((report.loaded, report.quarantined), (1, 0));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_rollback_that_reuses_an_index_restores_the_newer_record() {
        let dir = scratch("reuse");
        let durable = DurableStore::open(&dir, OWNER).unwrap();
        durable.sync(&store_of(&[0, 1, 2])).unwrap();
        durable.sync(&store_of(&[0])).unwrap(); // rolled back to s^0
        let mut again = store_of(&[0]);
        again.insert(idx(1), DependencyVector::from_raw(vec![9, 9]));
        durable.sync(&again).unwrap();
        let rebuilt = DurableStore::open(&dir, OWNER).unwrap().rebuild().unwrap();
        assert_eq!(contents(&rebuilt), contents(&again));
        fs::remove_dir_all(dir).unwrap();
    }

    /// Three appended commits: `[0]`, `[0, 1]`, `[0, 1, 2]`; returns the
    /// log's bytes (the first record sits behind nothing, each later one
    /// at a multiple of [`RECORD`]).
    fn three_records(dir: &Path) -> (DurableStore, Vec<u8>) {
        let durable = DurableStore::open(dir, OWNER).unwrap();
        for held in [&[0][..], &[0, 1], &[0, 1, 2]] {
            durable.sync(&store_of(held)).unwrap();
        }
        let bytes = fs::read(durable.log_path()).unwrap();
        assert_eq!(bytes.len(), 3 * RECORD);
        (durable, bytes)
    }

    #[test]
    fn corrupt_checkpoint_is_quarantined_and_the_rest_restored() {
        let dir = scratch("quarantine");
        let (durable, mut bytes) = three_records(&dir);
        bytes[RECORD + 30] ^= 0x10; // inside the record of checkpoint 1
        fs::write(durable.log_path(), &bytes).unwrap();
        let (store, report) = durable.rebuild_reported().unwrap();
        assert_eq!(store.indices().collect::<Vec<_>>(), vec![idx(0), idx(2)]);
        assert_eq!((report.loaded, report.quarantined), (2, 1));
        // The restart wrote nothing; the next commit rewrites the log and
        // keeps the damaged image aside, once.
        assert_eq!(fs::read(durable.log_path()).unwrap(), bytes);
        assert!(!dir.join("store.log.quarantined").exists());
        assert_eq!(durable.sync(&store_of(&[0, 1, 2])).unwrap(), (1, 0));
        assert_eq!(fs::read(dir.join("store.log.quarantined")).unwrap(), bytes);
        let (store, report) = durable.rebuild_reported().unwrap();
        assert_eq!(contents(&store), contents(&store_of(&[0, 1, 2])));
        assert_eq!((report.loaded, report.quarantined), (3, 0));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_torn_tail_is_dropped_and_the_acknowledged_prefix_restored() {
        let dir = scratch("torn-tail");
        let (durable, bytes) = three_records(&dir);
        for cut in 2 * RECORD + 1..3 * RECORD {
            fs::write(durable.log_path(), &bytes[..cut]).unwrap();
            let (store, report) = durable.rebuild_reported().unwrap();
            assert_eq!(contents(&store), contents(&store_of(&[0, 1])), "cut {cut}");
            assert_eq!(report.quarantined, 1);
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_collect_never_removes_the_last_live_checkpoint() {
        // The crash image of a bit flipped in an append of [checkpoint 1,
        // collect 0]: the checkpoint is lost, the collect behind it
        // validates — and must not leave the process without an anchor.
        let dir = scratch("anchor");
        let durable = DurableStore::open(&dir, OWNER).unwrap();
        durable.sync(&store_of(&[0])).unwrap();
        let mut tail = Vec::new();
        encode_into(
            OWNER,
            idx(1),
            &DependencyVector::from_raw(vec![1, 2]),
            0,
            &mut tail,
        );
        tail[RECORD / 2] ^= 1;
        log::encode_collect(OWNER, idx(0), &mut tail);
        StdFs.append(&durable.log_path(), &tail).unwrap();
        let (store, report) = durable.rebuild_reported().unwrap();
        assert_eq!(contents(&store), contents(&store_of(&[0])));
        assert_eq!(report.quarantined, 1);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rebuild_refuses_when_nothing_intact_remains() {
        let dir = scratch("all-bad");
        let durable = DurableStore::open(&dir, OWNER).unwrap();
        durable.sync(&store_of(&[0])).unwrap();
        fs::write(durable.log_path(), b"garbage").unwrap();
        assert!(matches!(
            durable.rebuild_reported(),
            Err(Error::Corrupt("no checkpoint record of the log validates"))
        ));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_file_fails_the_load() {
        // Every way into a handle's first look at a log with nothing
        // intact is the same hard error.
        let dir = scratch("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("store.log"), b"RDTCRDTCRDTC").unwrap();
        let durable = DurableStore::open(&dir, OWNER).unwrap();
        assert!(matches!(durable.indices(), Err(Error::Corrupt(_))));
        assert!(matches!(
            durable.incarnation_floor(),
            Err(Error::Corrupt(_))
        ));
        assert!(matches!(
            durable.sync(&store_of(&[0])),
            Err(Error::Corrupt(_))
        ));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn mislabeled_record_is_rejected() {
        // A valid record, but another owner's: as unusable as a damaged one.
        let dir = scratch("mislabel");
        let durable = DurableStore::open(&dir, OWNER).unwrap();
        durable.sync(&store_of(&[0])).unwrap();
        let mut theirs = Vec::new();
        let dv = DependencyVector::from_raw(vec![5, 5]);
        encode_into(ProcessId::new(1), idx(5), &dv, 0, &mut theirs);
        log::encode_collect(ProcessId::new(1), idx(0), &mut theirs);
        StdFs.append(&durable.log_path(), &theirs).unwrap();
        let (store, report) = durable.rebuild_reported().unwrap();
        assert_eq!(contents(&store), contents(&store_of(&[0])));
        assert_eq!(report.quarantined, 1);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn incarnation_floor_survives_a_torn_slot() {
        let dir = scratch("torn-slot");
        let durable = DurableStore::open(&dir, OWNER).unwrap();
        durable.sync(&store_of(&[0])).unwrap();
        durable
            .persist_incarnation_floor(Incarnation::new(3))
            .unwrap();
        durable.sync(&store_of(&[0, 1])).unwrap();
        let bytes = fs::read(durable.log_path()).unwrap();
        for copy in 0..2 {
            let mut damaged = bytes.clone();
            damaged[RECORD + 16 * copy + 5] ^= 0x01;
            fs::write(durable.log_path(), &damaged).unwrap();
            let reopened = DurableStore::open(&dir, OWNER).unwrap();
            assert_eq!(reopened.incarnation_floor().unwrap(), Incarnation::new(3));
            assert_eq!(reopened.rebuild_reported().unwrap().1.quarantined, 1);
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn incarnation_floor_hard_fails_when_no_slot_decodes() {
        let dir = scratch("both-torn");
        let durable = DurableStore::open(&dir, OWNER).unwrap();
        durable.sync(&store_of(&[0])).unwrap();
        durable
            .persist_incarnation_floor(Incarnation::new(2))
            .unwrap();
        durable.sync(&store_of(&[0, 1])).unwrap();
        let mut bytes = fs::read(durable.log_path()).unwrap();
        bytes[RECORD + 5] ^= 0x01;
        bytes[RECORD + 16 + 5] ^= 0x01;
        fs::write(durable.log_path(), &bytes).unwrap();
        let reopened = DurableStore::open(&dir, OWNER).unwrap();
        assert!(matches!(
            reopened.incarnation_floor(),
            Err(Error::Corrupt("no incarnation record of the log validates"))
        ));
        // The same bytes as a torn *tail* are an append that was never
        // acknowledged: the floor it would have raised was never used.
        fs::write(durable.log_path(), &bytes[..RECORD + 7]).unwrap();
        let reopened = DurableStore::open(&dir, OWNER).unwrap();
        assert_eq!(reopened.incarnation_floor().unwrap(), Incarnation::ZERO);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn transient_errors_are_absorbed_by_the_retry_path() {
        let dir = scratch("transient");
        let plan = FaultPlan::none()
            .with_fault(2, FaultKind::TransientEio)
            .with_fault(7, FaultKind::TransientEnospc);
        let durable = DurableStore::open_with(&dir, OWNER, Box::new(FaultFs::new(plan))).unwrap();
        durable.sync(&store_of(&[0])).unwrap();
        durable.sync(&store_of(&[0, 1])).unwrap();
        assert_eq!(durable.transient_retries(), 2);
        assert_eq!(durable.indices().unwrap(), vec![idx(0), idx(1)]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn an_exhausted_retry_names_its_operation() {
        let dir = scratch("exhausted");
        // The first commit's first op, the read, fails on every attempt.
        let plan = (0..u64::from(RETRY_ATTEMPTS)).fold(FaultPlan::none(), |plan, op| {
            plan.with_fault(op, FaultKind::TransientEio)
        });
        let durable = DurableStore::open_with(&dir, OWNER, Box::new(FaultFs::new(plan))).unwrap();
        let err = durable.sync(&store_of(&[0])).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Transient {
                    op: "store/read",
                    attempts: RETRY_ATTEMPTS,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("store/read"), "{err}");
        assert_eq!(durable.transient_retries(), u64::from(RETRY_ATTEMPTS));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn profiling_records_store_phases_and_retry_counter() {
        let dir = scratch("profiled");
        let plan = FaultPlan::none().with_fault(3, FaultKind::TransientEio);
        let durable = DurableStore::open_with(&dir, OWNER, Box::new(FaultFs::new(plan))).unwrap();
        durable.set_profiling(true);
        // The first commit is read, create_dir, the parent's fsync, write,
        // fsync, rename, fsync_dir; op 3, its write, fails once and is
        // retried. The second is one append and one flush.
        durable.sync(&store_of(&[0])).unwrap(); // creates the log
        durable.sync(&store_of(&[0, 1])).unwrap(); // appends to it
        let report = durable.profile().expect("profiling is on");
        for (phase, count) in [
            ("store/read", 1),
            ("store/create_dir", 1),
            ("store/write", 1),
            ("store/rename", 1),
            ("store/fsync_dir", 2),
            ("store/append", 1),
            ("store/fsync", 2),
        ] {
            assert_eq!(report.phase(phase).map(|p| p.count), Some(count), "{phase}");
        }
        assert_eq!(report.counters.get("store/transient_retries"), Some(&1));
        // Turning profiling on again starts from nothing.
        durable.set_profiling(true);
        let report = durable.profile().expect("still on");
        assert!(report.phase("store/append").is_none());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn injected_crash_surfaces_as_a_permanent_error() {
        let dir = scratch("inj-crash");
        let durable = DurableStore::open_with(
            &dir,
            OWNER,
            Box::new(FaultFs::new(FaultPlan::crash_after(8))),
        )
        .unwrap();
        // open consumed no op, the first commit 7 (read, create_dir, the
        // parent's fsync, write, fsync, rename, fsync_dir); the second
        // trips the crash point between its append and its flush.
        durable.sync(&store_of(&[0])).unwrap();
        let err = durable.sync(&store_of(&[0, 1])).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "crash errors are permanent");
        // The append did land; a restart sees it.
        let rebuilt = DurableStore::open(&dir, OWNER).unwrap().rebuild().unwrap();
        assert_eq!(contents(&rebuilt), contents(&store_of(&[0, 1])));
        let _ = fs::remove_dir_all(dir);
    }

    /// A process of a two-process system whose initial checkpoint is
    /// committed to `disk`; returns it and the commit's error, if any.
    fn initial_commit(disk: DurableStore) -> (Middleware<DiskSink>, Option<String>) {
        let sink = DiskSink::over(disk);
        let mut mw = Middleware::with_storage(OWNER, 2, ProtocolKind::Fdas, GcKind::RdtLgc, sink);
        let err = mw.take_sink_error();
        (mw, err)
    }

    #[test]
    fn a_crash_in_a_store_s_first_commit_leaves_nothing_or_the_initial_checkpoint() {
        // The first commit's ops: read (of an absent log), create_dir, the
        // parent's fsync, write, fsync, rename, fsync_dir. The torture
        // harness cannot crash among them: its probes start once every
        // store exists.
        let run = |dir: &Path, plan| {
            let fs = FaultFs::new(plan);
            let disk = DurableStore::open_with(dir, OWNER, Box::new(fs.clone())).unwrap();
            let (mw, err) = initial_commit(disk);
            (fs, err, mw.store().clone())
        };
        let ops = {
            let dir = scratch("first-commit-ref");
            let (fs, err, _) = run(&dir, FaultPlan::none());
            assert_eq!(err, None);
            fs::remove_dir_all(dir).unwrap();
            fs.ops_executed()
        };
        assert_eq!(ops, 7);
        for k in 0..=ops {
            let dir = scratch(&format!("first-commit-{k}"));
            let (fs, err, initial) = run(&dir, FaultPlan::crash_after(k));
            assert_eq!(fs.has_crashed(), k < ops, "crash after {k} ops");
            assert_eq!(err.is_none(), k == ops, "crash after {k} ops: {err:?}");
            let (rebuilt, report) = DurableStore::open(&dir, OWNER)
                .unwrap()
                .rebuild_reported()
                .unwrap_or_else(|e| panic!("crash after {k} ops: {e}"));
            assert_eq!(report.quarantined, 0, "crash after {k} ops");
            // Nothing was acknowledged before the rename (op 5) made the
            // log; from then on it is exactly the initial checkpoint.
            let expected = if k > 5 {
                contents(&initial)
            } else {
                Vec::new()
            };
            assert_eq!(contents(&rebuilt), expected, "crash after {k} ops");
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn a_first_commit_under_a_missing_grandparent_fsyncs_every_parent_it_made() {
        // The store's parent is missing too: create_dir makes both, and
        // the parent of each — the store's parent, then the grandparent
        // that existed — is fsynced before the log is written. Then a
        // crash after each of the 8 ops leaves nothing or the initial
        // checkpoint, as with a parent that exists.
        let store_dir = |tag: &str| scratch(tag).join("p0");
        let counts = Rc::new(Counts::default());
        let dir = store_dir("grandparent-count");
        let disk = DurableStore::open_with(&dir, OWNER, Box::new(CountingFs(Rc::clone(&counts))));
        disk.unwrap().sync(&store_of(&[0])).unwrap();
        assert_eq!(
            counts.take(),
            [1, 1, 0, 1, 3, 1, 0, 0, 1],
            "three fsync_dir"
        );
        fs::remove_dir_all(dir.parent().unwrap()).unwrap();

        let run = |dir: &Path, plan| {
            let fs = FaultFs::new(plan);
            let disk = DurableStore::open_with(dir, OWNER, Box::new(fs.clone())).unwrap();
            let (mw, err) = initial_commit(disk);
            (fs, err, mw.store().clone())
        };
        let dir = store_dir("grandparent-ref");
        let (fs, err, _) = run(&dir, FaultPlan::none());
        assert_eq!((err, fs.ops_executed()), (None, 8));
        fs::remove_dir_all(dir.parent().unwrap()).unwrap();
        for k in 0..=8 {
            let dir = store_dir(&format!("grandparent-{k}"));
            let (fs, err, initial) = run(&dir, FaultPlan::crash_after(k));
            assert_eq!(fs.has_crashed(), k < 8, "crash after {k} ops");
            assert_eq!(err.is_none(), k == 8, "crash after {k} ops: {err:?}");
            let (rebuilt, report) = DurableStore::open(&dir, OWNER)
                .unwrap()
                .rebuild_reported()
                .unwrap_or_else(|e| panic!("crash after {k} ops: {e}"));
            assert_eq!(report.quarantined, 0, "crash after {k} ops");
            // The rename is op 7 now: read, create_dir, two fsync_dir, write,
            // fsync, rename.
            let expected = if k > 6 {
                contents(&initial)
            } else {
                Vec::new()
            };
            assert_eq!(contents(&rebuilt), expected, "crash after {k} ops");
            let _ = fs::remove_dir_all(dir.parent().unwrap());
        }
    }

    #[test]
    fn a_hostile_path_fails_the_first_commit_not_the_open() {
        let base = scratch("hostile");
        fs::create_dir_all(&base).unwrap();
        let counts = Rc::new(Counts::default());
        let open = |dir: &Path| {
            counts.take();
            let fs = Box::new(CountingFs(Rc::clone(&counts)));
            let disk = DurableStore::open_with(dir, OWNER, fs).unwrap();
            assert_eq!(
                counts.take(),
                [0; 9],
                "{}: open touches nothing",
                dir.display()
            );
            disk
        };
        // The first commit's error is typed, and through a middleware it
        // is the same error as a buffered sink error, not a panic.
        let refused = |dir: &Path| {
            assert!(matches!(open(dir).sync(&store_of(&[0])), Err(Error::Io(_))));
            let (_, err) = initial_commit(open(dir));
            let err = err.expect("the first commit fails");
            assert!(err.starts_with("stable-storage i/o failed"), "{err}");
        };

        // Beneath a regular file: the read already fails.
        let file = base.join("file");
        fs::write(&file, b"not a directory").unwrap();
        let beneath = file.join("p0");
        assert!(matches!(
            open(&beneath).rebuild_reported(),
            Err(Error::Io(_))
        ));
        refused(&beneath);

        // A missing parent: an empty store, and the first commit makes both.
        let orphan = base.join("missing").join("p0");
        let (store, report) = open(&orphan).rebuild_reported().unwrap();
        assert!(store.is_empty());
        assert_eq!(report, RestartReport::default());
        let (mw, err) = initial_commit(open(&orphan));
        assert_eq!(err, None);
        let rebuilt = open(&orphan).rebuild().unwrap();
        assert_eq!(contents(&rebuilt), contents(mw.store()));

        // A read-only parent: an empty store, and the first commit cannot
        // make the directory — unless permission bits do not bind this
        // process (it runs as root), which a probe finds out.
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt as _;
            let ro = base.join("read-only");
            fs::create_dir(&ro).unwrap();
            fs::set_permissions(&ro, fs::Permissions::from_mode(0o555)).unwrap();
            let dir = ro.join("p0");
            assert!(open(&dir).rebuild().unwrap().is_empty());
            if fs::create_dir(ro.join("probe")).is_err() {
                refused(&dir);
                assert!(!dir.exists());
            } else {
                assert_eq!(initial_commit(open(&dir)).1, None);
            }
            fs::set_permissions(&ro, fs::Permissions::from_mode(0o755)).unwrap();
        }
        fs::remove_dir_all(base).unwrap();
    }
}
