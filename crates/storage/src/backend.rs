//! Pluggable filesystem backends for the durable store.
//!
//! [`DurableStore`](crate::DurableStore) performs every filesystem
//! operation through the [`StorageBackend`] trait, so the same
//! append/fsync commit and write/fsync/rename/fsync compaction can run
//! against the real filesystem ([`StdFs`]) or a deterministic fault
//! injector ([`FaultFs`]) that torments them with the crash images and I/O
//! failures the paper's stable-storage contract has to survive: stopping
//! dead after any operation, tearing a write or an append to a prefix,
//! flipping a bit in one, losing a rename (the
//! crash-before-directory-fsync image), and transient `EIO`/`ENOSPC`
//! bursts.
//!
//! Faults are driven by a [`FaultPlan`] keyed on a global operation
//! counter shared by every clone of a `FaultFs`, so a multi-process
//! harness (one store per process directory) enumerates crash points over
//! one deterministic, totally ordered operation sequence — the basis of
//! the [`torture`](crate::torture) harness.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The filesystem surface the durable store relies on.
///
/// Implementations must make `write` + `fsync` + `rename` + `fsync_dir`
/// sufficient for the usual atomic-replace discipline (a `rename` is only
/// durable once the parent directory has been fsynced), and `append` +
/// `fsync` sufficient to extend an existing file durably.
pub trait StorageBackend: fmt::Debug {
    /// Creates `dir` and any missing parents.
    ///
    /// # Errors
    ///
    /// Underlying I/O errors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Reads the whole file at `path`.
    ///
    /// # Errors
    ///
    /// Underlying I/O errors ([`io::ErrorKind::NotFound`] for absent files).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Creates (or truncates) `path` and writes `bytes`. Not durable until
    /// [`fsync`](Self::fsync) succeeds.
    ///
    /// # Errors
    ///
    /// Underlying I/O errors.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Flushes the file at `path` to stable media.
    ///
    /// # Errors
    ///
    /// Underlying I/O errors.
    fn fsync(&self, path: &Path) -> io::Result<()>;

    /// Flushes the directory entry table of `dir` — what actually commits
    /// a rename performed inside it.
    ///
    /// # Errors
    ///
    /// Underlying I/O errors.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Atomically replaces `to` with `from`.
    ///
    /// # Errors
    ///
    /// Underlying I/O errors.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    ///
    /// # Errors
    ///
    /// Underlying I/O errors ([`io::ErrorKind::NotFound`] if absent).
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// The file names (not paths) inside `dir`.
    ///
    /// # Errors
    ///
    /// Underlying I/O errors.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;

    /// Appends `bytes` to the file at `path`, creating it if absent. Not
    /// durable until [`fsync`](Self::fsync) succeeds. Provided, as
    /// [`StdFs`] does it, so a backend written against the eight methods
    /// above keeps compiling; one that counts or faults writes overrides it.
    ///
    /// # Errors
    ///
    /// Underlying I/O errors.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        StdFs.append(path, bytes)
    }
}

/// The real filesystem, with the full fsync discipline.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

impl StorageBackend for StdFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::File::create(path)?;
        f.write_all(bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        // Opening a directory read-only and syncing it flushes its entry
        // table on the platforms we target; where directories cannot be
        // opened (some non-Unix filesystems) the sync is skipped, matching
        // the weaker guarantees those platforms offer anyway.
        match fs::File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(e) if e.kind() == io::ErrorKind::PermissionDenied => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            out.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(out)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)
    }
}

/// One injected fault, keyed to a backend-operation index in a
/// [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A `write` or `append` at this operation stores only the first half
    /// of its bytes (prefix truncation), reports success, and the backend
    /// crashes at the next operation — the crash image of dying
    /// mid-write, before the following fsync could have confirmed the
    /// bytes. Other operations are unaffected.
    TornWrite,
    /// A `write` or `append` at this operation has one bit flipped
    /// (deterministically chosen from the payload length), reports
    /// success, and the backend crashes at the next operation.
    BitFlip,
    /// A `rename` at this operation reports success without renaming, and
    /// the backend crashes at the next operation — the on-disk image of
    /// dying between `rename` and the parent-directory fsync. A lost
    /// rename *without* a crash does not exist on a real filesystem (the
    /// rename is only lost because the machine died before the directory
    /// entry reached media), and modelling one would let execution
    /// continue into garbage-collection removals that delete the
    /// checkpoint the lost rename was meant to replace.
    LostRename,
    /// This operation (whatever it is) fails with `EIO`; the bounded
    /// retry path in `DurableStore` is expected to absorb it on a
    /// subsequent attempt.
    TransientEio,
    /// As [`TransientEio`](Self::TransientEio), with `ENOSPC`.
    TransientEnospc,
}

/// A deterministic schedule of faults over the global operation sequence.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Operations `0..stop_after` execute; every later operation fails
    /// with an injected-crash error and marks the backend crashed.
    pub stop_after: Option<u64>,
    /// Faults keyed by operation index.
    pub faults: BTreeMap<u64, FaultKind>,
}

impl FaultPlan {
    /// A plan with no faults (pure operation counting).
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan that crashes the backend after `k` operations have executed.
    pub fn crash_after(k: u64) -> Self {
        Self {
            stop_after: Some(k),
            faults: BTreeMap::new(),
        }
    }

    /// Adds a fault at operation `op`.
    pub fn with_fault(mut self, op: u64, kind: FaultKind) -> Self {
        self.faults.insert(op, kind);
        self
    }
}

#[derive(Debug)]
struct FaultState {
    ops: u64,
    plan: FaultPlan,
    crashed: bool,
    injected: u64,
    /// How many of the injected faults tore or bit-flipped an append.
    append_faults: u64,
}

/// A deterministic fault-injecting backend over the real filesystem.
///
/// All clones share one operation counter and plan, so the injector spans
/// every process directory of a harness. After the plan's crash point
/// fires, every operation fails until the state is inspected and the
/// harness restarts from the surviving files with a fresh backend.
#[derive(Debug, Clone)]
pub struct FaultFs {
    state: Arc<Mutex<FaultState>>,
    inner: StdFs,
}

/// The operation kinds a fault can attach to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Write,
    Append,
    Rename,
    Other,
}

impl FaultFs {
    /// A fault injector over the real filesystem, driven by `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            state: Arc::new(Mutex::new(FaultState {
                ops: 0,
                plan,
                crashed: false,
                injected: 0,
                append_faults: 0,
            })),
            inner: StdFs,
        }
    }

    /// Operations executed so far across all clones.
    pub fn ops_executed(&self) -> u64 {
        self.state.lock().expect("fault state").ops
    }

    /// Whether the plan's crash point has fired.
    pub fn has_crashed(&self) -> bool {
        self.state.lock().expect("fault state").crashed
    }

    /// Number of faults actually injected (a fault keyed to an operation
    /// of the wrong kind does not fire).
    pub fn faults_injected(&self) -> u64 {
        self.state.lock().expect("fault state").injected
    }

    /// Number of torn or bit-flipped **appends** among the injected faults.
    pub fn append_faults_injected(&self) -> u64 {
        self.state.lock().expect("fault state").append_faults
    }

    /// Admits a `write` or `append` of `bytes`; returns what reaches the
    /// media (a prefix, or one bit off, under the faults that say so).
    fn admit_bytes<'a>(&self, kind: OpKind, bytes: &'a [u8]) -> io::Result<Cow<'a, [u8]>> {
        Ok(match self.admit(kind)? {
            Some(FaultKind::TornWrite) => Cow::Borrowed(&bytes[..bytes.len() / 2]),
            Some(FaultKind::BitFlip) if !bytes.is_empty() => {
                let mut corrupted = bytes.to_vec();
                // Deterministic victim bit derived from the payload length.
                let byte = corrupted.len() / 2;
                corrupted[byte] ^= 1 << (corrupted.len() % 8);
                Cow::Owned(corrupted)
            }
            _ => Cow::Borrowed(bytes),
        })
    }

    /// Ticks the operation clock; returns the fault to apply, if any.
    ///
    /// # Errors
    ///
    /// The injected-crash error once the crash point has fired, or an
    /// injected transient error.
    fn admit(&self, kind: OpKind) -> io::Result<Option<FaultKind>> {
        let mut st = self.state.lock().expect("fault state");
        if st.crashed {
            return Err(crash_error());
        }
        let op = st.ops;
        if let Some(stop) = st.plan.stop_after {
            if op >= stop {
                st.crashed = true;
                return Err(crash_error());
            }
        }
        st.ops += 1;
        match st.plan.faults.get(&op).copied() {
            Some(FaultKind::TransientEio) => {
                st.injected += 1;
                Err(io::Error::from_raw_os_error(libc_eio()))
            }
            Some(FaultKind::TransientEnospc) => {
                st.injected += 1;
                Err(io::Error::from_raw_os_error(libc_enospc()))
            }
            Some(f @ FaultKind::TornWrite) | Some(f @ FaultKind::BitFlip)
                if matches!(kind, OpKind::Write | OpKind::Append) =>
            {
                st.injected += 1;
                st.append_faults += u64::from(kind == OpKind::Append);
                st.crashed = true; // this op "succeeds", then the machine dies
                Ok(Some(f))
            }
            Some(f @ FaultKind::LostRename) if kind == OpKind::Rename => {
                st.injected += 1;
                st.crashed = true;
                Ok(Some(f))
            }
            _ => Ok(None),
        }
    }
}

/// The marker error every post-crash operation returns.
fn crash_error() -> io::Error {
    io::Error::other("injected crash: backend stopped at its planned operation")
}

const fn libc_eio() -> i32 {
    5
}

const fn libc_enospc() -> i32 {
    28
}

impl StorageBackend for FaultFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.admit(OpKind::Other)?;
        self.inner.create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.admit(OpKind::Other)?;
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner
            .write(path, &self.admit_bytes(OpKind::Write, bytes)?)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner
            .append(path, &self.admit_bytes(OpKind::Append, bytes)?)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.admit(OpKind::Other)?;
        self.inner.fsync(path)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.admit(OpKind::Other)?;
        self.inner.fsync_dir(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.admit(OpKind::Rename)? {
            Some(FaultKind::LostRename) => Ok(()),
            _ => self.inner.rename(from, to),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.admit(OpKind::Other)?;
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.admit(OpKind::Other)?;
        self.inner.list(dir)
    }
}

/// Whether an I/O error is worth a bounded retry: interrupted calls,
/// timeouts, and the `EIO`/`ENOSPC`/`EAGAIN` family that storage layers
/// surface for conditions that often clear (device hiccup, space freed by
/// concurrent garbage collection).
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    ) || matches!(e.raw_os_error(), Some(code) if code == libc_eio() || code == libc_enospc() || code == 11)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "rdt-backend-test-{}-{tag}-{seq}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn stdfs_round_trips_and_lists() {
        let dir = scratch("std");
        let fs_ = StdFs;
        fs_.write(&dir.join("a.bin"), b"hello").unwrap();
        fs_.fsync(&dir.join("a.bin")).unwrap();
        fs_.rename(&dir.join("a.bin"), &dir.join("b.bin")).unwrap();
        fs_.fsync_dir(&dir).unwrap();
        assert_eq!(fs_.read(&dir.join("b.bin")).unwrap(), b"hello");
        assert_eq!(fs_.list(&dir).unwrap(), vec!["b.bin".to_string()]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn crash_point_stops_every_later_operation() {
        let dir = scratch("crash");
        let f = FaultFs::new(FaultPlan::crash_after(2));
        f.write(&dir.join("a"), b"x").unwrap(); // op 0
        f.write(&dir.join("b"), b"y").unwrap(); // op 1
        assert!(!f.has_crashed());
        assert!(f.write(&dir.join("c"), b"z").is_err()); // op 2: crash fires
        assert!(f.has_crashed());
        assert!(
            f.read(&dir.join("a")).is_err(),
            "crashed backends stay down"
        );
        assert_eq!(f.ops_executed(), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_write_keeps_a_prefix_then_crashes() {
        let dir = scratch("torn");
        let f = FaultFs::new(FaultPlan::none().with_fault(0, FaultKind::TornWrite));
        f.write(&dir.join("t"), b"0123456789").unwrap();
        // The torn bytes are on "media"; the machine is dead.
        assert_eq!(StdFs.read(&dir.join("t")).unwrap(), b"01234");
        assert_eq!(f.faults_injected(), 1);
        assert!(f.has_crashed());
        assert!(f.read(&dir.join("t")).is_err());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit_then_crashes() {
        let dir = scratch("flip");
        let f = FaultFs::new(FaultPlan::none().with_fault(0, FaultKind::BitFlip));
        f.write(&dir.join("t"), b"0123456789").unwrap();
        let got = StdFs.read(&dir.join("t")).unwrap();
        let diff: u32 = got
            .iter()
            .zip(b"0123456789")
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
        assert!(f.has_crashed());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn appends_extend_the_file_and_tear_or_flip_like_writes() {
        let dir = scratch("append");
        let path = dir.join("log");
        let plan = FaultPlan::none().with_fault(2, FaultKind::TornWrite);
        let f = FaultFs::new(plan);
        f.append(&path, b"01234").unwrap(); // op 0: creates the file
        f.append(&path, b"56789").unwrap(); // op 1
        f.append(&path, b"abcdef").unwrap(); // op 2: torn, then dead
        assert_eq!(StdFs.read(&path).unwrap(), b"0123456789abc");
        assert!(f.has_crashed());
        assert_eq!((f.faults_injected(), f.append_faults_injected()), (1, 1));

        // A flipped bit lands in the appended bytes, not in what was there.
        let f = FaultFs::new(FaultPlan::none().with_fault(0, FaultKind::BitFlip));
        f.append(&path, b"ghij").unwrap();
        let got = StdFs.read(&path).unwrap();
        assert_eq!(&got[..13], b"0123456789abc");
        let diff: u32 = got[13..]
            .iter()
            .zip(b"ghij")
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!((got.len(), diff), (17, 1));
        assert_eq!(f.append_faults_injected(), 1);

        // A fault on a plain write is not an append fault.
        let f = FaultFs::new(FaultPlan::none().with_fault(0, FaultKind::TornWrite));
        f.write(&path, b"xy").unwrap();
        assert_eq!((f.faults_injected(), f.append_faults_injected()), (1, 0));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn lost_rename_leaves_the_target_absent_then_crashes() {
        let dir = scratch("rename");
        let f = FaultFs::new(FaultPlan::none().with_fault(1, FaultKind::LostRename));
        f.write(&dir.join("tmp"), b"x").unwrap(); // op 0
        f.rename(&dir.join("tmp"), &dir.join("final")).unwrap(); // op 1: lost
        assert!(StdFs.read(&dir.join("final")).is_err());
        assert!(StdFs.read(&dir.join("tmp")).is_ok(), "source survives");
        assert!(
            f.has_crashed(),
            "a rename is only lost because the machine died"
        );
        assert!(
            f.remove(&dir.join("tmp")).is_err(),
            "no operation can follow"
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn transient_faults_fail_once_then_clear() {
        let dir = scratch("transient");
        let f = FaultFs::new(FaultPlan::none().with_fault(0, FaultKind::TransientEio));
        let err = f.write(&dir.join("t"), b"x").unwrap_err();
        assert!(is_transient(&err));
        f.write(&dir.join("t"), b"x").unwrap(); // next op passes
        assert!(!f.has_crashed());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn crash_errors_are_not_transient() {
        assert!(!is_transient(&crash_error()));
    }

    #[test]
    fn clones_share_the_operation_clock() {
        let dir = scratch("clock");
        let a = FaultFs::new(FaultPlan::none());
        let b = a.clone();
        a.write(&dir.join("a"), b"x").unwrap();
        b.write(&dir.join("b"), b"y").unwrap();
        assert_eq!(a.ops_executed(), 2);
        assert_eq!(b.ops_executed(), 2);
        fs::remove_dir_all(dir).unwrap();
    }
}
