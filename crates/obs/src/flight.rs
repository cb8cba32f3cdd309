//! The process event log: whole JSONL lines, appended to a file the moment
//! they happen.
//!
//! The log is process-wide and off until [`install`]ed (serve workers
//! install one per rank). Nothing filters it: what goes in is whatever
//! lines the caller [`record`]s — a `LiveNode` records the trace lines of
//! each operation it performs, as its sink renders the step core's trace
//! events, in one record per operation.
//!
//! Durability model: each [`record`] hands its text to the kernel in one
//! `write_all` on an unbuffered file. Nothing waits in the process, so a
//! SIGKILL loses no line the process finished writing — the page cache
//! keeps it — and can tear at most the one it was writing, which a reader
//! drops as the log's torn tail. A failed write is kept (the first one)
//! for the owner to [`take_error`]: a log that silently missed a line
//! would no longer be the process's history.

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

#[derive(Debug, Default)]
struct Recorder {
    log: Option<(PathBuf, File)>,
    error: Option<std::io::Error>,
}

static INSTALLED: AtomicBool = AtomicBool::new(false);

fn recorder() -> MutexGuard<'static, Recorder> {
    static CELL: OnceLock<Mutex<Recorder>> = OnceLock::new();
    CELL.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Installs the process-wide event log at `path`, created or truncated.
/// Replaces any previously installed log. `_capacity` is unused: the log
/// keeps every line. If the file cannot be opened, nothing is installed
/// and the error waits in [`take_error`].
pub fn install(path: impl AsRef<Path>, _capacity: usize) {
    let path = path.as_ref().to_path_buf();
    let mut rec = recorder();
    rec.log = match File::create(&path) {
        Ok(file) => Some((path, file)),
        Err(e) => {
            rec.error.get_or_insert(e);
            None
        }
    };
    INSTALLED.store(rec.log.is_some(), Ordering::Release);
}

/// Whether a log is installed (one atomic load — the fast path for call
/// sites that render lines only to record them).
#[inline]
pub fn enabled() -> bool {
    INSTALLED.load(Ordering::Acquire)
}

/// Appends `lines` — whole lines, each ending in a newline — in one write
/// (no-op when not installed).
pub fn record(lines: &str) {
    if !enabled() {
        return;
    }
    let mut rec = recorder();
    let Recorder { log, error } = &mut *rec;
    if let Some((_, file)) = log {
        if let Err(e) = file.write_all(lines.as_bytes()) {
            error.get_or_insert(e);
        }
    }
}

/// Removes and returns the first open or write error since the last call.
pub fn take_error() -> Option<std::io::Error> {
    recorder().error.take()
}

/// Removes the log, returning its path. Every line is already in the file.
pub fn uninstall() -> Option<PathBuf> {
    let mut rec = recorder();
    INSTALLED.store(false, Ordering::Release);
    rec.log.take().map(|(path, _)| path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> String {
        format!("{{\"i\":{i}}}\n")
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rdt_flight_{}_{name}.jsonl", std::process::id()))
    }

    // The log is process-global, so the scenarios run as one test to
    // avoid cross-test interference under the parallel test runner.
    #[test]
    fn every_event_is_on_disk_when_record_returns() {
        let path = temp_path("log");
        std::fs::write(&path, "left over\n").unwrap();
        install(&path, 8);
        assert!(enabled());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "", "truncated");
        for i in 0..100 {
            record(&sample(i));
            // No flush: the line is in the file as soon as record returns.
            let body = std::fs::read_to_string(&path).unwrap();
            assert_eq!(body.lines().count() as u64, i + 1);
            let last = crate::json::parse(body.lines().last().unwrap()).unwrap();
            assert_eq!(last.get("i").unwrap().as_u64(), Some(i));
        }
        assert!(take_error().is_none());

        // Reinstalling starts a fresh log; the old one keeps its lines.
        let path2 = temp_path("log2");
        install(&path2, 0);
        record(&sample(7));
        assert_eq!(std::fs::read_to_string(&path2).unwrap().lines().count(), 1);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 100);

        assert_eq!(uninstall(), Some(path2.clone()));
        assert!(!enabled());
        record(&sample(1)); // no-op, must not panic
        assert_eq!(std::fs::read_to_string(&path2).unwrap().lines().count(), 1);

        // A log that cannot be opened installs nothing and reports once.
        install(temp_path("missing").join("log.jsonl"), 0);
        assert!(!enabled());
        assert!(take_error().is_some());
        assert!(take_error().is_none());

        // A failed write is kept until taken; the first one wins.
        #[cfg(target_os = "linux")]
        {
            install("/dev/full", 0);
            record(&sample(1));
            record(&sample(2));
            let e = take_error().expect("a write to a full device fails");
            assert_eq!(e.raw_os_error(), Some(28), "ENOSPC: {e}");
            assert!(take_error().is_none());
            uninstall();
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path2);
    }
}
