//! The one restart path of a durable process: `rdt serve`'s resumed
//! workers, its recovery-line check and `rdt torture`'s probes all come
//! back from disk through [`restart`].

use std::path::Path;

use rdt_base::ProcessId;
use rdt_core::GcKind;
use rdt_protocols::{Middleware, ProtocolKind};
use rdt_storage::{DiskSink, DurableStore, RestartReport};

/// Restarts process `me` of an `n`-process system from the durable store
/// in `dir`: rebuilds its stable store from the surviving log and wraps it
/// in a crashed `Middleware` whose sink is that store, so the recovery
/// that follows commits to the same disk. Returns it with what the
/// rebuild found.
///
/// # Errors
///
/// A log that cannot be read or rebuilt, or one that holds no checkpoint
/// to anchor a recovery.
pub fn restart(
    dir: &Path,
    me: ProcessId,
    n: usize,
    protocol: ProtocolKind,
    gc: GcKind,
) -> Result<(Middleware<DiskSink>, RestartReport), String> {
    let disk = DurableStore::open(dir, me).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (store, report) = disk
        .rebuild_reported()
        .map_err(|e| format!("rebuilding {}: {e}", dir.display()))?;
    if store.is_empty() {
        return Err(format!(
            "{}: no surviving checkpoint to anchor recovery",
            dir.display()
        ));
    }
    let sink = DiskSink::over(disk);
    let mw = Middleware::from_store_with(me, n, protocol, gc, store, sink);
    Ok((mw, report))
}
