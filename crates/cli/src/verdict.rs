//! The verdict on a live run: its merged trace against its processes.
//!
//! `rdt serve` judges the processes it rebuilds from their stores, the
//! in-process worker oracle the nodes it stepped, both through [`judge`].

use rdt_base::{CheckpointId, ProcessId, TraceEvent};
use rdt_ccp::{collection_safety_violations, missed_at_the_end, CcpBuilder};
use rdt_env::Storage;
use rdt_protocols::Middleware;
use rdt_recovery::{FaultySet, RecoveryManager};

/// What a run's merged trace says against its processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The recovery line the online session chose, every process faulty.
    pub online: Vec<usize>,
    /// The offline `rdt-ccp` oracle's line over the trace.
    pub offline: Vec<usize>,
    /// Logged collects of a checkpoint that was not obsolete (Theorem 4).
    pub gc_violations: Vec<CheckpointId>,
    /// Checkpoints the processes retain at the trace's end that no process
    /// witnesses (Theorem 5); `None` where that end is not the processes'
    /// (a chaos cycle's resumed segment went through a recovery session).
    pub gc_missed: Option<usize>,
}

/// Judges `trace`, the merged history of `processes` in the oracle's
/// vocabulary: audits every collect in it (Theorem 4) and what the
/// processes retain at its end (Theorem 5), then runs a full recovery
/// session over them (every process faulty) beside the offline oracle's
/// line.
///
/// # Errors
///
/// A trace the audits or the oracle cannot replay, or a failed session.
pub fn judge<S: Storage>(
    trace: &[TraceEvent],
    processes: &mut [Middleware<S>],
) -> Result<Verdict, String> {
    let n = processes.len();
    let gc_violations =
        collection_safety_violations(n, trace).map_err(|e| format!("GC audit failed: {e}"))?;
    let faulty: FaultySet = ProcessId::all(n).collect();
    let offline = CcpBuilder::from_trace(n, trace)
        .map_err(|e| format!("oracle replay failed: {e}"))?
        .build()
        .recovery_line(&faulty)
        .to_raw();
    let retained: Vec<Vec<usize>> = processes
        .iter()
        .map(|mw| mw.store().indices().map(|c| c.value()).collect())
        .collect();
    let gc_missed = missed_at_the_end(n, trace, &retained)
        .map_err(|e| format!("Theorem 5 audit failed: {e}"))?;
    let session = RecoveryManager::new()
        .recover(processes, &faulty)
        .map_err(|e| format!("online recovery failed: {e}"))?;
    Ok(Verdict {
        online: session.line.iter().map(|c| c.value()).collect(),
        offline,
        gc_violations,
        gc_missed: Some(gc_missed),
    })
}
