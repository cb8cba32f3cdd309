//! Deterministic execution of [`Script`]s through the engines' step core.
//!
//! A script is a schedule whose deliveries sit where the script puts them:
//! each [`ScriptOp`] is one [`StepCore`] event, so a figure replays the
//! same checkpoint / send / receive handlers the simulators run.

use rdt_base::{DvEntry, MessageId, ProcessId, Result, TraceEvent};
use rdt_core::GcKind;
use rdt_protocols::{Middleware, Piggyback, ProtocolKind};
use rdt_workloads::{Script, ScriptOp};

use crate::metrics::MetricOp;
use crate::step::{Sink, StepCore};

/// Outcome of running a script.
#[derive(Debug)]
pub struct ScriptRun {
    /// The middleware instances after the run, in process-id order.
    pub processes: Vec<Middleware>,
    /// The event trace (checkpoints including forced ones, sends,
    /// deliveries, collects), replayable into an offline CCP.
    pub trace: Vec<TraceEvent>,
    /// Every checkpoint eliminated during the run, as
    /// `(process, checkpoint index)` pairs in elimination order.
    pub eliminated: Vec<(ProcessId, usize)>,
}

impl ScriptRun {
    /// Retained checkpoint indices of process `p`, ascending.
    pub fn retained(&self, p: ProcessId) -> Vec<usize> {
        self.processes[p.index()]
            .store()
            .indices()
            .map(|i| i.value())
            .collect()
    }

    /// Peak simultaneous retention of process `p`.
    pub fn peak(&self, p: ProcessId) -> usize {
        self.processes[p.index()].store().peak()
    }
}

/// A script keeps its trace and nothing else: it has no clock and no
/// metrics.
impl Sink for Vec<TraceEvent> {
    fn trace(&mut self, event: TraceEvent, _lineage: Option<DvEntry>) {
        self.push(event);
    }

    fn metric(&mut self, _op: MetricOp) {}

    fn occupancy(&mut self, _at: u64, _p: ProcessId, _retained: usize) {}
}

/// Runs `script` over `n` fresh processes with the given protocol and
/// collector. Deliveries happen exactly where the script places them.
///
/// # Errors
///
/// Propagates middleware errors (scripts over live processes do not
/// produce any).
///
/// # Panics
///
/// Panics if the script delivers a send ordinal twice.
///
/// ```
/// use rdt_base::ProcessId;
/// use rdt_core::GcKind;
/// use rdt_protocols::ProtocolKind;
/// use rdt_sim::run_script;
/// use rdt_workloads::figures::figure5_worst_case;
///
/// let n = 4;
/// let run = run_script(n, &figure5_worst_case(n), ProtocolKind::Fdas, GcKind::RdtLgc)
///     .expect("script runs");
/// // The paper's tight bound: every process retains exactly n checkpoints.
/// for i in 0..n {
///     assert_eq!(run.retained(ProcessId::new(i)).len(), n);
/// }
/// ```
pub fn run_script(
    n: usize,
    script: &Script,
    protocol: ProtocolKind,
    gc: GcKind,
) -> Result<ScriptRun> {
    run_script_with(n, script, protocol, gc, |_, _| {})
}

/// [`run_script`], calling `each` after every op with the op and every
/// process's middleware.
///
/// # Errors
///
/// As [`run_script`].
///
/// # Panics
///
/// As [`run_script`].
pub fn run_script_with(
    n: usize,
    script: &Script,
    protocol: ProtocolKind,
    gc: GcKind,
    mut each: impl FnMut(&ScriptOp, &[Middleware]),
) -> Result<ScriptRun> {
    // Scripts have no clock: every event runs at tick 0, where no
    // collector's timer fires.
    const NOW: u64 = 0;
    let mut core = StepCore::new(ProcessId::all(n), n, protocol, gc, 0);
    let mut trace = Vec::new();
    // Per send ordinal: (id, destination, piggyback), consumed on delivery.
    let mut sends: Vec<Option<(MessageId, ProcessId, Piggyback)>> = Vec::new();

    for op in script.ops() {
        match *op {
            ScriptOp::Checkpoint(p) => {
                core.checkpoint(p, NOW, &mut trace)?;
            }
            ScriptOp::Send { from, to } => {
                let (id, pb) = core
                    .send(from, to, NOW, &mut trace)
                    .expect("scripts never crash a process");
                sends.push(Some((id, to, pb)));
            }
            ScriptOp::Deliver { send_ordinal } => {
                let (id, to, pb) = sends[send_ordinal]
                    .take()
                    .expect("script delivers each send at most once");
                core.deliver(to, id, &pb, NOW, &mut trace)?;
            }
        }
        each(op, core.processes());
    }

    // Undelivered sends are in-transit: mark them dropped so offline replay
    // excludes them from the dependency relation explicitly.
    for (id, ..) in sends.into_iter().flatten() {
        trace.push(TraceEvent::Drop { id });
    }

    let eliminated = trace
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Collect { process, index } => Some((process, index.value())),
            _ => None,
        })
        .collect();
    Ok(ScriptRun {
        processes: core.into_processes(),
        trace,
        eliminated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdt_workloads::figures::{
        figure2_script, figure4_expectations, figure4_script, figure5_worst_case,
    };

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn figure4_run_matches_expectations() {
        let run = run_script(3, &figure4_script(), ProtocolKind::Fdas, GcKind::RdtLgc).unwrap();
        let expect = figure4_expectations();
        let eliminated: Vec<(usize, usize)> = run
            .eliminated
            .iter()
            .map(|(proc_, idx)| (proc_.index(), *idx))
            .collect();
        assert_eq!(eliminated, expect.eliminated);
        for (i, retained) in expect.retained.iter().enumerate() {
            assert_eq!(&run.retained(p(i)), retained, "process {}", i + 1);
        }
        // FDAS forces nothing on this script.
        assert!(run.processes.iter().all(|mw| mw.forced_count() == 0));
    }

    #[test]
    fn figure5_reaches_the_tight_bound() {
        for n in 2..6 {
            let run = run_script(
                n,
                &figure5_worst_case(n),
                ProtocolKind::Fdas,
                GcKind::RdtLgc,
            )
            .unwrap();
            for i in 0..n {
                assert_eq!(run.retained(p(i)).len(), n, "n = {n}");
            }
            // One more checkpoint per process: transient n+1, then back to n
            // (the paper's "n collected, n² remain stored").
            let mut processes = run.processes;
            for mw in processes.iter_mut() {
                mw.basic_checkpoint().unwrap();
                assert_eq!(mw.store().peak(), n + 1, "n = {n}");
                assert_eq!(mw.store().len(), n, "n = {n}");
            }
        }
    }

    /// Every protocol on every figure script: the trace holds every
    /// checkpoint the middlewares stored — forced ones after a send (CAS,
    /// CASBR) included — and every collect it holds is safe.
    #[test]
    fn traces_replay_every_checkpoint_and_audit_clean() {
        let scripts = [
            (2, figure2_script()),
            (3, figure4_script()),
            (4, figure5_worst_case(4)),
        ];
        for protocol in ProtocolKind::ALL {
            for (n, script) in &scripts {
                let run = run_script(*n, script, protocol, GcKind::RdtLgc).unwrap();
                let ccp = rdt_ccp::CcpBuilder::from_trace(*n, &run.trace)
                    .expect("crash-free trace")
                    .build();
                for mw in &run.processes {
                    assert_eq!(
                        ccp.last_stable(mw.owner()),
                        mw.last_stable(),
                        "{protocol}, n = {n}, {}",
                        mw.owner()
                    );
                }
                let violations = rdt_ccp::collection_safety_violations(*n, &run.trace).unwrap();
                assert!(violations.is_empty(), "{protocol}, n = {n}: {violations:?}");
            }
        }
    }

    /// Figure 4's trace is RD-trackable and holds the paper's collects, so
    /// the audit above is not vacuous.
    #[test]
    fn trace_replays_into_an_rdt_ccp() {
        let run = run_script(3, &figure4_script(), ProtocolKind::Fdas, GcKind::RdtLgc).unwrap();
        let ccp = rdt_ccp::CcpBuilder::from_trace(3, &run.trace)
            .expect("crash-free trace")
            .build();
        assert!(ccp.is_rdt());
        // s_2^2, s_3^1 and s_3^2 in the paper's one-based process names.
        for (proc_, idx) in [(1, 2), (2, 1), (2, 2)] {
            let collect = TraceEvent::Collect {
                process: p(proc_),
                index: rdt_base::CheckpointIndex::new(idx),
            };
            assert!(run.trace.contains(&collect), "{collect:?}");
        }
    }

    #[test]
    fn undelivered_sends_are_dropped_in_trace() {
        let mut script = Script::new();
        script.send(p(0), p(1));
        let run = run_script(2, &script, ProtocolKind::Fdas, GcKind::RdtLgc).unwrap();
        assert!(matches!(run.trace.last(), Some(TraceEvent::Drop { .. })));
    }
}
