//! Deterministic execution of [`Script`]s through the engines' step core.
//!
//! A script is a schedule whose deliveries sit where the script puts them:
//! each [`ScriptOp`] is one [`StepCore`] event, so a figure replays the
//! same checkpoint / send / receive handlers the simulators run, over
//! volatile processes or over any other [`Storage`]. Its clock is the op's
//! position: op `k` runs at tick `k + 1`, which only the time-based
//! collector reads.

use rdt_base::{DvEntry, Error, MessageId, ProcessId, Result, TraceEvent};
use rdt_core::GcKind;
use rdt_env::{Storage, Volatile};
use rdt_protocols::{Middleware, Piggyback, ProtocolKind};
use rdt_workloads::{Script, ScriptOp};

use crate::metrics::MetricOp;
use crate::step::{Sink, StepCore};

/// Outcome of running a script.
#[derive(Debug)]
pub struct ScriptRun<S: Storage = Volatile> {
    /// The middleware instances after the run, in process-id order.
    pub processes: Vec<Middleware<S>>,
    /// The event trace (checkpoints including forced ones, sends,
    /// deliveries, collects), replayable into an offline CCP.
    pub trace: Vec<TraceEvent>,
    /// Every checkpoint eliminated during the run, as
    /// `(process, checkpoint index)` pairs in elimination order.
    pub eliminated: Vec<(ProcessId, usize)>,
}

impl<S: Storage> ScriptRun<S> {
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

/// A script keeps its trace and nothing else: it has no metrics.
impl Sink for Vec<TraceEvent> {
    fn trace(&mut self, event: TraceEvent, _lineage: Option<DvEntry>) {
        self.push(event);
    }

    fn metric(&mut self, _op: MetricOp) {}

    fn occupancy(&mut self, _at: u64, _p: ProcessId, _retained: usize) {}
}

/// Runs `script` over `n` fresh volatile processes with the given
/// protocol and collector. Deliveries happen exactly where the script
/// places them.
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
    let processes = ProcessId::all(n)
        .map(|p| Middleware::new(p, n, protocol, gc))
        .collect();
    run_script_with(processes, script, |_, _, _| {})
}

/// [`run_script`] over `processes` — every process of the system, in
/// process-id order, over any storage — calling `each` after every op
/// with the op, the processes and the trace so far.
///
/// # Errors
///
/// As [`run_script`], and [`Error::Storage`] with the first commit a
/// process's sink failed: like a live worker, the run stops at the op
/// whose commit failed.
///
/// # Panics
///
/// As [`run_script`].
pub fn run_script_with<S: Storage>(
    processes: Vec<Middleware<S>>,
    script: &Script,
    mut each: impl FnMut(&ScriptOp, &[Middleware<S>], &[TraceEvent]),
) -> Result<ScriptRun<S>> {
    let n = processes.len();
    let mut core = StepCore::over(processes, n);
    let mut trace = Vec::new();
    // Per send ordinal: (id, destination, piggyback), consumed on delivery.
    let mut sends: Vec<Option<(MessageId, ProcessId, Piggyback)>> = Vec::new();

    for (k, op) in script.ops().iter().enumerate() {
        let now = k as u64 + 1;
        let touched = match *op {
            ScriptOp::Checkpoint(p) => {
                core.checkpoint(p, now, &mut trace)?;
                p
            }
            ScriptOp::Send { from, to } => {
                let (id, pb) = core
                    .send(from, to, now, &mut trace)
                    .expect("scripts never crash a process");
                sends.push(Some((id, to, pb)));
                from
            }
            ScriptOp::Deliver { send_ordinal } => {
                let (id, to, pb) = sends[send_ordinal]
                    .take()
                    .expect("script delivers each send at most once");
                core.deliver(to, id, &pb, now, &mut trace)?;
                to
            }
        };
        if let Some(e) = core.processes_mut()[touched.index()].take_sink_error() {
            return Err(Error::Storage(e));
        }
        each(op, core.processes(), &trace);
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

    /// A script's clock is its op count: a collector that discards what is
    /// older than one tick collects as the script goes.
    #[test]
    fn op_k_runs_at_tick_k_plus_one() {
        let mut script = Script::new();
        for _ in 0..4 {
            script.checkpoint(p(0));
        }
        let gc = GcKind::TimeBased { horizon: 1 };
        let run = run_script(2, &script, ProtocolKind::Fdas, gc).unwrap();
        assert!(!run.eliminated.is_empty());
        let run = run_script(2, &script, ProtocolKind::Fdas, GcKind::None).unwrap();
        assert!(run.eliminated.is_empty());
    }

    /// A sink whose commits fail once `ok` of them succeeded.
    #[derive(Debug)]
    struct FailingSink {
        ok: usize,
    }

    impl Storage for FailingSink {
        type Error = &'static str;

        fn commit(
            &mut self,
            _store: &rdt_core::CheckpointStore,
        ) -> std::result::Result<(), &'static str> {
            self.ok = self.ok.checked_sub(1).ok_or("disk gone")?;
            Ok(())
        }

        fn wal_incarnation(
            &mut self,
            _incarnation: rdt_base::Incarnation,
        ) -> std::result::Result<(), &'static str> {
            Ok(())
        }
    }

    /// Like a live worker, the runner stops at the op whose commit failed.
    #[test]
    fn a_failed_commit_stops_the_run_at_its_op() {
        let processes = ProcessId::all(2)
            .map(|q| {
                let sink = FailingSink { ok: 1 };
                Middleware::with_storage(q, 2, ProtocolKind::Fdas, GcKind::RdtLgc, sink)
            })
            .collect();
        let mut script = Script::new();
        script.send(p(0), p(1));
        script.checkpoint(p(0));
        script.checkpoint(p(1));
        let mut ran = 0;
        let run = run_script_with(processes, &script, |_, _, _| ran += 1);
        assert!(matches!(run, Err(Error::Storage(e)) if e == "disk gone"));
        assert_eq!(ran, 1, "only the send, which commits nothing, completed");
    }

    #[test]
    fn undelivered_sends_are_dropped_in_trace() {
        let mut script = Script::new();
        script.send(p(0), p(1));
        let run = run_script(2, &script, ProtocolKind::Fdas, GcKind::RdtLgc).unwrap();
        assert!(matches!(run.trace.last(), Some(TraceEvent::Drop { .. })));
    }
}
