//! The per-process step core: the single implementation of the paper's
//! three per-process events — checkpoint, send, receive (Algorithms 1–2) —
//! and of each process's share of the two stop-the-world events (control
//! round; recovery session, Algorithm 3), driven by both engines and by
//! every live node.
//!
//! The core owns middlewares and nothing else: it never schedules, never
//! draws randomness and never looks at a queue. Its callers decide *when*
//! an event runs and *what happens to the message afterwards* — the
//! sequential [`Simulation`](crate::Simulation) by drawing from the run's
//! `Schedule`, a shard worker by reading the plan drawn from it, a
//! [`LiveNode`](crate::LiveNode) (a core of one process over any storage)
//! when its caller asks — and where a send's piggyback goes: into a queue
//! on the same thread, as a copy of its vector and index to the shard that
//! owns the receiver, or encoded into a wire frame.
//!
//! **The one invariant both callers rely on:** every observable — trace
//! event, metric mutation, occupancy sample — leaves through the [`Sink`],
//! in handler order, and nothing else does. The sequential engine's sink
//! applies each one on the spot. A shard worker's sink folds every metric
//! op into its own metrics in place, and keys the rest under the event's
//! global `(at, seq)` key for the coordinator to merge: trace events and
//! occupancy samples when they are recorded, and each change of a
//! process's retained count (for the global retained peak). Because the
//! calls are the same calls in the same order, the two engines agree byte
//! for byte without a second copy of any handler to keep in step. A live
//! node's sink renders the trace events as its event-log lines, with the
//! lineage of each send and delivery, and counts what they did.

use rdt_base::{
    CheckpointIndex, DependencyVector, DvEntry, Incarnation, MessageId, ProcessId, Result,
    TraceEvent,
};
use rdt_core::{ControlInfo, GcKind, LastIntervals};
use rdt_env::{Storage, Volatile};
use rdt_protocols::{CheckpointReport, Middleware, Piggyback, ProtocolKind, ReceiveReport};
use rdt_recovery::{
    FaultySet, LineSource, ProcessView, RecoveryError, RecoveryManager, RecoveryPlan,
    RecoverySessionReport, SessionOutcomes,
};

use crate::engine::SimulationReport;
use crate::metrics::{MetricOp, Metrics};

/// Where a step's observables go. Implementations decide whether traces
/// and occupancy samples are recorded at all.
pub(crate) trait Sink {
    /// Whether the sink keeps lineages: only then does the core read a
    /// send's or a delivery's.
    const LINEAGE: bool = false;
    /// A trace event; a send or a delivery carries its lineage iff
    /// [`LINEAGE`](Self::LINEAGE).
    fn trace(&mut self, event: TraceEvent, lineage: Option<DvEntry>);
    fn metric(&mut self, op: MetricOp);
    fn occupancy(&mut self, at: u64, p: ProcessId, retained: usize);
}

/// A piggyback in flight: a [`Piggyback`] as the sequential engine's queue
/// holds it, a [`Flight`] in a shard worker's, a vector and BCS index a
/// live node decoded from a frame.
pub(crate) trait Carried<S: Storage = Volatile> {
    fn receive_into(&self, mw: &mut Middleware<S>, report: &mut ReceiveReport) -> Result<()>;
}

impl<S: Storage> Carried<S> for Piggyback {
    fn receive_into(&self, mw: &mut Middleware<S>, report: &mut ReceiveReport) -> Result<()> {
        mw.receive_piggyback_into(self, report)
    }
}

/// A vector that crossed a thread or process boundary, with its BCS index:
/// merged as a bare vector, having no snapshot stamp.
impl<S: Storage> Carried<S> for (&DependencyVector, u64) {
    fn receive_into(&self, mw: &mut Middleware<S>, report: &mut ReceiveReport) -> Result<()> {
        mw.receive_vector_into(self.0, self.1, report)
    }
}

/// The piggyback of a message a shard worker will deliver, as its route
/// carries it.
pub(crate) enum Flight {
    /// Same shard: the sender's snapshot, like the sequential engine's
    /// queue holds it.
    Local(Piggyback),
    /// Across a barrier exchange: a copy of the vector and the BCS index,
    /// merged as a bare vector like a decoded frame. Boxed, so an event in
    /// a worker's queue stays the size of a local one.
    Remote(Box<(DependencyVector, u64)>),
}

impl Carried for Flight {
    fn receive_into(&self, mw: &mut Middleware, report: &mut ReceiveReport) -> Result<()> {
        match self {
            Flight::Local(pb) => pb.receive_into(mw, report),
            Flight::Remote(remote) => (&remote.0, remote.1).receive_into(mw, report),
        }
    }
}

/// The middlewares one engine thread owns — all of them in the sequential
/// engine, one shard's subset in a worker, a live node's one — plus the
/// reports reused across every event of a run (cleared, never
/// reallocated).
#[derive(Debug)]
pub(crate) struct StepCore<S: Storage = Volatile> {
    mws: Vec<Middleware<S>>,
    /// Process id → position in `mws` (`u32::MAX` for a process owned
    /// elsewhere).
    slot: Vec<u32>,
    receive: ReceiveReport,
    checkpoint: CheckpointReport,
    /// What the owned processes rolled back and eliminated in the session
    /// being applied; its buffers are reused from session to session.
    outcomes: SessionOutcomes,
}

impl StepCore {
    /// Mints the middlewares of `owned` (ascending) on the calling thread —
    /// they are `!Send`.
    pub(crate) fn new(
        owned: impl IntoIterator<Item = ProcessId>,
        n: usize,
        protocol: ProtocolKind,
        gc: GcKind,
        state_size: usize,
    ) -> Self {
        let mws = owned.into_iter().map(|p| {
            let mut mw = Middleware::new(p, n, protocol, gc);
            mw.set_state_size(state_size);
            mw
        });
        Self::over(mws.collect(), n)
    }
}

impl<S: Storage> StepCore<S> {
    /// A core over existing middlewares of an `n`-process system — a live
    /// node's one.
    pub(crate) fn over(mws: Vec<Middleware<S>>, n: usize) -> Self {
        let mut slot = vec![u32::MAX; n];
        for (i, mw) in mws.iter().enumerate() {
            slot[mw.owner().index()] = i as u32;
        }
        Self {
            mws,
            slot,
            receive: ReceiveReport::default(),
            checkpoint: CheckpointReport::default(),
            outcomes: SessionOutcomes::default(),
        }
    }

    /// The owned middlewares, ascending by process id.
    pub(crate) fn processes(&self) -> &[Middleware<S>] {
        &self.mws
    }

    /// The owned middlewares, mutably (a live node's rollback and sink).
    pub(crate) fn processes_mut(&mut self) -> &mut [Middleware<S>] {
        &mut self.mws
    }

    /// The owned middlewares, by value.
    pub(crate) fn into_processes(self) -> Vec<Middleware<S>> {
        self.mws
    }

    fn slot(&self, p: ProcessId) -> usize {
        self.slot[p.index()] as usize
    }

    /// Samples `p`'s stable-store occupancy.
    pub(crate) fn sample<K: Sink>(&self, p: ProcessId, now: u64, sink: &mut K) {
        let store = self.mws[self.slot(p)].store();
        let (retained, peak) = (store.len(), store.peak());
        sink.metric(MetricOp::Sample { p, retained, peak });
        sink.occupancy(now, p, retained);
    }

    /// Advances `p`'s garbage-collector clock to `now` (only the
    /// time-based baseline reacts).
    fn tick_process<K: Sink>(&mut self, p: ProcessId, now: u64, sink: &mut K) {
        let i = self.slot(p);
        let collected = self.mws[i].tick(now);
        if !collected.is_empty() {
            trace_collects(p, &collected, sink);
            self.sample(p, now, sink);
        }
    }

    /// A basic checkpoint of `p`; returns the stored index, `None` (and
    /// nothing done) while `p` is crashed.
    pub(crate) fn checkpoint<K: Sink>(
        &mut self,
        p: ProcessId,
        now: u64,
        sink: &mut K,
    ) -> Result<Option<CheckpointIndex>> {
        let i = self.slot(p);
        if self.mws[i].is_crashed() {
            return Ok(None);
        }
        self.tick_process(p, now, sink);
        self.mws[i].basic_checkpoint_into(&mut self.checkpoint)?;
        debug_assert_retained_bound(&self.mws[i]);
        trace_checkpoint(p, false, sink);
        trace_collects(p, &self.checkpoint.eliminated, sink);
        self.sample(p, now, sink);
        Ok(Some(self.checkpoint.stored))
    }

    /// A send from `from` to `to` with the piggyback the simulators
    /// deliver; `None` while `from` is crashed. The piggyback is minted
    /// before the send, because a post-send forced checkpoint (CAS, CASBR)
    /// opens the next interval; minting only fills a private snapshot
    /// cache, so whether it is delivered has no effect on protocol state.
    /// The message's fate (lost, queued, shipped to a peer shard) is the
    /// caller's scheduling decision.
    pub(crate) fn send<K: Sink>(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: u64,
        sink: &mut K,
    ) -> Option<(MessageId, Piggyback)> {
        let i = self.slot(from);
        let pb = (!self.mws[i].is_crashed()).then(|| self.mws[i].piggyback())?;
        let sent = self.send_encoded(from, to, now, sink, |id, _, _| (id, pb));
        sent.map(|(sent, _)| sent)
    }

    /// A send from `from` to `to` whose message `encode` serialises on the
    /// spot from its id, the vector and the BCS index as of the send event,
    /// borrowed: the send mints no snapshot. Returns what `encode` made and
    /// the post-send forced checkpoint, if any; `None` while `from` is
    /// crashed.
    pub(crate) fn send_encoded<R, K: Sink>(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: u64,
        sink: &mut K,
        encode: impl FnOnce(MessageId, &DependencyVector, u64) -> R,
    ) -> Option<(R, Option<CheckpointIndex>)> {
        let i = self.slot(from);
        if self.mws[i].is_crashed() {
            return None;
        }
        self.tick_process(from, now, sink);
        // The sender's own entry as the message carries it: a post-send
        // forced checkpoint moves it on.
        let own = K::LINEAGE.then(|| self.mws[i].dv().lineage(from));
        let ((id, out), forced) =
            self.mws[i].send_with(|id, dv, index| (id, encode(id, dv, index)));
        sink.metric(MetricOp::Sent(from));
        sink.trace(TraceEvent::Send { id, to }, own);
        if let Some(ck) = &forced {
            trace_checkpoint(from, true, sink);
            trace_collects(from, &ck.eliminated, sink);
            self.sample(from, now, sink);
        }
        Some((out, forced.map(|ck| ck.stored)))
    }

    /// Delivery of message `id` to `to`; returns what the receive did,
    /// `None` if `to` is crashed, which loses the message.
    pub(crate) fn deliver<C: Carried<S>, K: Sink>(
        &mut self,
        to: ProcessId,
        id: MessageId,
        pb: &C,
        now: u64,
        sink: &mut K,
    ) -> Result<Option<&ReceiveReport>> {
        let i = self.slot(to);
        if self.mws[i].is_crashed() {
            lose(to, id, sink);
            return Ok(None);
        }
        self.tick_process(to, now, sink);
        pb.receive_into(&mut self.mws[i], &mut self.receive)?;
        debug_assert_retained_bound(&self.mws[i]);
        sink.metric(MetricOp::Delivered(to));
        if self.receive.forced.is_some() {
            trace_checkpoint(to, true, sink);
        }
        // The receiver's entry for the sender after the merge: never older
        // (lexicographic on incarnation, then interval) than what the
        // message carried, which the merge of live logs checks.
        let learned = K::LINEAGE.then(|| self.mws[i].dv().lineage(id.sender));
        sink.trace(TraceEvent::Deliver { id }, learned);
        trace_collects(to, &self.receive.eliminated, sink);
        self.sample(to, now, sink);
        Ok(Some(&self.receive))
    }

    /// `p`'s share of a control round: the coordinator's information, if
    /// the collector consumes any, then a sample.
    pub(crate) fn control<K: Sink>(
        &mut self,
        p: ProcessId,
        info: Option<&ControlInfo>,
        now: u64,
        sink: &mut K,
    ) {
        if let Some(info) = info {
            let i = self.slot(p);
            let collected = self.mws[i].control(info);
            trace_collects(p, &collected, sink);
        }
        self.sample(p, now, sink);
    }

    /// Crashes the owned members of `faulty`.
    pub(crate) fn crash(&mut self, faulty: &FaultySet) {
        for f in faulty {
            if let Some(mw) = self.mws.get_mut(self.slot[f.index()] as usize) {
                mw.crash();
            }
        }
    }

    /// Thread-portable snapshots of every owned process's line-relevant
    /// state: its vector and every stored one, deep-copied.
    pub(crate) fn views(&self) -> Vec<ProcessView> {
        self.mws.iter().map(ProcessView::of).collect()
    }

    /// Applies a planned recovery session to every owned process,
    /// ascending, gathering what they roll back and eliminate into
    /// [`outcomes`](Self::outcomes); stops at the first failure.
    pub(crate) fn apply_recovery(
        &mut self,
        manager: &RecoveryManager,
        plan: &RecoveryPlan,
    ) -> std::result::Result<(), RecoveryError> {
        for mw in &mut self.mws {
            manager.apply_to(mw, plan, &mut self.outcomes)?;
            debug_assert_retained_bound(mw);
        }
        Ok(())
    }

    /// The outcomes [`apply_recovery`](Self::apply_recovery) gathered.
    pub(crate) fn outcomes(&mut self) -> &mut SessionOutcomes {
        &mut self.outcomes
    }

    /// Takes every owned process's final state off its middleware; the
    /// vector is moved out, not copied.
    pub(crate) fn finals(self) -> Vec<FinalProcess> {
        self.mws
            .into_iter()
            .map(|mw| FinalProcess {
                p: mw.owner(),
                last_stable: mw.last_stable(),
                incarnation: mw.incarnation(),
                retained: mw.store().indices().map(|i| i.value()).collect(),
                peak: mw.store().peak(),
                total_stored: mw.store().total_stored(),
                total_collected: mw.store().total_collected(),
                basic: mw.basic_count(),
                forced: mw.forced_count(),
                dv: mw.into_dv(),
            })
            .collect()
    }
}

/// The paper's space bound, where state changes: under RDT-LGC a process
/// retains at most `n` checkpoints, `n + 1` while a new one is stored and
/// the one it obsoletes not yet released (Section 4.5) — across crashes
/// and incarnations too. It is what lets a durable store stay one small
/// log. The baseline collectors promise nothing of the kind. Debug builds
/// only.
fn debug_assert_retained_bound<S: Storage>(mw: &Middleware<S>) {
    let (store, n) = (mw.store(), mw.n());
    debug_assert!(
        !matches!(mw.gc_kind(), GcKind::RdtLgc) || (store.len() <= n && store.peak() <= n + 1),
        "{} retains {} checkpoints (peak {}) under RDT-LGC, n = {n}",
        mw.owner(),
        store.len(),
        store.peak(),
    );
}

fn trace_checkpoint<K: Sink>(process: ProcessId, forced: bool, sink: &mut K) {
    sink.trace(TraceEvent::Checkpoint { process, forced }, None);
}

/// Records garbage-collection eliminations in the trace, for the offline
/// safety audit.
fn trace_collects<K: Sink>(p: ProcessId, collected: &[CheckpointIndex], sink: &mut K) {
    for &index in collected {
        sink.trace(TraceEvent::Collect { process: p, index }, None);
    }
}

/// A message that will never be delivered: dropped by the channel, sent to
/// a crashed process, or in flight when a crash struck.
pub(crate) fn lose<K: Sink>(to: ProcessId, id: MessageId, sink: &mut K) {
    sink.metric(MetricOp::Lost(to));
    sink.trace(TraceEvent::Drop { id }, None);
}

/// What a control round distributes for a collector that
/// [`needs_control_messages`](GcKind::needs_control_messages): the
/// coordinator, with reliable control messages, sees everyone's
/// stable-store state — the coordination RDT-LGC does *without*. Built
/// once per round over the middlewares themselves or over views gathered
/// from shard workers.
pub(crate) fn control_info<V: LineSource>(
    manager: &RecoveryManager,
    processes: &[V],
) -> Result<ControlInfo> {
    if !reads_line(processes[0].gc_kind()) {
        let lasts: Vec<Last> = processes.iter().map(last).collect();
        return Ok(last_intervals(&lasts));
    }
    let all: FaultySet = (0..processes.len()).map(ProcessId::new).collect();
    let line = manager.recovery_line(processes, &all)?;
    Ok(ControlInfo::GlobalLine(line))
}

/// Whether `gc`'s control rounds distribute the global recovery line —
/// computed from every vector of every process — rather than the last
/// intervals, for which the sharded coordinator gathers only [`Last`]s.
pub(crate) fn reads_line(gc: GcKind) -> bool {
    matches!(gc, GcKind::SimpleCoordinated)
}

/// `(owner, last_stable, incarnation)` of one process; no vectors.
pub(crate) type Last = (ProcessId, CheckpointIndex, Incarnation);

pub(crate) fn last<V: LineSource>(m: &V) -> Last {
    (m.owner(), m.last_stable(), m.incarnation())
}

/// The control information of a collector that does not
/// [read the line](reads_line), from every process's [`Last`], ascending.
pub(crate) fn last_intervals(lasts: &[Last]) -> ControlInfo {
    let components: Vec<_> = lasts.iter().map(|&(_, s, i)| (s, i)).collect();
    ControlInfo::LastIntervals(LastIntervals::from_components(&components))
}

/// Opens a recovery session's bookkeeping: the crashes themselves.
pub(crate) fn open_session<K: Sink>(faulty: &FaultySet, sink: &mut K) {
    for &process in faulty {
        sink.trace(TraceEvent::Crash { process }, None);
    }
}

/// Closes a recovery session's bookkeeping: folds the apply outcomes
/// (ascending by process) into the session report and emits the session
/// metric and the restore traces.
pub(crate) fn close_session<K: Sink>(
    manager: &RecoveryManager,
    faulty: &FaultySet,
    mut plan: RecoveryPlan,
    outcomes: &mut SessionOutcomes,
    sink: &mut K,
) -> RecoverySessionReport {
    // Every rollback opened exactly the incarnation the plan promised
    // (`apply_to` asserts it), so the plan is the post-session truth.
    let components = std::mem::take(&mut plan.components);
    let report = manager.report(faulty, plan, outcomes, |p| components[p.index()].1);
    sink.metric(MetricOp::Session {
        rolled_back: report.rolled_back.len() as u64,
        degraded: report.degraded.len() as u64,
    });
    for &(process, to) in &report.rolled_back {
        sink.trace(TraceEvent::Restore { process, to }, None);
    }
    report
}

/// Final state of one process, detached from its (`!Send`) middleware.
pub(crate) struct FinalProcess {
    pub p: ProcessId,
    pub dv: DependencyVector,
    pub last_stable: CheckpointIndex,
    pub incarnation: Incarnation,
    pub retained: Vec<usize>,
    pub peak: usize,
    pub total_stored: usize,
    pub total_collected: usize,
    pub basic: u64,
    pub forced: u64,
}

/// Assembles the run's report from every process's final state (ascending
/// by process id) and the observables the sink accumulated.
pub(crate) fn assemble_report(
    finals: Vec<FinalProcess>,
    mut metrics: Metrics,
    ticks: u64,
    trace: Option<Vec<TraceEvent>>,
    occupancy: Option<Vec<(u64, ProcessId, usize)>>,
    recovery_sessions: Vec<RecoverySessionReport>,
    profile: Option<rdt_obs::ProfileReport>,
) -> SimulationReport {
    metrics.ticks = ticks;
    let n = finals.len();
    let mut report = SimulationReport {
        n,
        final_dvs: Vec::with_capacity(n),
        final_last_stable: Vec::with_capacity(n),
        final_retained: Vec::with_capacity(n),
        final_incarnations: Vec::with_capacity(n),
        metrics,
        trace,
        occupancy,
        recovery_sessions,
        profile,
    };
    for f in finals {
        let m = report.metrics.set_retained(f.p, f.retained.len());
        m.peak_retained = m.peak_retained.max(f.peak);
        m.total_stored = f.total_stored;
        m.total_collected = f.total_collected;
        m.basic = f.basic;
        m.forced = f.forced;
        report.final_dvs.push(f.dv);
        report.final_last_stable.push(f.last_stable.value());
        report.final_retained.push(f.retained);
        report.final_incarnations.push(f.incarnation);
    }
    report
}
