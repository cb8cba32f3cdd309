//! The centralized recovery manager (Section 2.4 of the paper).

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use rdt_base::{CheckpointId, CheckpointIndex, DependencyVector, DvEntry, Incarnation, ProcessId};
use rdt_core::{GcKind, LastIntervals};
use rdt_env::Storage;
use rdt_protocols::Middleware;

/// The set of processes that failed, triggering the recovery session.
pub type FaultySet = BTreeSet<ProcessId>;

/// What the manager needs to know about one process to compute a recovery
/// line: Lemma 1 reads only dependency vectors and store metadata, never
/// application state. Implemented by [`Middleware`] itself (the in-place
/// sequential path — no copying) and by [`ProcessView`] (an owned snapshot
/// a shard worker can ship across threads).
pub trait LineSource {
    /// The process this state belongs to.
    fn owner(&self) -> ProcessId;
    /// The volatile dependency vector.
    fn dv(&self) -> &DependencyVector;
    /// Index of the last stable checkpoint.
    fn last_stable(&self) -> CheckpointIndex;
    /// The live incarnation.
    fn incarnation(&self) -> Incarnation;
    /// The collector in force (decides exhaustion vs. degradation).
    fn gc_kind(&self) -> GcKind;
    /// Stored checkpoints with their vectors, newest first.
    fn stored_rev(&self) -> impl Iterator<Item = (CheckpointIndex, &DependencyVector)>;
    /// The oldest surviving stored checkpoint (degradation target).
    fn oldest_stored(&self) -> Option<CheckpointIndex>;
}

impl<S: Storage> LineSource for Middleware<S> {
    fn owner(&self) -> ProcessId {
        Middleware::owner(self)
    }

    fn dv(&self) -> &DependencyVector {
        Middleware::dv(self)
    }

    fn last_stable(&self) -> CheckpointIndex {
        Middleware::last_stable(self)
    }

    fn incarnation(&self) -> Incarnation {
        Middleware::incarnation(self)
    }

    fn gc_kind(&self) -> GcKind {
        Middleware::gc_kind(self)
    }

    fn stored_rev(&self) -> impl Iterator<Item = (CheckpointIndex, &DependencyVector)> {
        self.store().iter().rev()
    }

    fn oldest_stored(&self) -> Option<CheckpointIndex> {
        self.store().indices().next()
    }
}

/// An owned snapshot of one process's line-relevant state, detached from
/// the middleware so it can cross a thread boundary (the sharded engine's
/// workers gather these at a recovery barrier; the coordinator plans the
/// session over them).
#[derive(Debug, Clone)]
pub struct ProcessView {
    /// The process snapshotted.
    pub owner: ProcessId,
    /// Its volatile dependency vector.
    pub dv: DependencyVector,
    /// Its last stable checkpoint index.
    pub last_stable: CheckpointIndex,
    /// Its live incarnation.
    pub incarnation: Incarnation,
    /// Its collector.
    pub gc_kind: GcKind,
    /// Its stored checkpoints with their vectors, **oldest first**.
    pub stored: Vec<(CheckpointIndex, DependencyVector)>,
}

impl ProcessView {
    /// Snapshots `mw`'s line-relevant state.
    pub fn of<S: Storage>(mw: &Middleware<S>) -> Self {
        Self {
            owner: Middleware::owner(mw),
            dv: Middleware::dv(mw).clone(),
            last_stable: Middleware::last_stable(mw),
            incarnation: Middleware::incarnation(mw),
            gc_kind: Middleware::gc_kind(mw),
            stored: mw
                .store()
                .iter()
                .map(|(idx, dv)| (idx, dv.clone()))
                .collect(),
        }
    }
}

impl LineSource for ProcessView {
    fn owner(&self) -> ProcessId {
        self.owner
    }

    fn dv(&self) -> &DependencyVector {
        &self.dv
    }

    fn last_stable(&self) -> CheckpointIndex {
        self.last_stable
    }

    fn incarnation(&self) -> Incarnation {
        self.incarnation
    }

    fn gc_kind(&self) -> GcKind {
        self.gc_kind
    }

    fn stored_rev(&self) -> impl Iterator<Item = (CheckpointIndex, &DependencyVector)> {
        self.stored.iter().rev().map(|(idx, dv)| (*idx, dv))
    }

    fn oldest_stored(&self) -> Option<CheckpointIndex> {
        self.stored.first().map(|&(idx, _)| idx)
    }
}

/// A recovery-session failure.
///
/// With incarnation-numbered intervals, Lemma 1 is total for every
/// *safe* garbage collector: some stored checkpoint of each process is
/// always unblocked (the initial checkpoint is preceded by nothing in any
/// live incarnation, and a safe collector only eliminates checkpoints no
/// future line can name). Exhausting a process's stored checkpoints under
/// such a collector is therefore a garbage-collection safety bug and
/// surfaces as this error — in release builds too — rather than silently
/// restoring an inconsistent state. Only the time-based baseline, whose
/// safety rests on real-time assumptions, is allowed to degrade to the
/// oldest survivor instead (reported, not errored).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// Every stored checkpoint of `process` was blocked under a collector
    /// that guarantees this cannot happen.
    LineExhausted {
        /// The process whose store was exhausted.
        process: ProcessId,
        /// The (safe) collector that eliminated the needed checkpoint.
        gc: GcKind,
    },
    /// A rollback's durability sink failed mid-session (the incarnation
    /// write-ahead log could not be made stable). The affected process is
    /// left crashed and unmutated, so the session can be retried once the
    /// sink recovers.
    Storage {
        /// The process whose sink refused the write-ahead.
        process: ProcessId,
        /// The sink's own error rendering.
        detail: String,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::LineExhausted { process, gc } => write!(
                f,
                "recovery line exhausted {process}'s stored checkpoints under safe collector {gc}: \
                 Lemma 1 must be total"
            ),
            RecoveryError::Storage { process, detail } => {
                write!(
                    f,
                    "rollback of {process} failed at the storage sink: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<RecoveryError> for rdt_base::Error {
    fn from(e: RecoveryError) -> Self {
        match e {
            RecoveryError::LineExhausted { process, .. } => {
                rdt_base::Error::RecoveryLineExhausted { process }
            }
            RecoveryError::Storage { process, detail } => {
                rdt_base::Error::Storage(format!("{process}: {detail}"))
            }
        }
    }
}

/// How a recovery session distributes information (Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RecoveryMode {
    /// The manager distributes the last-interval vector `LI`; rolling-back
    /// processes run Algorithm 3 with global information and the others
    /// release stale pins (`DV[f] < LI[f]`).
    #[default]
    Coordinated,
    /// No global information: rolling-back processes run Algorithm 3 with
    /// `DV` in place of `LI` (garbage collection by Theorem 2 instead of
    /// Theorem 1); the others just continue.
    Uncoordinated,
}

impl fmt::Display for RecoveryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryMode::Coordinated => write!(f, "coordinated"),
            RecoveryMode::Uncoordinated => write!(f, "uncoordinated"),
        }
    }
}

/// Outcome of one recovery session.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoverySessionReport {
    /// The faulty set that triggered the session.
    pub faulty: Vec<ProcessId>,
    /// The recovery line: one component per process (`last_stable + 1`
    /// denotes the volatile state of a non-rolling process).
    pub line: Vec<CheckpointIndex>,
    /// Which processes actually rolled back, and to which checkpoint.
    pub rolled_back: Vec<(ProcessId, CheckpointIndex)>,
    /// Checkpoints eliminated across all processes during the session
    /// (rolled-back states plus rollback garbage collection).
    pub eliminated: Vec<CheckpointId>,
    /// The distributed last-interval vector (coordinated mode only).
    pub li: Option<LastIntervals>,
    /// Processes whose line component *degraded* to the oldest surviving
    /// checkpoint because an unsafe (time-based) collector had eliminated
    /// every unblocked one — the data-loss events the paper's safety
    /// comparison quantifies. Always empty for safe collectors, which error
    /// instead ([`RecoveryError::LineExhausted`]).
    pub degraded: Vec<ProcessId>,
    /// Each process's incarnation after the session (bumped for everyone
    /// who rolled back).
    pub incarnations: Vec<Incarnation>,
}

impl RecoverySessionReport {
    /// Total checkpoints rolled back across processes (the paper's
    /// "number of general checkpoints rolled back" metric, stable part).
    pub fn rollback_depth(&self) -> usize {
        self.rolled_back.len()
    }
}

/// A centralized recovery manager: stops the world, collects the volatile
/// state of the non-faulty processes and the stable-store metadata of all,
/// determines the recovery line by **Lemma 1**, and orchestrates the
/// rollbacks.
///
/// The caller (simulator or application harness) is responsible for the
/// "stop the world" part — in particular for discarding in-transit
/// messages, which the recovered CCP must exclude (Section 2.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryManager {
    mode: RecoveryMode,
}

impl RecoveryManager {
    /// A coordinated-mode manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// A manager with an explicit mode.
    pub fn with_mode(mode: RecoveryMode) -> Self {
        Self { mode }
    }

    /// The mode in force.
    pub fn mode(&self) -> RecoveryMode {
        self.mode
    }

    /// Computes the recovery line for `faulty` over the current state of
    /// `processes` (Lemma 1): for each process, the latest stored
    /// checkpoint — or volatile state, if not faulty — that is not causally
    /// preceded by the last stable checkpoint of any faulty process **in
    /// that process's live incarnation**.
    ///
    /// Blocking is evaluated with the incarnation-aware Equation 2
    /// ([`rdt_base::DependencyVector::dominates_live_checkpoint`]): a
    /// dependency recorded against a *dead* incarnation of a faulty process
    /// never blocks, because the surviving prefix of every dead incarnation
    /// lies at or below the live execution's restore points — and hence at
    /// or below the faulty process's current last stable checkpoint. This is
    /// what makes the scan total under repeated crash/rollback sessions:
    /// `s_i^0` (all-zero vector, initial incarnation) is never blocked, and
    /// safe collectors never eliminate the checkpoint the line names.
    ///
    /// Returns one component per process; `last_stable + 1` denotes the
    /// volatile state.
    ///
    /// **Cost.** The faulty set is read once, into one range of packed
    /// entries per faulty process (its live incarnation past its last stable
    /// checkpoint) and a membership bitmap. A candidate is tested against
    /// every range at once: the hits are counted without a branch per
    /// faulty process and without stopping at the first, and the candidate
    /// is blocked iff any is left after the self guard. Each process's
    /// candidates are tried newest first, as Lemma 1 reads them.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::LineExhausted`] if every stored checkpoint of some
    /// process is blocked under a *safe* collector — a garbage-collection
    /// safety violation, checked in release builds too. The time-based
    /// baseline (`needs_time_assumptions()`) instead degrades to the oldest
    /// survivor; [`recover`](Self::recover) reports those processes in
    /// [`RecoverySessionReport::degraded`].
    ///
    /// # Panics
    ///
    /// Panics if `faulty` references processes outside `processes`, or if
    /// process ids do not match vector positions.
    pub fn recovery_line<V: LineSource>(
        &self,
        processes: &[V],
        faulty: &FaultySet,
    ) -> Result<Vec<CheckpointIndex>, RecoveryError> {
        self.line_with_degradation(processes, faulty)
            .map(|(line, _)| line)
    }

    /// [`recovery_line`](Self::recovery_line) with provenance: the same
    /// scan, additionally recording per process which DV entry pinned the
    /// chosen component (the entry that blocked the lowest rejected
    /// candidate) and which dead-incarnation entries were amnestied.
    ///
    /// Unlike the offline [`rdt_ccp::Ccp::explain_recovery_line`], the
    /// online scan only sees checkpoints the collector retained, so a
    /// pin's `rejected` candidate is the lowest *stored* rejection — not
    /// necessarily `chosen + 1`. A process degraded to its oldest survivor
    /// (time-based GC only) reports the pin that blocked that survivor,
    /// with `chosen == pinned_by.rejected` marking the degradation.
    ///
    /// # Errors
    ///
    /// As for [`recovery_line`](Self::recovery_line).
    ///
    /// # Panics
    ///
    /// As for [`recovery_line`](Self::recovery_line).
    pub fn explain<V: LineSource>(
        &self,
        processes: &[V],
        faulty: &FaultySet,
    ) -> Result<rdt_ccp::LineExplanation, RecoveryError> {
        use rdt_ccp::{AmnestiedEntry, ComponentProvenance, LineExplanation, PinCause};
        let session = Blockers::of(processes, faulty);
        let list = Blocker::list(processes, faulty);
        let mut components = Vec::with_capacity(processes.len());
        for mw in processes {
            let i = mw.owner();
            let is_faulty = session.is_faulty(i);
            let ceiling = if is_faulty {
                mw.last_stable()
            } else {
                mw.last_stable().next()
            };
            let mut amnestied: Vec<AmnestiedEntry> = Vec::new();
            let mut last_pin: Option<PinCause> = None;
            let chosen = session.candidates(mw).find(|&(idx, dv)| {
                // Dead-incarnation knowledge past a faulty process's last
                // stable checkpoint: it would block, were it live.
                for b in &list {
                    let entry = dv.lineage(b.f);
                    if b.last_stable.value() < entry.interval().value()
                        && entry.incarnation() < b.live
                    {
                        amnestied.push(AmnestiedEntry {
                            at: idx,
                            faulty: b.f,
                            incarnation: entry.incarnation().value(),
                            interval: entry.interval().value(),
                            live_incarnation: b.live.value(),
                        });
                    }
                }
                // The first faulty process that blocks the candidate.
                let blocker = list.iter().find(|b| b.blocks(i, idx, dv));
                debug_assert_eq!(
                    blocker.is_some(),
                    session.blocked(mw, idx, dv),
                    "the per-blocker scan and the word-parallel test agree"
                );
                if let Some(b) = blocker {
                    let entry = dv.lineage(b.f);
                    last_pin = Some(PinCause {
                        blocker: b.f,
                        rejected: idx,
                        incarnation: entry.incarnation().value(),
                        interval: entry.interval().value(),
                        last_stable: b.last_stable,
                    });
                }
                blocker.is_none()
            });
            let chosen = match chosen {
                Some((c, _)) => c,
                None => exhausted(mw)?,
            };
            components.push(ComponentProvenance {
                process: i,
                chosen,
                ceiling,
                volatile_kept: !is_faulty && chosen == ceiling,
                pinned_by: last_pin,
                amnestied,
            });
        }
        Ok(LineExplanation { components })
    }

    /// [`recovery_line`](Self::recovery_line), also reporting which
    /// processes degraded to the oldest survivor.
    fn line_with_degradation<V: LineSource>(
        &self,
        processes: &[V],
        faulty: &FaultySet,
    ) -> Result<(Vec<CheckpointIndex>, Vec<ProcessId>), RecoveryError> {
        let session = Blockers::of(processes, faulty);
        let mut line = Vec::with_capacity(processes.len());
        let mut degraded = Vec::new();
        for mw in processes {
            let component = match session.choose(mw) {
                Some(c) => c,
                None => {
                    degraded.push(mw.owner());
                    exhausted(mw)?
                }
            };
            line.push(component);
        }
        Ok((line, degraded))
    }

    /// Computes everything a recovery session decides — the line, the
    /// degraded set, the post-session `(component, incarnation)` pairs and
    /// the `LI` vector — without touching any process state. The first
    /// half of [`recover`](Self::recover), usable over [`ProcessView`]
    /// snapshots gathered from worker threads.
    ///
    /// # Errors
    ///
    /// As for [`recovery_line`](Self::recovery_line).
    ///
    /// # Panics
    ///
    /// As for [`recovery_line`](Self::recovery_line).
    pub fn plan<V: LineSource>(
        &self,
        processes: &[V],
        faulty: &FaultySet,
    ) -> Result<RecoveryPlan, RecoveryError> {
        let (line, degraded) = self.line_with_degradation(processes, faulty)?;

        // LI over the post-recovery CCP: a rolling process's last stable
        // becomes its component and its rollback opens a fresh incarnation;
        // a non-rolling process keeps both its own. Building LI with the
        // *post-session* incarnations is what lets every receiver compare
        // `DV[f] < LI[f]` lexicographically and recognize pre-rollback
        // knowledge of `f` as stale.
        let components: Vec<(CheckpointIndex, Incarnation)> = processes
            .iter()
            .zip(&line)
            .map(|(mw, &component)| {
                let will_roll = component < mw.last_stable().next();
                let incarnation = if will_roll {
                    mw.incarnation().next()
                } else {
                    mw.incarnation()
                };
                (component.min(mw.last_stable()), incarnation)
            })
            .collect();
        let li = LastIntervals::from_components(&components);

        Ok(RecoveryPlan {
            line,
            degraded,
            components,
            li,
        })
    }

    /// Applies one process's share of a planned session: the Algorithm-3
    /// rollback if its line component is below its volatile state, the
    /// `LI`-driven stale-pin release otherwise (coordinated mode). What it
    /// rolls back and eliminates is appended to `outcomes`.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Storage`] if the rollback's durability sink failed;
    /// the process is left crashed and unmutated, and `outcomes` untouched.
    ///
    /// # Panics
    ///
    /// Panics if the line names a checkpoint the store no longer holds —
    /// impossible for a plan produced by [`plan`](Self::plan) over this
    /// process's current state (Theorem 4).
    pub fn apply_to<S: Storage>(
        &self,
        mw: &mut Middleware<S>,
        plan: &RecoveryPlan,
        outcomes: &mut SessionOutcomes,
    ) -> Result<(), RecoveryError> {
        let p = Middleware::owner(mw);
        let component = plan.line[p.index()];
        let li_opt = match self.mode {
            RecoveryMode::Coordinated => Some(&plan.li),
            RecoveryMode::Uncoordinated => None,
        };
        let scratch = &mut outcomes.scratch;
        scratch.clear();
        if component < Middleware::last_stable(mw).next() {
            match mw.rollback_into(component, li_opt, scratch) {
                Ok(()) => {}
                // A sink refusing the incarnation WAL leaves the
                // process crashed and unmutated; surface it as a
                // retryable session failure.
                Err(rdt_base::Error::Storage(detail)) => {
                    return Err(RecoveryError::Storage { process: p, detail })
                }
                // Any other rollback failure contradicts Theorem 4
                // (the line only names stored checkpoints): a bug.
                Err(e) => {
                    panic!("recovery-line component is stored (Theorem 4 safety): {e}")
                }
            }
            debug_assert_eq!(
                Middleware::incarnation(mw),
                plan.components[p.index()].1,
                "rollback must open the incarnation LI promised"
            );
            outcomes.rolled_back.push((p, component));
        } else if let Some(li) = li_opt {
            mw.recovery_info_into(li, scratch);
        }
        let ids = scratch.iter().map(|&index| CheckpointId::new(p, index));
        outcomes.eliminated.extend(ids);
        Ok(())
    }

    /// Runs a full recovery session: computes the line, rolls back every
    /// process whose component is below its volatile state (each rollback
    /// opening a fresh incarnation), and (in coordinated mode) distributes
    /// `LI` to the others.
    ///
    /// # Errors
    ///
    /// As for [`recovery_line`](Self::recovery_line).
    ///
    /// # Panics
    ///
    /// As for [`recovery_line`](Self::recovery_line).
    pub fn recover<S: Storage>(
        &self,
        processes: &mut [Middleware<S>],
        faulty: &FaultySet,
    ) -> Result<RecoverySessionReport, RecoveryError> {
        let plan = self.plan(processes, faulty)?;
        // Room for everything the session can eliminate: what is stored.
        let stored = processes.iter().map(|mw| mw.store().len());
        let (most, all) = stored.fold((0, 0), |(most, all), len| (most.max(len), all + len));
        let mut outcomes = SessionOutcomes {
            rolled_back: Vec::with_capacity(processes.len()),
            eliminated: Vec::with_capacity(all),
            scratch: Vec::with_capacity(most),
        };
        for mw in processes.iter_mut() {
            self.apply_to(mw, &plan, &mut outcomes)?;
        }
        Ok(self.report(faulty, plan, &mut outcomes, |p| {
            Middleware::incarnation(&processes[p.index()])
        }))
    }

    /// Assembles the session report from a plan plus every process's apply
    /// outcome, ascending by process, and clears `outcomes` for the next
    /// session — shared by [`recover`](Self::recover) and the simulation
    /// engines (whose outcomes may arrive from shard workers). The report's
    /// vectors are allocated to size; the plan's move in.
    pub fn report(
        &self,
        faulty: &FaultySet,
        plan: RecoveryPlan,
        outcomes: &mut SessionOutcomes,
        incarnation_of: impl Fn(ProcessId) -> Incarnation,
    ) -> RecoverySessionReport {
        let n = plan.line.len();
        let report = RecoverySessionReport {
            faulty: faulty.iter().copied().collect(),
            line: plan.line,
            rolled_back: outcomes.rolled_back.as_slice().to_vec(),
            eliminated: outcomes.eliminated.as_slice().to_vec(),
            li: match self.mode {
                RecoveryMode::Coordinated => Some(plan.li),
                RecoveryMode::Uncoordinated => None,
            },
            degraded: plan.degraded,
            incarnations: (0..n).map(|k| incarnation_of(ProcessId::new(k))).collect(),
        };
        outcomes.rolled_back.clear();
        outcomes.eliminated.clear();
        report
    }
}

/// What a recovery session's apply loop gathers, process by process,
/// ascending: who rolled back, to which checkpoint, and what every process
/// eliminated. The buffers outlive the session: an engine keeps one and
/// [`RecoveryManager::report`] copies them out to size, so a session's
/// apply loop allocates nothing once they have grown.
#[derive(Debug, Default)]
pub struct SessionOutcomes {
    rolled_back: Vec<(ProcessId, CheckpointIndex)>,
    eliminated: Vec<CheckpointId>,
    /// One process's eliminations, reused from process to process.
    scratch: Vec<CheckpointIndex>,
}

impl SessionOutcomes {
    /// Appends `other`'s outcomes — gathered over other processes, such as
    /// a shard worker's — keeping the ascending process order; each
    /// process's eliminations keep theirs.
    pub fn absorb(&mut self, other: &SessionOutcomes) {
        self.rolled_back.extend_from_slice(&other.rolled_back);
        self.rolled_back.sort_unstable_by_key(|&(p, _)| p);
        self.eliminated.extend_from_slice(&other.eliminated);
        self.eliminated.sort_by_key(|c| c.process);
    }
}

/// A faulty process as Lemma 1 reads it, one blocker at a time: what
/// [`RecoveryManager::explain`] names. The line itself tests a candidate
/// against every faulty process at once ([`Blockers::blocked`]).
#[derive(Debug, Clone, Copy)]
struct Blocker {
    f: ProcessId,
    /// `s_f^last`, its last stable checkpoint.
    last_stable: CheckpointIndex,
    /// Its live incarnation.
    live: Incarnation,
}

impl Blocker {
    /// Every faulty process's blocker, ascending.
    fn list<V: LineSource>(processes: &[V], faulty: &FaultySet) -> Vec<Self> {
        let blocker = |&f: &ProcessId| {
            let mw = &processes[f.index()];
            Blocker {
                f,
                last_stable: mw.last_stable(),
                live: mw.incarnation(),
            }
        };
        faulty.iter().map(blocker).collect()
    }

    /// Lemma 1's blocked test: does `s_f^last` causally precede candidate
    /// `idx` of process `i`, whose vector is `dv`, in `f`'s live
    /// incarnation ([`DependencyVector::dominates_live_checkpoint`])?
    ///
    /// A checkpoint never precedes itself. The guard holds across
    /// incarnations: the stored copy of the last stable checkpoint may have
    /// been written in an earlier incarnation than the one now executing
    /// (repeated rollbacks onto the same index), and it still must not
    /// count as its own blocker. A volatile candidate sits above
    /// `last_stable`, so the guard never fires for it.
    fn blocks(&self, i: ProcessId, idx: CheckpointIndex, dv: &DependencyVector) -> bool {
        !(self.f == i && idx == self.last_stable)
            && dv.dominates_live_checkpoint(self.f, self.last_stable, self.live)
    }
}

/// One session's faulty set, read once into a membership bitmap and, per
/// faulty process, the range of packed entries it blocks.
///
/// Faulty `f` blocks a candidate whose entry for `f` lies in its live
/// incarnation past its last stable checkpoint: `(live, last_stable + 1) ≤
/// DV[f] < (live + 1, 0)` in the packed order of [`DvEntry`], which is the
/// lexicographic one. A range is kept as its low end and its width, so the
/// test is one wrapping subtraction and one compare (`DV[f] − lo < width`).
/// A candidate is blocked iff some faulty entry falls in its range: the
/// hits are counted over every faulty process, without a branch per
/// process and without stopping at the first blocker.
struct Blockers {
    /// Bit `f` set iff `f` is faulty: `⌈n/64⌉` words.
    faulty: Vec<u64>,
    /// Every faulty process's range, ascending by process.
    ranges: Vec<Range>,
}

/// The packed entries `[lo, lo + width)` of a faulty process `f` that
/// Lemma 1 reads as `s_f^last → c`.
#[derive(Debug, Clone, Copy)]
struct Range {
    f: usize,
    lo: u64,
    width: u64,
}

impl Range {
    fn holds(self, entries: &[DvEntry]) -> bool {
        entries[self.f].packed().wrapping_sub(self.lo) < self.width
    }
}

impl Blockers {
    /// # Panics
    ///
    /// Panics if `faulty` references processes outside `processes`, or if
    /// process ids do not match positions.
    fn of<V: LineSource>(processes: &[V], faulty: &FaultySet) -> Self {
        for (k, mw) in processes.iter().enumerate() {
            assert_eq!(mw.owner().index(), k, "middlewares must be in id order");
        }
        let mut members = vec![0; processes.len().div_ceil(64)];
        let range = |&f: &ProcessId| {
            let mw = processes
                .get(f.index())
                .expect("faulty process out of range");
            members[f.index() / 64] |= 1 << (f.index() % 64);
            let live = u64::from(mw.incarnation().value()) << DvEntry::INTERVAL_BITS;
            // Wrapping: the newest incarnation's range ends at 2^64.
            let lo = live.wrapping_add(mw.last_stable().value() as u64 + 1);
            let end = live.wrapping_add(1 << DvEntry::INTERVAL_BITS);
            Range {
                f: f.index(),
                lo,
                width: end.wrapping_sub(lo),
            }
        };
        let ranges = faulty.iter().map(range).collect();
        Self {
            faulty: members,
            ranges,
        }
    }

    fn is_faulty(&self, p: ProcessId) -> bool {
        self.faulty[p.index() / 64] >> (p.index() % 64) & 1 == 1
    }

    /// Whether some faulty process blocks candidate `idx` of `mw`, whose
    /// vector is `dv`: [`Blocker::blocks`] over every faulty process at
    /// once. The self guard discounts a faulty process's own hit on its
    /// stored last stable checkpoint.
    fn blocked<V: LineSource>(&self, mw: &V, idx: CheckpointIndex, dv: &DependencyVector) -> bool {
        let entries = dv.as_slice();
        let hits: usize = self
            .ranges
            .iter()
            .map(|r| usize::from(r.holds(entries)))
            .sum();
        let i = mw.owner();
        let guarded = self.is_faulty(i) && idx == mw.last_stable() && {
            let own = self.ranges.binary_search_by_key(&i.index(), |r| r.f);
            self.ranges[own.expect("a faulty process has a range")].holds(entries)
        };
        hits > usize::from(guarded)
    }

    /// A process's Lemma-1 candidates, newest first: its volatile state
    /// unless it is faulty, then its stored checkpoints.
    fn candidates<'a, V: LineSource>(
        &self,
        mw: &'a V,
    ) -> impl Iterator<Item = (CheckpointIndex, &'a DependencyVector)> {
        let volatile = (!self.is_faulty(mw.owner())).then(|| (mw.last_stable().next(), mw.dv()));
        volatile.into_iter().chain(mw.stored_rev())
    }

    /// Lemma 1 for one process: its newest candidate that no faulty
    /// process blocks, or `None` if every one is blocked.
    fn choose<V: LineSource>(&self, mw: &V) -> Option<CheckpointIndex> {
        self.candidates(mw)
            .find(|&(idx, dv)| !self.blocked(mw, idx, dv))
            .map(|(idx, _)| idx)
    }
}

/// The component of a process whose every candidate is blocked.
///
/// With incarnation-numbered intervals Lemma 1 is total over the
/// checkpoints a *safe* collector retains, so this is an error. Only the
/// time-based baseline — whose delay assumption can break — may land here;
/// it degrades to the oldest survivor: the closest available approximation
/// of the true line, and exactly the data-loss scenario the paper's safety
/// comparison quantifies.
fn exhausted<V: LineSource>(mw: &V) -> Result<CheckpointIndex, RecoveryError> {
    if !mw.gc_kind().needs_time_assumptions() {
        return Err(RecoveryError::LineExhausted {
            process: mw.owner(),
            gc: mw.gc_kind(),
        });
    }
    Ok(mw
        .oldest_stored()
        .expect("stable storage retains at least one checkpoint"))
}

/// The decisions of one recovery session, separated from their
/// application so the two halves can run on different threads (plan on
/// the coordinator over gathered [`ProcessView`]s, apply on the workers
/// owning the middlewares).
#[derive(Debug, Clone)]
pub struct RecoveryPlan {
    /// The recovery line (`last_stable + 1` = volatile state).
    pub line: Vec<CheckpointIndex>,
    /// Processes degraded to the oldest survivor (time-based GC only).
    pub degraded: Vec<ProcessId>,
    /// Post-session `(LI component, incarnation)` per process.
    pub components: Vec<(CheckpointIndex, Incarnation)>,
    /// The last-interval vector over the post-recovery CCP.
    pub li: LastIntervals,
}

#[cfg(test)]
mod tests {
    use rdt_base::Payload;
    use rdt_core::GcKind;
    use rdt_protocols::ProtocolKind;

    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn idx(i: usize) -> CheckpointIndex {
        CheckpointIndex::new(i)
    }

    fn system(n: usize) -> Vec<Middleware> {
        (0..n)
            .map(|i| Middleware::new(p(i), n, ProtocolKind::Fdas, GcKind::RdtLgc))
            .collect()
    }

    /// p0 checkpoints and informs p1; p1 checkpoints and informs p2.
    fn chain() -> Vec<Middleware> {
        let mut mws = system(3);
        mws[0].basic_checkpoint().unwrap();
        let m = mws[0].send(p(1), Payload::empty());
        mws[1].receive(&m).unwrap();
        mws[1].basic_checkpoint().unwrap();
        let m = mws[1].send(p(2), Payload::empty());
        mws[2].receive(&m).unwrap();
        mws
    }

    #[test]
    fn empty_faulty_set_keeps_all_volatile() {
        let mws = chain();
        let line = RecoveryManager::new()
            .recovery_line(&mws, &FaultySet::new())
            .unwrap();
        let volatile: Vec<_> = mws.iter().map(|m| m.last_stable().next()).collect();
        assert_eq!(line, volatile);
    }

    #[test]
    fn chain_head_failure_rolls_back_dependents() {
        let mut mws = chain();
        mws[0].crash();
        let faulty: FaultySet = [p(0)].into_iter().collect();
        let report = RecoveryManager::new().recover(&mut mws, &faulty).unwrap();
        // p0 restarts from s^1 (its last stable), p1 and p2 roll to s^0.
        assert_eq!(report.line, vec![idx(1), idx(0), idx(0)]);
        assert_eq!(report.rolled_back.len(), 3);
        assert!(!mws[0].is_crashed());
        // Post-recovery vectors: restored checkpoint's DV, bumped.
        assert_eq!(mws[1].dv().entry(p(1)).value(), 1);
    }

    #[test]
    fn tail_failure_touches_only_the_tail() {
        let mut mws = chain();
        mws[2].crash();
        let faulty: FaultySet = [p(2)].into_iter().collect();
        let report = RecoveryManager::new().recover(&mut mws, &faulty).unwrap();
        assert_eq!(
            report.rolled_back,
            vec![(p(2), idx(0))],
            "only the crashed tail rolls back"
        );
    }

    #[test]
    fn line_matches_offline_oracle() {
        // Mirror the chain into the offline CCP and compare Lemma-1 results.
        use rdt_ccp::CcpBuilder;
        let mws = chain();
        let mut b = CcpBuilder::new(3);
        b.checkpoint(p(0));
        b.message(p(0), p(1));
        b.checkpoint(p(1));
        b.message(p(1), p(2));
        let ccp = b.build();

        let mgr = RecoveryManager::new();
        for mask in 0u8..8 {
            let faulty: FaultySet = (0..3).filter(|i| mask & (1 << i) != 0).map(p).collect();
            let online = mgr.recovery_line(&mws, &faulty).unwrap();
            let offline = ccp.recovery_line(&faulty.iter().copied().collect());
            assert_eq!(
                online.iter().map(|c| c.value()).collect::<Vec<_>>(),
                offline.to_raw(),
                "faulty {faulty:?}"
            );
        }
    }

    #[test]
    fn explain_agrees_with_the_line_and_names_valid_pins() {
        let mws = chain();
        let mgr = RecoveryManager::new();
        for mask in 0u8..8 {
            let faulty: FaultySet = (0..3).filter(|i| mask & (1 << i) != 0).map(p).collect();
            let line = mgr.recovery_line(&mws, &faulty).unwrap();
            let exp = mgr.explain(&mws, &faulty).unwrap();
            assert_eq!(
                exp.line().to_raw(),
                line.iter().map(|c| c.value()).collect::<Vec<_>>(),
                "faulty {faulty:?}"
            );
            for comp in &exp.components {
                let mw = &mws[comp.process.index()];
                match &comp.pinned_by {
                    None => assert_eq!(comp.chosen, comp.ceiling, "unpinned = at ceiling"),
                    Some(pin) => {
                        assert!(faulty.contains(&pin.blocker));
                        assert!(pin.rejected > comp.chosen);
                        assert_eq!(pin.last_stable, mws[pin.blocker.index()].last_stable());
                        // The named entry ties the rejected candidate to the
                        // blocker's post-last-stable live execution.
                        assert_eq!(
                            pin.incarnation,
                            mws[pin.blocker.index()].incarnation().value()
                        );
                        assert!(pin.last_stable.value() < pin.interval);
                        // The rejected candidate is the volatile state or a
                        // stored checkpoint whose DV carries that entry.
                        let dv = if pin.rejected == mw.last_stable().next() {
                            mw.dv().clone()
                        } else {
                            mw.store().dv(pin.rejected).unwrap().clone()
                        };
                        assert_eq!(dv.lineage(pin.blocker).interval().value(), pin.interval);
                    }
                }
                assert!(comp.amnestied.is_empty(), "crash-free chain: no amnesty");
            }
        }
    }

    #[test]
    fn explain_matches_offline_provenance_when_nothing_was_collected() {
        // With every checkpoint still stored, the online scan sees the same
        // dense candidate set as the offline CCP model, so the explanations
        // agree pin-for-pin.
        use rdt_ccp::CcpBuilder;
        let mws = chain();
        let mut b = CcpBuilder::new(3);
        b.checkpoint(p(0));
        b.message(p(0), p(1));
        b.checkpoint(p(1));
        b.message(p(1), p(2));
        let ccp = b.build();
        let mgr = RecoveryManager::new();
        for mask in 0u8..8 {
            let faulty: FaultySet = (0..3).filter(|i| mask & (1 << i) != 0).map(p).collect();
            let online = mgr.explain(&mws, &faulty).unwrap();
            let offline = ccp.explain_recovery_line(&faulty.iter().copied().collect());
            assert_eq!(online.line(), offline.line(), "faulty {faulty:?}");
            for (on, off) in online.components.iter().zip(&offline.components) {
                // Chains never GC under these protocols before any crash,
                // so pins name identical entries. (If a future protocol
                // change starts collecting here, the line comparison above
                // still holds; this pin comparison would need the sparse
                // adjustment documented on `explain`.)
                assert_eq!(on.pinned_by, off.pinned_by, "faulty {faulty:?}");
                assert_eq!(on.volatile_kept, off.volatile_kept);
            }
        }
    }

    #[test]
    fn uncoordinated_mode_passes_no_li() {
        let mut mws = chain();
        mws[0].crash();
        let faulty: FaultySet = [p(0)].into_iter().collect();
        let report = RecoveryManager::with_mode(RecoveryMode::Uncoordinated)
            .recover(&mut mws, &faulty)
            .unwrap();
        assert!(report.li.is_none());
        assert!(!mws[0].is_crashed());
    }

    #[test]
    fn recovery_line_components_are_restorable() {
        // Safety end-to-end: the line only names stored checkpoints.
        let mut mws = chain();
        for mw in &mut mws {
            mw.basic_checkpoint().unwrap();
        }
        mws[1].crash();
        let faulty: FaultySet = [p(1)].into_iter().collect();
        let report = RecoveryManager::new().recover(&mut mws, &faulty).unwrap();
        for (proc_, to) in &report.rolled_back {
            assert!(mws[proc_.index()].store().contains(*to));
        }
    }

    #[test]
    fn views_plan_identically_to_live_middlewares() {
        // The sharded engine plans over gathered snapshots; the plan must
        // match what the sequential path computes in place.
        let mut mws = chain();
        mws[0].crash();
        let faulty: FaultySet = [p(0)].into_iter().collect();
        let views: Vec<ProcessView> = mws.iter().map(ProcessView::of).collect();
        let mgr = RecoveryManager::new();
        let from_views = mgr.plan(&views, &faulty).unwrap();
        let from_live = mgr.plan(&mws, &faulty).unwrap();
        assert_eq!(from_views.line, from_live.line);
        assert_eq!(from_views.components, from_live.components);
        assert_eq!(from_views.degraded, from_live.degraded);
        assert_eq!(from_views.li, from_live.li);
    }

    /// A faulty process `p1` (incarnation 2, last stable `s^3`) beside a
    /// healthy `p0`, as views whose vectors the test spells out.
    fn guarded_pair(own: (u32, usize), other: (u32, usize)) -> Vec<ProcessView> {
        let view = |i: usize, last: usize, lineages: Vec<(u32, usize)>| ProcessView {
            owner: p(i),
            dv: DependencyVector::from_lineages(lineages.clone()),
            last_stable: idx(last),
            incarnation: Incarnation::new(2),
            gc_kind: GcKind::RdtLgc,
            stored: vec![(idx(last), DependencyVector::from_lineages(lineages))],
        };
        vec![
            view(0, 1, vec![(2, 2), other]),
            view(1, 3, vec![other, own]),
        ]
    }

    /// Both Lemma-1 tests over every candidate of every process.
    fn both_tests(views: &[ProcessView], faulty: &FaultySet) -> Vec<(bool, bool)> {
        let session = Blockers::of(views, faulty);
        let list = Blocker::list(views, faulty);
        let mut verdicts = Vec::new();
        for v in views {
            for (at, dv) in session.candidates(v) {
                let one_by_one = list.iter().any(|b| b.blocks(v.owner, at, dv));
                verdicts.push((session.blocked(v, at, dv), one_by_one));
            }
        }
        verdicts
    }

    #[test]
    fn the_word_parallel_test_keeps_the_self_guard() {
        // p1's stored s^3 carries an entry of its own live incarnation past
        // s^3: it would block, were it not p1's own last stable checkpoint.
        let views = guarded_pair((2, 4), (0, 0));
        let faulty: FaultySet = [p(1)].into_iter().collect();
        let verdicts = both_tests(&views, &faulty);
        assert_eq!(
            verdicts,
            vec![(false, false); 3],
            "p0: volatile, s^1; p1: s^3"
        );
        // Another faulty process's hit still blocks under the guard.
        let faulty: FaultySet = [p(0), p(1)].into_iter().collect();
        let views = guarded_pair((2, 4), (2, 3));
        let verdicts = both_tests(&views, &faulty);
        assert!(
            verdicts.iter().all(|&(fast, slow)| fast == slow),
            "{verdicts:?}"
        );
        assert_eq!(
            verdicts.last(),
            Some(&(true, true)),
            "p0's entry blocks p1's s^3"
        );
    }

    #[test]
    fn the_word_parallel_test_amnesties_a_dead_incarnation_above_last_stable() {
        // p0 knows p1's interval 9 of incarnation 1, dead: p1 lives in
        // incarnation 2 from s^3 on. Interval 4 of incarnation 2 blocks.
        let faulty: FaultySet = [p(1)].into_iter().collect();
        for (other, blocked) in [((1, 9), false), ((2, 4), true), ((2, 3), false)] {
            let views = guarded_pair((2, 3), other);
            let verdicts = both_tests(&views, &faulty);
            assert_eq!(
                verdicts[0],
                (blocked, blocked),
                "p0 knowing {other:?} of p1"
            );
            assert!(
                verdicts.iter().all(|&(fast, slow)| fast == slow),
                "{verdicts:?}"
            );
        }
    }

    #[test]
    fn report_counts_rollback_depth() {
        let mut mws = chain();
        mws[0].crash();
        let faulty: FaultySet = [p(0)].into_iter().collect();
        let report = RecoveryManager::new().recover(&mut mws, &faulty).unwrap();
        assert_eq!(report.rollback_depth(), report.rolled_back.len());
    }
}
