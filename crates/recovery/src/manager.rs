//! The centralized recovery manager (Section 2.4 of the paper).

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use rdt_base::{CheckpointId, CheckpointIndex, DependencyVector, DvEntry, Incarnation, ProcessId};
use rdt_core::{CheckpointStore, GcKind, LastIntervals};
use rdt_env::Storage;
use rdt_protocols::Middleware;

/// The set of processes that failed, triggering the recovery session.
pub type FaultySet = BTreeSet<ProcessId>;

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
    pub fn recovery_line<S: Storage>(
        &self,
        processes: &[Middleware<S>],
        faulty: &FaultySet,
    ) -> Result<Vec<CheckpointIndex>, RecoveryError> {
        self.plan(processes, faulty).map(|plan| plan.line)
    }

    /// One process's share of Lemma 1: its line component under
    /// `blockers`, the `LI` entry it will have after the session, and
    /// whether the component degraded to the oldest survivor. Reads `mw`'s
    /// own vector and stored vectors, and of the other processes only what
    /// `blockers` holds — so it runs wherever `mw` lives.
    ///
    /// # Errors
    ///
    /// As for [`recovery_line`](Self::recovery_line), for this process.
    pub fn choose<S: Storage>(
        &self,
        mw: &Middleware<S>,
        blockers: &Blockers,
    ) -> Result<Chosen, RecoveryError> {
        let (component, degraded) = match blockers.choose(mw) {
            Some(component) => (component, false),
            None => (exhausted(mw)?, true),
        };
        // LI over the post-recovery CCP: a rolling process's last stable
        // becomes its component and its rollback opens a fresh incarnation;
        // a non-rolling process keeps both its own. Building LI with the
        // *post-session* incarnations is what lets every receiver compare
        // `DV[f] < LI[f]` lexicographically and recognize pre-rollback
        // knowledge of `f` as stale.
        let last_stable = mw.last_stable();
        let incarnation = if component < last_stable.next() {
            mw.incarnation().next()
        } else {
            mw.incarnation()
        };
        Ok(Chosen {
            process: mw.owner(),
            component,
            li: (component.min(last_stable), incarnation),
            degraded,
        })
    }

    /// Everything a recovery session decides — the line, the degraded set,
    /// the post-session `(component, incarnation)` pairs and the `LI`
    /// vector — from every process's [`choose`](Self::choose), ascending by
    /// process.
    ///
    /// # Panics
    ///
    /// Panics if `chosen` is not one choice per process in id order.
    pub fn plan_from(&self, chosen: &[Chosen]) -> RecoveryPlan {
        for (k, c) in chosen.iter().enumerate() {
            assert_eq!(c.process.index(), k, "one choice per process, in id order");
        }
        let components: Vec<_> = chosen.iter().map(|c| c.li).collect();
        RecoveryPlan {
            line: chosen.iter().map(|c| c.component).collect(),
            degraded: chosen
                .iter()
                .filter(|c| c.degraded)
                .map(|c| c.process)
                .collect(),
            li: LastIntervals::from_components(&components),
            components,
        }
    }

    /// The first half of [`recover`](Self::recover), touching no process
    /// state: the faulty set's [`Blockers`], each process's
    /// [`choose`](Self::choose), then [`plan_from`](Self::plan_from).
    ///
    /// # Errors
    ///
    /// As for [`recovery_line`](Self::recovery_line): the lowest-id
    /// process's failure.
    ///
    /// # Panics
    ///
    /// As for [`recovery_line`](Self::recovery_line).
    pub fn plan<S: Storage>(
        &self,
        processes: &[Middleware<S>],
        faulty: &FaultySet,
    ) -> Result<RecoveryPlan, RecoveryError> {
        let faulty = faulty.iter().map(|&f| {
            let mw = processes
                .get(f.index())
                .expect("faulty process out of range");
            (f, mw.last_stable(), mw.incarnation())
        });
        let blockers = Blockers::new(processes.len(), faulty);
        let chosen = processes
            .iter()
            .map(|mw| self.choose(mw, &blockers))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.plan_from(&chosen))
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

/// A Lemma-1 candidate's dependency vector: the volatile one or a stored
/// one kept in full, or a stored checkpoint's read one entry at a time
/// through the changes its store keeps ([`CheckpointStore::lineage`]) — a
/// candidate is never materialised.
#[derive(Clone, Copy)]
enum Candidate<'a> {
    Whole(&'a DependencyVector),
    Changed(&'a CheckpointStore, usize),
}

impl Candidate<'_> {
    fn lineage(self, f: ProcessId) -> DvEntry {
        match self {
            Candidate::Whole(dv) => dv.lineage(f),
            Candidate::Changed(store, position) => store.lineage(position, f),
        }
    }
}

/// One session's faulty set as Lemma 1 reads it: each faulty process's
/// last stable checkpoint and live incarnation — nothing else of any
/// process — kept as a membership bitmap and, per faulty process, the
/// range of packed entries it blocks. Small and `Send`: the sharded
/// engine builds it from gathered triples and hands it to every worker,
/// which then [chooses](RecoveryManager::choose) its own processes'
/// components in place.
///
/// Faulty `f` blocks a candidate whose entry for `f` lies in its live
/// incarnation past its last stable checkpoint: `(live, last_stable + 1) ≤
/// DV[f] < (live + 1, 0)` in the packed order of [`DvEntry`], which is the
/// lexicographic one. A range is kept as its low end and its width, so the
/// test is one wrapping subtraction and one compare (`DV[f] − lo < width`).
/// A candidate is blocked iff some faulty entry falls in its range: the
/// hits are counted over every faulty process, without a branch per
/// process and without stopping at the first blocker.
#[derive(Debug, Clone)]
pub struct Blockers {
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
    fn holds(self, candidate: Candidate<'_>) -> bool {
        let entry = candidate.lineage(ProcessId::new(self.f));
        entry.packed().wrapping_sub(self.lo) < self.width
    }
}

impl Blockers {
    /// The blockers of an `n`-process system from each faulty process's
    /// `(process, last stable checkpoint, live incarnation)`.
    ///
    /// # Panics
    ///
    /// Panics if a faulty process is not below `n`.
    pub fn new(
        n: usize,
        faulty: impl IntoIterator<Item = (ProcessId, CheckpointIndex, Incarnation)>,
    ) -> Self {
        let mut members = vec![0; n.div_ceil(64)];
        let range = |(f, last_stable, live): (ProcessId, CheckpointIndex, Incarnation)| {
            assert!(f.index() < n, "faulty process out of range");
            members[f.index() / 64] |= 1 << (f.index() % 64);
            let live = u64::from(live.value()) << DvEntry::INTERVAL_BITS;
            // Wrapping: the newest incarnation's range ends at 2^64.
            let lo = live.wrapping_add(last_stable.value() as u64 + 1);
            let end = live.wrapping_add(1 << DvEntry::INTERVAL_BITS);
            Range {
                f: f.index(),
                lo,
                width: end.wrapping_sub(lo),
            }
        };
        let mut ranges: Vec<Range> = faulty.into_iter().map(range).collect();
        ranges.sort_unstable_by_key(|r| r.f);
        Self {
            faulty: members,
            ranges,
        }
    }

    fn is_faulty(&self, p: ProcessId) -> bool {
        self.faulty[p.index() / 64] >> (p.index() % 64) & 1 == 1
    }

    /// Lemma 1's blocked test for candidate `idx` of process `i`, whose
    /// last stable checkpoint is `last_stable`: does the last stable
    /// checkpoint of some faulty process causally precede it in that
    /// process's live incarnation
    /// ([`DependencyVector::dominates_live_checkpoint`] of the candidate's
    /// entry for it)? Tested against every faulty process at once.
    ///
    /// A checkpoint never precedes itself: the self guard discounts a
    /// faulty process's own hit on its stored last stable checkpoint. The
    /// guard holds across incarnations: the stored copy of the last stable
    /// checkpoint may have been written in an earlier incarnation than the
    /// one now executing (repeated rollbacks onto the same index), and it
    /// still must not count as its own blocker. A volatile candidate sits
    /// above `last_stable`, so the guard never fires for it.
    fn blocked(
        &self,
        i: ProcessId,
        last_stable: CheckpointIndex,
        idx: CheckpointIndex,
        candidate: Candidate<'_>,
    ) -> bool {
        let hits: usize = self
            .ranges
            .iter()
            .map(|r| usize::from(r.holds(candidate)))
            .sum();
        let guarded = self.is_faulty(i) && idx == last_stable && {
            let own = self.ranges.binary_search_by_key(&i.index(), |r| r.f);
            self.ranges[own.expect("a faulty process has a range")].holds(candidate)
        };
        hits > usize::from(guarded)
    }

    /// A process's Lemma-1 candidates, newest first: its volatile state
    /// unless it is faulty, then its stored checkpoints.
    fn candidates<'a, S: Storage>(
        &self,
        mw: &'a Middleware<S>,
    ) -> impl Iterator<Item = (CheckpointIndex, Candidate<'a>)> {
        let volatile = (!self.is_faulty(mw.owner()))
            .then(|| (mw.last_stable().next(), Candidate::Whole(mw.dv())));
        let store = mw.store();
        let stored = (0..store.len()).rev().map(move |k| {
            let candidate = store
                .full_at(k)
                .map_or(Candidate::Changed(store, k), Candidate::Whole);
            (store.index_at(k), candidate)
        });
        volatile.into_iter().chain(stored)
    }

    /// Lemma 1 for one process: its newest candidate that no faulty
    /// process blocks, or `None` if every one is blocked.
    fn choose<S: Storage>(&self, mw: &Middleware<S>) -> Option<CheckpointIndex> {
        let (i, last_stable) = (mw.owner(), mw.last_stable());
        self.candidates(mw)
            .find(|&(idx, candidate)| !self.blocked(i, last_stable, idx, candidate))
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
fn exhausted<S: Storage>(mw: &Middleware<S>) -> Result<CheckpointIndex, RecoveryError> {
    if !mw.gc_kind().needs_time_assumptions() {
        return Err(RecoveryError::LineExhausted {
            process: mw.owner(),
            gc: mw.gc_kind(),
        });
    }
    Ok(mw
        .store()
        .indices()
        .next()
        .expect("stable storage retains at least one checkpoint"))
}

/// One process's share of a recovery session's decisions, as
/// [`RecoveryManager::choose`] makes them where the process lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chosen {
    /// The process.
    pub process: ProcessId,
    /// Its recovery-line component (`last_stable + 1` = volatile state).
    pub component: CheckpointIndex,
    /// Its post-session `(LI component, incarnation)`.
    pub li: (CheckpointIndex, Incarnation),
    /// Whether the component degraded to the oldest survivor (time-based
    /// GC only).
    pub degraded: bool,
}

/// The decisions of one recovery session, separated from their
/// application so the two halves can run on different threads (the
/// sharded engine's workers choose their processes' components, the
/// coordinator assembles the plan from the choices, and the workers
/// apply it to the middlewares they own).
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
    fn choices_made_apart_plan_as_the_whole() {
        // What the sharded engine does: the faulty set's triples, each
        // process's choice made on its own, the plan assembled from them.
        let mut mws = chain();
        mws[0].crash();
        let faulty: FaultySet = [p(0)].into_iter().collect();
        let mgr = RecoveryManager::new();
        let blockers = Blockers::new(3, [(p(0), idx(1), Incarnation::ZERO)]);
        let chosen: Vec<Chosen> = mws
            .iter()
            .map(|mw| mgr.choose(mw, &blockers).unwrap())
            .collect();
        let apart = mgr.plan_from(&chosen);
        let whole = mgr.plan(&mws, &faulty).unwrap();
        assert_eq!(apart.line, whole.line);
        assert_eq!(apart.components, whole.components);
        assert_eq!(apart.degraded, whole.degraded);
        assert_eq!(apart.li, whole.li);
        assert_eq!(whole.line, vec![idx(1), idx(0), idx(0)]);
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

    /// A faulty process as Lemma 1 reads it, one blocker at a time: the
    /// reference the word-parallel [`Blockers::blocked`] is checked against.
    struct Blocker {
        f: ProcessId,
        /// `s_f^last`, its last stable checkpoint.
        last_stable: CheckpointIndex,
        /// Its live incarnation.
        live: Incarnation,
    }

    impl Blocker {
        /// Does `s_f^last` causally precede candidate `idx` of process `i`
        /// in `f`'s live incarnation? Never when the candidate is `s_f^last`
        /// itself.
        fn blocks(&self, i: ProcessId, idx: CheckpointIndex, candidate: Candidate<'_>) -> bool {
            let entry = candidate.lineage(self.f);
            assert!(entry.incarnation() <= self.live, "no news from the future");
            !(self.f == i && idx == self.last_stable)
                && entry.incarnation() == self.live
                && self.last_stable.value() < entry.interval().value()
        }
    }

    /// A healthy `p0` (last stable `s^1`) beside `p1` (last stable `s^3`),
    /// both in incarnation 2, as `(process, last stable, vector)`: a
    /// process's volatile state and its stored last stable checkpoint carry
    /// the vector the test spells out.
    fn guarded_pair(
        own: (u32, usize),
        other: (u32, usize),
    ) -> [(ProcessId, CheckpointIndex, DependencyVector); 2] {
        [
            (
                p(0),
                idx(1),
                DependencyVector::from_lineages(vec![(2, 2), other]),
            ),
            (
                p(1),
                idx(3),
                DependencyVector::from_lineages(vec![other, own]),
            ),
        ]
    }

    /// Both Lemma-1 tests over every candidate of every process: the
    /// volatile state unless the process is faulty, then its last stable
    /// checkpoint.
    fn both_tests(
        pair: &[(ProcessId, CheckpointIndex, DependencyVector)],
        faulty: &FaultySet,
    ) -> Vec<(bool, bool)> {
        let live = Incarnation::new(2);
        let list: Vec<Blocker> = faulty
            .iter()
            .map(|&f| Blocker {
                f,
                last_stable: pair[f.index()].1,
                live,
            })
            .collect();
        let session = Blockers::new(
            pair.len(),
            list.iter().map(|b| (b.f, b.last_stable, b.live)),
        );
        let mut verdicts = Vec::new();
        for (i, last, dv) in pair {
            let volatile = (!faulty.contains(i)).then(|| last.next());
            for at in volatile.into_iter().chain([*last]) {
                let candidate = Candidate::Whole(dv);
                let one_by_one = list.iter().any(|b| b.blocks(*i, at, candidate));
                verdicts.push((session.blocked(*i, *last, at, candidate), one_by_one));
            }
        }
        verdicts
    }

    #[test]
    fn the_word_parallel_test_keeps_the_self_guard() {
        // p1's stored s^3 carries an entry of its own live incarnation past
        // s^3: it would block, were it not p1's own last stable checkpoint.
        let pair = guarded_pair((2, 4), (0, 0));
        let faulty: FaultySet = [p(1)].into_iter().collect();
        let verdicts = both_tests(&pair, &faulty);
        assert_eq!(
            verdicts,
            vec![(false, false); 3],
            "p0: volatile, s^1; p1: s^3"
        );
        // Another faulty process's hit still blocks under the guard.
        let faulty: FaultySet = [p(0), p(1)].into_iter().collect();
        let pair = guarded_pair((2, 4), (2, 3));
        let verdicts = both_tests(&pair, &faulty);
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
            let pair = guarded_pair((2, 3), other);
            let verdicts = both_tests(&pair, &faulty);
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
