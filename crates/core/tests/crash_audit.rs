//! The collection-safety audit through recovery sessions, made to bite.
//!
//! A small system — one collector, store and dependency vector per process
//! — takes checkpoints and exchanges messages, each received after a forced
//! checkpoint (checkpoint-before-receive, so every pattern is
//! RD-trackable), and now and then crashes a subset of its processes. A
//! crash runs a coordinated recovery session: the recovery line is Lemma 1
//! over the mirrored pattern, the processes below it roll back (Algorithm
//! 3 with `LI`) and the others get `LI` (Section 4.3). The run keeps the
//! trace a simulator records — checkpoints, messages, in-trace collects,
//! crashes, restores — and each session's own eliminations beside it, as
//! `SimulationReport::recovery_sessions` does. Then
//! `collection_safety_violations_through_sessions` judges every
//! elimination on the live history.
//!
//! RDT-LGC must pass every run. Two test-only mutants of it are run too:
//!
//! * [`EarlyRelease`] releases a `UC` pin one step early: on recovery
//!   information it drops `f`'s pin when `DV[f] ≤ LI[f]`, not only when
//!   `DV[f] < LI[f]`, so a checkpoint `f` still needs can go. The audit
//!   must flag it; in some runs only the sessions' own eliminations, which
//!   the trace does not name, give it away.
//! * [`RawIntervals`] compares raw intervals on recovery information,
//!   without the dead-incarnation amnesty. It only ever releases fewer pins
//!   than RDT-LGC (a dead incarnation's high interval reads as knowing the
//!   live one), so it collects less and is never unsafe: a safety audit
//!   cannot flag it, and this one does not. What it costs is optimality
//!   (Theorem 5), which a unit test of `lgc.rs` with a dead-incarnation
//!   entry pins.

use rdt_base::{
    CheckpointId, CheckpointIndex, DependencyVector, Incarnation, MessageId, ProcessId, TraceEvent,
    UpdateSet,
};
use rdt_ccp::{collection_safety_violations_through_sessions, CcpBuilder, FaultySet};
use rdt_core::{CheckpointStore, GarbageCollector, GcKind, LastIntervals, RdtLgc};

/// RDT-LGC, except that recovery information releases `f`'s pin one
/// interval early: `LI` is raised by one interval before the comparison, so
/// `DV[f] < LI[f] + 1`, i.e. `DV[f] ≤ LI[f]`, reads as stale.
#[derive(Debug)]
struct EarlyRelease(RdtLgc);

/// RDT-LGC, except that recovery information compares raw interval
/// indices: both vectors lose their incarnations before the comparison.
#[derive(Debug)]
struct RawIntervals(RdtLgc);

/// The `GarbageCollector` methods a mutant takes from RDT-LGC unchanged.
macro_rules! delegate {
    () => {
        fn kind(&self) -> GcKind {
            self.0.kind()
        }

        fn after_checkpoint_into(
            &mut self,
            store: &mut CheckpointStore,
            index: CheckpointIndex,
            dv: &DependencyVector,
            eliminated: &mut Vec<CheckpointIndex>,
        ) {
            self.0.after_checkpoint_into(store, index, dv, eliminated);
        }

        fn after_receive_into(
            &mut self,
            store: &mut CheckpointStore,
            updated: &UpdateSet,
            dv: &DependencyVector,
            eliminated: &mut Vec<CheckpointIndex>,
        ) {
            self.0.after_receive_into(store, updated, dv, eliminated);
        }

        fn after_rollback_into(
            &mut self,
            store: &mut CheckpointStore,
            ri: CheckpointIndex,
            li: Option<&LastIntervals>,
            dv: &DependencyVector,
            eliminated: &mut Vec<CheckpointIndex>,
        ) {
            self.0.after_rollback_into(store, ri, li, dv, eliminated);
        }
    };
}

/// `v` with every entry mapped by `entry`.
fn mapped(v: &[rdt_base::DvEntry], entry: impl Fn(u32, usize) -> (u32, usize)) -> DependencyVector {
    let lineages = v
        .iter()
        .map(|e| entry(e.incarnation().value(), e.interval().value()));
    DependencyVector::from_lineages(lineages.collect())
}

impl GarbageCollector for EarlyRelease {
    delegate!();

    fn on_recovery_info_into(
        &mut self,
        store: &mut CheckpointStore,
        li: &LastIntervals,
        dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        let raised = LastIntervals::from_dv(&mapped(li.as_slice(), |v, g| (v, g + 1)));
        self.0.on_recovery_info_into(store, &raised, dv, eliminated);
    }
}

impl GarbageCollector for RawIntervals {
    delegate!();

    fn on_recovery_info_into(
        &mut self,
        store: &mut CheckpointStore,
        li: &LastIntervals,
        dv: &DependencyVector,
        eliminated: &mut Vec<CheckpointIndex>,
    ) {
        let raw = LastIntervals::from_dv(&mapped(li.as_slice(), |_, g| (0, g)));
        let dv = mapped(dv.as_slice(), |_, g| (0, g));
        self.0.on_recovery_info_into(store, &raw, &dv, eliminated);
    }
}

/// One process: its collector, stable store and dependency vector.
struct Proc {
    gc: Box<dyn GarbageCollector>,
    store: CheckpointStore,
    dv: DependencyVector,
    incarnation: Incarnation,
}

/// A run: the processes, their pattern, the trace and the sessions'
/// eliminations.
struct Run {
    procs: Vec<Proc>,
    mirror: CcpBuilder,
    trace: Vec<TraceEvent>,
    sessions: Vec<Vec<CheckpointId>>,
    sent: Vec<u64>,
}

impl Run {
    fn new(n: usize, gc: impl Fn(ProcessId, usize) -> Box<dyn GarbageCollector>) -> Self {
        let mut run = Self {
            procs: ProcessId::all(n)
                .map(|p| Proc {
                    gc: gc(p, n),
                    store: CheckpointStore::new(p),
                    dv: DependencyVector::new(n),
                    incarnation: Incarnation::ZERO,
                })
                .collect(),
            mirror: CcpBuilder::new(n),
            trace: Vec::new(),
            sessions: Vec::new(),
            sent: vec![0; n],
        };
        // s^0 of every process, which the mirror holds from the start.
        for p in ProcessId::all(n) {
            let proc_ = &mut run.procs[p.index()];
            proc_.store.insert(CheckpointIndex::ZERO, proc_.dv.clone());
            let gone =
                proc_
                    .gc
                    .after_checkpoint(&mut proc_.store, CheckpointIndex::ZERO, &proc_.dv);
            assert!(gone.is_empty());
            proc_.dv.begin_next_interval(p);
        }
        run
    }

    fn event(&mut self, ev: TraceEvent) {
        self.mirror.apply(&ev).expect("the run replays");
        self.trace.push(ev);
    }

    fn collected(&mut self, process: ProcessId, gone: Vec<CheckpointIndex>) {
        for index in gone {
            self.event(TraceEvent::Collect { process, index });
        }
    }

    fn checkpoint(&mut self, p: ProcessId, forced: bool) {
        let proc_ = &mut self.procs[p.index()];
        let index = proc_.dv.entry(p).as_checkpoint();
        proc_.store.insert(index, proc_.dv.clone());
        let gone = proc_
            .gc
            .after_checkpoint(&mut proc_.store, index, &proc_.dv);
        proc_.dv.begin_next_interval(p);
        self.event(TraceEvent::Checkpoint { process: p, forced });
        self.collected(p, gone);
    }

    /// `from` sends to `to`, which checkpoints and then receives.
    fn message(&mut self, from: ProcessId, to: ProcessId) {
        let id = MessageId::new(from, self.sent[from.index()]);
        self.sent[from.index()] += 1;
        self.event(TraceEvent::Send { id, to });
        let carried = self.procs[from.index()].dv.clone();
        self.checkpoint(to, true);
        let proc_ = &mut self.procs[to.index()];
        let updated = proc_.dv.merge_from(&carried);
        let gone = proc_
            .gc
            .after_receive(&mut proc_.store, &updated, &proc_.dv);
        self.event(TraceEvent::Deliver { id });
        self.collected(to, gone);
    }

    /// Crashes `faulty` and runs a coordinated session. `false` if the line
    /// names a checkpoint the collector eliminated: the run cannot go on.
    fn crash(&mut self, faulty: &FaultySet) -> bool {
        for &process in faulty {
            self.event(TraceEvent::Crash { process });
        }
        let ccp = self.mirror.ccp();
        let line = ccp.recovery_line(faulty);
        let n = self.procs.len();
        // Each process's component, whether it rolls back, and its entry of
        // `LI`: the post-session last stable checkpoint and incarnation.
        let mut plan = Vec::with_capacity(n);
        let mut components = Vec::with_capacity(n);
        for (p, proc_) in ProcessId::all(n).zip(&self.procs) {
            let (component, last) = (line.component(p).index, ccp.last_stable(p));
            let rolls = component <= last;
            plan.push((component, rolls));
            let incarnation = if rolls {
                proc_.incarnation.next()
            } else {
                proc_.incarnation
            };
            components.push((component.min(last), incarnation));
        }
        let li = LastIntervals::from_components(&components);
        let mut eliminated = Vec::new();
        let mut restores = Vec::new();
        for (proc_, &(component, rolls)) in self.procs.iter_mut().zip(&plan) {
            let p = proc_.store.owner();
            let gone = if rolls {
                if proc_.store.dv(component, &mut proc_.dv).is_err() {
                    return false;
                }
                proc_.incarnation = proc_.incarnation.next();
                proc_.dv.resume_incarnation(p, proc_.incarnation);
                restores.push(TraceEvent::Restore {
                    process: p,
                    to: component,
                });
                proc_
                    .gc
                    .after_rollback(&mut proc_.store, component, Some(&li), &proc_.dv)
            } else {
                proc_.gc.on_recovery_info(&mut proc_.store, &li, &proc_.dv)
            };
            eliminated.extend(gone.into_iter().map(|index| CheckpointId::new(p, index)));
        }
        for restore in restores {
            self.event(restore);
        }
        self.sessions.push(eliminated);
        true
    }
}

/// SplitMix64.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The run of `seed` under `gc`: n = 3–5, up to 120 operations, about one
/// in twelve a crash of a random non-empty subset.
fn run(seed: u64, gc: impl Fn(ProcessId, usize) -> Box<dyn GarbageCollector>) -> Run {
    let mut state = seed;
    let n = 3 + (next(&mut state) % 3) as usize;
    let mut run = Run::new(n, gc);
    for _ in 0..120 {
        let r = next(&mut state);
        let (a, b) = (
            ProcessId::new(r as usize / 16 % n),
            ProcessId::new(r as usize / 256 % n),
        );
        match r % 12 {
            0..=3 => run.checkpoint(a, false),
            4..=10 if a != b => run.message(a, b),
            4..=10 => {}
            _ => {
                let mask = 1 + (r >> 32) % ((1 << n) - 1);
                let faulty: FaultySet = ProcessId::all(n)
                    .filter(|p| mask >> p.index() & 1 == 1)
                    .collect();
                if !run.crash(&faulty) {
                    break;
                }
            }
        }
    }
    run
}

/// The violations of a run, its sessions' eliminations audited or not.
fn audit(run: &Run, sessions: bool) -> Vec<CheckpointId> {
    let none = vec![Vec::new(); run.sessions.len()];
    let given = if sessions { &run.sessions } else { &none };
    collection_safety_violations_through_sessions(run.procs.len(), &run.trace, given)
        .expect("the trace replays")
}

const RUNS: u64 = 200;

#[test]
fn rdt_lgc_passes_the_audit_through_every_session() {
    let mut sessions = 0;
    for seed in 0..RUNS {
        let run = run(seed, |p, n| Box::new(RdtLgc::new(p, n)));
        sessions += run.sessions.len();
        assert_eq!(audit(&run, true), vec![], "seed {seed}");
    }
    assert!(
        sessions > RUNS as usize,
        "{sessions} sessions: the runs crash"
    );
}

#[test]
fn a_pin_released_one_step_early_is_caught_through_the_sessions() {
    let (mut flagged, mut only_through_sessions) = (0, 0);
    for seed in 0..RUNS {
        let run = run(seed, |p, n| Box::new(EarlyRelease(RdtLgc::new(p, n))));
        let caught = !audit(&run, true).is_empty();
        flagged += usize::from(caught);
        only_through_sessions += usize::from(caught && audit(&run, false).is_empty());
    }
    println!("{flagged} of {RUNS} runs flagged, {only_through_sessions} only through sessions");
    assert!(flagged > 0, "no run of {RUNS} flagged");
    // Later collects of a run that lost a pin can give it away too; some
    // runs show nothing but the session's own eliminations.
    assert!(
        only_through_sessions > 0,
        "the sessions' eliminations never mattered"
    );
}

#[test]
fn comparing_raw_intervals_only_collects_less_and_is_not_flagged() {
    for seed in 0..RUNS {
        let run = run(seed, |p, n| Box::new(RawIntervals(RdtLgc::new(p, n))));
        assert_eq!(audit(&run, true), vec![], "seed {seed}");
    }
}
