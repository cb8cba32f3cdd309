//! CrashMonkey-style crash-point torture of the durable path `rdt serve`
//! ships.
//!
//! The stable-storage contract of the paper's Section 2 is an *assumption*
//! there; here it has to be earned. Every run is one deterministic script
//! executed by the simulators' script runner ([`run_script_with`]) over `n`
//! `Middleware<DiskSink>`s whose stores share one [`FaultFs`] backend: each
//! op runs the step core's handlers, each middleware mutation commits
//! through the sink as it does in a live worker, and the run stops at the
//! first commit that fails.
//!
//! 1. The **reference run** executes the script fault-free (but
//!    op-counted), recording its trace, per op the backend operations
//!    consumed by its end, its trace length and the checkpoint it stored,
//!    and the operation of every append. Its fault-free end is judged
//!    ([`judge`]) like a clean `rdt serve` run's, Theorem 5 included.
//! 2. For **every backend operation** `K` (optionally sampled), the same
//!    script re-runs against a plan that stops the backend dead after `K`
//!    operations. Every process then [`restart`]s from its surviving log,
//!    and the reference-trace prefix the disk witnesses is judged against
//!    them: the full recovery session (all processes faulty, committing
//!    through the sinks) must reach the offline oracle's line, and no
//!    collect in the prefix may violate Theorem 4. A second restart must
//!    then find on disk the stored indices and incarnation the session
//!    left.
//! 3. Separately, seeded **fault plans** (torn and bit-flipped appends and
//!    compaction writes, lost renames, transient `EIO`/`ENOSPC`, with or
//!    without a crash point) exercise graceful degradation: the restart
//!    must skip what is corrupt, restore from the intact remainder,
//!    recover, and keep executing. A plan that opens with a torn write or
//!    a bit flip keys it on an operation the reference run saw append, so
//!    the faults the log is there to survive are never vacuous.
//!
//! The oracle's prefix is chosen adaptively. An op stores at most one
//! checkpoint, so a crash image holds every op that completed before `K`
//! and, of the op in flight, its checkpoint or not: whether that
//! checkpoint reached the disk decides whether the oracle replays the op.
//! The op's later commits may not have: a crash between a forced
//! checkpoint's commit and its receive's collect commit legitimately
//! brings back a checkpoint the replayed prefix collects, which is why
//! Theorem 5 is judged at the reference run's end only.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use rdt_base::{CheckpointIndex, Incarnation, MessageId, ProcessId, TraceEvent};
use rdt_core::GcKind;
use rdt_env::{DetRng, Rng as _};
use rdt_protocols::{Middleware, ProtocolKind};
use rdt_recovery::{FaultySet, RecoveryManager};
use rdt_sim::run_script_with;
use rdt_storage::{DiskSink, DurableStore, FaultFs, FaultKind, FaultPlan, RestartReport};
use rdt_workloads::Script;

use crate::restart;
use crate::verdict::{judge, Verdict};

/// Configuration of one torture session.
#[derive(Debug, Clone)]
pub struct TortureOptions {
    /// Number of processes.
    pub n: usize,
    /// Number of scripted events.
    pub events: usize,
    /// Seed for script and fault-plan generation.
    pub seed: u64,
    /// Checkpointing protocol.
    pub protocol: ProtocolKind,
    /// Garbage collector.
    pub gc: GcKind,
    /// Crash-point cap: when the script consumes more backend operations
    /// than this, the sweep samples evenly instead of enumerating all.
    /// `0` disables the crash-point sweep.
    pub max_crash_points: usize,
    /// Number of seeded corruption fault plans to run. `0` disables them.
    pub fault_plans: usize,
}

impl Default for TortureOptions {
    fn default() -> Self {
        Self {
            n: 4,
            events: 60,
            seed: 1,
            protocol: ProtocolKind::Fdas,
            gc: GcKind::RdtLgc,
            max_crash_points: 200,
            fault_plans: 16,
        }
    }
}

/// What a torture session found.
#[derive(Debug, Clone, Default)]
pub struct TortureReport {
    /// Backend operations one fault-free run of the script consumes.
    pub total_ops: u64,
    /// Crash points actually exercised.
    pub crash_points_tested: usize,
    /// Corruption fault plans actually exercised.
    pub fault_plans_tested: usize,
    /// Damaged log stretches skipped across all restarts.
    pub quarantined: usize,
    /// Torn or bit-flipped **appends** among the faults the plans injected.
    pub append_faults: u64,
    /// Transient errors absorbed by the retry path across all runs.
    pub transient_retries: u64,
    /// Per crash point (the operation count its plan fired after), the
    /// restart's counters summed over processes, in probe order.
    pub restarts: Vec<(u64, RestartReport)>,
    /// Human-readable descriptions of every failed check. Empty means the
    /// storage layer survived everything thrown at it.
    pub failures: Vec<String>,
}

impl TortureReport {
    /// Whether every crash point and fault plan passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The runs judged: the reference run, every crash point and every
    /// fault plan. Each files at most one of [`failures`](Self::failures).
    pub fn runs_judged(&self) -> usize {
        1 + self.crash_points_tested + self.fault_plans_tested
    }
}

/// Generates the scripted workload: ~30% basic checkpoints, ~45% sends,
/// ~25% deliveries of the oldest pending send (falling back to a
/// checkpoint when nothing is in flight).
fn generate_script(n: usize, events: usize, seed: u64) -> Script {
    let mut rng = DetRng::seeded(seed);
    let mut below = |bound: u64| rng.between(0, bound - 1);
    let mut script = Script::new();
    let mut pending: Vec<usize> = Vec::new();
    for _ in 0..events {
        let roll = below(100);
        if roll < 30 {
            script.checkpoint(ProcessId::new(below(n as u64) as usize));
        } else if roll < 75 || pending.is_empty() {
            let from = below(n as u64) as usize;
            let to = (from + 1 + below(n as u64 - 1) as usize) % n;
            pending.push(script.send(ProcessId::new(from), ProcessId::new(to)));
        } else {
            script.deliver(pending.remove(0));
        }
    }
    script
}

/// Per-op bookkeeping from the reference run.
#[derive(Debug, Clone, Copy)]
struct OpMeta {
    /// Cumulative backend operations once the op's commits completed.
    ops_after: u64,
    /// Trace length once the op's events were recorded.
    trace_len: usize,
    /// The checkpoint the op stored, as `(process index, checkpoint
    /// index)`, if any.
    stored: Option<(usize, usize)>,
}

/// Everything the oracle needs about the fault-free execution.
struct Reference {
    trace: Vec<TraceEvent>,
    ops: Vec<OpMeta>,
    create_ops: u64,
    total_ops: u64,
    /// The operations that were a commit's append.
    append_ops: Vec<u64>,
}

impl Reference {
    /// The trace of the first `cut` ops, with every send it leaves
    /// undelivered dropped.
    fn prefix(&self, cut: usize) -> Vec<TraceEvent> {
        let len = cut
            .checked_sub(1)
            .map_or(0, |last| self.ops[last].trace_len);
        let mut prefix = self.trace[..len].to_vec();
        let delivered: BTreeSet<MessageId> = prefix
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Deliver { id } => Some(id),
                _ => None,
            })
            .collect();
        let dropped: Vec<TraceEvent> = prefix
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Send { id, .. } if !delivered.contains(&id) => {
                    Some(TraceEvent::Drop { id })
                }
                _ => None,
            })
            .collect();
        prefix.extend(dropped);
        prefix
    }
}

fn store_dir(root: &Path, p: ProcessId) -> PathBuf {
    root.join(format!("p{}", p.index()))
}

/// The fresh processes of one run, each committing to its own directory
/// under `root` through one fault-injecting backend.
fn create(
    root: &Path,
    opts: &TortureOptions,
    plan: FaultPlan,
) -> Result<(Vec<Middleware<DiskSink>>, FaultFs), String> {
    // The run's own directory exists before any store does, so every
    // run's first commits make (and fsync for) the same directories, and
    // its ops line up with the reference run's.
    std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
    let backend = FaultFs::new(plan);
    let mut mws = Vec::with_capacity(opts.n);
    for p in ProcessId::all(opts.n) {
        let disk = DurableStore::open_with(store_dir(root, p), p, Box::new(backend.clone()))
            .map_err(|e| e.to_string())?;
        let sink = DiskSink::over(disk);
        let mut mw = Middleware::with_storage(p, opts.n, opts.protocol, opts.gc, sink);
        if let Some(e) = mw.take_sink_error() {
            return Err(format!("initial commit of {p}: {e}"));
        }
        mws.push(mw);
    }
    Ok((mws, backend))
}

/// Judges `trace` against `processes` ([`judge`]) and puts what it finds
/// against the contract in `wrong`: an online line other than the
/// oracle's, a collect Theorem 4 forbids, a judgement that could not be
/// passed. Returns the verdict, if passed.
fn judged(
    trace: &[TraceEvent],
    processes: &mut [Middleware<DiskSink>],
    wrong: &mut Vec<String>,
) -> Option<Verdict> {
    let verdict = judge(trace, processes).map_err(|e| wrong.push(e)).ok()?;
    if verdict.online != verdict.offline {
        wrong.push(format!(
            "online line {:?} != oracle {:?}",
            verdict.online, verdict.offline
        ));
    }
    if !verdict.gc_violations.is_empty() {
        wrong.push(format!(
            "collected checkpoints that were not obsolete: {:?}",
            verdict.gc_violations
        ));
    }
    Some(verdict)
}

/// Files what one run got wrong, if anything, as one failure of `what`.
fn file(failures: &mut Vec<String>, what: &str, wrong: &[String]) {
    if !wrong.is_empty() {
        failures.push(format!("{what}: {}", wrong.join("; ")));
    }
}

/// Runs the script fault-free (but op-counted), records everything the
/// crash-point oracle needs, and judges the run's end.
fn reference_run(
    root: &Path,
    opts: &TortureOptions,
    script: &Script,
    failures: &mut Vec<String>,
) -> Result<Reference, String> {
    let (mws, backend) = create(root, opts, FaultPlan::none())?;
    let create_ops = backend.ops_executed();
    let mut ops: Vec<OpMeta> = Vec::with_capacity(script.len());
    let run = run_script_with(mws, script, |_, mws, trace| {
        let start = ops.last().map_or(0, |m| m.trace_len);
        let stored = trace[start..].iter().find_map(|e| match *e {
            TraceEvent::Checkpoint { process, .. } => {
                Some((process.index(), mws[process.index()].last_stable().value()))
            }
            _ => None,
        });
        ops.push(OpMeta {
            ops_after: backend.ops_executed(),
            trace_len: trace.len(),
            stored,
        });
    });
    let mut run = run.map_err(|e| format!("reference run: {e}"))?;
    let (total_ops, append_ops) = (backend.ops_executed(), backend.append_ops());

    let mut wrong = Vec::new();
    let verdict = judged(&run.trace, &mut run.processes, &mut wrong);
    if let Some(missed) = verdict.and_then(|v| v.gc_missed) {
        if missed > 0 && matches!(opts.gc, GcKind::RdtLgc) {
            wrong.push(format!(
                "RDT-LGC retained {missed} checkpoints no process witnesses"
            ));
        }
    }
    file(failures, "reference run", &wrong);
    Ok(Reference {
        trace: run.trace,
        ops,
        create_ops,
        total_ops,
        append_ops,
    })
}

/// Replays the script until the backend crashes (or the script ends). The
/// processes die with the run — only the logs survive.
fn run_until_crash(
    root: &Path,
    opts: &TortureOptions,
    script: &Script,
    plan: FaultPlan,
) -> Result<FaultFs, String> {
    let (mws, backend) = create(root, opts, plan)?;
    match run_script_with(mws, script, |_, _, _| {}) {
        Err(e) if !backend.has_crashed() => Err(e.to_string()),
        _ => Ok(backend),
    }
}

/// Restarts every process from its surviving log. Returns the rebuilt
/// (crashed) processes and the [`RestartReport`] counters summed over
/// all of them.
fn restart_all(
    root: &Path,
    opts: &TortureOptions,
) -> Result<(Vec<Middleware<DiskSink>>, RestartReport), String> {
    let mut total = RestartReport::default();
    let mut mws = Vec::with_capacity(opts.n);
    for p in ProcessId::all(opts.n) {
        let (mw, report) = restart(&store_dir(root, p), p, opts.n, opts.protocol, opts.gc)?;
        total.loaded += report.loaded;
        total.quarantined += report.quarantined;
        total.log_bytes += report.log_bytes;
        total.transient_retries += report.transient_retries;
        mws.push(mw);
    }
    Ok((mws, total))
}

/// What a restart must find of every process: its stored indices and its
/// incarnation.
fn durable_state(mws: &[Middleware<DiskSink>]) -> Vec<(Vec<CheckpointIndex>, Incarnation)> {
    mws.iter()
        .map(|mw| (mw.store().indices().collect(), mw.incarnation()))
        .collect()
}

/// One crash-point probe: run to the injected crash, restart, judge the
/// witnessed prefix against the restarted processes, restart again.
fn probe_crash_point(
    root: &Path,
    opts: &TortureOptions,
    script: &Script,
    reference: &Reference,
    k: u64,
    report: &mut TortureReport,
) -> Result<(), String> {
    let backend = run_until_crash(root, opts, script, FaultPlan::crash_after(k))?;
    if !backend.has_crashed() {
        report
            .failures
            .push(format!("crash point {k}: the plan never fired"));
        return Ok(());
    }
    let (mut mws, restart) = restart_all(root, opts)?;
    report.quarantined += restart.quarantined;
    report.restarts.push((k, restart));

    // How many ops completed their commits before op K, adjusted by
    // whether the op in flight stored a checkpoint that is already durable.
    let mut cut = reference.ops.iter().filter(|m| m.ops_after <= k).count();
    if let Some(&OpMeta {
        stored: Some((p, index)),
        ..
    }) = reference.ops.get(cut)
    {
        cut += usize::from(mws[p].store().contains(CheckpointIndex::new(index)));
    }

    let mut wrong = Vec::new();
    if restart.quarantined != 0 {
        // A pure stop-after-K crash tears nothing: an append lands whole
        // or not at all, a compaction leaves at most an invisible temp.
        wrong.push(format!(
            "{} log stretches quarantined by a clean stop",
            restart.quarantined
        ));
    }
    if judged(&reference.prefix(cut), &mut mws, &mut wrong).is_some() {
        // The session committed through the sinks: a restart now must
        // come back to what it recovered.
        let recovered = durable_state(&mws);
        drop(mws);
        match restart_all(root, opts) {
            Ok((again, _)) if durable_state(&again) == recovered => {}
            Ok((again, _)) => wrong.push(format!(
                "a restart after recovery finds {:?}, not the recovered {recovered:?}",
                durable_state(&again)
            )),
            Err(e) => wrong.push(format!("a restart after recovery failed: {e}")),
        }
    }
    file(
        &mut report.failures,
        &format!("crash point {k} (cut {cut})"),
        &wrong,
    );
    Ok(())
}

/// One seeded corruption plan: run (crashing or not), restart, recover,
/// and keep executing. Asserts the graceful-degradation contract, not
/// oracle equality — a quarantined checkpoint legitimately shifts the
/// line to an older intact one.
fn probe_fault_plan(
    root: &Path,
    opts: &TortureOptions,
    script: &Script,
    reference: &Reference,
    plan_no: usize,
    report: &mut TortureReport,
) -> Result<(), String> {
    let mut rng = DetRng::seeded(opts.seed ^ (0x9e37_79b9 + plan_no as u64));
    let mut below = |bound: u64| rng.between(0, bound.max(1) - 1);
    let span = reference.total_ops - reference.create_ops;
    let mut plan = FaultPlan::none();
    let kinds = [
        FaultKind::TornWrite,
        FaultKind::BitFlip,
        FaultKind::LostRename,
        FaultKind::TransientEio,
        FaultKind::TransientEnospc,
    ];
    let mut used = BTreeSet::new();
    // The append an opening torn write or bit flip is keyed on. Nothing
    // may fire ahead of it: a retry would shift it off the append, a
    // crash would pre-empt it.
    let mut keyed = None;
    for f in 0..(2 + below(3)) {
        let kind = kinds[(plan_no + f as usize) % kinds.len()];
        // Transient faults shift later op indices by one retry each, so
        // spread fault sites out to keep plans from stacking on one op.
        let mut op = reference.create_ops + below(span);
        let appends = &reference.append_ops;
        let tears = matches!(kind, FaultKind::TornWrite | FaultKind::BitFlip);
        if f == 0 && tears && !appends.is_empty() {
            op = appends[below(appends.len() as u64) as usize];
            keyed = Some(op);
        }
        if keyed.is_some_and(|k| op < k) || used.iter().any(|&u: &u64| u.abs_diff(op) < 8) {
            continue;
        }
        used.insert(op);
        plan = plan.with_fault(op, kind);
    }
    if keyed.is_none() && below(2) == 0 {
        plan.stop_after = Some(reference.create_ops + below(span));
    }

    let backend = run_until_crash(root, opts, script, plan)?;
    // Every backend call runs under the store's retry loop, so each
    // injected transient error is one absorbed retry.
    report.transient_retries += backend.transient_faults_injected();
    report.append_faults += backend.append_faults_injected();
    let what = format!("fault plan {plan_no}");
    let (mut mws, restart) = match restart_all(root, opts) {
        Ok(v) => v,
        Err(e) => {
            file(
                &mut report.failures,
                &what,
                &[format!("restart failed: {e}")],
            );
            return Ok(());
        }
    };
    report.quarantined += restart.quarantined;
    let faulty: FaultySet = ProcessId::all(opts.n).collect();
    if let Err(e) = RecoveryManager::new().recover(&mut mws, &faulty) {
        file(
            &mut report.failures,
            &what,
            &[format!("recovery failed: {e}")],
        );
        return Ok(());
    }
    // The system must keep executing from the recovered cut, durably.
    let mut wrong = Vec::new();
    for mw in &mut mws {
        let stored = mw.basic_checkpoint().map_err(|e| e.to_string());
        if let Err(e) = stored.and_then(|_| mw.take_sink_error().map_or(Ok(()), Err)) {
            wrong.push(format!(
                "{} cannot checkpoint after recovery: {e}",
                mw.owner()
            ));
        }
    }
    file(&mut report.failures, &what, &wrong);
    Ok(())
}

/// Runs a full torture session: the reference run, the crash-point sweep
/// and the seeded corruption plans.
///
/// # Errors
///
/// Harness-level failures (scratch-directory setup, unexpected
/// non-injected I/O errors). Contract violations are *not* errors — they
/// are collected in [`TortureReport::failures`].
pub fn run_torture(opts: &TortureOptions) -> Result<TortureReport, String> {
    let root =
        std::env::temp_dir().join(format!("rdt-torture-{}-{}", std::process::id(), opts.seed));
    let _ = std::fs::remove_dir_all(&root);
    let script = generate_script(opts.n, opts.events, opts.seed);
    let mut report = TortureReport::default();

    let ref_dir = root.join("reference");
    let reference = reference_run(&ref_dir, opts, &script, &mut report.failures)?;
    report.total_ops = reference.total_ops;

    if opts.max_crash_points > 0 {
        let span = reference.total_ops - reference.create_ops;
        let count = (opts.max_crash_points as u64).min(span);
        let mut probed = BTreeSet::new();
        for i in 0..count {
            // Even sampling over [create_ops, total_ops); enumerates all
            // when the budget covers the span.
            probed.insert(reference.create_ops + i * span / count);
        }
        for k in probed {
            let run_dir = root.join(format!("crash-{k}"));
            probe_crash_point(&run_dir, opts, &script, &reference, k, &mut report)?;
            let _ = std::fs::remove_dir_all(&run_dir);
            report.crash_points_tested += 1;
        }
    }

    for plan_no in 0..opts.fault_plans {
        let run_dir = root.join(format!("fault-{plan_no}"));
        probe_fault_plan(&run_dir, opts, &script, &reference, plan_no, &mut report)?;
        let _ = std::fs::remove_dir_all(&run_dir);
        report.fault_plans_tested += 1;
    }

    let _ = std::fs::remove_dir_all(&root);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_per_seed() {
        let a = generate_script(4, 50, 7);
        let b = generate_script(4, 50, 7);
        assert_eq!(a, b);
        assert_ne!(a, generate_script(4, 50, 8));
    }

    #[test]
    fn every_crash_point_recovers_to_the_oracle_line() {
        let opts = TortureOptions {
            n: 3,
            events: 24,
            seed: 11,
            max_crash_points: 64,
            fault_plans: 0,
            ..TortureOptions::default()
        };
        let report = run_torture(&opts).expect("harness runs");
        assert!(report.crash_points_tested > 0);
        assert!(report.passed(), "failures: {:#?}", report.failures);
        // Every probe reports its restart counters, and every restart
        // recovered at least the n initial checkpoints.
        assert_eq!(report.restarts.len(), report.crash_points_tested);
        assert!(report.restarts.iter().all(|(_, r)| r.loaded >= opts.n));
    }

    #[test]
    fn fault_plans_degrade_gracefully() {
        let opts = TortureOptions {
            n: 3,
            events: 24,
            seed: 5,
            max_crash_points: 0,
            fault_plans: 8,
            ..TortureOptions::default()
        };
        let report = run_torture(&opts).expect("harness runs");
        assert_eq!(report.fault_plans_tested, 8);
        assert!(report.passed(), "failures: {:#?}", report.failures);
        // Plans 0, 1, 5 and 6 open with a torn write or a bit flip keyed
        // on an append: the log's own crash images are among the faults.
        assert_eq!(report.append_faults, 4);
        assert!(report.quarantined > 0);
    }

    /// A script's clock is its op count, so a collector that discards
    /// what is older than one tick collects checkpoints a recovery line
    /// needs, and the sweep says so.
    #[test]
    fn a_time_based_collector_fails_the_sweep() {
        let opts = TortureOptions {
            n: 4,
            events: 80,
            seed: 7,
            gc: GcKind::TimeBased { horizon: 1 },
            max_crash_points: 40,
            fault_plans: 0,
            ..TortureOptions::default()
        };
        let report = run_torture(&opts).expect("harness runs");
        assert!(!report.passed());
    }
}
