//! CrashMonkey-style crash-point torture for the durable store.
//!
//! The stable-storage contract of the paper's Section 2 is an *assumption*
//! there; here it has to be earned. This module proves it mechanically:
//!
//! 1. A deterministic scripted workload (checkpoints, sends, deliveries
//!    over `n` middleware stacks, each mirrored through the durable store
//!    with a [`FaultFs`] backend) runs once fault-free as the **reference
//!    run**, recording the replayable trace and, per event, how many
//!    backend operations it consumed and which checkpoint (if any) it made
//!    durable.
//! 2. For **every backend operation** `K` (optionally sampled), the same
//!    script re-runs against a plan that stops the backend dead after `K`
//!    operations. Every process then restarts from the surviving logs
//!    alone, a full recovery session runs (all processes faulty), and the
//!    online recovery line is compared against the offline
//!    [`rdt_ccp`] oracle replaying the reference-trace prefix that the
//!    surviving disk state actually witnesses.
//! 3. Separately, seeded **fault plans** (torn and bit-flipped appends and
//!    compaction writes, lost renames, transient `EIO`/`ENOSPC`, with or
//!    without a crash point) exercise graceful degradation: the restart
//!    must skip what is corrupt, restore from the intact remainder,
//!    recover, and keep executing. A plan that opens with a torn write or
//!    a bit flip keys it on an operation the reference run saw append, so
//!    the faults the log is there to survive are never vacuous.
//!
//! The oracle cut is chosen adaptively. One event's mirror sync is one
//! append (its at most one new checkpoint *before* any collects) or one
//! rename of a compacted log, so a crash image is either exactly the
//! state after the previous event — the new checkpoint is not durable —
//! or the state after the partial event. Whether the partial event's
//! checkpoint survived on disk therefore decides which trace prefix the
//! oracle replays; the online line must match it exactly.

use std::collections::BTreeSet;
use std::path::Path;

use rdt_base::{CheckpointIndex, Payload, ProcessId, TraceEvent};
use rdt_ccp::CcpBuilder;
use rdt_core::GcKind;
use rdt_env::{DetRng, Rng as _};
use rdt_protocols::{Middleware, Piggyback, ProtocolKind};
use rdt_recovery::{FaultySet, RecoveryManager};
use rdt_workloads::{Script, ScriptOp};

use crate::backend::{FaultFs, FaultKind, FaultPlan};
use crate::durable::{DurableStore, RestartReport};
use crate::error::{Error, Result};

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

/// Per-event bookkeeping from the reference run.
#[derive(Debug, Clone, Copy)]
struct EventMeta {
    /// Cumulative backend operations once this event's sync completed.
    ops_after: u64,
    /// Trace length once this event's trace entries were appended.
    trace_len_after: usize,
    /// The checkpoint this event made durable, if any.
    inserted: Option<(usize, usize)>,
}

/// Where each send sits in the event sequence, for prefix `Drop` marking.
#[derive(Debug, Clone, Copy)]
struct SendSpan {
    id: rdt_base::MessageId,
    sent_at: usize,
    delivered_at: Option<usize>,
}

/// Everything the oracle needs about the fault-free execution.
struct Reference {
    trace: Vec<TraceEvent>,
    meta: Vec<EventMeta>,
    sends: Vec<SendSpan>,
    create_ops: u64,
    total_ops: u64,
    /// The operations that were a commit's append.
    append_ops: Vec<u64>,
}

/// Trace entries one event appended, plus the checkpoint it made durable
/// as `(process index, checkpoint index)`, if any.
type StepOutcome = (Vec<TraceEvent>, Option<(usize, usize)>);

/// The live world one run executes in: middlewares plus durable mirrors
/// on a shared fault-injecting backend.
struct World {
    mws: Vec<Middleware>,
    disks: Vec<DurableStore>,
    backend: FaultFs,
}

impl World {
    fn create(root: &Path, opts: &TortureOptions, plan: FaultPlan) -> Result<Self> {
        let backend = FaultFs::new(plan);
        let mws: Vec<Middleware> = (0..opts.n)
            .map(|i| Middleware::new(ProcessId::new(i), opts.n, opts.protocol, opts.gc))
            .collect();
        let mut disks = Vec::with_capacity(opts.n);
        for (i, mw) in mws.iter().enumerate() {
            let disk = DurableStore::open_with(
                root.join(format!("p{i}")),
                ProcessId::new(i),
                Box::new(backend.clone()),
            )?;
            disk.sync(mw.store())?;
            disks.push(disk);
        }
        Ok(Self {
            mws,
            disks,
            backend,
        })
    }

    /// Executes one script event and syncs the touched process's mirror.
    /// Returns the trace entries it appended and the checkpoint it made
    /// durable, if any.
    fn step(
        &mut self,
        op: ScriptOp,
        inflight: &mut Vec<Option<(rdt_base::MessageId, ProcessId, Piggyback)>>,
    ) -> Result<StepOutcome> {
        let mut events = Vec::with_capacity(2);
        let mut inserted = None;
        let touched = match op {
            ScriptOp::Checkpoint(p) => {
                let report = self.mws[p.index()].basic_checkpoint().map_err(other)?;
                events.push(TraceEvent::Checkpoint {
                    process: p,
                    forced: false,
                });
                inserted = Some((p.index(), report.stored.value()));
                p
            }
            ScriptOp::Send { from, to } => {
                let pb = self.mws[from.index()].piggyback();
                let (msg, forced) = self.mws[from.index()].send_reported(to, Payload::empty());
                events.push(TraceEvent::Send {
                    id: msg.meta.id,
                    to,
                });
                if let Some(report) = forced {
                    events.push(TraceEvent::Checkpoint {
                        process: from,
                        forced: true,
                    });
                    inserted = Some((from.index(), report.stored.value()));
                }
                inflight.push(Some((msg.meta.id, to, pb)));
                from
            }
            ScriptOp::Deliver { send_ordinal } => {
                let (id, to, pb) = inflight[send_ordinal]
                    .take()
                    .expect("script delivers each send at most once");
                let report = self.mws[to.index()].receive_piggyback(&pb).map_err(other)?;
                if let Some(forced) = report.forced {
                    events.push(TraceEvent::Checkpoint {
                        process: to,
                        forced: true,
                    });
                    inserted = Some((to.index(), forced.value()));
                }
                events.push(TraceEvent::Deliver { id });
                to
            }
        };
        self.disks[touched.index()].sync(self.mws[touched.index()].store())?;
        Ok((events, inserted))
    }
}

fn other(e: rdt_base::Error) -> Error {
    Error::Io(std::io::Error::other(e.to_string()))
}

/// Runs the script fault-free (but op-counted) and records everything the
/// crash-point oracle needs.
fn reference_run(root: &Path, opts: &TortureOptions, script: &Script) -> Result<Reference> {
    let mut world = World::create(root, opts, FaultPlan::none())?;
    let create_ops = world.backend.ops_executed();
    let mut trace = Vec::new();
    let mut meta = Vec::with_capacity(script.len());
    let mut sends = Vec::with_capacity(script.send_count());
    let mut inflight = Vec::with_capacity(script.send_count());
    for (j, &op) in script.ops().iter().enumerate() {
        if let ScriptOp::Deliver { send_ordinal } = op {
            let span: &mut SendSpan = &mut sends[send_ordinal];
            span.delivered_at = Some(j);
        }
        let (events, inserted) = world.step(op, &mut inflight)?;
        if let ScriptOp::Send { .. } = op {
            let id = events
                .iter()
                .find_map(|e| match e {
                    TraceEvent::Send { id, .. } => Some(*id),
                    _ => None,
                })
                .expect("send events carry an id");
            sends.push(SendSpan {
                id,
                sent_at: j,
                delivered_at: None,
            });
        }
        trace.extend(events);
        meta.push(EventMeta {
            ops_after: world.backend.ops_executed(),
            trace_len_after: trace.len(),
            inserted,
        });
    }
    let total_ops = world.backend.ops_executed();
    // A fault-free commit of exactly two operations is an append and its
    // flush (none is nothing changed, five or more a compaction).
    let starts = std::iter::once(create_ops).chain(meta.iter().map(|m: &EventMeta| m.ops_after));
    let append_ops = starts
        .zip(&meta)
        .filter(|(start, m)| m.ops_after - start == 2)
        .map(|(start, _)| start)
        .collect();
    Ok(Reference {
        trace,
        meta,
        sends,
        create_ops,
        total_ops,
        append_ops,
    })
}

/// Replays the script until the backend crashes (or the script ends).
/// The middleware state is then discarded — only the logs survive.
fn run_until_crash(
    root: &Path,
    opts: &TortureOptions,
    script: &Script,
    plan: FaultPlan,
) -> Result<(FaultFs, u64)> {
    let mut world = World::create(root, opts, plan)?;
    let mut inflight = Vec::with_capacity(script.send_count());
    for &op in script.ops() {
        match world.step(op, &mut inflight) {
            Ok(_) => {}
            Err(_) if world.backend.has_crashed() => break,
            Err(e) => return Err(e),
        }
    }
    let retries = world.disks.iter().map(|d| d.transient_retries()).sum();
    Ok((world.backend, retries))
}

/// Restarts every process from its surviving log. Returns the rebuilt
/// (crashed) middlewares and the [`RestartReport`] counters summed over
/// all processes.
fn restart_all(root: &Path, opts: &TortureOptions) -> Result<(Vec<Middleware>, RestartReport)> {
    let mut mws = Vec::with_capacity(opts.n);
    let mut total = RestartReport::default();
    for i in 0..opts.n {
        let disk = DurableStore::open(root.join(format!("p{i}")), ProcessId::new(i))?;
        let (store, report) = disk.rebuild_reported()?;
        total.loaded += report.loaded;
        total.quarantined += report.quarantined;
        total.log_bytes += report.log_bytes;
        total.transient_retries += report.transient_retries;
        if store.is_empty() {
            // `Middleware::from_store` treats an empty store as a caller
            // bug and panics; surface the torn-disk image as a typed
            // error the probes can report instead.
            return Err(Error::Corrupt(
                "restart found no checkpoint to anchor recovery",
            ));
        }
        mws.push(Middleware::from_store(
            ProcessId::new(i),
            opts.n,
            opts.protocol,
            opts.gc,
            store,
        ));
    }
    Ok((mws, total))
}

/// The offline oracle line for the reference-trace prefix of `cut`
/// completed events, with unresolved sends dropped.
fn oracle_line(n: usize, reference: &Reference, cut: usize, faulty: &FaultySet) -> Vec<usize> {
    let trace_len = if cut == 0 {
        0
    } else {
        reference.meta[cut - 1].trace_len_after
    };
    let mut prefix: Vec<TraceEvent> = reference.trace[..trace_len].to_vec();
    for span in &reference.sends {
        if span.sent_at < cut && span.delivered_at.is_none_or(|d| d >= cut) {
            prefix.push(TraceEvent::Drop { id: span.id });
        }
    }
    let ccp = CcpBuilder::from_trace(n, &prefix)
        .expect("reference prefixes replay")
        .build();
    ccp.recovery_line(faulty).to_raw()
}

/// One crash-point probe: run to the injected crash, restart, recover,
/// compare the online line against the adaptive-cut oracle.
fn probe_crash_point(
    root: &Path,
    opts: &TortureOptions,
    script: &Script,
    reference: &Reference,
    k: u64,
    report: &mut TortureReport,
) -> Result<()> {
    let (backend, retries) = run_until_crash(root, opts, script, FaultPlan::crash_after(k))?;
    report.transient_retries += retries;
    if !backend.has_crashed() {
        report
            .failures
            .push(format!("crash point {k}: the plan never fired"));
        return Ok(());
    }
    let (mut mws, restart) = restart_all(root, opts)?;
    report.quarantined += restart.quarantined;
    report.restarts.push((k, restart));
    if restart.quarantined != 0 {
        // A pure stop-after-K crash tears nothing: an append lands whole
        // or not at all, a compaction leaves at most an invisible temp.
        report.failures.push(format!(
            "crash point {k}: {} log stretches quarantined by a clean stop",
            restart.quarantined
        ));
    }

    // How many events completed their sync before op K, adjusted by
    // whether the partial event's checkpoint is already durable.
    let mut cut = reference.meta.iter().filter(|m| m.ops_after <= k).count();
    if cut < reference.meta.len() {
        if let Some((p, idx)) = reference.meta[cut].inserted {
            cut += usize::from(mws[p].store().contains(CheckpointIndex::new(idx)));
        }
    }

    let faulty: FaultySet = ProcessId::all(opts.n).collect();
    let offline = oracle_line(opts.n, reference, cut, &faulty);
    let session = match RecoveryManager::new().recover(&mut mws, &faulty) {
        Ok(session) => session,
        Err(e) => {
            report
                .failures
                .push(format!("crash point {k}: recovery failed: {e}"));
            return Ok(());
        }
    };
    let online: Vec<usize> = session.line.iter().map(|c| c.value()).collect();
    if online != offline {
        report.failures.push(format!(
            "crash point {k} (cut {cut}): online line {online:?} != oracle {offline:?}"
        ));
    }
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
) -> Result<()> {
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

    let (backend, retries) = run_until_crash(root, opts, script, plan)?;
    report.transient_retries += retries;
    report.append_faults += backend.append_faults_injected();
    let (mut mws, restart) = match restart_all(root, opts) {
        Ok(v) => v,
        Err(e) => {
            report
                .failures
                .push(format!("fault plan {plan_no}: restart failed: {e}"));
            return Ok(());
        }
    };
    report.quarantined += restart.quarantined;
    let faulty: FaultySet = ProcessId::all(opts.n).collect();
    if let Err(e) = RecoveryManager::new().recover(&mut mws, &faulty) {
        report
            .failures
            .push(format!("fault plan {plan_no}: recovery failed: {e}"));
        return Ok(());
    }
    // The system must keep executing from the recovered cut.
    for mw in &mut mws {
        if mw.basic_checkpoint().is_err() {
            report.failures.push(format!(
                "fault plan {plan_no}: {} cannot checkpoint after recovery",
                mw.owner()
            ));
        }
    }
    Ok(())
}

/// Runs a full torture session: the crash-point sweep and the seeded
/// corruption plans.
///
/// # Errors
///
/// Harness-level I/O errors (scratch-directory setup, unexpected
/// non-injected failures). Contract violations are *not* errors — they
/// are collected in [`TortureReport::failures`].
pub fn run_torture(opts: &TortureOptions) -> Result<TortureReport> {
    let root =
        std::env::temp_dir().join(format!("rdt-torture-{}-{}", std::process::id(), opts.seed));
    let _ = std::fs::remove_dir_all(&root);
    let script = generate_script(opts.n, opts.events, opts.seed);
    let mut report = TortureReport::default();

    let ref_dir = root.join("reference");
    let reference = reference_run(&ref_dir, opts, &script)?;
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
}
