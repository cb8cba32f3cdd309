//! The sharded parallel engine: conservative-lookahead parallel
//! discrete-event simulation whose output is byte-identical to the
//! sequential engine for a fixed seed.
//!
//! # How determinism survives parallelism
//!
//! The sequential engine's behaviour is a pure function of the workload,
//! the configuration and the seed: every rng draw happens at a
//! deterministic point of the event stream, none depends on middleware
//! state. A **planning pass** therefore drains the sequential engine's own
//! [`Schedule`] — same seed, same draws, same lane-and-queue merge, the
//! workload streamed into the lane a block at a time — without doing any
//! middleware work. The pass resolves, ahead of time:
//!
//! - every event's global `(tick, sequence)` key, including the key each
//!   delivery will carry — so cross-shard deliveries are inserted at the
//!   receiver with their *final* position, and per-process event order is
//!   identical to the sequential run;
//! - which sends are lost, and which in-flight deliveries a later crash
//!   cancels (the sharded run never materializes those at all — a
//!   *static* crash cut);
//! - the global events (control rounds, recovery sessions) that need the
//!   whole system stopped;
//! - the **barrier schedule**: a cut before every global event, plus the
//!   minimum set of cuts that guarantees every cross-shard delivery is
//!   exchanged before the receiver's window reaches it. The distance
//!   between a send and its earliest possible delivery is bounded below
//!   by the channel's `min_delay` — the conservative lookahead that makes
//!   the windows non-trivial (and why `min_delay == 0` falls back to the
//!   sequential engine).
//!
//! Between cuts, each worker shard drains its slice of the plan — already
//! in key order, so it is handed over as the worker's ordered lane, nothing
//! re-queued — merged with its own event queue of deliveries, with no
//! synchronization whatsoever; at a cut, workers exchange outboxes over
//! bounded channels (an all-to-all with one batch per directed pair) and
//! the coordinator runs any global event. Per-process state transitions
//! are the sequential engine's own — both drive the one step core in
//! `step.rs` — and every order-sensitive observable (trace, occupancy,
//! metric mutations) is logged under its global event key and replayed in
//! key order at the end — see [`crate::worker`].
//!
//! # What a run still costs per op
//!
//! The planning pass holds no op stream (no generated slice, no
//! full-length lane), but its product does: `RunPlan::locals` keeps every
//! checkpoint and send with its key and resolved outcome, per shard, for
//! the workers to drain, and the keyed logs grow with the events handled.
//! That O(steps) is the sharded engine's remaining per-run memory; the
//! sequential engine has none.

use std::collections::BTreeSet;
use std::ops::Bound::{Excluded, Included};
use std::sync::Arc;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use rdt_base::{MessageId, ProcessId, Result};
use rdt_recovery::{FaultySet, ProcessView, RecoveryError, RecoveryManager, RecoverySessionReport};
use rdt_workloads::AppOp;

use crate::engine::{EventKind, Schedule, SimulationBuilder, SimulationReport};
use crate::metrics::{MetricOp, Metrics};
use crate::step::{self, Last, Sink as _};
use crate::worker::{
    run_worker, Cmd, KeyedSink, LogKey, PlannedLocal, RemoteMsg, Reply, WorkerSetup,
};

/// Commands a worker's queue holds before the coordinator waits for it.
const CMD_QUEUE: usize = 1024;

/// What a delivery carries through the planning pass: `(shard, position)`
/// of the planned send in `RunPlan::locals`, whose outcome it resolves.
type SendRef = (usize, usize);

/// The still-unresolved outcome (`cancelled`, `delivery`) of a planned send.
fn outcome_mut(
    locals: &mut [Vec<(u64, u64, PlannedLocal)>],
    (shard, pos): SendRef,
) -> (&mut bool, &mut (u64, u64)) {
    match &mut locals[shard][pos].2 {
        PlannedLocal::Send {
            cancelled,
            delivery,
            ..
        } => (cancelled, delivery),
        PlannedLocal::Checkpoint(_) => unreachable!("deliveries resolve sends"),
    }
}

/// A pre-planned global (all-shards) event.
#[derive(Debug)]
enum GlobalPlan {
    Control,
    Crash {
        /// The faulty set (correlated draws resolved).
        faulty: FaultySet,
        /// In-flight deliveries the crash cancels, in the deterministic
        /// `(at, seq)` order the sequential engine's queue-retain visits
        /// them.
        drops: Vec<(ProcessId, MessageId)>,
    },
}

/// The complete pre-computed run structure.
struct RunPlan {
    /// Process → shard map.
    shard_of: Vec<u32>,
    /// Per-shard local events (checkpoints and sends), each with its
    /// global key.
    locals: Vec<Vec<(u64, u64, PlannedLocal)>>,
    /// Global events in key order.
    globals: Vec<(u64, u64, GlobalPlan)>,
    /// The barrier schedule (always ends with the drain-everything cut).
    cuts: BTreeSet<(u64, u64)>,
    /// Final simulated time (the planning env's clock after the drain).
    ticks: u64,
}

/// Runs the planning pass.
fn build_plan(builder: &SimulationBuilder, shards: usize) -> RunPlan {
    let n = builder.spec.n;
    let config = &builder.config;
    let shard_of: Vec<u32> = (0..n)
        .map(|p| config.shard.partitioning.shard_of(p, n, shards) as u32)
        .collect();

    let mut sched: Schedule<SendRef> = Schedule::new(builder.spec.seed, *config);
    sched.stream(&builder.spec);

    let mut locals: Vec<Vec<(u64, u64, PlannedLocal)>> = vec![Vec::new(); shards];
    let mut globals: Vec<(u64, u64, GlobalPlan)> = Vec::new();
    // Each middleware's per-sender message counter: incremented on every
    // executed send, exactly like `begin_send`. The coordinator emits a
    // crash-cancelled message's `Drop` without ever seeing the message.
    let mut send_seq = vec![0u64; n];

    while let Some((at, seq, kind)) = sched.pop() {
        match kind {
            EventKind::App(AppOp::Checkpoint(p)) => {
                locals[shard_of[p.index()] as usize].push((at, seq, PlannedLocal::Checkpoint(p)));
            }
            EventKind::App(AppOp::Send { from, to }) => {
                let id = MessageId::new(from, send_seq[from.index()]);
                send_seq[from.index()] += 1;
                let shard = shard_of[from.index()] as usize;
                let lost = sched.transmit(to, id, (shard, locals[shard].len()));
                let planned = PlannedLocal::Send {
                    from,
                    to,
                    lost,
                    // Resolved later: the cancellation if a crash strikes
                    // first, else the delivery's key when it pops.
                    cancelled: false,
                    delivery: (0, 0),
                };
                locals[shard].push((at, seq, planned));
            }
            EventKind::Deliver { carry, .. } => *outcome_mut(&mut locals, carry).1 = (at, seq),
            EventKind::App(AppOp::Crash(p)) => {
                let faulty = sched.faulty(p, n);
                let mut drops = Vec::new();
                sched.cancel(
                    |kind| !matches!(kind, EventKind::Deliver { .. }),
                    |_, kind| {
                        if let EventKind::Deliver { carry, to, id } = kind {
                            *outcome_mut(&mut locals, carry).0 = true;
                            drops.push((to, id));
                        }
                    },
                );
                globals.push((at, seq, GlobalPlan::Crash { faulty, drops }));
            }
            EventKind::ControlRound => {
                globals.push((at, seq, GlobalPlan::Control));
                sched.next_control();
            }
        }
    }
    let ticks = sched.now();

    // Barrier schedule. Every global event needs a cut (all shards
    // stopped at its key); every surviving cross-shard delivery needs
    // *some* cut in (send, delivery] so the exchange at that cut carries
    // it before the receiver's window reaches the delivery key. Greedy
    // over deliveries in key order, reusing existing cuts, yields the
    // minimal such schedule.
    let mut cuts: BTreeSet<(u64, u64)> = globals.iter().map(|&(at, seq, _)| (at, seq)).collect();
    let mut crossings: Vec<((u64, u64), (u64, u64))> = locals
        .iter()
        .flatten()
        .filter_map(|&(at, seq, planned)| match planned {
            PlannedLocal::Send {
                from,
                to,
                lost: false,
                cancelled: false,
                delivery,
            } if shard_of[from.index()] != shard_of[to.index()] => Some(((at, seq), delivery)),
            _ => None,
        })
        .collect();
    crossings.sort_unstable_by_key(|&(_, d)| d);
    for (s, d) in crossings {
        if cuts.range((Excluded(s), Included(d))).next().is_none() {
            cuts.insert(d);
        }
    }
    cuts.insert((u64::MAX, u64::MAX));

    RunPlan {
        shard_of,
        locals,
        globals,
        cuts,
        ticks,
    }
}

/// Runs the simulation across `shards` worker shards (callers guarantee
/// `min_delay > 0`; [`SimulationBuilder::run`] dispatches accordingly and
/// keeps `shards == 1` on the sequential engine, though one worker with no
/// exchange partner runs correctly here too).
pub(crate) fn run_sharded(builder: SimulationBuilder, shards: usize) -> Result<SimulationReport> {
    let profiling = builder.config.profile || rdt_obs::profile::env_enabled();
    let mut prof = rdt_obs::Profiler::new(profiling);
    let wall = prof.start();

    let t_plan = prof.start();
    let mut plan = build_plan(&builder, shards);
    prof.stop("shard/plan", t_plan);

    let shard_of = std::mem::take(&mut plan.shard_of);

    // Exchange plane: a bounded channel per directed shard pair. Capacity
    // 2 keeps a fast sender at most one barrier ahead; no deadlock, since
    // a worker whose send would block has a peer that is itself inside
    // (or entering) the same barrier's receive phase. The self-pair is
    // allocated but never used.
    let mut out_rows: Vec<Vec<Sender<Vec<RemoteMsg>>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut in_rows: Vec<Vec<Receiver<Vec<RemoteMsg>>>> = (0..shards).map(|_| Vec::new()).collect();
    for out_row in &mut out_rows {
        for in_row in &mut in_rows {
            let (t, r) = bounded(2);
            out_row.push(t);
            in_row.push(r);
        }
    }

    // Control plane: one command and one reply channel per worker. The
    // command queue is bounded so that how far the coordinator runs ahead
    // (one `Advance` per cut) is not memory that depends on thread timing.
    // No deadlock: each command goes to every worker before the next, so
    // every cut a worker has been sent, its peers have been sent too.
    let mut cmd_txs = Vec::with_capacity(shards);
    let mut reply_rxs = Vec::with_capacity(shards);
    let setups: Vec<WorkerSetup> = std::mem::take(&mut plan.locals)
        .into_iter()
        .zip(out_rows.into_iter().zip(in_rows))
        .enumerate()
        .map(|(shard, (events, (out_txs, in_rxs)))| {
            let (cmd_tx, cmd_rx) = bounded(CMD_QUEUE);
            let (reply_tx, reply_rx) = unbounded();
            cmd_txs.push(cmd_tx);
            reply_rxs.push(reply_rx);
            WorkerSetup {
                shard,
                shard_of: &shard_of,
                events,
                builder: &builder,
                profile: profiling,
                cmd_rx,
                reply_tx,
                out_txs,
                in_rxs,
            }
        })
        .collect();

    // Workers run on the shared scoped pool; the coordinator runs right
    // here on the calling thread. The pool never queues a scope job
    // behind another (it overflows to a fresh thread instead), which is
    // what lets all shards rendezvous at exchange barriers even when the
    // pool is smaller than the shard count.
    let mut report = rayon::global_pool().scope(|scope| {
        for setup in setups {
            scope.spawn(move || run_worker(setup));
        }
        let outcome = coordinate(&builder, plan, cmd_txs, &reply_rxs, &mut prof);
        // On error the command senders are already dropped, so every
        // worker sees a disconnect and exits before the scope joins.
        outcome
    })?;
    prof.stop("shard/run_wall", wall);
    report.profile = prof.into_report();
    Ok(report)
}

/// The coordinator's handle on the workers, plus its own share of the
/// keyed logs (what global events emit outside any one process).
struct Coordinator<'a> {
    manager: RecoveryManager,
    cmd_txs: Vec<Sender<Cmd>>,
    reply_rxs: &'a [Receiver<Reply>],
    sink: KeyedSink,
    recovery_sessions: Vec<RecoverySessionReport>,
}

impl Coordinator<'_> {
    fn broadcast(&self, mk: impl Fn() -> Cmd) {
        for tx in &self.cmd_txs {
            tx.send(mk()).expect("shard worker gone");
        }
    }

    /// One reply per worker, in shard order.
    fn replies(&self) -> impl Iterator<Item = Reply> + '_ {
        self.reply_rxs.iter().map(|rx| {
            rx.recv()
                .expect("worker thread died before reporting its outcome")
        })
    }

    /// Crashes `crash` on its owning workers, then merges every worker's
    /// `Views` reply into process-id order.
    fn gather_views(&self, crash: &Arc<FaultySet>) -> Vec<ProcessView> {
        self.broadcast(|| Cmd::GatherViews {
            crash: crash.clone(),
        });
        let mut views: Vec<ProcessView> = self
            .replies()
            .flat_map(|reply| match reply {
                Reply::Views(views) => views,
                _ => panic!("worker sent a non-view reply to a gather"),
            })
            .collect();
        views.sort_unstable_by_key(|v| v.owner);
        views
    }

    /// Merges every worker's `Lasts` reply into process-id order.
    fn gather_lasts(&self) -> Vec<Last> {
        self.broadcast(|| Cmd::GatherLasts);
        let mut lasts: Vec<Last> = self
            .replies()
            .flat_map(|reply| match reply {
                Reply::Lasts(lasts) => lasts,
                _ => panic!("worker sent a non-lasts reply to a gather"),
            })
            .collect();
        lasts.sort_unstable_by_key(|l| l.0);
        lasts
    }

    /// A control round: the coordinator builds the `ControlInfo` from
    /// gathered state — full views only for a collector that reads the
    /// line, else three words per process — and broadcasts it; each worker
    /// delivers it to its owned processes.
    fn control_round(&mut self, builder: &SimulationBuilder, at: u64, seq: u64) -> Result<()> {
        self.sink.begin((at, seq), 0);
        self.sink.metric(MetricOp::ControlRound);
        let info = if !builder.gc.needs_control_messages() {
            None
        } else if step::reads_line(builder.gc) {
            let views = self.gather_views(&Arc::default());
            Some(Arc::new(step::control_info(&self.manager, &views)?))
        } else {
            Some(Arc::new(step::last_intervals(&self.gather_lasts())))
        };
        self.broadcast(|| Cmd::Control {
            at,
            seq,
            info: info.clone(),
        });
        Ok(())
    }

    /// A recovery session: crash the faulty set on their owning workers,
    /// gather views, plan here, apply on the workers, fold the outcomes
    /// into the report. The crash-cancelled deliveries were never
    /// materialized (static cut); only their observable side effects —
    /// `Drop` traces and lost counts — are emitted here, in the sequential
    /// engine's cancellation order.
    fn crash_session(
        &mut self,
        at: u64,
        seq: u64,
        faulty: FaultySet,
        drops: Vec<(ProcessId, MessageId)>,
    ) -> Result<()> {
        self.sink.begin((at, seq), 0);
        let faulty = Arc::new(faulty);
        step::open_session(&faulty, &mut self.sink);
        let views = self.gather_views(&faulty);
        for (to, id) in drops {
            step::lose(to, id, &mut self.sink);
        }

        let plan = Arc::new(self.manager.plan(&views, &faulty)?);
        self.broadcast(|| Cmd::ApplyRecovery {
            at,
            seq,
            plan: plan.clone(),
        });
        let mut applied = Vec::with_capacity(views.len());
        let mut errors = Vec::new();
        for reply in self.replies() {
            match reply {
                Reply::Applied(Ok(list)) => applied.extend(list),
                Reply::Applied(Err(e)) => errors.push(e),
                _ => panic!("worker sent a non-apply reply to a recovery"),
            }
        }
        // Report the failure of the lowest-id process, matching the
        // sequential apply loop's first.
        let proc_of = |e: &RecoveryError| match e {
            RecoveryError::LineExhausted { process, .. }
            | RecoveryError::Storage { process, .. } => *process,
        };
        if let Some(e) = errors.into_iter().min_by_key(proc_of) {
            return Err(e.into());
        }
        applied.sort_unstable_by_key(|&(p, _)| p);
        let plan = Arc::unwrap_or_clone(plan);
        let report = step::close_session(&self.manager, &faulty, plan, applied, &mut self.sink);
        self.recovery_sessions.push(report);
        Ok(())
    }
}

/// The coordinator's and every worker's log of one kind merged into global
/// key order, stripped of the keys. Each log is already a run in key
/// order — a [`KeyedSink`] is only ever handed ascending event keys, and
/// counts the sub-key up within one — so this is a k-way merge, not a sort;
/// with a run per shard, finding the least head by scanning them is cheaper
/// than a heap.
fn in_key_order<T>(runs: Vec<Vec<(LogKey, T)>>) -> impl Iterator<Item = T> {
    let entries: usize = runs.iter().map(Vec::len).sum();
    let mut runs: Vec<_> = runs
        .into_iter()
        .map(|run| {
            debug_assert!(run.is_sorted_by_key(|e| e.0), "a keyed log out of order");
            run.into_iter()
        })
        .collect();
    // Counted, so that a `collect` allocates once.
    (0..entries).map(move |_| {
        let least = runs
            .iter_mut()
            .filter(|run| !run.as_slice().is_empty())
            .min_by_key(|run| run.as_slice()[0].0);
        let (_, entry) = least.and_then(Iterator::next).expect("an entry per count");
        entry
    })
}

/// Drives the run: advances all shards cut by cut, executes global
/// events between windows, then merges worker logs into the report.
fn coordinate(
    builder: &SimulationBuilder,
    plan: RunPlan,
    cmd_txs: Vec<Sender<Cmd>>,
    reply_rxs: &[Receiver<Reply>],
    prof: &mut rdt_obs::Profiler,
) -> Result<SimulationReport> {
    let config = &builder.config;
    let mut co = Coordinator {
        manager: RecoveryManager::with_mode(builder.recovery_mode),
        cmd_txs,
        reply_rxs,
        sink: KeyedSink::new(config.record_trace, config.record_occupancy),
        recovery_sessions: Vec::new(),
    };
    let mut globals = plan.globals.into_iter().peekable();

    for &cut in &plan.cuts {
        co.broadcast(|| Cmd::Advance { upto: cut });
        // Every global event's key is a cut, so at most one fires here.
        while let Some((at, seq, global)) = globals.next_if(|&(at, seq, _)| (at, seq) == cut) {
            let t = prof.start();
            match global {
                GlobalPlan::Control => co.control_round(builder, at, seq)?,
                GlobalPlan::Crash { faulty, drops } => co.crash_session(at, seq, faulty, drops)?,
            }
            prof.stop("shard/coordinate_global", t);
        }
    }

    co.broadcast(|| Cmd::Finish);
    // One run per log kind from the coordinator, then one from each worker.
    let own = std::mem::take(&mut co.sink.logs);
    let (mut trace, mut occupancy, mut metric_ops) =
        (vec![own.trace], vec![own.occupancy], vec![own.metrics]);
    let mut finals = Vec::with_capacity(builder.spec.n);
    for (shard, reply) in co.replies().enumerate() {
        let Reply::Done(data) = reply else {
            panic!("worker sent a non-final reply to Finish");
        };
        let data = *data;
        trace.push(data.logs.trace);
        occupancy.push(data.logs.occupancy);
        metric_ops.push(data.logs.metrics);
        finals.extend(data.finals);
        // Namespace each worker's phases under its shard index: the
        // `reply_rxs` slice is in shard order, so `shard` is the sender.
        if let (Some(merged), Some(worker)) = (prof.report_mut(), &data.profile) {
            merged.merge_suffixed(worker, &shard.to_string());
        }
    }
    finals.sort_unstable_by_key(|f| f.p);

    // Replay the merged logs in global key order: this reproduces the
    // sequential engine's trace, occupancy and metric mutation order —
    // including the order-sensitive `peak_global_retained` — exactly.
    let t_merge = prof.start();
    let mut metrics = Metrics::new(finals.len());
    in_key_order(metric_ops).for_each(|op| metrics.apply(op));
    // The profile is filled by `run_sharded` from the merged
    // coordinator+worker profilers after the scope joins.
    let report = step::assemble_report(
        finals,
        metrics,
        plan.ticks,
        config.record_trace.then(|| in_key_order(trace).collect()),
        config
            .record_occupancy
            .then(|| in_key_order(occupancy).collect()),
        co.recovery_sessions,
        None,
    );
    prof.stop("shard/merge", t_merge);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use rdt_workloads::WorkloadSpec;

    use super::*;
    use crate::{ChannelConfig, SimConfig};

    #[test]
    fn runs_merge_into_key_order() {
        let run = |keys: &[(u64, u64, u64)]| keys.iter().map(|&k| (k, k)).collect::<Vec<_>>();
        let merged = in_key_order(vec![
            run(&[(1, 0, 0), (4, 2, 0), (4, 2, 1 << 63)]),
            run(&[]),
            run(&[(0, 9, 0), (4, 2, 1), (7, 0, 0)]),
        ]);
        assert_eq!(merged.size_hint(), (6, Some(6)));
        let merged: Vec<_> = merged.collect();
        assert_eq!(merged.len(), 6);
        assert!(merged.is_sorted());
    }

    /// `SimulationBuilder::run` keeps `shards == 1` on the sequential
    /// engine, so nothing outside this crate ever runs the sharded engine
    /// with a single worker. It must still be the same function: the
    /// crashy golden scenario (`crashy_fdas_lgc` in `tests/common`), every
    /// field of the report.
    #[test]
    fn one_worker_matches_the_sequential_engine() {
        let spec = WorkloadSpec::uniform_random(5, 900)
            .with_seed(7)
            .with_checkpoint_prob(0.25)
            .with_crash_prob(0.01);
        let builder = SimulationBuilder::new(spec).config(SimConfig {
            channel: ChannelConfig::lossy(0.05),
            correlated_crash_prob: 0.25,
            record_trace: true,
            record_occupancy: true,
            state_size: 512,
            ..SimConfig::default()
        });
        let mut sequential = builder.clone().run_sequential().expect("sequential runs");
        let mut sharded = run_sharded(builder, 1).expect("one shard runs");
        assert!(sequential.metrics.recovery_sessions > 0, "scenario crashes");
        // Wall-clock observations (present under `RDT_PROFILE`) differ.
        sequential.profile = None;
        sharded.profile = None;
        assert_eq!(format!("{sharded:?}"), format!("{sequential:?}"));
    }
}
