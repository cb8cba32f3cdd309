//! The sharded parallel engine: conservative-lookahead parallel
//! discrete-event simulation whose output is byte-identical to the
//! sequential engine for a fixed seed.
//!
//! # How determinism survives parallelism
//!
//! The sequential engine's behaviour is a pure function of the workload,
//! the configuration and the seed: every rng draw happens at a
//! deterministic point of the event stream, none depends on middleware
//! state. The coordinator's **planner** therefore pops the sequential
//! engine's own [`Schedule`] — same seed, same draws, same lane-and-queue
//! merge, the workload streamed into the lane a block at a time — without
//! doing any middleware work, and hands on each event as it pops:
//!
//! - a checkpoint or send goes to the worker that owns its process, with
//!   its global `(tick, sequence)` key and, for a send, the channel's
//!   verdict: lost, or the key its delivery will pop under — so a
//!   cross-shard delivery is inserted at the receiver with its *final*
//!   position, and per-process event order is identical to the sequential
//!   run;
//! - a global event (control round, recovery session) needs the whole
//!   system stopped, so it runs right behind a **cut** at its own key. A
//!   crash cancels what is in flight where the sequential engine does, at
//!   the crash: the planner's queue yields the dropped deliveries in
//!   `(at, seq)` order for the coordinator to report, and every worker
//!   empties its own delivery queue when the session crashes its
//!   processes (dslab's `cancel_event`, SNIPPETS.md);
//! - a surviving cross-shard delivery at key `d`, sent at `s`, needs some
//!   cut in `(s, d]`, so that the barrier exchange carries it before the
//!   receiver's window reaches it. Deliveries pop in key order, and every
//!   cut below `d` is already decided when `d` pops, so the planner cuts
//!   at `d` exactly when the last cut is `≤ s` — the minimal greedy
//!   schedule, computed online. The distance between a send and its
//!   earliest possible delivery is bounded below by the channel's
//!   `min_delay` — the conservative lookahead that makes the windows
//!   non-trivial (and why `min_delay == 0` falls back to the sequential
//!   engine);
//! - a window holding [`BLOCK`] planned events is cut before the next, so
//!   that no window grows with the run.
//!
//! At each cut the coordinator hands every worker the window's planned
//! events of its processes. A worker runs them as they arrive, each after
//! its queued deliveries below it — every cut below the event's key came
//! before, so every cross-shard delivery below it has been exchanged —
//! then its deliveries below the cut, and exchanges outboxes over bounded
//! channels (an all-to-all with one batch per directed pair); the
//! coordinator runs any global event. Per-process
//! state transitions are the sequential engine's own — both drive the one
//! step core in `step.rs` — and metrics are folded where they arise; see
//! [`crate::worker`] for the one order-sensitive aggregate.
//!
//! # What a run costs per op
//!
//! Nothing, with trace and occupancy off: no plan is kept (the planner
//! holds the schedule's in-flight deliveries, like the sequential engine),
//! a window holds at most [`BLOCK`] planned events, and how far the
//! coordinator runs ahead of a worker is bounded in events — at most
//! [`CMD_QUEUE`] windows, 64 bytes an event: 512 KB a worker. The metric
//! ops fold in place on the thread that
//! emits them; only a window's retained-count changes travel. Trace and
//! occupancy, when recorded, are the report's product and grow with it.

use std::sync::Arc;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use rdt_base::{MessageId, ProcessId, Result};
use rdt_recovery::{
    FaultySet, ProcessView, RecoveryError, RecoveryManager, RecoverySessionReport, SessionOutcomes,
};
use rdt_workloads::AppOp;

use crate::engine::{EventKind, Schedule, SimulationBuilder, SimulationReport, BLOCK};
use crate::metrics::MetricOp;
use crate::step::{self, Last, Sink as _};
use crate::worker::{
    run_worker, Cmd, Exchange, KeyedSink, LogKey, PlannedLocal, Reply, WorkerSetup,
};

/// Commands a worker's queue holds before the coordinator waits for it.
/// A window holds at most [`BLOCK`] planned events, so the coordinator
/// runs at most `CMD_QUEUE × BLOCK` = 8 192 planned events ahead of any
/// worker.
const CMD_QUEUE: usize = 8;

/// What a delivery carries through the planner: its send's key, if the
/// message crosses shards — the deliveries a cut must cover.
type Crossing = Option<(u64, u64)>;

/// A global (all-shards) event, as the planner hands it on.
#[derive(Debug, PartialEq)]
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

/// One step of the plan, in key order.
#[derive(Debug)]
enum Planned {
    /// A checkpoint or send for the worker of `shard`.
    Local {
        shard: usize,
        at: u64,
        seq: u64,
        event: PlannedLocal,
    },
    /// A barrier: every worker runs its events below the key, then
    /// exchanges. The last one is `(u64::MAX, u64::MAX)`.
    Cut((u64, u64)),
    /// A global event, right behind the cut at its own key.
    Global { at: u64, seq: u64, plan: GlobalPlan },
}

/// The plan, streamed: an iterator over the sequential engine's schedule
/// that yields each planned event as it pops, and the cuts between them.
struct Planner<'a> {
    sched: Schedule<Crossing>,
    shard_of: &'a [u32],
    /// Each middleware's per-sender message counter: incremented on every
    /// executed send, exactly like `begin_send`. The coordinator reports a
    /// crash-cancelled message's `Drop` without ever seeing the message.
    send_seq: Vec<u64>,
    /// The latest cut.
    last_cut: (u64, u64),
    /// Planned events since the latest cut.
    since_cut: usize,
    /// Planned events a window holds at most.
    block: usize,
    /// What a cut was put before.
    held: Option<Planned>,
    /// The final cut has been yielded.
    done: bool,
}

impl<'a> Planner<'a> {
    fn new(builder: &SimulationBuilder, shard_of: &'a [u32], block: usize) -> Self {
        let mut sched = Schedule::new(builder.spec.seed, builder.config);
        sched.stream(&builder.spec);
        Self {
            sched,
            shard_of,
            send_seq: vec![0; shard_of.len()],
            last_cut: (0, 0),
            since_cut: 0,
            block,
            held: None,
            done: false,
        }
    }

    /// The simulated time of the last event popped: the run's final time
    /// once the plan is spent.
    fn ticks(&self) -> u64 {
        self.sched.now()
    }

    fn cut(&mut self, key: (u64, u64)) -> Planned {
        self.last_cut = key;
        self.since_cut = 0;
        Planned::Cut(key)
    }

    /// A cut at `key`, with `then` held back to follow it.
    fn cut_before(&mut self, key: (u64, u64), then: Planned) -> Planned {
        self.held = Some(then);
        self.cut(key)
    }

    /// `event` of process `p` for its shard, behind a cut if the window
    /// is full.
    fn local(&mut self, at: u64, seq: u64, p: ProcessId, event: PlannedLocal) -> Planned {
        let shard = self.shard_of[p.index()] as usize;
        let local = Planned::Local {
            shard,
            at,
            seq,
            event,
        };
        if self.since_cut == self.block {
            let cut = self.cut_before((at, seq), local);
            self.since_cut = 1;
            return cut;
        }
        self.since_cut += 1;
        local
    }
}

impl Iterator for Planner<'_> {
    type Item = Planned;

    fn next(&mut self) -> Option<Planned> {
        if let Some(held) = self.held.take() {
            return Some(held);
        }
        while let Some((at, seq, kind)) = self.sched.pop() {
            match kind {
                EventKind::App(AppOp::Checkpoint(p)) => {
                    return Some(self.local(at, seq, p, PlannedLocal::Checkpoint(p)));
                }
                EventKind::App(AppOp::Send { from, to }) => {
                    let id = MessageId::new(from, self.send_seq[from.index()]);
                    self.send_seq[from.index()] += 1;
                    let crosses = self.shard_of[from.index()] != self.shard_of[to.index()];
                    let delivery = self.sched.transmit(to, id, crosses.then_some((at, seq)));
                    let send = PlannedLocal::Send { from, to, delivery };
                    return Some(self.local(at, seq, from, send));
                }
                // The exchange at a cut in (send, delivery] carries it.
                EventKind::Deliver {
                    carry: Some(send), ..
                } if self.last_cut <= send => return Some(self.cut((at, seq))),
                EventKind::Deliver { .. } => {}
                EventKind::App(AppOp::Crash(p)) => {
                    let faulty = self.sched.faulty(p, self.shard_of.len());
                    let mut drops = Vec::new();
                    self.sched.cancel(
                        |kind| !matches!(kind, EventKind::Deliver { .. }),
                        |_, kind| {
                            if let EventKind::Deliver { to, id, .. } = kind {
                                drops.push((to, id));
                            }
                        },
                    );
                    let plan = GlobalPlan::Crash { faulty, drops };
                    return Some(self.cut_before((at, seq), Planned::Global { at, seq, plan }));
                }
                EventKind::ControlRound => {
                    self.sched.next_control();
                    let plan = GlobalPlan::Control;
                    return Some(self.cut_before((at, seq), Planned::Global { at, seq, plan }));
                }
            }
        }
        (!std::mem::replace(&mut self.done, true)).then(|| self.cut((u64::MAX, u64::MAX)))
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

    let n = builder.spec.n;
    let partitioning = builder.config.shard.partitioning;
    let shard_of: Vec<u32> = (0..n)
        .map(|p| partitioning.shard_of(p, n, shards) as u32)
        .collect();

    // Exchange plane: a bounded channel per directed shard pair. Capacity
    // 2 keeps a fast sender at most one barrier ahead; no deadlock, since
    // a worker whose send would block has a peer that is itself inside
    // (or entering) the same barrier's receive phase. The self-pair is
    // allocated but never used.
    let mut out_rows: Vec<Vec<Sender<Exchange>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut in_rows: Vec<Vec<Receiver<Exchange>>> = (0..shards).map(|_| Vec::new()).collect();
    for out_row in &mut out_rows {
        for in_row in &mut in_rows {
            let (t, r) = bounded(2);
            out_row.push(t);
            in_row.push(r);
        }
    }

    // Control plane: one command and one reply channel per worker. The
    // command queue is bounded so that how far the coordinator runs ahead
    // is not memory that depends on thread timing or on the run's length.
    // No deadlock: nothing after a cut is sent before the cut has gone to
    // every worker, so a worker waiting at a barrier waits only for peers
    // whose queues hold that barrier's command or commands before it —
    // none of which needs the coordinator to be reached.
    let mut cmd_txs = Vec::with_capacity(shards);
    let mut reply_rxs = Vec::with_capacity(shards);
    let setups: Vec<WorkerSetup> = out_rows
        .into_iter()
        .zip(in_rows)
        .enumerate()
        .map(|(shard, (out_txs, in_rxs))| {
            let (cmd_tx, cmd_rx) = bounded(CMD_QUEUE);
            let (reply_tx, reply_rx) = unbounded();
            cmd_txs.push(cmd_tx);
            reply_rxs.push(reply_rx);
            WorkerSetup {
                shard,
                shard_of: &shard_of,
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
        let planner = Planner::new(&builder, &shard_of, BLOCK);
        let outcome = coordinate(&builder, planner, cmd_txs, &reply_rxs, &mut prof);
        // On error the command senders are already dropped, so every
        // worker sees a disconnect and exits before the scope joins.
        outcome
    })?;
    prof.stop("shard/run_wall", wall);
    report.profile = prof.into_report();
    Ok(report)
}

/// The coordinator's handle on the workers, plus its own share of the
/// metrics and recordings (what global events emit outside any one
/// process).
struct Coordinator<'a> {
    manager: RecoveryManager,
    cmd_txs: Vec<Sender<Cmd>>,
    reply_rxs: &'a [Receiver<Reply>],
    sink: KeyedSink,
    recovery_sessions: Vec<RecoverySessionReport>,
    /// The workers' apply outcomes of the session being closed, merged.
    outcomes: SessionOutcomes,
}

impl Coordinator<'_> {
    fn send(&self, shard: usize, cmd: Cmd) {
        self.cmd_txs[shard].send(cmd).expect("shard worker gone");
    }

    fn broadcast(&self, mk: impl Fn() -> Cmd) {
        for shard in 0..self.cmd_txs.len() {
            self.send(shard, mk());
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

    /// A recovery session: crash the faulty set on their owning workers
    /// (which drop every delivery in flight), gather views, plan here,
    /// apply on the workers, fold the outcomes into the report. The
    /// cancelled deliveries' observable side effects — `Drop` traces and
    /// lost counts — are emitted here, in the sequential engine's
    /// cancellation order.
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
        let mut errors = Vec::new();
        let mut outcomes = std::mem::take(&mut self.outcomes);
        for reply in self.replies() {
            match reply {
                Reply::Applied(Ok(shard)) => outcomes.absorb(&shard),
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
        let plan = Arc::unwrap_or_clone(plan);
        let report =
            step::close_session(&self.manager, &faulty, plan, &mut outcomes, &mut self.sink);
        self.outcomes = outcomes;
        self.recovery_sessions.push(report);
        Ok(())
    }
}

/// Key-ordered runs of keyed entries merged into global key order,
/// stripped of the keys. Each run is already in key order — a
/// [`KeyedSink`] is only ever handed ascending event keys, and counts the
/// sub-key up within one — so this is a k-way merge, not a sort; with a
/// run per shard, finding the least head by scanning them is cheaper than
/// a heap.
pub(crate) fn in_key_order<T>(runs: Vec<Vec<(LogKey, T)>>) -> impl Iterator<Item = T> {
    let entries: usize = runs.iter().map(Vec::len).sum();
    let mut runs: Vec<_> = runs
        .into_iter()
        .filter(|run| !run.is_empty())
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

/// Drives the run: hands each worker its planned events window by
/// window, executes global events between windows, then adds up the
/// workers' metrics and merges their recordings into the report.
fn coordinate(
    builder: &SimulationBuilder,
    mut planner: Planner<'_>,
    cmd_txs: Vec<Sender<Cmd>>,
    reply_rxs: &[Receiver<Reply>],
    prof: &mut rdt_obs::Profiler,
) -> Result<SimulationReport> {
    let config = &builder.config;
    let mut co = Coordinator {
        manager: RecoveryManager::with_mode(builder.recovery_mode),
        cmd_txs,
        reply_rxs,
        sink: KeyedSink::new(builder.spec.n, config.record_trace, config.record_occupancy),
        recovery_sessions: Vec::new(),
        outcomes: SessionOutcomes::default(),
    };
    // Each shard's planned events since the last cut.
    let mut windows: Vec<Vec<(u64, u64, PlannedLocal)>> =
        (0..co.cmd_txs.len()).map(|_| Vec::new()).collect();

    // The phases chain: the planner's time is every interval that ends in
    // a hand-over.
    let mut t = prof.start();
    for planned in planner.by_ref() {
        match planned {
            Planned::Local {
                shard,
                at,
                seq,
                event,
            } => {
                windows[shard].push((at, seq, event));
            }
            Planned::Cut(upto) => {
                prof.lap("shard/plan", &mut t);
                for (shard, window) in windows.iter_mut().enumerate() {
                    let events = std::mem::take(window);
                    co.send(shard, Cmd::Window { events, upto });
                }
                prof.lap("shard/dispatch", &mut t);
            }
            Planned::Global { at, seq, plan } => {
                match plan {
                    GlobalPlan::Control => co.control_round(builder, at, seq)?,
                    GlobalPlan::Crash { faulty, drops } => {
                        co.crash_session(at, seq, faulty, drops)?;
                    }
                }
                prof.lap("shard/coordinate_global", &mut t);
            }
        }
    }

    co.broadcast(|| Cmd::Finish);
    // One run per recording from the coordinator, then one from each
    // worker; the metrics add up.
    let own = std::mem::take(&mut co.sink.logs);
    let (mut trace, mut occupancy) = (vec![own.trace], vec![own.occupancy]);
    let mut metrics = std::mem::take(&mut co.sink.metrics);
    let mut peak_global_retained = None;
    let mut finals = Vec::with_capacity(builder.spec.n);
    for (shard, reply) in co.replies().enumerate() {
        let Reply::Done(data) = reply else {
            panic!("worker sent a non-final reply to Finish");
        };
        let data = *data;
        trace.push(data.logs.trace);
        occupancy.push(data.logs.occupancy);
        metrics.absorb(&data.metrics);
        peak_global_retained = peak_global_retained.or(data.peak_global_retained);
        finals.extend(data.finals);
        // Namespace each worker's phases under its shard index: the
        // `reply_rxs` slice is in shard order, so `shard` is the sender.
        if let (Some(merged), Some(worker)) = (prof.report_mut(), &data.profile) {
            merged.merge_suffixed(worker, &shard.to_string());
        }
    }
    metrics.peak_global_retained = peak_global_retained.expect("shard 0 folds the changes");
    finals.sort_unstable_by_key(|f| f.p);

    // Merge the recordings into global key order: this reproduces the
    // sequential engine's trace and occupancy exactly.
    let t_merge = prof.start();
    // The profile is filled by `run_sharded` from the merged
    // coordinator+worker profilers after the scope joins.
    let report = step::assemble_report(
        finals,
        metrics,
        planner.ticks(),
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
    use std::collections::BTreeSet;
    use std::ops::Bound::{Excluded, Included};

    use proptest::prelude::*;
    use rdt_workloads::{Pattern, WorkloadSpec};

    use super::*;
    use crate::{ChannelConfig, Partitioning, ShardConfig, SimConfig};

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

    /// What `shard_equiv`'s long-run property leans on: on a ring of 16 at
    /// a checkpoint probability of 0.995, crossings are rarer than one in
    /// [`BLOCK`] events, so the windows are cut by count.
    #[test]
    fn a_sparse_ring_is_cut_by_count() {
        let spec = WorkloadSpec::uniform_random(16, 3200)
            .with_pattern(Pattern::Ring)
            .with_seed(3)
            .with_checkpoint_prob(0.995);
        let builder = SimulationBuilder::new(spec);
        let shard_of: Vec<u32> = (0..16).map(|p| p / 8).collect();
        let plan: Vec<Planned> = Planner::new(&builder, &shard_of, BLOCK).collect();
        let by_count = plan
            .windows(2)
            .filter(|pair| match pair {
                [Planned::Cut(key), Planned::Local { at, seq, .. }] => *key == (*at, *seq),
                _ => false,
            })
            .count();
        assert!(by_count >= 2, "{by_count} windows cut by count");
    }

    /// A planned send as the batch reference resolves it: the delivery's
    /// key is read when the delivery pops, a crash marks it cancelled.
    #[derive(Debug, Clone, Copy)]
    enum BatchLocal {
        Checkpoint(ProcessId),
        Send {
            from: ProcessId,
            to: ProcessId,
            lost: bool,
            cancelled: bool,
            delivery: (u64, u64),
        },
    }

    /// The still-unresolved outcome (`cancelled`, `delivery`) of the
    /// planned send at `(shard, position)`.
    fn outcome_mut(
        locals: &mut [Vec<(u64, u64, BatchLocal)>],
        (shard, pos): (usize, usize),
    ) -> (&mut bool, &mut (u64, u64)) {
        match &mut locals[shard][pos].2 {
            BatchLocal::Send {
                cancelled,
                delivery,
                ..
            } => (cancelled, delivery),
            BatchLocal::Checkpoint(_) => unreachable!("deliveries resolve sends"),
        }
    }

    /// The whole-run plan the engine used to build before it ran.
    struct BatchPlan {
        locals: Vec<Vec<(u64, u64, BatchLocal)>>,
        globals: Vec<(u64, u64, GlobalPlan)>,
        cuts: BTreeSet<(u64, u64)>,
    }

    /// The batch planner the streaming one replaced, kept as its oracle: a
    /// whole-run pass that back-patches every send's outcome, then the
    /// greedy barrier schedule over the crossings sorted by delivery —
    /// seeded with the global events' cuts and `forced`, the window cuts
    /// only a streaming planner has.
    fn batch_plan(
        builder: &SimulationBuilder,
        shard_of: &[u32],
        forced: &BTreeSet<(u64, u64)>,
    ) -> BatchPlan {
        let n = builder.spec.n;
        let shards = shard_of.iter().max().map_or(0, |&s| s as usize + 1);
        let mut sched: Schedule<(usize, usize)> = Schedule::new(builder.spec.seed, builder.config);
        sched.stream(&builder.spec);
        let mut locals: Vec<Vec<(u64, u64, BatchLocal)>> = vec![Vec::new(); shards];
        let mut globals = Vec::new();
        let mut send_seq = vec![0u64; n];
        while let Some((at, seq, kind)) = sched.pop() {
            match kind {
                EventKind::App(AppOp::Checkpoint(p)) => {
                    let shard = shard_of[p.index()] as usize;
                    locals[shard].push((at, seq, BatchLocal::Checkpoint(p)));
                }
                EventKind::App(AppOp::Send { from, to }) => {
                    let id = MessageId::new(from, send_seq[from.index()]);
                    send_seq[from.index()] += 1;
                    let shard = shard_of[from.index()] as usize;
                    let lost = sched
                        .transmit(to, id, (shard, locals[shard].len()))
                        .is_none();
                    let planned = BatchLocal::Send {
                        from,
                        to,
                        lost,
                        cancelled: false,
                        delivery: (0, 0),
                    };
                    locals[shard].push((at, seq, planned));
                }
                EventKind::Deliver { carry, .. } => *outcome_mut(&mut locals, carry).1 = (at, seq),
                EventKind::App(AppOp::Crash(p)) => {
                    let faulty = sched.faulty(p, n);
                    let mut drops = Vec::new();
                    let mut cancelled = Vec::new();
                    sched.cancel(
                        |kind| !matches!(kind, EventKind::Deliver { .. }),
                        |_, kind| {
                            if let EventKind::Deliver { carry, to, id } = kind {
                                cancelled.push(carry);
                                drops.push((to, id));
                            }
                        },
                    );
                    for carry in cancelled {
                        *outcome_mut(&mut locals, carry).0 = true;
                    }
                    globals.push((at, seq, GlobalPlan::Crash { faulty, drops }));
                }
                EventKind::ControlRound => {
                    globals.push((at, seq, GlobalPlan::Control));
                    sched.next_control();
                }
            }
        }
        let mut cuts: BTreeSet<(u64, u64)> =
            globals.iter().map(|&(at, seq, _)| (at, seq)).collect();
        cuts.extend(forced);
        let mut crossings: Vec<((u64, u64), (u64, u64))> = locals
            .iter()
            .flatten()
            .filter_map(|&(at, seq, planned)| match planned {
                BatchLocal::Send {
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
        BatchPlan {
            locals,
            globals,
            cuts,
        }
    }

    const PATTERNS: [Pattern; 3] = [Pattern::UniformRandom, Pattern::Ring, Pattern::TokenRing];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The streaming planner against the batch one it replaced, over
        /// runs several windows long, with loss, correlated crashes,
        /// control rounds, either partitioning and 1 to 4 shards, at window
        /// sizes down to one event: the plan comes out in key order, no
        /// window holds more than `block` planned events, the cuts are the
        /// batch greedy's (seeded with the window cuts), every surviving
        /// crossing has a cut in (send, delivery], and each shard gets the
        /// events the batch plan gave it, with the same outcomes.
        #[test]
        fn the_streaming_planner_cuts_as_the_batch_greedy(
            n in 2usize..12,
            steps in 0usize..4 * BLOCK,
            seed in 0u64..u64::MAX,
            pattern in 0usize..3,
            loss in 0.0f64..0.2,
            crash in 0.0f64..0.01,
            correlated in 0.0f64..0.5,
            min_delay in 1u64..=3,
            control in 0usize..2,
            strided in 0usize..2,
            shards in 1usize..=4,
            block in prop::sample::select(vec![1usize, 2, 5, 64, BLOCK]),
        ) {
            let spec = WorkloadSpec::uniform_random(n, steps)
                .with_pattern(PATTERNS[pattern])
                .with_seed(seed)
                .with_checkpoint_prob(0.25)
                .with_crash_prob(crash);
            let partitioning = if strided == 1 {
                Partitioning::Strided
            } else {
                Partitioning::Contiguous
            };
            let shards = shards.min(n);
            let builder = SimulationBuilder::new(spec).config(SimConfig {
                channel: ChannelConfig {
                    min_delay,
                    max_delay: 20,
                    loss_rate: loss,
                },
                control_every: (control == 1).then_some(90),
                correlated_crash_prob: correlated,
                shard: ShardConfig {
                    shards,
                    partitioning,
                },
                ..SimConfig::default()
            });
            let shard_of: Vec<u32> = (0..n)
                .map(|p| partitioning.shard_of(p, n, shards) as u32)
                .collect();

            let mut locals: Vec<Vec<(u64, u64, PlannedLocal)>> = vec![Vec::new(); shards];
            let (mut cuts, mut globals, mut local_keys) = (Vec::new(), Vec::new(), BTreeSet::new());
            let (mut window, mut last) = (0, None);
            for planned in Planner::new(&builder, &shard_of, block) {
                match planned {
                    Planned::Local { shard, at, seq, event } => {
                        // Strictly after everything before, a cut at its
                        // own key aside.
                        prop_assert!(last < Some((at, seq)) || cuts.last() == Some(&(at, seq)));
                        window += 1;
                        prop_assert!(window <= block, "a window of {} events", window);
                        locals[shard].push((at, seq, event));
                        local_keys.insert((at, seq));
                        last = Some((at, seq));
                    }
                    Planned::Cut(key) => {
                        prop_assert!(last < Some(key), "cut {:?} after {:?}", key, last);
                        cuts.push(key);
                        window = 0;
                        last = Some(key);
                    }
                    Planned::Global { at, seq, plan } => {
                        prop_assert_eq!(cuts.last(), Some(&(at, seq)), "a global event behind its cut");
                        globals.push((at, seq, plan));
                    }
                }
            }
            prop_assert_eq!(cuts.last(), Some(&(u64::MAX, u64::MAX)));

            let forced: BTreeSet<(u64, u64)> = cuts
                .iter()
                .copied()
                .filter(|key| local_keys.contains(key))
                .collect();
            let reference = batch_plan(&builder, &shard_of, &forced);
            let cuts: BTreeSet<(u64, u64)> = cuts.into_iter().collect();
            prop_assert_eq!(&cuts, &reference.cuts);
            prop_assert_eq!(globals, reference.globals);
            for (got, want) in locals.iter().zip(&reference.locals) {
                prop_assert_eq!(got.len(), want.len());
                for (&(at, seq, got), &(want_at, want_seq, want)) in got.iter().zip(want) {
                    prop_assert_eq!((at, seq), (want_at, want_seq));
                    match (got, want) {
                        (PlannedLocal::Checkpoint(p), BatchLocal::Checkpoint(q)) => {
                            prop_assert_eq!(p, q);
                        }
                        (
                            PlannedLocal::Send { from, to, delivery },
                            BatchLocal::Send { from: want_from, to: want_to, lost, cancelled, delivery: d },
                        ) => {
                            prop_assert_eq!((from, to), (want_from, want_to));
                            prop_assert_eq!(delivery.is_none(), lost);
                            if lost || cancelled {
                                continue;
                            }
                            prop_assert_eq!(delivery, Some(d));
                            if shard_of[from.index()] != shard_of[to.index()] {
                                let covering = cuts.range((Excluded((at, seq)), Included(d)));
                                prop_assert!(covering.count() > 0, "no cut for {:?} → {:?}", (at, seq), d);
                            }
                        }
                        (got, want) => prop_assert!(false, "{:?} planned as {:?}", got, want),
                    }
                }
            }
        }
    }
}
