//! One shard worker of the parallel engine: owns a contiguous or strided
//! subset of the middlewares in a [`StepCore`] and runs the windows the
//! coordinator hands it as they arrive — each planned event after the
//! deliveries in its [`ShardEnv`] that come before it, then the deliveries
//! below the window's cut — exchanging cross-shard deliveries with its
//! peers at every cut.
//!
//! A worker applies every metric op on the spot to its own copy of the
//! run's [`Metrics`]: counters commute, and a process's sample fields have
//! one writer, its owner. The one aggregate that depends on the *global*
//! event order, which no single shard sees, is `peak_global_retained`. For
//! it the step core's sink here, a [`KeyedSink`], logs each non-zero change
//! of a process's retained count under its event's global `(at, seq)` key
//! plus an intra-event sub-key; every worker ships the window's changes to
//! shard 0 with the barrier exchange, and shard 0 folds them in key order
//! ([`RetainedFold`]) — the sequential engine's running total, move for
//! move. Trace and occupancy, when recorded, are logged under the same keys
//! and merged by the coordinator at the end; they are the run's product.
//!
//! With them off, nothing a worker holds grows with the run: its
//! middlewares, its deliveries in flight, the windows queued to it (the
//! coordinator's run-ahead bound) and one window's changes — a window holds
//! at most [`BLOCK`](crate::engine::BLOCK) planned events.

use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};

use rdt_base::{DependencyVector, MessageId, ProcessId, TraceEvent};
use rdt_core::ControlInfo;
use rdt_env::ShardEnv;
use rdt_recovery::{
    FaultySet, ProcessView, RecoveryError, RecoveryManager, RecoveryPlan, SessionOutcomes,
};

use crate::engine::SimulationBuilder;
use crate::metrics::{MetricOp, Metrics};
use crate::parallel::in_key_order;
use crate::step::{self, FinalProcess, Flight, Last, Sink, StepCore};

/// Global ordering key of one logged observable: the owning event's
/// `(at, seq)` plus an intra-event sub-key.
pub(crate) type LogKey = (u64, u64, u64);

/// A sample's change of its process's retained count, under its key.
pub(crate) type RetainedChange = (LogKey, isize);

/// Sub-key base for the fragment process `p` contributes to a *global*
/// event (control round or recovery session): the high bit makes every
/// fragment sort after the coordinator's own entries for that event, and
/// the process index orders fragments the way the sequential engine's
/// ascending per-process loops visit them.
fn global_sub(p: ProcessId) -> u64 {
    (1 << 63) | ((p.index() as u64) << 20)
}

/// Keyed recordings accumulated by one worker (or the coordinator).
#[derive(Debug, Default)]
pub(crate) struct EventLogs {
    pub trace: Vec<(LogKey, TraceEvent)>,
    pub occupancy: Vec<(LogKey, (u64, ProcessId, usize))>,
}

/// The sharded engine's [`Sink`]: applies every metric op to this
/// thread's share of the run's metrics, logs each retained-count change
/// and each recorded observable under the key of the event being handled,
/// with consecutive sub-keys in call order.
#[derive(Debug)]
pub(crate) struct KeyedSink {
    pub logs: EventLogs,
    /// This thread's share of the run's metrics.
    pub metrics: Metrics,
    /// The retained-count changes since the last barrier, in key order.
    pub changes: Vec<RetainedChange>,
    record_trace: bool,
    record_occupancy: bool,
    /// `(at, seq)` of the event currently being handled.
    key: (u64, u64),
    /// Next intra-event sub-key.
    sub: u64,
}

impl KeyedSink {
    pub(crate) fn new(n: usize, record_trace: bool, record_occupancy: bool) -> Self {
        Self {
            logs: EventLogs::default(),
            metrics: Metrics::new(n),
            changes: Vec::new(),
            record_trace,
            record_occupancy,
            key: (0, 0),
            sub: 0,
        }
    }

    /// Starts logging under event `key`, from sub-key `sub`.
    pub(crate) fn begin(&mut self, key: (u64, u64), sub: u64) {
        self.key = key;
        self.sub = sub;
    }

    fn next_key(&mut self) -> LogKey {
        let sub = self.sub;
        self.sub += 1;
        (self.key.0, self.key.1, sub)
    }
}

impl Sink for KeyedSink {
    fn trace(&mut self, event: TraceEvent) {
        if self.record_trace {
            let key = self.next_key();
            self.logs.trace.push((key, event));
        }
    }

    fn metric(&mut self, op: MetricOp) {
        if let MetricOp::Sample { p, retained, .. } = op {
            let before = self.metrics.process(p).retained;
            if retained != before {
                let key = self.next_key();
                self.changes
                    .push((key, retained as isize - before as isize));
            }
        }
        self.metrics.apply(op);
    }

    fn occupancy(&mut self, at: u64, p: ProcessId, retained: usize) {
        if self.record_occupancy {
            let key = self.next_key();
            self.logs.occupancy.push((key, (at, p, retained)));
        }
    }
}

/// The global retained total and its peak, folded from every shard's
/// retained changes in global key order: the sequential engine's running
/// total and `peak_global_retained`, move for move (a sample that changes
/// nothing cannot raise the peak, so only the changes travel).
#[derive(Debug, Default)]
pub(crate) struct RetainedFold {
    total: usize,
    peak: usize,
}

impl RetainedFold {
    /// Folds one window's changes, one key-ordered run per shard.
    pub(crate) fn fold(&mut self, runs: Vec<Vec<RetainedChange>>) {
        for delta in in_key_order(runs) {
            self.total = self
                .total
                .checked_add_signed(delta)
                .expect("the retained total stays non-negative");
            self.peak = self.peak.max(self.total);
        }
    }
}

/// A planned local event, shippable to the worker thread that owns its
/// process. Deliveries are not planned — they are created at send
/// execution (locally or through the barrier exchange), exactly like the
/// sequential engine schedules them; only their `(at, seq)` keys are.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PlannedLocal {
    /// A basic checkpoint of the process.
    Checkpoint(ProcessId),
    /// A send, with the channel's verdict the planner drew: the key its
    /// delivery pops under, or `None` if the channel lost the message. A
    /// crash may still cancel the delivery in flight; the worker then
    /// drops it with everything else in its queue, and the coordinator
    /// emits the cancellation's `Drop`.
    Send {
        from: ProcessId,
        to: ProcessId,
        delivery: Option<(u64, u64)>,
    },
}

/// A message in flight to an owned process.
struct Delivery {
    to: ProcessId,
    id: MessageId,
    pb: Flight,
}

/// One cross-shard message in a barrier exchange batch: the delivery's
/// key, receiver and id, and what [`Flight::Remote`] carries.
pub(crate) type RemoteMsg = (u64, u64, ProcessId, MessageId, Box<(DependencyVector, u64)>);

/// What a worker ships to one peer at a barrier: the window's messages to
/// the peer's processes and, to shard 0 only, the window's retained
/// changes.
pub(crate) struct Exchange {
    msgs: Vec<RemoteMsg>,
    changes: Vec<RetainedChange>,
}

/// Coordinator-to-worker commands, processed strictly in order.
pub(crate) enum Cmd {
    /// A window: the owned processes' planned events below the cut
    /// `upto`, in key order, each to run once the deliveries below it have
    /// (every cross-shard one arrived at an earlier cut); then every
    /// delivery below `upto`; then the exchange with every peer shard.
    Window {
        events: Vec<(u64, u64, PlannedLocal)>,
        upto: (u64, u64),
    },
    /// Reply with a [`Last`] per owned process (control rounds of
    /// collectors that do not [read the line](step::reads_line)).
    GatherLasts,
    /// Crash the owned members of `crash` (a recovery session's faulty
    /// set; empty for a control round), then reply with a [`ProcessView`]
    /// per owned process. A session also loses every message in transit,
    /// so a non-empty `crash` empties the delivery queue.
    GatherViews { crash: Arc<FaultySet> },
    /// Deliver a control round to every owned process.
    Control {
        at: u64,
        seq: u64,
        info: Option<Arc<ControlInfo>>,
    },
    /// Apply a planned recovery session to every owned process.
    ApplyRecovery {
        at: u64,
        seq: u64,
        plan: Arc<RecoveryPlan>,
    },
    /// Reply with final states, metrics and recordings, then exit.
    Finish,
}

/// Worker-to-coordinator replies.
pub(crate) enum Reply {
    Lasts(Vec<Last>),
    Views(Vec<ProcessView>),
    Applied(Result<SessionOutcomes, RecoveryError>),
    Done(Box<FinishData>),
}

/// Everything a worker reports at the end of the run.
pub(crate) struct FinishData {
    pub finals: Vec<FinalProcess>,
    pub logs: EventLogs,
    pub metrics: Metrics,
    /// `peak_global_retained`, from shard 0, which folds the changes.
    pub peak_global_retained: Option<usize>,
    /// This shard's phase timings (`Some` iff profiling was on); the
    /// coordinator merges them under `…/<shard>` keys.
    pub profile: Option<rdt_obs::ProfileReport>,
}

/// Construction parameters for one worker (everything `Send`; the
/// `!Send` middlewares are minted on the worker's own thread). Workers
/// are scoped threads, so the run-wide inputs are borrowed.
pub(crate) struct WorkerSetup<'a> {
    pub shard: usize,
    pub shard_of: &'a [u32],
    pub builder: &'a SimulationBuilder,
    pub profile: bool,
    pub cmd_rx: Receiver<Cmd>,
    pub reply_tx: Sender<Reply>,
    /// Outbound exchange channels, indexed by destination shard (the own
    /// slot is never used).
    pub out_txs: Vec<Sender<Exchange>>,
    /// Inbound exchange channels, indexed by source shard.
    pub in_rxs: Vec<Receiver<Exchange>>,
}

/// Runs one shard worker to completion. Exits when the coordinator drops
/// the command channel (error paths included), so a failed run never
/// leaves a worker blocked.
///
/// When profiling, every interval between entry and the `Finish` reply is
/// attributed to a named phase (`shard/setup`, `shard/cmd_wait`,
/// `shard/drain`, `shard/exchange`, `shard/barrier_wait`, `shard/global`,
/// `shard/finish`), and `shard/wall` records the whole span — so the
/// per-shard phases sum to the shard's measured wall-clock (asserted to
/// ±5% by `tests/obs_equiv.rs`).
pub(crate) fn run_worker(setup: WorkerSetup<'_>) {
    let prof = rdt_obs::Profiler::new(setup.profile);
    let wall = prof.start();
    let t_setup = prof.start();

    let (run, config) = (setup.builder, &setup.builder.config);
    let n = run.spec.n;
    let manager = RecoveryManager::with_mode(run.recovery_mode);
    let owned = ProcessId::all(n).filter(|p| setup.shard_of[p.index()] as usize == setup.shard);
    // Dropped last: a panicking worker drops its peers' and the
    // coordinator's channels first, then drains its commands.
    let commands = Commands(setup.cmd_rx);
    let reply_tx = setup.reply_tx;

    let mut w = Worker {
        shard: setup.shard,
        shard_of: setup.shard_of,
        core: StepCore::new(owned, n, run.protocol, run.gc, config.state_size),
        env: ShardEnv::new(),
        sink: KeyedSink::new(n, config.record_trace, config.record_occupancy),
        fold: RetainedFold::default(),
        outboxes: vec![Vec::new(); setup.out_txs.len()],
        out_txs: setup.out_txs,
        in_rxs: setup.in_rxs,
        prof,
    };
    w.prof.stop("shard/setup", t_setup);

    let reply = |reply| reply_tx.send(reply).expect("coordinator gone");
    loop {
        // Time blocked on the coordinator (between windows this is the
        // complement of the peers' barrier waits).
        let t_wait = w.prof.start();
        let Ok(cmd) = commands.0.recv() else { break };
        w.prof.stop("shard/cmd_wait", t_wait);
        match cmd {
            Cmd::Window { events, upto } => w.window(events, upto),
            Cmd::GatherLasts => {
                let t = w.prof.start();
                let lasts = w.core.processes().iter().map(step::last).collect();
                reply(Reply::Lasts(lasts));
                w.prof.stop("shard/global", t);
            }
            Cmd::GatherViews { crash } => {
                let t = w.prof.start();
                w.core.crash(&crash);
                if !crash.is_empty() {
                    w.env.clear();
                }
                reply(Reply::Views(w.core.views()));
                w.prof.stop("shard/global", t);
            }
            Cmd::Control { at, seq, info } => {
                let t = w.prof.start();
                for i in 0..w.core.processes().len() {
                    let p = w.core.processes()[i].owner();
                    w.sink.begin((at, seq), global_sub(p));
                    w.core.control(p, info.as_deref(), at, &mut w.sink);
                }
                w.prof.stop("shard/global", t);
            }
            Cmd::ApplyRecovery { at, seq, plan } => {
                let t = w.prof.start();
                let applied = w.core.apply_recovery(&manager, &plan);
                let applied = applied.map(|()| std::mem::take(w.core.outcomes()));
                if applied.is_ok() {
                    for i in 0..w.core.processes().len() {
                        let p = w.core.processes()[i].owner();
                        w.sink.begin((at, seq), global_sub(p));
                        w.core.sample(p, at, &mut w.sink);
                    }
                }
                reply(Reply::Applied(applied));
                w.prof.stop("shard/global", t);
            }
            Cmd::Finish => {
                let t = w.prof.start();
                let Worker {
                    shard,
                    core,
                    sink,
                    fold,
                    mut prof,
                    ..
                } = w;
                debug_assert!(sink.changes.is_empty(), "the last cut folded every change");
                let finals = core.finals();
                prof.stop("shard/finish", t);
                prof.stop("shard/wall", wall);
                reply(Reply::Done(Box::new(FinishData {
                    finals,
                    logs: sink.logs,
                    metrics: sink.metrics,
                    peak_global_retained: (shard == 0).then_some(fold.peak),
                    profile: prof.into_report(),
                })));
                return;
            }
        }
    }
}

/// A worker's command queue, read to the end if the worker's thread
/// panics: the coordinator, which waits whenever the queue is full, then
/// meets the panic as a missing reply instead of waiting forever.
struct Commands(Receiver<Cmd>);

impl Drop for Commands {
    fn drop(&mut self) {
        if std::thread::panicking() {
            while self.0.recv().is_ok() {}
        }
    }
}

struct Worker<'a> {
    shard: usize,
    shard_of: &'a [u32],
    core: StepCore,
    /// Deliveries in flight to owned processes.
    env: ShardEnv<Delivery>,
    sink: KeyedSink,
    /// Shard 0's fold of every shard's retained changes.
    fold: RetainedFold,
    outboxes: Vec<Vec<RemoteMsg>>,
    out_txs: Vec<Sender<Exchange>>,
    in_rxs: Vec<Receiver<Exchange>>,
    /// Phase timings for this shard (disabled unless the run profiles).
    prof: rdt_obs::Profiler,
}

/// Recovery sessions run to completion inside one global event, so no
/// process is crashed (and no volatile-storage middleware call can fail)
/// while a window drains.
const ALIVE: &str = "processes are alive at event boundaries";

impl Worker<'_> {
    /// Runs every queued delivery below `bound`, in key order.
    fn deliver_below(&mut self, bound: (u64, u64)) {
        while let Some((at, seq, Delivery { to, id, pb })) = self.env.pop_before(bound) {
            self.sink.begin((at, seq), 0);
            self.core
                .deliver(to, id, &pb, at, &mut self.sink)
                .expect(ALIVE);
        }
    }

    /// Runs a window: its planned events, each after the deliveries below
    /// it, then the deliveries below the cut; then the barrier exchange.
    fn window(&mut self, events: Vec<(u64, u64, PlannedLocal)>, upto: (u64, u64)) {
        // The three phases chain: one clock read closes one and opens the
        // next.
        let mut t = self.prof.start();
        for (at, seq, event) in events {
            self.deliver_below((at, seq));
            self.sink.begin((at, seq), 0);
            self.handle(at, event);
        }
        self.deliver_below(upto);
        self.prof.lap("shard/drain", &mut t);
        // Window barrier: ship this window's cross-shard sends (and, to
        // shard 0, its retained changes), then take delivery of every
        // peer's. Batches pair up exactly because all workers get the
        // identical sequence of cuts.
        for j in 0..self.out_txs.len() {
            if j != self.shard {
                let batch = Exchange {
                    msgs: std::mem::take(&mut self.outboxes[j]),
                    changes: if j == 0 {
                        std::mem::take(&mut self.sink.changes)
                    } else {
                        Vec::new()
                    },
                };
                self.out_txs[j].send(batch).expect("peer shard gone");
            }
        }
        self.prof.lap("shard/exchange", &mut t);
        // The receive half blocks until every peer reaches the same
        // barrier: this is where a load-imbalanced shard waits.
        let folds = self.shard == 0;
        let mut changes = Vec::new();
        if folds {
            changes.push(std::mem::take(&mut self.sink.changes));
        }
        for j in 0..self.in_rxs.len() {
            if j != self.shard {
                let batch = self.in_rxs[j].recv().expect("peer shard gone");
                for (at, seq, to, id, pb) in batch.msgs {
                    let pb = Flight::Remote(pb);
                    self.env.insert(at, seq, Delivery { to, id, pb });
                }
                if folds {
                    changes.push(batch.changes);
                }
            }
        }
        self.prof.lap("shard/barrier_wait", &mut t);
        if folds {
            // Every shard's changes below the cut are here.
            self.fold.fold(changes);
            self.prof.lap("shard/exchange", &mut t);
        }
    }

    /// Handles one planned event at tick `at`: the step core does the
    /// work, with the scheduling decisions the sequential engine draws from
    /// its rng read from the plan instead.
    fn handle(&mut self, at: u64, event: PlannedLocal) {
        let (core, sink) = (&mut self.core, &mut self.sink);
        match event {
            PlannedLocal::Checkpoint(p) => {
                core.checkpoint(p, at, sink).expect(ALIVE);
            }
            PlannedLocal::Send { from, to, delivery } => {
                let mint = |mw: &mut rdt_protocols::Middleware| delivery.map(|_| mw.piggyback());
                let (id, pb) = core.send(from, to, at, sink, mint).expect(ALIVE);
                let (Some((d_at, d_seq)), Some(pb)) = (delivery, pb) else {
                    step::lose(to, id, sink);
                    return;
                };
                let to_shard = self.shard_of[to.index()] as usize;
                if to_shard == self.shard {
                    let pb = Flight::Local(pb);
                    self.env.insert(d_at, d_seq, Delivery { to, id, pb });
                } else {
                    let remote = Box::new(((*pb.dv).clone(), pb.index));
                    self.outboxes[to_shard].push((d_at, d_seq, to, id, remote));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two shards' changes, folded in key order, give the peak of the
    /// interleaved total — not the sum of each shard's own peak.
    #[test]
    fn changes_fold_into_the_peak_of_the_interleaving() {
        let mut fold = RetainedFold::default();
        // Shard 0 rises to 3 and falls back to 1 before shard 1 rises to 2.
        fold.fold(vec![
            vec![((1, 0, 0), 3), ((2, 0, 0), -2)],
            vec![((3, 0, 0), 2)],
        ]);
        assert_eq!(fold.peak, 3);
        fold.fold(vec![vec![((4, 0, 0), 1)], Vec::new()]);
        assert_eq!((fold.total, fold.peak), (4, 4));
    }
}
