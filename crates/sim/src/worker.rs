//! One shard worker of the parallel engine: owns a contiguous or strided
//! subset of the middlewares in a [`StepCore`], drains its planned events —
//! a key-ordered lane, used as the plan hands it over — merged with the
//! deliveries in its [`ShardEnv`] inside each conservative lookahead window,
//! and exchanges cross-shard deliveries with its peers at window barriers.
//!
//! Workers never touch the run's [`Metrics`](crate::Metrics), trace or
//! occupancy buffers directly — the exact values of order-sensitive
//! aggregates (`peak_global_retained`, trace order) depend on the *global*
//! event order, which no single shard sees. Instead the step core's sink
//! here is a [`KeyedSink`]: every observable is logged under its event's
//! global `(at, seq)` key plus an intra-event sub-key; the coordinator
//! merges all logs by key at the end and replays them in sequential-engine
//! order, reproducing the aggregates byte for byte.

use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender};

use rdt_base::{DependencyVector, MessageId, ProcessId, TraceEvent};
use rdt_core::ControlInfo;
use rdt_env::{Lane, ShardEnv};
use rdt_recovery::{FaultySet, ProcessView, RecoveryManager, RecoveryPlan};

use crate::engine::SimulationBuilder;
use crate::metrics::MetricOp;
use crate::step::{self, AppliedBatch, FinalProcess, Flight, Last, Sink, StepCore};

/// Global ordering key of one logged observable: the owning event's
/// `(at, seq)` plus an intra-event sub-key.
pub(crate) type LogKey = (u64, u64, u64);

/// Sub-key base for the fragment process `p` contributes to a *global*
/// event (control round or recovery session): the high bit makes every
/// fragment sort after the coordinator's own entries for that event, and
/// the process index orders fragments the way the sequential engine's
/// ascending per-process loops visit them.
fn global_sub(p: ProcessId) -> u64 {
    (1 << 63) | ((p.index() as u64) << 20)
}

/// Keyed observables accumulated by one worker (or the coordinator).
#[derive(Debug, Default)]
pub(crate) struct EventLogs {
    pub trace: Vec<(LogKey, TraceEvent)>,
    pub occupancy: Vec<(LogKey, (u64, ProcessId, usize))>,
    pub metrics: Vec<(LogKey, MetricOp)>,
}

/// The sharded engine's [`Sink`]: logs each observable under the key of
/// the event being handled, with consecutive sub-keys in call order.
#[derive(Debug)]
pub(crate) struct KeyedSink {
    pub logs: EventLogs,
    record_trace: bool,
    record_occupancy: bool,
    /// `(at, seq)` of the event currently being handled.
    key: (u64, u64),
    /// Next intra-event sub-key.
    sub: u64,
}

impl KeyedSink {
    pub(crate) fn new(record_trace: bool, record_occupancy: bool) -> Self {
        Self {
            logs: EventLogs::default(),
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
        let key = self.next_key();
        self.logs.metrics.push((key, op));
    }

    fn occupancy(&mut self, at: u64, p: ProcessId, retained: usize) {
        if self.record_occupancy {
            let key = self.next_key();
            self.logs.occupancy.push((key, (at, p, retained)));
        }
    }
}

/// A pre-planned local event, shippable to the worker thread that owns
/// its process. Deliveries are not planned — they are created at send
/// execution (locally or through the barrier exchange), exactly like the
/// sequential engine schedules them; only their `(at, seq)` keys are.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PlannedLocal {
    /// A basic checkpoint of the process.
    Checkpoint(ProcessId),
    /// A send, with every scheduling decision the sequential engine would
    /// draw from the rng resolved by the planning pass.
    Send {
        from: ProcessId,
        to: ProcessId,
        /// The channel lost the message (loss drawn at plan time).
        lost: bool,
        /// A later crash cancels the in-flight delivery; the send itself
        /// still executes (and is traced), but nothing is scheduled — the
        /// coordinator emits the cancellation's `Drop` at the crash.
        cancelled: bool,
        /// Pre-assigned global key of the delivery (meaningful iff
        /// `!lost && !cancelled`).
        delivery: (u64, u64),
    },
}

/// An event a worker handles: planned ones come from its lane, deliveries
/// from its queue.
enum LocalEvent {
    Planned(PlannedLocal),
    Deliver {
        to: ProcessId,
        id: MessageId,
        pb: Flight,
    },
}

/// One cross-shard message in a barrier exchange batch: the delivery's
/// key, receiver and id, and what [`Flight::Remote`] carries.
pub(crate) type RemoteMsg = (u64, u64, ProcessId, MessageId, Box<(DependencyVector, u64)>);

/// Coordinator-to-worker commands, processed strictly in order.
pub(crate) enum Cmd {
    /// Process every owned event with key strictly below `upto`, then
    /// exchange outboxes with every peer shard.
    Advance { upto: (u64, u64) },
    /// Reply with a [`Last`] per owned process (control rounds of
    /// collectors that do not [read the line](step::reads_line)).
    GatherLasts,
    /// Crash the owned members of `crash` (a recovery session's faulty
    /// set; empty for a control round), then reply with a [`ProcessView`]
    /// per owned process.
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
    /// Reply with final states and the accumulated logs, then exit.
    Finish,
}

/// Worker-to-coordinator replies.
pub(crate) enum Reply {
    Lasts(Vec<Last>),
    Views(Vec<ProcessView>),
    Applied(AppliedBatch),
    Done(Box<FinishData>),
}

/// Everything a worker reports at the end of the run.
pub(crate) struct FinishData {
    pub finals: Vec<FinalProcess>,
    pub logs: EventLogs,
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
    /// The shard's planned events, in `(at, seq)` order.
    pub events: Vec<(u64, u64, PlannedLocal)>,
    pub builder: &'a SimulationBuilder,
    pub profile: bool,
    pub cmd_rx: Receiver<Cmd>,
    pub reply_tx: Sender<Reply>,
    /// Outbound exchange channels, indexed by destination shard (the own
    /// slot is never used).
    pub out_txs: Vec<Sender<Vec<RemoteMsg>>>,
    /// Inbound exchange channels, indexed by source shard.
    pub in_rxs: Vec<Receiver<Vec<RemoteMsg>>>,
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
    let manager = RecoveryManager::with_mode(run.recovery_mode);
    let owned =
        ProcessId::all(run.spec.n).filter(|p| setup.shard_of[p.index()] as usize == setup.shard);
    let (cmd_rx, reply_tx) = (setup.cmd_rx, setup.reply_tx);

    let mut w = Worker {
        shard: setup.shard,
        shard_of: setup.shard_of,
        core: StepCore::new(owned, run.spec.n, run.protocol, run.gc, config.state_size),
        lane: setup.events.into(),
        env: ShardEnv::new(),
        sink: KeyedSink::new(config.record_trace, config.record_occupancy),
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
        let Ok(cmd) = cmd_rx.recv() else { break };
        w.prof.stop("shard/cmd_wait", t_wait);
        match cmd {
            Cmd::Advance { upto } => w.advance(upto),
            Cmd::GatherLasts => {
                let t = w.prof.start();
                let lasts = w.core.processes().iter().map(step::last).collect();
                reply(Reply::Lasts(lasts));
                w.prof.stop("shard/global", t);
            }
            Cmd::GatherViews { crash } => {
                let t = w.prof.start();
                w.core.crash(&crash);
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
                let finals = w.core.finals();
                let logs = std::mem::take(&mut w.sink.logs);
                w.prof.stop("shard/finish", t);
                w.prof.stop("shard/wall", wall);
                reply(Reply::Done(Box::new(FinishData {
                    finals,
                    logs,
                    profile: w.prof.into_report(),
                })));
                return;
            }
        }
    }
}

struct Worker<'a> {
    shard: usize,
    shard_of: &'a [u32],
    core: StepCore,
    /// Planned events not yet run; the plan built them in key order.
    lane: Lane<PlannedLocal>,
    /// Deliveries in flight to owned processes.
    env: ShardEnv<LocalEvent>,
    sink: KeyedSink,
    outboxes: Vec<Vec<RemoteMsg>>,
    out_txs: Vec<Sender<Vec<RemoteMsg>>>,
    in_rxs: Vec<Receiver<Vec<RemoteMsg>>>,
    /// Phase timings for this shard (disabled unless the run profiles).
    prof: rdt_obs::Profiler,
}

/// Recovery sessions run to completion inside one global event, so no
/// process is crashed (and no volatile-storage middleware call can fail)
/// while a window drains.
const ALIVE: &str = "processes are alive at event boundaries";

impl Worker<'_> {
    /// The next owned event below `upto`, lane and queue merged by key.
    fn pop(&mut self, upto: (u64, u64)) -> Option<(u64, u64, LocalEvent)> {
        self.env
            .pop_merged(&mut self.lane, upto, LocalEvent::Planned)
    }

    fn advance(&mut self, upto: (u64, u64)) {
        // The three phases chain: one clock read closes one and opens the
        // next.
        let mut t = self.prof.start();
        while let Some((at, seq, ev)) = self.pop(upto) {
            self.sink.begin((at, seq), 0);
            self.handle(at, ev);
        }
        self.prof.lap("shard/drain", &mut t);
        // Window barrier: ship this window's cross-shard sends, then take
        // delivery of every peer's. Batches pair up exactly because all
        // workers execute the identical Advance sequence.
        for j in 0..self.out_txs.len() {
            if j != self.shard {
                let batch = std::mem::take(&mut self.outboxes[j]);
                self.out_txs[j].send(batch).expect("peer shard gone");
            }
        }
        self.prof.lap("shard/exchange", &mut t);
        // The receive half blocks until every peer reaches the same
        // barrier: this is where a load-imbalanced shard waits.
        for j in 0..self.in_rxs.len() {
            if j != self.shard {
                let batch = self.in_rxs[j].recv().expect("peer shard gone");
                for (at, seq, to, id, pb) in batch {
                    let pb = Flight::Remote(pb);
                    self.env.insert(at, seq, LocalEvent::Deliver { to, id, pb });
                }
            }
        }
        self.prof.lap("shard/barrier_wait", &mut t);
    }

    /// Handles one owned event at tick `at`: the step core does the work,
    /// with the scheduling decisions the sequential engine draws from its
    /// rng read from the plan instead.
    fn handle(&mut self, at: u64, ev: LocalEvent) {
        let (core, sink) = (&mut self.core, &mut self.sink);
        match ev {
            LocalEvent::Planned(PlannedLocal::Checkpoint(p)) => {
                core.checkpoint(p, at, sink).expect(ALIVE);
            }
            LocalEvent::Planned(PlannedLocal::Send {
                from,
                to,
                lost,
                cancelled,
                delivery,
            }) => {
                let (id, pb) = core
                    .send(from, to, at, sink, |mw| {
                        (!lost && !cancelled).then(|| mw.piggyback())
                    })
                    .expect(ALIVE);
                if lost {
                    step::lose(to, id, sink);
                }
                let Some(pb) = pb else { return };
                let (d_at, d_seq) = delivery;
                let to_shard = self.shard_of[to.index()] as usize;
                if to_shard == self.shard {
                    let pb = Flight::Local(pb);
                    self.env
                        .insert(d_at, d_seq, LocalEvent::Deliver { to, id, pb });
                } else {
                    let remote = Box::new(((*pb.dv).clone(), pb.index));
                    self.outboxes[to_shard].push((d_at, d_seq, to, id, remote));
                }
            }
            LocalEvent::Deliver { to, id, pb } => {
                core.deliver(to, id, &pb, at, sink).expect(ALIVE);
            }
        }
    }
}
