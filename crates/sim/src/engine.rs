//! The deterministic discrete-event simulator.

use rdt_base::{DvEntry, Incarnation, MessageId, ProcessId, Result, TraceEvent};
use rdt_core::GcKind;
use rdt_env::{Lane, Rng as _, SimEnv};
use rdt_protocols::{Middleware, Piggyback, ProtocolKind};
use rdt_recovery::{FaultySet, RecoveryManager, RecoveryMode, RecoverySessionReport};
use rdt_workloads::{AppOp, OpStream, WorkloadSpec};

use crate::config::{ChannelConfig, SimConfig};
use crate::metrics::{MetricOp, Metrics};
use crate::step::{self, Sink, StepCore};

/// Outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Number of processes.
    pub n: usize,
    /// Final dependency vectors, one per process.
    pub final_dvs: Vec<rdt_base::DependencyVector>,
    /// Final last-stable checkpoint index per process.
    pub final_last_stable: Vec<usize>,
    /// Aggregated measurements.
    pub metrics: Metrics,
    /// The event trace, if [`SimConfig::record_trace`] was set. Crash-free
    /// traces replay into `rdt-ccp` CCPs for oracle validation.
    pub trace: Option<Vec<TraceEvent>>,
    /// Occupancy samples `(time, process, retained)`, if
    /// [`SimConfig::record_occupancy`] was set.
    pub occupancy: Option<Vec<(u64, ProcessId, usize)>>,
    /// One report per recovery session.
    pub recovery_sessions: Vec<RecoverySessionReport>,
    /// Retained checkpoint indices per process at the end of the run.
    pub final_retained: Vec<Vec<usize>>,
    /// Final incarnation number per process (number of rollbacks survived).
    pub final_incarnations: Vec<Incarnation>,
    /// Phase timings and counters, if [`SimConfig::profile`] (or
    /// `RDT_PROFILE`) was set. Deliberately excluded from the canonical
    /// replay-golden dump: wall-clock observations are not part of the
    /// deterministic output.
    pub profile: Option<rdt_obs::ProfileReport>,
}

/// Builder for a simulation run.
///
/// ```
/// use rdt_core::GcKind;
/// use rdt_protocols::ProtocolKind;
/// use rdt_sim::SimulationBuilder;
/// use rdt_workloads::WorkloadSpec;
///
/// let report = SimulationBuilder::new(WorkloadSpec::uniform_random(4, 100).with_seed(3))
///     .protocol(ProtocolKind::Fdas)
///     .garbage_collector(GcKind::RdtLgc)
///     .run()
///     .expect("simulation runs");
/// assert!(report.metrics.max_retained_per_process() <= 5);
/// ```
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    pub(crate) spec: WorkloadSpec,
    pub(crate) protocol: ProtocolKind,
    pub(crate) gc: GcKind,
    pub(crate) config: SimConfig,
    pub(crate) recovery_mode: RecoveryMode,
}

impl SimulationBuilder {
    /// Starts from a workload specification.
    pub fn new(spec: WorkloadSpec) -> Self {
        Self {
            spec,
            protocol: ProtocolKind::Fdas,
            gc: GcKind::RdtLgc,
            config: SimConfig::default(),
            recovery_mode: RecoveryMode::Coordinated,
        }
    }

    /// Selects the checkpointing protocol (default FDAS).
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Selects the garbage collector (default RDT-LGC).
    pub fn garbage_collector(mut self, gc: GcKind) -> Self {
        self.gc = gc;
        self
    }

    /// Sets the full simulator configuration.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the channel behaviour.
    pub fn channel(mut self, channel: ChannelConfig) -> Self {
        self.config.channel = channel;
        self
    }

    /// Enables coordinator control rounds every `ticks` (for the
    /// coordinated baseline collectors).
    pub fn control_every(mut self, ticks: u64) -> Self {
        self.config.control_every = Some(ticks);
        self
    }

    /// Records the event trace for offline replay.
    pub fn record_trace(mut self) -> Self {
        self.config.record_trace = true;
        self
    }

    /// Records per-event occupancy samples for timeline analyses.
    pub fn record_occupancy(mut self) -> Self {
        self.config.record_occupancy = true;
        self
    }

    /// Collects phase timings into the report (see [`SimConfig::profile`]).
    pub fn profile(mut self) -> Self {
        self.config.profile = true;
        self
    }

    /// Sets the recovery mode (default coordinated).
    pub fn recovery_mode(mut self, mode: RecoveryMode) -> Self {
        self.recovery_mode = mode;
        self
    }

    /// Partitions the run across `shards` worker shards (default 1 = the
    /// sequential engine). Output is byte-identical for a fixed seed
    /// regardless of the count; if the channel's `min_delay` is 0 the
    /// lookahead window is empty and the run falls back to the sequential
    /// engine loudly ([`crate::ZeroLookaheadFallback`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shard.shards = shards;
        self
    }

    /// Chooses the process-to-shard assignment (default contiguous).
    pub fn partitioning(mut self, partitioning: crate::Partitioning) -> Self {
        self.config.shard.partitioning = partitioning;
        self
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// [`rdt_base::Error::InvalidConfig`] if the configuration fails
    /// [`SimConfig::validate`] — caught here, before construction, instead
    /// of panicking mid-run inside the channel RNG. Otherwise propagates
    /// middleware errors; none occur under the simulator's own scheduling
    /// discipline, but the signature keeps the harness honest.
    pub fn run(self) -> Result<SimulationReport> {
        self.config.validate()?;
        let shards = self.config.shard.shards.min(self.spec.n);
        if shards > 1 {
            if self.config.channel.min_delay == 0 {
                // Zero cross-shard lookahead: every window would be a
                // single tick (lockstep barriers). Degrade loudly to the
                // sequential engine instead.
                let warning = crate::ZeroLookaheadFallback { shards };
                rdt_obs::warn("rdt_sim::engine", "zero_lookahead_fallback")
                    .message(warning)
                    .u64("shards", shards as u64)
                    .u64("min_delay", self.config.channel.min_delay)
                    .emit();
                let mut report = self.run_sequential()?;
                report.metrics.sequential_fallbacks = 1;
                return Ok(report);
            }
            return crate::parallel::run_sharded(self, shards);
        }
        self.run_sequential()
    }

    /// The single-threaded engine, shard dispatch already resolved.
    pub(crate) fn run_sequential(self) -> Result<SimulationReport> {
        let mut sim = Simulation::new(
            self.spec.n,
            self.protocol,
            self.gc,
            self.config,
            self.recovery_mode,
            self.spec.seed,
        );
        sim.stream_ops(&self.spec);
        sim.run_to_completion()?;
        Ok(sim.into_report())
    }
}

/// One scheduled event. `C` is what a delivery carries: here the sender's
/// piggyback (`Rc`-shared with the sender's snapshot, so queueing one
/// copies a pointer — no entries, no atomics); in the sharded engine's
/// planner, which does no middleware work, the key of a send that crosses
/// shards.
#[derive(Debug)]
pub(crate) enum EventKind<C> {
    App(AppOp),
    Deliver {
        to: ProcessId,
        id: MessageId,
        carry: C,
    },
    ControlRound,
}

/// How many ops one refill moves from the workload's generator into the
/// lane: 40 KB of lane, large enough that a refill's fixed cost vanishes
/// per op, small beside the system the ops drive. The sharded engine's
/// planner cuts a window at least this often too.
pub(crate) const BLOCK: usize = 1024;

/// A workload still producing ([`Schedule::stream`]): its generator and
/// the reserved key of the op it produces next — one `ticks_per_op` and one
/// stamp after the op before.
#[derive(Debug)]
struct Feed {
    ops: OpStream,
    at: u64,
    seq: u64,
}

/// The run's schedule — queue, virtual clock and rng in a
/// [`SimEnv`](rdt_env::SimEnv), the op stream in an ordered lane beside it
/// — and every decision a run draws from it: a send's loss and delay, a
/// crash's correlated faulty set. The sequential engine and the sharded
/// engine's planner both draw *here*, so the plan gets the sequential
/// `(at, seq)` keys and rng stream by construction.
///
/// The queue holds only what the run creates as it executes (deliveries,
/// control rounds); [`pop`](Self::pop) merges it with the lane by key. The
/// lane is typed [`AppOp`], so a crash session's [`cancel`](Self::cancel)
/// cannot even visit an op still to come — only what is in flight.
///
/// A run's own workload never sits in the lane whole:
/// [`stream`](Self::stream) fixes every op's key up front and `pop` refills
/// the lane [`BLOCK`] ops at a time from the generator when it finds it
/// empty. The environment is private because of that — a caller popping it
/// directly would read an empty lane as a spent one and run past the ops
/// still to be produced.
#[derive(Debug)]
pub(crate) struct Schedule<C> {
    env: SimEnv<EventKind<C>>,
    /// The application ops produced and not yet run, in `(at, seq)` order.
    lane: Lane<AppOp>,
    /// The workload behind the lane, while it has ops left to produce.
    feed: Option<Feed>,
    config: SimConfig,
    /// Time of the last scheduled application op; control rounds stop
    /// rescheduling past it so the event queue drains.
    horizon: u64,
}

impl<C> Schedule<C> {
    pub(crate) fn new(seed: u64, config: SimConfig) -> Self {
        // The seed salt predates the environment split; keeping it on
        // this side of the boundary keeps historical seeds stable.
        let mut env = SimEnv::new(seed ^ 0x5eed_c0de);
        if let Some(every) = config.control_every {
            env.schedule(every, EventKind::ControlRound);
        }
        Self {
            env,
            lane: Lane::new(),
            feed: None,
            config,
            horizon: 0,
        }
    }

    /// Current virtual time: the tick of the event popped last.
    pub(crate) fn now(&self) -> u64 {
        self.env.now()
    }

    /// Schedules `spec`'s operation stream without producing it: reserves
    /// the stamps and sets the horizon exactly as [`ops`](Self::ops) would
    /// for the generated slice, so every key and every later draw is the
    /// same, and leaves the ops to [`pop`](Self::pop)'s refills.
    ///
    /// # Panics
    ///
    /// Panics if ops are already waiting: a stream feeds an empty lane.
    pub(crate) fn stream(&mut self, spec: &WorkloadSpec) {
        assert!(
            self.lane.is_empty() && self.feed.is_none(),
            "a stream feeds an empty lane"
        );
        let steps = spec.steps as u64;
        let Some(last) = steps.checked_sub(1) else {
            return;
        };
        let at = self.env.now();
        self.horizon = self.horizon.max(at + last * self.config.ticks_per_op);
        self.feed = Some(Feed {
            ops: spec.ops(),
            at,
            seq: self.env.reserve_seqs(steps),
        });
    }

    /// Moves the stream's next `max` ops into the lane under their
    /// reserved keys.
    fn refill(&mut self, max: usize) {
        let Some(Feed { ops, at, seq }) = &mut self.feed else {
            return;
        };
        let (lane, step) = (&mut self.lane, self.config.ticks_per_op);
        lane.reserve(max.min(ops.remaining()));
        ops.fill(max, |op| {
            lane.push_back((*at, *seq, op));
            // Wrapping: the key past the last op is computed, never used.
            (*at, *seq) = (at.wrapping_add(step), *seq + 1);
        });
        if ops.remaining() == 0 {
            self.feed = None;
        }
    }

    /// Schedules an operation stream ([`Simulation::schedule_ops`]): op `k`
    /// at `now + k * ticks_per_op`, stamped from the environment's sequence
    /// counter exactly as if it were queued. A later call's ops merge into
    /// the unconsumed lane by `(at, seq)` — after whatever a
    /// [`stream`](Self::stream) has yet to produce has joined it.
    pub(crate) fn ops(&mut self, ops: &[AppOp]) {
        self.refill(usize::MAX);
        let (start, step) = (self.env.now(), self.config.ticks_per_op);
        let merge = !self.lane.is_empty();
        self.lane.reserve(ops.len());
        for (k, op) in ops.iter().enumerate() {
            let at = start + k as u64 * step;
            self.lane.push_back((at, self.env.next_seq(), *op));
            self.horizon = self.horizon.max(at);
        }
        if merge {
            // Two key-ordered runs: the adaptive stable sort is one merge.
            let lane = self.lane.make_contiguous();
            lane.sort_by_key(|&(at, seq, _)| (at, seq));
        }
    }

    /// The next event of lane and queue merged by `(at, seq)`, advancing
    /// the clock to it. The only reader of the lane, hence the one place
    /// that refills it.
    pub(crate) fn pop(&mut self) -> Option<(u64, u64, EventKind<C>)> {
        if self.lane.is_empty() {
            self.refill(BLOCK);
        }
        self.env.pop_merged(&mut self.lane, EventKind::App)
    }

    /// A crash session's cancel, passed through to the queue: events
    /// failing `keep` go to `dropped` with their tick, in `(at, seq)` order.
    /// Generic, so each caller's closures are compiled into its own walk.
    pub(crate) fn cancel(
        &mut self,
        keep: impl FnMut(&EventKind<C>) -> bool,
        dropped: impl FnMut(u64, EventKind<C>),
    ) {
        self.env.cancel(keep, dropped);
    }

    /// The channel's verdict on a message sent now: the loss draw, then —
    /// only if it survives — the delay draw and the delivery's place in
    /// the queue. Returns the `(at, seq)` key the delivery will pop under,
    /// or `None` if the message was lost.
    pub(crate) fn transmit(
        &mut self,
        to: ProcessId,
        id: MessageId,
        carry: C,
    ) -> Option<(u64, u64)> {
        let channel = self.config.channel;
        if self.env.rng().chance(channel.loss_rate) {
            return None;
        }
        let delay = self.env.rng().between(channel.min_delay, channel.max_delay);
        let at = self.env.now() + delay;
        let seq = self.env.schedule(at, EventKind::Deliver { to, id, carry });
        Some((at, seq))
    }

    /// The faulty set of a crash of `p` among `n` processes: `p` plus one
    /// correlated-failure draw per other process, ascending.
    pub(crate) fn faulty(&mut self, p: ProcessId, n: usize) -> FaultySet {
        let mut faulty: FaultySet = [p].into_iter().collect();
        let prob = self.config.correlated_crash_prob;
        if prob > 0.0 {
            let others = ProcessId::all(n).filter(|&q| q != p);
            faulty.extend(others.filter(|_| self.env.rng().chance(prob)));
        }
        faulty
    }

    /// Schedules the control round after the one running now, if any op
    /// is still to come by then.
    pub(crate) fn next_control(&mut self) {
        if let Some(every) = self.config.control_every {
            let at = self.env.now() + every;
            if at <= self.horizon {
                self.env.schedule(at, EventKind::ControlRound);
            }
        }
    }
}

/// The sequential engine's [`Sink`]: every observable is applied on the
/// spot, in handler order — which *is* the global event order here.
#[derive(Debug)]
struct DirectSink {
    metrics: Metrics,
    /// `Some` iff [`SimConfig::record_trace`].
    trace: Option<Vec<TraceEvent>>,
    /// `Some` iff [`SimConfig::record_occupancy`].
    occupancy: Option<Vec<(u64, ProcessId, usize)>>,
}

impl Sink for DirectSink {
    fn trace(&mut self, event: TraceEvent, _lineage: Option<DvEntry>) {
        if let Some(trace) = &mut self.trace {
            trace.push(event);
        }
    }

    fn metric(&mut self, op: MetricOp) {
        self.metrics.apply(op);
    }

    fn occupancy(&mut self, at: u64, p: ProcessId, retained: usize) {
        if let Some(occupancy) = &mut self.occupancy {
            occupancy.push((at, p, retained));
        }
    }
}

/// The discrete-event simulation state.
///
/// *When* each event runs lives in the [`Schedule`] shared with the
/// sharded engine's planner; what it *does* lives in the step core
/// shared with the shard workers.
#[derive(Debug)]
pub struct Simulation {
    sched: Schedule<Piggyback>,
    core: StepCore,
    manager: RecoveryManager,
    out: DirectSink,
    recovery_sessions: Vec<RecoverySessionReport>,
    /// Phase timings ([`SimConfig::profile`]); a disabled profiler never
    /// reads the clock, so the default run pays one branch per event.
    profiler: rdt_obs::Profiler,
}

impl Simulation {
    /// Creates a simulation over `n` fresh middleware instances.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SimConfig::validate`] (e.g. a
    /// hand-built or deserialized `loss_rate` outside `[0, 1]`) — better
    /// a clear panic at construction than a cryptic one mid-run. Fallible
    /// callers should validate first or go through
    /// [`SimulationBuilder::run`], which returns a typed error instead.
    pub fn new(
        n: usize,
        protocol: ProtocolKind,
        gc: GcKind,
        config: SimConfig,
        recovery_mode: RecoveryMode,
        seed: u64,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid simulator configuration: {e}");
        }
        Self {
            sched: Schedule::new(seed, config),
            core: StepCore::new(ProcessId::all(n), n, protocol, gc, config.state_size),
            manager: RecoveryManager::with_mode(recovery_mode),
            out: DirectSink {
                metrics: Metrics::new(n),
                trace: config.record_trace.then(Vec::new),
                occupancy: config.record_occupancy.then(Vec::new),
            },
            recovery_sessions: Vec::new(),
            profiler: rdt_obs::Profiler::new(config.profile || rdt_obs::profile::env_enabled()),
        }
    }

    /// Schedules an operation stream, one op per
    /// [`ticks_per_op`](SimConfig::ticks_per_op) from the current time on,
    /// pre-sizing the recording buffers from the op count so the hot loop
    /// never reallocates them. The ops are not queued: their order is final,
    /// so they wait in an ordered lane that the run merges with the event
    /// queue by `(tick, sequence)`. A further call — before, during or
    /// after a run — merges its ops into the ones still waiting the same
    /// way; on equal ticks the earlier call's op runs first.
    pub fn schedule_ops(&mut self, ops: &[AppOp]) {
        self.reserve_recordings(ops.len());
        self.sched.ops(ops);
    }

    /// [`schedule_ops`](Self::schedule_ops) of the slice `spec` generates —
    /// the same keys, the same run — without the slice: the lane takes the
    /// ops from the generator a block at a time as the run consumes them.
    pub(crate) fn stream_ops(&mut self, spec: &WorkloadSpec) {
        self.reserve_recordings(spec.steps);
        self.sched.stream(spec);
    }

    fn reserve_recordings(&mut self, ops: usize) {
        if let Some(trace) = &mut self.out.trace {
            // Sends dominate: send + deliver + occasional forced
            // checkpoint/collect per op. 3x covers every observed mix.
            trace.reserve(ops * 3 + 16);
        }
        if let Some(occupancy) = &mut self.out.occupancy {
            // One sample per handled event: app op + delivery.
            occupancy.reserve(ops * 2 + 16);
        }
    }

    /// Runs until the op lane and the event queue drain.
    ///
    /// # Errors
    ///
    /// Propagates middleware errors (none occur under normal scheduling).
    pub fn run_to_completion(&mut self) -> Result<()> {
        let wall = self.profiler.start();
        // Intervals chain — one clock read per event: an event's phase
        // runs from the previous event's end, so it includes its own pop.
        let mut t = wall;
        while let Some((_at, _seq, kind)) = self.sched.pop() {
            let now = self.sched.now();
            // A crash op runs a whole recovery session; everything else
            // but a control round is ordinary queue drain.
            let phase = match kind {
                EventKind::App(AppOp::Crash(_)) => "engine/recovery",
                EventKind::ControlRound => "engine/control_round",
                _ => "engine/drain",
            };
            match kind {
                EventKind::App(AppOp::Checkpoint(p)) => {
                    self.core.checkpoint(p, now, &mut self.out)?;
                }
                EventKind::App(AppOp::Send { from, to }) => {
                    if let Some((id, pb)) = self.core.send(from, to, now, &mut self.out) {
                        if self.sched.transmit(to, id, pb).is_none() {
                            step::lose(to, id, &mut self.out);
                        }
                    }
                }
                EventKind::App(AppOp::Crash(p)) => self.run_recovery_session(p, now)?,
                EventKind::Deliver { to, id, carry } => {
                    self.core.deliver(to, id, &carry, now, &mut self.out)?;
                }
                EventKind::ControlRound => self.handle_control_round(now)?,
            }
            self.profiler.lap(phase, &mut t);
        }
        self.profiler.stop("engine/run", wall);
        Ok(())
    }

    fn handle_control_round(&mut self, now: u64) -> Result<()> {
        self.out.metric(MetricOp::ControlRound);
        // Built once per round — and only when the configured collector
        // actually consumes it — then delivered to every process by
        // reference.
        let processes = self.core.processes();
        let info = if processes[0].gc_kind().needs_control_messages() {
            Some(step::control_info(&self.manager, processes)?)
        } else {
            None
        };
        for p in ProcessId::all(processes.len()) {
            self.core.control(p, info.as_ref(), now, &mut self.out);
        }
        self.sched.next_control();
        Ok(())
    }

    /// A crash of `p` (plus correlated failures): in-transit messages are
    /// lost, the recovery manager stops the world, computes the recovery
    /// line and rolls processes back.
    fn run_recovery_session(&mut self, p: ProcessId, now: u64) -> Result<()> {
        let faulty = self.sched.faulty(p, self.core.processes().len());
        step::open_session(&faulty, &mut self.out);
        self.core.crash(&faulty);
        // All in-transit messages are lost (the recovered CCP excludes
        // them, Section 2.2): an in-place retain over the event queue,
        // dropping deliveries in deterministic (at, seq) order. The queue
        // holds nothing but those and the next control round — the ops
        // still to come wait in the lane — so this costs O(in flight).
        let out = &mut self.out;
        self.sched.cancel(
            |kind| !matches!(kind, EventKind::Deliver { .. }),
            |_, kind| {
                if let EventKind::Deliver { to, id, .. } = kind {
                    step::lose(to, id, out);
                }
            },
        );

        let plan = self.manager.plan(self.core.processes(), &faulty)?;
        self.core.apply_recovery(&self.manager, &plan)?;
        let outcomes = self.core.outcomes();
        let report = step::close_session(&self.manager, &faulty, plan, outcomes, &mut self.out);
        for q in ProcessId::all(report.line.len()) {
            self.core.sample(q, now, &mut self.out);
        }
        self.recovery_sessions.push(report);
        Ok(())
    }

    /// Finalizes counters and produces the report.
    pub fn into_report(self) -> SimulationReport {
        step::assemble_report(
            self.core.finals(),
            self.out.metrics,
            self.sched.now(),
            self.out.trace,
            self.out.occupancy,
            self.recovery_sessions,
            self.profiler.into_report(),
        )
    }

    /// Read access to the processes (for integration tests).
    pub fn processes(&self) -> &[Middleware] {
        self.core.processes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, steps: usize) -> Vec<AppOp> {
        let spec = WorkloadSpec::uniform_random(4, steps).with_seed(seed);
        spec.with_crash_prob(0.01).generate()
    }

    /// Pops one event the way the planner does: a send goes through
    /// the channel. Returns its key and, for an op, the op.
    fn step(sched: &mut Schedule<()>) -> Option<((u64, u64), Option<AppOp>)> {
        let (at, seq, kind) = sched.pop()?;
        let EventKind::App(op) = kind else {
            return Some(((at, seq), None));
        };
        if let AppOp::Send { from, to } = op {
            sched.transmit(to, MessageId::new(from, seq), ());
        }
        Some(((at, seq), Some(op)))
    }

    /// Calls of `schedule_ops` made back to back (equal ticks: the earlier
    /// call's op first) and in mid-run (from `now` on, over the tail of the
    /// earlier streams) all merge into one key-ordered lane.
    #[test]
    fn later_op_streams_merge_into_the_unconsumed_lane() {
        let streams = [stream(1, 40), stream(2, 25), stream(3, 40)];
        let mut sched: Schedule<()> = Schedule::new(9, SimConfig::default());
        sched.ops(&streams[0]);
        sched.ops(&streams[1]);
        assert_eq!(sched.env.pending(), 0, "ops take no queue slot");

        let mut popped: Vec<_> = (0..30).map_while(|_| step(&mut sched)).collect();
        let now = sched.now();
        assert!(
            now > 0 && sched.env.pending() > 0,
            "mid-run, sends in flight"
        );
        sched.ops(&streams[2]);
        assert_eq!(sched.lane.iter().filter(|event| event.0 < now).count(), 0);
        popped.extend(std::iter::from_fn(|| step(&mut sched)));

        assert!(popped.windows(2).all(|pair| pair[0].0 < pair[1].0));
        // Stamps are drawn in call order, stream order within a call: by
        // stamp, the ops read as the streams laid end to end — each once.
        let mut ops: Vec<_> = popped
            .iter()
            .filter_map(|&(key, op)| Some((key.1, op?)))
            .collect();
        ops.sort_unstable_by_key(|&(seq, _)| seq);
        let ops: Vec<AppOp> = ops.into_iter().map(|(_, op)| op).collect();
        assert_eq!(ops, streams.concat());
    }

    /// Every pattern, with and without crashes, at lengths around the
    /// refill block: draining a streamed schedule pops the keys, ops and
    /// deliveries that draining `ops(&generate())` pops, the lane never
    /// holds more than one block, and the last control round falls on the
    /// same tick (the horizon is the same).
    #[test]
    fn a_streamed_schedule_pops_what_the_generated_slice_pops() {
        use rdt_workloads::Pattern;
        let config = SimConfig {
            control_every: Some(35),
            ..SimConfig::fault_heavy()
        };
        let patterns = [
            Pattern::UniformRandom,
            Pattern::Ring,
            Pattern::ClientServer { servers: 2 },
            Pattern::Bursty { burst: 4 },
            Pattern::TokenRing,
            Pattern::Star,
            Pattern::Pipeline,
        ];
        for pattern in patterns {
            for crash_prob in [0.0, 0.01] {
                for steps in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
                    let spec = WorkloadSpec::uniform_random(5, steps)
                        .with_pattern(pattern)
                        .with_seed(steps as u64 + 3)
                        .with_crash_prob(crash_prob);
                    let mut sliced: Schedule<()> = Schedule::new(spec.seed, config);
                    sliced.ops(&spec.generate());
                    let mut streamed: Schedule<()> = Schedule::new(spec.seed, config);
                    streamed.stream(&spec);
                    assert!(streamed.lane.is_empty(), "nothing produced up front");
                    loop {
                        let (want, got) = (step(&mut sliced), step(&mut streamed));
                        assert_eq!(got, want, "{pattern}, crash {crash_prob}, {steps} steps");
                        assert!(streamed.lane.len() <= BLOCK);
                        if got.is_none() {
                            break;
                        }
                    }
                    assert_eq!(streamed.now(), sliced.now());
                    assert!(streamed.feed.is_none(), "a spent stream is dropped");
                }
            }
        }
    }

    /// `schedule_ops` in mid-stream: what the stream has yet to produce
    /// joins the lane first, then the slice merges into it — the run that
    /// two slices scheduled at the same two moments give.
    #[test]
    fn a_slice_scheduled_in_mid_stream_merges_as_into_a_slice() {
        let spec = WorkloadSpec::uniform_random(4, 2 * BLOCK + 100)
            .with_seed(11)
            .with_crash_prob(0.01);
        let (first, second) = (spec.generate(), stream(12, BLOCK / 2));
        let mut sliced: Schedule<()> = Schedule::new(9, SimConfig::default());
        sliced.ops(&first);
        let mut streamed: Schedule<()> = Schedule::new(9, SimConfig::default());
        streamed.stream(&spec);

        // Stop inside the second block, sends in flight.
        for _ in 0..BLOCK + BLOCK / 2 {
            assert_eq!(step(&mut streamed), step(&mut sliced));
        }
        assert!(streamed.feed.is_some() && streamed.env.pending() > 0);
        sliced.ops(&second);
        streamed.ops(&second);
        assert!(
            streamed.feed.is_none(),
            "the rest of the stream was drained"
        );
        assert_eq!(streamed.lane, sliced.lane);
        let rest: Vec<_> = std::iter::from_fn(|| step(&mut streamed)).collect();
        assert!(rest.len() > first.len() - BLOCK);
        assert_eq!(
            rest,
            std::iter::from_fn(|| step(&mut sliced)).collect::<Vec<_>>()
        );
    }

    /// A crash session's cancel visits what is in flight — deliveries and
    /// the next control round — and never an op still to come.
    #[test]
    fn a_crash_cancels_only_what_is_in_flight() {
        let config = SimConfig {
            control_every: Some(35),
            ..SimConfig::fault_heavy()
        };
        let mut sched: Schedule<()> = Schedule::new(5, config);
        sched.ops(&stream(5, 4000));
        assert_eq!(sched.env.pending(), 1, "only the first control round");

        let (mut in_flight, mut control, mut sessions) = (0, true, 0);
        while let Some((_, seq, kind)) = sched.pop() {
            match kind {
                EventKind::App(AppOp::Send { from, to }) => {
                    let delivery = sched.transmit(to, MessageId::new(from, seq), ());
                    in_flight += usize::from(delivery.is_some());
                }
                EventKind::App(AppOp::Checkpoint(_)) => {}
                EventKind::Deliver { .. } => in_flight -= 1,
                EventKind::ControlRound => {
                    let before = sched.env.pending();
                    sched.next_control();
                    control = sched.env.pending() > before;
                }
                EventKind::App(AppOp::Crash(p)) => {
                    sched.faulty(p, 4);
                    let (mut visited, mut dropped) = (0, 0);
                    sched.cancel(
                        |kind| {
                            visited += 1;
                            assert!(!matches!(kind, EventKind::App(_)), "a queued op");
                            !matches!(kind, EventKind::Deliver { .. })
                        },
                        |_, _| dropped += 1,
                    );
                    assert_eq!(visited, in_flight + usize::from(control));
                    assert_eq!(dropped, in_flight);
                    (in_flight, sessions) = (0, sessions + 1);
                }
            }
        }
        assert!(
            sessions >= 20,
            "the stream crashes often: {sessions} sessions"
        );
    }
}
