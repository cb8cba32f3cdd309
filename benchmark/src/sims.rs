//! The four simulator workloads: `sim-dense`, `sim-wide`, `sim-sharded`
//! and `sim-crashy`.
//!
//! The end-to-end body is one `SimulationBuilder::run()` call. The traced
//! body takes the same run apart at its public seams (`WorkloadSpec::
//! generate`, `Simulation::new`, `schedule_ops`, `run_to_completion`,
//! `into_report`) with the engine's own profile switched on, and the probes
//! replay the run's recorded trace through bare middlewares — no queue, no
//! handlers — so the engine's self time is what is left over.

use std::collections::HashMap;
use std::time::Instant;

use rdt_base::{MessageId, Payload, ProcessId, TraceEvent};
use rdt_core::GcKind;
use rdt_env::SimEnv;
use rdt_protocols::{CheckpointReport, Middleware, Piggyback, ProtocolKind, ReceiveReport};
use rdt_recovery::{FaultySet, RecoveryManager, RecoveryMode};
use rdt_sim::{SimConfig, Simulation, SimulationBuilder, SimulationReport};
use rdt_workloads::{AppOp, Pattern, WorkloadSpec};

use crate::harness::{
    median_call_ns, ms_since, ns_since, scale, timer_overhead_ns, Layers, Mode, Rep, Workload,
};
use crate::stats::{median, percentile};

const PROTOCOL: ProtocolKind = ProtocolKind::Fdas;
const GC: GcKind = GcKind::RdtLgc;

/// One simulator workload's inputs.
#[derive(Debug, Clone)]
pub struct SimCase {
    n: usize,
    steps: usize,
    pattern: Pattern,
    crash_prob: f64,
    config: SimConfig,
    shards: usize,
}

impl SimCase {
    /// n = 16, uniform-random, 1 000 000 ops: per-event bookkeeping.
    pub fn dense(quick: bool) -> Self {
        Self {
            n: 16,
            steps: scale(1_000_000, quick),
            pattern: Pattern::UniformRandom,
            crash_prob: 0.0,
            config: SimConfig::default(),
            shards: 1,
        }
    }

    /// n = 1024, ring, 100 000 ops: O(n) work per event.
    pub fn wide(quick: bool) -> Self {
        Self {
            n: 1024,
            steps: scale(100_000, quick),
            pattern: Pattern::Ring,
            crash_prob: 0.0,
            config: SimConfig::default(),
            shards: 1,
        }
    }

    /// The `wide` inputs through the two-shard engine.
    pub fn sharded(quick: bool) -> Self {
        Self {
            shards: 2,
            ..Self::wide(quick)
        }
    }

    /// n = 32, uniform-random, 100 000 ops, crash 0.005, fault-heavy
    /// channel: recovery sessions.
    pub fn crashy(quick: bool) -> Self {
        Self {
            n: 32,
            steps: scale(100_000, quick),
            pattern: Pattern::UniformRandom,
            crash_prob: 0.005,
            config: SimConfig::fault_heavy(),
            shards: 1,
        }
    }

    fn spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec::uniform_random(self.n, self.steps)
            .with_pattern(self.pattern)
            .with_seed(seed)
            .with_crash_prob(self.crash_prob)
    }

    fn builder(&self, seed: u64, shards: usize) -> SimulationBuilder {
        SimulationBuilder::new(self.spec(seed))
            .protocol(PROTOCOL)
            .garbage_collector(GC)
            .config(self.config)
            .shards(shards)
    }
}

/// Word-wise FNV-1a, for fingerprinting outputs without rendering them.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x100_0000_01b3);
    }
}

/// Fingerprint of everything deterministic in a report: final dependency
/// vectors, last-stable indices, retained sets, incarnations and metrics.
fn fingerprint(report: &SimulationReport) -> u64 {
    let mut h = Fnv::default();
    h.word(report.n as u64);
    for dv in &report.final_dvs {
        for entry in dv.as_slice() {
            h.word(entry.packed());
        }
    }
    for &last in &report.final_last_stable {
        h.word(last as u64);
    }
    for retained in &report.final_retained {
        h.word(retained.len() as u64);
        for &index in retained {
            h.word(index as u64);
        }
    }
    for inc in &report.final_incarnations {
        h.word(u64::from(inc.value()));
    }
    let m = &report.metrics;
    for p in &m.per_process {
        for w in [
            p.retained as u64,
            p.peak_retained as u64,
            p.total_stored as u64,
            p.total_collected as u64,
            p.basic,
            p.forced,
            p.sent,
            p.delivered,
            p.lost,
            p.retained_sum,
            p.samples,
        ] {
            h.word(w);
        }
    }
    for w in [
        m.peak_global_retained as u64,
        m.recovery_sessions,
        m.total_rolled_back,
        m.control_rounds,
        m.ticks,
        m.degraded_lines,
        m.sequential_fallbacks,
    ] {
        h.word(w);
    }
    h.0
}

impl SimCase {
    /// The checks every repetition's report must pass, whatever the seed.
    /// Returns the report's fingerprint.
    fn verify(
        &self,
        ops: &[AppOp],
        report: &SimulationReport,
        reference: Option<u64>,
        expected: Option<u64>,
    ) -> Result<u64, String> {
        let m = &report.metrics;
        let sends = ops
            .iter()
            .filter(|op| matches!(op, AppOp::Send { .. }))
            .count() as u64;
        let sent: u64 = m.per_process.iter().map(|p| p.sent).sum();
        let lost: u64 = m.per_process.iter().map(|p| p.lost).sum();
        if report.n != self.n {
            return Err(format!(
                "report covers {} processes, not {}",
                report.n, self.n
            ));
        }
        if m.max_retained_per_process() > self.n + 1 {
            return Err(format!(
                "a process retained {} checkpoints, above the n + 1 = {} bound",
                m.max_retained_per_process(),
                self.n + 1
            ));
        }
        if m.degraded_lines != 0 {
            return Err(format!(
                "{} recovery-line components degraded",
                m.degraded_lines
            ));
        }
        if m.sequential_fallbacks != 0 {
            return Err("the sharded run fell back to the sequential engine".into());
        }
        // Every process recovers within the session that crashed it, so no
        // send is skipped: the run must have performed every generated one,
        // and each ended delivered or lost.
        if sent != sends {
            return Err(format!("{sent} sends performed, {sends} generated"));
        }
        if sent != m.total_delivered() + lost {
            return Err(format!(
                "{sent} sent but {} delivered + {lost} lost",
                m.total_delivered()
            ));
        }
        if (self.crash_prob > 0.0) != (m.recovery_sessions > 0) {
            return Err(format!("{} recovery sessions", m.recovery_sessions));
        }
        let fp = fingerprint(report);
        if reference.is_some_and(|want| want != fp) {
            return Err("sharded report differs from the sequential run of the same inputs".into());
        }
        if expected.is_some_and(|want| want != fp) {
            return Err(format!(
                "report fingerprint {fp:016x} differs from the pinned one in expected.json"
            ));
        }
        Ok(fp)
    }
}

impl Workload for SimCase {
    fn rep(&mut self, seed: u64, mode: Mode, expected: Option<u64>) -> Rep {
        let mut rep = Rep::default();

        // Set-up: the benchmark's own copy of the inputs (what the checks
        // count against) and, for the sharded engine, the sequential
        // reference its output must equal.
        let t = Instant::now();
        let ops = self.spec(seed).generate();
        let reference = if self.shards > 1 {
            match self.builder(seed, 1).run() {
                Ok(report) => Some(fingerprint(&report)),
                Err(e) => {
                    rep.fail(format!("sequential reference run failed: {e}"));
                    return rep;
                }
            }
        } else {
            None
        };
        rep.setup_s = t.elapsed().as_secs_f64();

        // The traced body of the sequential engine is two runs: the public
        // steps timed one by one with the profile off (so they add up to
        // the plain `run()`), then `run()` with the engine's own profile
        // on (whose wall against the plain one is the profile's cost).
        let mut in_steps = None;
        if mode == Mode::Traced && self.shards == 1 {
            match self.run_in_steps(seed, &mut rep.layers) {
                Ok(report) => in_steps = Some(fingerprint(&report)),
                Err(e) => {
                    rep.fail(format!("simulation in steps failed: {e}"));
                    return rep;
                }
            }
            rep.whole_or_parts_s = rep.layers.values().sum::<f64>() / 1e3;
        }
        let mut builder = self.builder(seed, self.shards);
        if mode == Mode::Traced {
            builder = builder.profile();
        }
        let t = Instant::now();
        let outcome = builder.run();
        rep.wall_s = t.elapsed().as_secs_f64();
        if mode == Mode::Plain && self.shards == 1 {
            rep.whole_or_parts_s = rep.wall_s;
        }

        let report = match outcome {
            Ok(report) => report,
            Err(e) => {
                rep.fail(format!("simulation failed: {e}"));
                return rep;
            }
        };
        // Events handled: application operations plus messages delivered.
        rep.ops = self.steps as u64 + report.metrics.total_delivered();
        match self.verify(&ops, &report, reference, expected) {
            Ok(fp) if in_steps.is_some_and(|steps| steps != fp) => {
                rep.fail("the run taken in steps differs from run()");
            }
            Ok(fp) => rep.fingerprint = Some(fp),
            Err(why) => rep.fail(why),
        }

        if mode == Mode::Traced {
            // Whichever engine ran leaves the other's phases absent, which
            // reads as 0. Worker phases are summed over the shards.
            for (name, phase) in [
                ("sim.engine.drain_ms", "engine/drain"),
                ("sim.engine.recovery_ms", "engine/recovery"),
                ("sim.engine.control_round_ms", "engine/control_round"),
                ("sim.shard.plan_ms", "shard/plan"),
                ("sim.shard.setup_ms", "shard/setup"),
                ("sim.shard.drain_ms", "shard/drain"),
                ("sim.shard.exchange_ms", "shard/exchange"),
                ("sim.shard.barrier_wait_ms", "shard/barrier_wait"),
                ("sim.shard.finish_ms", "shard/finish"),
                ("sim.shard.merge_ms", "shard/merge"),
                ("sim.shard.run_wall_ms", "shard/run_wall"),
            ] {
                let total_ns = report
                    .profile
                    .as_ref()
                    .and_then(|p| p.phase(phase))
                    .map_or(0, |stats| stats.total_ns);
                rep.layers.insert(name, total_ns as f64 / 1e6);
            }
            let m = &report.metrics;
            for (name, value) in [
                ("sim.events", rep.ops),
                ("sim.deliveries", m.total_delivered()),
                ("sim.forced", m.total_forced()),
                ("sim.collected", m.total_collected() as u64),
                ("sim.sessions", m.recovery_sessions),
                ("sim.rolled_back", m.total_rolled_back),
                ("sim.max_retained", m.max_retained_per_process() as u64),
            ] {
                rep.exact.insert(name, value as f64);
            }
        }
        rep
    }

    fn probes(&mut self, seed: u64, layers: &Layers) -> Result<Layers, String> {
        if self.shards > 1 {
            // Same protocol layers as `sim-wide`, which replays them.
            return Ok(Layers::new());
        }
        let mut out = self.replay_probe(seed)?;
        let drain = layers.get("sim.drain_ms").copied().unwrap_or(0.0);
        out.insert("sim.engine.self_ms", drain - out["protocols.replay_ms"]);
        if self.crash_prob > 0.0 {
            out.insert("env.queue.cancel_us", self.cancel_probe());
        }
        Ok(out)
    }
}

impl SimCase {
    /// `SimulationBuilder::run()`'s sequential path, step by public step,
    /// each step timed.
    fn run_in_steps(&self, seed: u64, layers: &mut Layers) -> rdt_base::Result<SimulationReport> {
        let config = self.config;
        config.validate()?;
        let spec = self.spec(seed);

        let t = Instant::now();
        let ops = spec.generate();
        layers.insert("workloads.generate_ms", ms_since(t));

        let t = Instant::now();
        let mut sim = Simulation::new(
            self.n,
            PROTOCOL,
            GC,
            config,
            RecoveryMode::Coordinated,
            spec.seed,
        );
        layers.insert("sim.new_ms", ms_since(t));

        let t = Instant::now();
        sim.schedule_ops(&ops);
        layers.insert("sim.schedule_ms", ms_since(t));

        let t = Instant::now();
        sim.run_to_completion()?;
        layers.insert("sim.drain_ms", ms_since(t));

        let t = Instant::now();
        let report = sim.into_report();
        layers.insert("sim.report_ms", ms_since(t));
        Ok(report)
    }
}

/// One middleware call of a recorded run, with message payloads resolved to
/// slots so the replay loop does no lookups.
#[derive(Debug)]
enum Step {
    Send {
        from: usize,
        to: ProcessId,
        slot: usize,
    },
    Deliver {
        to: usize,
        slot: usize,
    },
    /// The message was lost or cancelled: drop its piggyback, as the
    /// engine's queue does.
    Forget {
        slot: usize,
    },
    Checkpoint {
        p: usize,
    },
    Recover {
        faulty: FaultySet,
    },
}

/// Compiles a trace into the middleware calls that produced it.
fn compile(trace: &[TraceEvent]) -> (Vec<Step>, usize) {
    let mut steps = Vec::with_capacity(trace.len());
    let mut in_flight: HashMap<MessageId, (ProcessId, usize)> = HashMap::new();
    let mut slots = 0;
    let mut crashing = FaultySet::new();
    for event in trace {
        if let TraceEvent::Crash { process } = event {
            crashing.insert(*process);
            continue;
        }
        if !crashing.is_empty() {
            steps.push(Step::Recover {
                faulty: std::mem::take(&mut crashing),
            });
        }
        match *event {
            TraceEvent::Send { id, to } => {
                in_flight.insert(id, (to, slots));
                steps.push(Step::Send {
                    from: id.sender.index(),
                    to,
                    slot: slots,
                });
                slots += 1;
            }
            TraceEvent::Deliver { id } => {
                let (to, slot) = in_flight.remove(&id).expect("delivery follows its send");
                steps.push(Step::Deliver {
                    to: to.index(),
                    slot,
                });
            }
            TraceEvent::Drop { id } => {
                let (_, slot) = in_flight.remove(&id).expect("drop follows its send");
                steps.push(Step::Forget { slot });
            }
            TraceEvent::Checkpoint {
                process,
                forced: false,
            } => steps.push(Step::Checkpoint { p: process.index() }),
            // Forced checkpoints, collections and restores happen inside
            // the calls above.
            TraceEvent::Checkpoint { forced: true, .. }
            | TraceEvent::Collect { .. }
            | TraceEvent::Restore { .. }
            | TraceEvent::Crash { .. } => {}
        }
    }
    (steps, slots)
}

/// Per-call samples of a timed replay.
#[derive(Debug, Default)]
struct CallSamples {
    send: Vec<f64>,
    receive: Vec<f64>,
    checkpoint: Vec<f64>,
    session_us: Vec<f64>,
    receives: u64,
    news: u64,
    rolled_back: u64,
    /// `(receiver's vector, piggybacked vector)` just before a merge.
    merges: Vec<(rdt_base::DependencyVector, rdt_base::DependencyVector)>,
}

impl SimCase {
    fn fresh(&self) -> Vec<Middleware> {
        (0..self.n)
            .map(|i| {
                let mut mw = Middleware::new(ProcessId::new(i), self.n, PROTOCOL, GC);
                mw.set_state_size(self.config.state_size);
                mw
            })
            .collect()
    }

    /// Replays `steps`; with `samples`, times every call on its own.
    fn replay(
        &self,
        steps: &[Step],
        slots: usize,
        mut samples: Option<&mut CallSamples>,
    ) -> Result<Vec<Middleware>, String> {
        let mut mws = self.fresh();
        let mut pbs: Vec<Option<Piggyback>> = vec![None; slots];
        let mut receive = ReceiveReport::default();
        let mut checkpoint = CheckpointReport::default();
        let manager = RecoveryManager::with_mode(RecoveryMode::Coordinated);
        // Enough vector pairs for a stable stand-alone merge timing, capped
        // so n = 1024 stays within tens of megabytes.
        let merge_pairs = ((1usize << 21) / self.n).clamp(256, 8192);
        for step in steps {
            match step {
                Step::Send { from, to, slot } => {
                    let t = samples.is_some().then(Instant::now);
                    let pb = mws[*from].piggyback();
                    let sent = mws[*from].send_reported(*to, Payload::empty());
                    if let (Some(s), Some(t)) = (samples.as_deref_mut(), t) {
                        s.send.push(ns_since(t));
                    }
                    drop(sent);
                    pbs[*slot] = Some(pb);
                }
                Step::Deliver { to, slot } => {
                    let pb = pbs[*slot].take().expect("sent before delivered");
                    if let Some(s) = samples.as_deref_mut() {
                        if s.merges.len() < merge_pairs {
                            s.merges.push((mws[*to].dv().clone(), (*pb.dv).clone()));
                        }
                    }
                    let t = samples.is_some().then(Instant::now);
                    let out = mws[*to].receive_piggyback_into(&pb, &mut receive);
                    if let (Some(s), Some(t)) = (samples.as_deref_mut(), t) {
                        s.receive.push(ns_since(t));
                        s.receives += 1;
                        s.news += u64::from(!receive.updated.is_empty());
                    }
                    out.map_err(|e| format!("replayed receive failed: {e}"))?;
                }
                Step::Forget { slot } => pbs[*slot] = None,
                Step::Checkpoint { p } => {
                    let t = samples.is_some().then(Instant::now);
                    let out = mws[*p].basic_checkpoint_into(&mut checkpoint);
                    if let (Some(s), Some(t)) = (samples.as_deref_mut(), t) {
                        s.checkpoint.push(ns_since(t));
                    }
                    out.map_err(|e| format!("replayed checkpoint failed: {e}"))?;
                }
                Step::Recover { faulty } => {
                    for f in faulty {
                        mws[f.index()].crash();
                    }
                    let t = Instant::now();
                    let session = manager
                        .recover(&mut mws, faulty)
                        .map_err(|e| format!("replayed recovery failed: {e}"))?;
                    if let Some(s) = samples.as_deref_mut() {
                        s.session_us.push(ns_since(t) / 1e3);
                        s.rolled_back += session.rolled_back.len() as u64;
                    }
                }
            }
        }
        Ok(mws)
    }

    /// Records one run's trace and replays it through bare middlewares:
    /// once untimed inside (the whole is `protocols.replay_ms`), once with
    /// every call timed (the per-call medians).
    fn replay_probe(&self, seed: u64) -> Result<Layers, String> {
        let report = self
            .builder(seed, 1)
            .record_trace()
            .run()
            .map_err(|e| format!("traced run failed: {e}"))?;
        let trace = report.trace.as_deref().expect("record_trace was set");
        let (steps, slots) = compile(trace);

        let t = Instant::now();
        let mws = self.replay(&steps, slots, None)?;
        let replay_ms = ms_since(t);
        if mws.iter().map(Middleware::dv).ne(report.final_dvs.iter()) {
            return Err("trace replay ended in different dependency vectors than the run".into());
        }
        drop(mws);

        let mut samples = CallSamples::default();
        self.replay(&steps, slots, Some(&mut samples))?;
        let overhead = timer_overhead_ns();

        let mut out = Layers::new();
        out.insert("protocols.replay_ms", replay_ms);
        out.insert("protocols.send_ns", median_call_ns(&samples.send, overhead));
        out.insert(
            "protocols.receive_ns",
            median_call_ns(&samples.receive, overhead),
        );
        out.insert(
            "protocols.checkpoint_ns",
            median_call_ns(&samples.checkpoint, overhead),
        );
        out.insert(
            "base.dv.news_ratio",
            samples.news as f64 / samples.receives.max(1) as f64,
        );
        out.insert("base.dv.merge_ns", merge_probe(&samples.merges));
        if !samples.session_us.is_empty() {
            samples.session_us.sort_by(f64::total_cmp);
            out.insert(
                "recovery.session_us_p50",
                percentile(&samples.session_us, 0.5),
            );
            out.insert(
                "recovery.rolled_back_per_session",
                samples.rolled_back as f64 / samples.session_us.len() as f64,
            );
        }
        Ok(out)
    }

    /// `SimEnv::cancel` on a queue loaded like this workload's at a crash:
    /// half the application operations still pending, two deliveries in
    /// flight (mean send rate × mean delay).
    fn cancel_probe(&self) -> f64 {
        #[derive(Debug)]
        enum Pending {
            App,
            Deliver,
        }
        let rounds: Vec<f64> = (0..31)
            .map(|_| {
                let mut env: SimEnv<Pending> = SimEnv::new(1);
                for k in 0..self.steps as u64 {
                    env.schedule(k * self.config.ticks_per_op, Pending::App);
                }
                for _ in 0..self.steps / 2 {
                    env.pop();
                }
                for delay in [3, 11] {
                    env.schedule(env.now() + delay, Pending::Deliver);
                }
                let mut dropped = 0u32;
                let t = Instant::now();
                env.cancel(
                    |kind| !matches!(kind, Pending::Deliver),
                    |_, _| dropped += 1,
                );
                let us = ns_since(t) / 1e3;
                assert_eq!(dropped, 2, "both in-flight deliveries are cancelled");
                us
            })
            .collect();
        median(&rounds)
    }
}

/// Stand-alone `merge_from_into` over vector pairs taken from the replay:
/// the receivers are cloned afresh (untimed) for each round, the round is
/// timed as a whole.
fn merge_probe(pairs: &[(rdt_base::DependencyVector, rdt_base::DependencyVector)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let mut updated = rdt_base::UpdateSet::default();
    let rounds: Vec<f64> = (0..15)
        .map(|_| {
            let mut receivers: Vec<_> = pairs.iter().map(|(mine, _)| mine.clone()).collect();
            let t = Instant::now();
            for (mine, (_, theirs)) in receivers.iter_mut().zip(pairs) {
                mine.merge_from_into(std::hint::black_box(theirs), &mut updated);
            }
            let ns = ns_since(t);
            std::hint::black_box(&receivers);
            ns / pairs.len() as f64
        })
        .collect();
    median(&rounds)
}
