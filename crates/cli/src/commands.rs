//! The `simulate`, `analyze`, `audit`, `line`, `trace` and `torture`
//! subcommands.

use rdt_analysis::{worst_single_failure, CcpStats, OccupancyTimeline};
use rdt_base::{ProcessId, TraceEvent};
use rdt_ccp::{collection_safety_violations, CcpBuilder};
use rdt_sim::{Metrics, SimulationBuilder, SimulationReport};

use crate::json::Json;
use crate::opts::RunOpts;

/// Runs the simulator once with the given options.
fn run(opts: &RunOpts, record_trace: bool) -> Result<SimulationReport, String> {
    run_with(opts, record_trace, false)
}

fn run_with(
    opts: &RunOpts,
    record_trace: bool,
    record_occupancy: bool,
) -> Result<SimulationReport, String> {
    let mut builder = SimulationBuilder::new(opts.spec.clone())
        .protocol(opts.protocol)
        .garbage_collector(opts.gc)
        .config(opts.config);
    if record_trace {
        builder = builder.record_trace();
    }
    if record_occupancy {
        builder = builder.record_occupancy();
    }
    builder.run().map_err(|e| format!("simulation failed: {e}"))
}

/// The full [`Metrics`] struct as JSON — every field, not the curated
/// `simulate` summary. Shared by `--metrics-out` and the bench sweep.
fn metrics_json(m: &Metrics) -> Json {
    Json::obj()
        .field("ticks", Json::UInt(m.ticks))
        .field("control_rounds", Json::UInt(m.control_rounds))
        .field("recovery_sessions", Json::UInt(m.recovery_sessions))
        .field("total_rolled_back", Json::UInt(m.total_rolled_back))
        .field("degraded_lines", Json::UInt(m.degraded_lines))
        .field("sequential_fallbacks", Json::UInt(m.sequential_fallbacks))
        .field(
            "peak_global_retained",
            Json::UInt(m.peak_global_retained as u64),
        )
        .field(
            "per_process",
            Json::Arr(
                m.per_process
                    .iter()
                    .map(|p| {
                        Json::obj()
                            .field("retained", Json::UInt(p.retained as u64))
                            .field("peak_retained", Json::UInt(p.peak_retained as u64))
                            .field("total_stored", Json::UInt(p.total_stored as u64))
                            .field("total_collected", Json::UInt(p.total_collected as u64))
                            .field("basic", Json::UInt(p.basic))
                            .field("forced", Json::UInt(p.forced))
                            .field("sent", Json::UInt(p.sent))
                            .field("delivered", Json::UInt(p.delivered))
                            .field("lost", Json::UInt(p.lost))
                            .field("retained_sum", Json::UInt(p.retained_sum))
                            .field("samples", Json::UInt(p.samples))
                            .build()
                    })
                    .collect(),
            ),
        )
        .build()
}

/// Writes the full metrics + profile document for `--metrics-out`.
fn write_metrics_out(path: &std::path::Path, report: &SimulationReport) -> Result<(), String> {
    let doc = Json::obj()
        .field("metrics", metrics_json(&report.metrics))
        .maybe(
            "profile",
            report
                .profile
                .as_ref()
                .map(|p| Json::Raw(p.to_json().to_string())),
        )
        .build();
    std::fs::write(path, doc.pretty() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

#[derive(Debug)]
struct SimulateSummary {
    n: usize,
    steps: usize,
    protocol: String,
    gc: String,
    ticks: u64,
    delivered: u64,
    lost: u64,
    basic_checkpoints: u64,
    forced_checkpoints: u64,
    collected: usize,
    recovery_sessions: u64,
    rolled_back: u64,
    max_retained: usize,
    peak_global_retained: usize,
    avg_retained: f64,
    per_process_retained: Vec<usize>,
    occupancy: Option<OccupancySummary>,
    profile: Option<rdt_obs::ProfileReport>,
}

impl SimulateSummary {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("n", Json::UInt(self.n as u64))
            .field("steps", Json::UInt(self.steps as u64))
            .field("protocol", Json::Str(self.protocol.clone()))
            .field("gc", Json::Str(self.gc.clone()))
            .field("ticks", Json::UInt(self.ticks))
            .field("delivered", Json::UInt(self.delivered))
            .field("lost", Json::UInt(self.lost))
            .field("basic_checkpoints", Json::UInt(self.basic_checkpoints))
            .field("forced_checkpoints", Json::UInt(self.forced_checkpoints))
            .field("collected", Json::UInt(self.collected as u64))
            .field("recovery_sessions", Json::UInt(self.recovery_sessions))
            .field("rolled_back", Json::UInt(self.rolled_back))
            .field("max_retained", Json::UInt(self.max_retained as u64))
            .field(
                "peak_global_retained",
                Json::UInt(self.peak_global_retained as u64),
            )
            .field("avg_retained", Json::Float(self.avg_retained))
            .field(
                "per_process_retained",
                Json::uints(self.per_process_retained.iter().copied()),
            )
            .maybe(
                "occupancy",
                self.occupancy.as_ref().map(OccupancySummary::to_json),
            )
            .maybe(
                "profile",
                self.profile
                    .as_ref()
                    .map(|p| Json::Raw(p.to_json().to_string())),
            )
            .build()
    }
}

#[derive(Debug)]
struct OccupancySummary {
    global_peak: usize,
    global_peak_at: u64,
    time_averaged_global: f64,
    final_global: usize,
    per_process_peak: Vec<usize>,
}

impl OccupancySummary {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("global_peak", Json::UInt(self.global_peak as u64))
            .field("global_peak_at", Json::UInt(self.global_peak_at))
            .field(
                "time_averaged_global",
                Json::Float(self.time_averaged_global),
            )
            .field("final_global", Json::UInt(self.final_global as u64))
            .field(
                "per_process_peak",
                Json::uints(self.per_process_peak.iter().copied()),
            )
            .build()
    }
}

/// `rdt simulate` — run a workload and report the storage metrics.
pub fn simulate(opts: &RunOpts, occupancy: bool) -> Result<(), String> {
    let report = run_with(opts, false, occupancy)?;
    if let Some(path) = &opts.metrics_out {
        write_metrics_out(path, &report)?;
    }
    let m = &report.metrics;
    let occupancy = report.occupancy.as_ref().map(|samples| {
        let tl = OccupancyTimeline::from_raw(opts.spec.n, samples.iter().copied());
        let (at, peak) = tl.global_peak();
        OccupancySummary {
            global_peak: peak,
            global_peak_at: at,
            time_averaged_global: tl.time_averaged_global(),
            final_global: tl.final_global(),
            per_process_peak: ProcessId::all(opts.spec.n)
                .map(|p| tl.process_peak(p))
                .collect(),
        }
    });
    let summary = SimulateSummary {
        n: opts.spec.n,
        steps: opts.spec.steps,
        protocol: opts.protocol.to_string(),
        gc: opts.gc.to_string(),
        ticks: m.ticks,
        delivered: m.total_delivered(),
        lost: m.per_process.iter().map(|p| p.lost).sum(),
        basic_checkpoints: m.total_basic(),
        forced_checkpoints: m.total_forced(),
        collected: m.total_collected(),
        recovery_sessions: m.recovery_sessions,
        rolled_back: m.total_rolled_back,
        max_retained: m.max_retained_per_process(),
        peak_global_retained: m.peak_global_retained,
        avg_retained: m.avg_retained(),
        per_process_retained: m.per_process.iter().map(|p| p.retained).collect(),
        occupancy,
        profile: report.profile.clone(),
    };
    if opts.json {
        println!("{}", summary.to_json().pretty());
        return Ok(());
    }
    println!(
        "simulated {} ops on {} processes over {} ticks",
        summary.steps, summary.n, summary.ticks
    );
    println!("protocol {}  gc {}", summary.protocol, summary.gc);
    println!(
        "messages: {} delivered, {} lost",
        summary.delivered, summary.lost
    );
    println!(
        "checkpoints: {} basic + {} forced, {} collected",
        summary.basic_checkpoints, summary.forced_checkpoints, summary.collected
    );
    if summary.recovery_sessions > 0 {
        println!(
            "recovery: {} sessions, {} checkpoints rolled back",
            summary.recovery_sessions, summary.rolled_back
        );
    }
    println!(
        "retention: max {} on one process (peak global {}), time-averaged {:.2}",
        summary.max_retained, summary.peak_global_retained, summary.avg_retained
    );
    println!(
        "final per-process occupancy: {:?}",
        summary.per_process_retained
    );
    if let Some(occ) = &summary.occupancy {
        println!(
            "timeline: global peak {} at tick {}, time-averaged {:.2}, final {}",
            occ.global_peak, occ.global_peak_at, occ.time_averaged_global, occ.final_global
        );
        println!("per-process peaks: {:?}", occ.per_process_peak);
    }
    if let Some(profile) = &summary.profile {
        println!("phases (by total time):");
        let mut phases: Vec<_> = profile.phases.iter().collect();
        phases.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
        for (name, stats) in phases {
            println!(
                "  {name:<24} {:>9} calls  {:>12} ns total  {:>9} ns mean",
                stats.count,
                stats.total_ns,
                stats.mean_ns()
            );
        }
        for (name, value) in &profile.counters {
            println!("  {name:<24} {value:>9}");
        }
    }
    Ok(())
}

/// `rdt trace` — replay a run and emit its global event sequence as JSONL
/// (one `{"type":"run"}` header, one `{"type":"event"}` line per trace
/// event, and — with `--profile` — `span`/`counter` lines from the phase
/// profile). The stream is what `obs_check` validates in CI.
pub fn trace(opts: &RunOpts, out: Option<&str>) -> Result<(), String> {
    let report = run(opts, true)?;
    if let Some(path) = &opts.metrics_out {
        write_metrics_out(path, &report)?;
    }
    let trace = report.trace.as_ref().expect("trace recording requested");
    let mut lines = String::new();
    lines.push_str(
        &Json::obj()
            .field("type", Json::Str("run".into()))
            .field("n", Json::UInt(opts.spec.n as u64))
            .field("steps", Json::UInt(opts.spec.steps as u64))
            .field("seed", Json::UInt(opts.spec.seed))
            .field("shards", Json::UInt(opts.config.shard.shards as u64))
            .field("protocol", Json::Str(opts.protocol.to_string()))
            .field("gc", Json::Str(opts.gc.to_string()))
            .build()
            .compact(),
    );
    lines.push('\n');
    for (i, event) in trace.iter().enumerate() {
        let base = Json::obj()
            .field("type", Json::Str("event".into()))
            .field("i", Json::UInt(i as u64));
        let doc = match event {
            TraceEvent::Checkpoint { process, forced } => base
                .field("kind", Json::Str("ckpt".into()))
                .field("process", Json::UInt(process.index() as u64))
                .field("forced", Json::Bool(*forced)),
            TraceEvent::Send { id, to } => base
                .field("kind", Json::Str("send".into()))
                .field("from", Json::UInt(id.sender.index() as u64))
                .field("seq", Json::UInt(id.seq))
                .field("to", Json::UInt(to.index() as u64)),
            TraceEvent::Deliver { id } => base
                .field("kind", Json::Str("deliver".into()))
                .field("from", Json::UInt(id.sender.index() as u64))
                .field("seq", Json::UInt(id.seq)),
            TraceEvent::Drop { id } => base
                .field("kind", Json::Str("drop".into()))
                .field("from", Json::UInt(id.sender.index() as u64))
                .field("seq", Json::UInt(id.seq)),
            TraceEvent::Collect { process, index } => base
                .field("kind", Json::Str("collect".into()))
                .field("process", Json::UInt(process.index() as u64))
                .field("index", Json::UInt(index.value() as u64)),
            TraceEvent::Crash { process } => base
                .field("kind", Json::Str("crash".into()))
                .field("process", Json::UInt(process.index() as u64)),
            TraceEvent::Restore { process, to } => base
                .field("kind", Json::Str("restore".into()))
                .field("process", Json::UInt(process.index() as u64))
                .field("to", Json::UInt(to.value() as u64)),
        };
        lines.push_str(&doc.build().compact());
        lines.push('\n');
    }
    if let Some(profile) = &report.profile {
        for (phase, stats) in &profile.phases {
            lines.push_str(
                &Json::obj()
                    .field("type", Json::Str("span".into()))
                    .field("phase", Json::Str(phase.clone()))
                    .field("count", Json::UInt(stats.count))
                    .field("total_ns", Json::UInt(stats.total_ns))
                    .build()
                    .compact(),
            );
            lines.push('\n');
        }
        for (name, value) in &profile.counters {
            lines.push_str(
                &Json::obj()
                    .field("type", Json::Str("counter".into()))
                    .field("name", Json::Str(name.clone()))
                    .field("value", Json::UInt(*value))
                    .build()
                    .compact(),
            );
            lines.push('\n');
        }
    }
    match out {
        Some(path) => std::fs::write(path, lines).map_err(|e| format!("writing {path}: {e}")),
        None => {
            print!("{lines}");
            Ok(())
        }
    }
}

#[derive(Debug)]
struct AnalyzeSummary {
    rdt: bool,
    stable_checkpoints: usize,
    delivered: usize,
    causal_density: f64,
    zigzag_density: f64,
    doubling_ratio: f64,
    useless: usize,
    obsolete: usize,
    causally_identifiable_obsolete: usize,
    optimality_gap: usize,
    worst_failure_process: Option<String>,
    worst_failure_rolled_back: Option<usize>,
    worst_failure_reaches_initial: Option<bool>,
}

impl AnalyzeSummary {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("rdt", Json::Bool(self.rdt))
            .field(
                "stable_checkpoints",
                Json::UInt(self.stable_checkpoints as u64),
            )
            .field("delivered", Json::UInt(self.delivered as u64))
            .field("causal_density", Json::Float(self.causal_density))
            .field("zigzag_density", Json::Float(self.zigzag_density))
            .field("doubling_ratio", Json::Float(self.doubling_ratio))
            .field("useless", Json::UInt(self.useless as u64))
            .field("obsolete", Json::UInt(self.obsolete as u64))
            .field(
                "causally_identifiable_obsolete",
                Json::UInt(self.causally_identifiable_obsolete as u64),
            )
            .field("optimality_gap", Json::UInt(self.optimality_gap as u64))
            .maybe(
                "worst_failure_process",
                self.worst_failure_process.clone().map(Json::Str),
            )
            .maybe(
                "worst_failure_rolled_back",
                self.worst_failure_rolled_back.map(|v| Json::UInt(v as u64)),
            )
            .maybe(
                "worst_failure_reaches_initial",
                self.worst_failure_reaches_initial.map(Json::Bool),
            )
            .build()
    }
}

/// `rdt analyze` — run crash-free, replay the trace into a CCP and report
/// pattern statistics plus the worst single-failure propagation. With
/// `dot = Some("ccp" | "rgraph")`, emit a Graphviz digraph instead (pipe
/// through `dot -Tsvg`).
pub fn analyze(opts: &RunOpts, dot: Option<&str>) -> Result<(), String> {
    if opts.spec.crash_prob > 0.0 {
        return Err(
            "analyze needs a crash-free workload: its path-based CCP statistics \
             (zigzag, propagation) cover a single execution epoch"
                .into(),
        );
    }
    let report = run(opts, true)?;
    let trace = report.trace.expect("trace recording requested");
    let ccp = CcpBuilder::from_trace(opts.spec.n, &trace)
        .map_err(|e| format!("trace replay failed: {e}"))?
        .build();
    match dot {
        Some("ccp") => {
            print!("{}", ccp.render_dot());
            return Ok(());
        }
        Some("rgraph") => {
            print!(
                "{}",
                rdt_analysis::RollbackGraph::new(&ccp).render_dot(None)
            );
            return Ok(());
        }
        Some(other) => return Err(format!("--dot takes 'ccp' or 'rgraph', not '{other}'")),
        None => {}
    }
    let stats = CcpStats::compute(&ccp);
    let worst = worst_single_failure(&ccp);
    let summary = AnalyzeSummary {
        rdt: stats.is_rdt,
        stable_checkpoints: stats.stable_checkpoints,
        delivered: stats.delivered_messages,
        causal_density: stats.causal_density(),
        zigzag_density: stats.zigzag_density(),
        doubling_ratio: stats.doubling_ratio(),
        useless: stats.useless_checkpoints,
        obsolete: stats.obsolete,
        causally_identifiable_obsolete: stats.causally_identifiable_obsolete,
        optimality_gap: stats.optimality_gap(),
        worst_failure_process: worst.as_ref().map(|w| w.faulty[0].to_string()),
        worst_failure_rolled_back: worst.as_ref().map(|w| w.total()),
        worst_failure_reaches_initial: worst.as_ref().map(|w| w.reached_initial),
    };
    if opts.json {
        println!("{}", summary.to_json().pretty());
        return Ok(());
    }
    println!("pattern: {stats}");
    println!(
        "doubling ratio {:.3} (1.0 = every zigzag dependency trackable)",
        summary.doubling_ratio
    );
    println!(
        "obsolete {} / causally identifiable {} (gap {} — the price of causal-only knowledge)",
        summary.obsolete, summary.causally_identifiable_obsolete, summary.optimality_gap
    );
    if let Some(w) = worst {
        println!(
            "worst single failure: {} rolls back {} checkpoints across {} processes{}",
            w.faulty[0],
            w.total(),
            w.affected_processes(),
            if w.reached_initial {
                " — DOMINO to the initial state"
            } else {
                ""
            }
        );
    }
    Ok(())
}

#[derive(Debug)]
struct AuditSummary {
    collector: String,
    collected: usize,
    violations: Vec<String>,
}

impl AuditSummary {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("collector", Json::Str(self.collector.clone()))
            .field("collected", Json::UInt(self.collected as u64))
            .field(
                "violations",
                Json::Arr(self.violations.iter().cloned().map(Json::Str).collect()),
            )
            .build()
    }
}

/// `rdt audit` — run crash-free and check every garbage-collection event
/// against the Theorem-1 oracle at its own cut.
pub fn audit(opts: &RunOpts) -> Result<(), String> {
    if opts.spec.crash_prob > 0.0 {
        return Err("audit needs a crash-free workload (crash traces cannot replay)".into());
    }
    let report = run(opts, true)?;
    let trace = report.trace.expect("trace recording requested");
    let violations = collection_safety_violations(opts.spec.n, &trace)
        .map_err(|e| format!("trace replay failed: {e}"))?;
    let summary = AuditSummary {
        collector: opts.gc.to_string(),
        collected: report.metrics.total_collected(),
        violations: violations.iter().map(|c| c.to_string()).collect(),
    };
    if opts.json {
        println!("{}", summary.to_json().pretty());
    } else {
        println!(
            "{}: {} checkpoints collected, {} safety violations",
            summary.collector,
            summary.collected,
            summary.violations.len()
        );
        for v in &summary.violations {
            println!("  VIOLATION: {v} was not obsolete when eliminated");
        }
        if summary.violations.is_empty() {
            println!("every elimination was provably obsolete (Theorem 1) at its cut");
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("{} safety violations", violations.len()))
    }
}

/// `rdt line` — recovery lines for every single-process failure at the
/// end of a run, via the offline oracle. A crashy run is judged on the
/// history its recovery sessions left live, with dead incarnations
/// amnestied (Lemma 1).
pub fn line(opts: &RunOpts) -> Result<(), String> {
    let report = run(opts, true)?;
    let trace = report.trace.expect("trace recording requested");
    let ccp = CcpBuilder::from_trace(opts.spec.n, &trace)
        .map_err(|e| format!("trace replay failed: {e}"))?
        .build();
    #[derive(Debug)]
    struct Line {
        faulty: String,
        line: Vec<usize>,
        rolled_back: usize,
    }
    let lines: Vec<Line> = ProcessId::all(opts.spec.n)
        .map(|f| {
            let gc = ccp.recovery_line(&[f].into_iter().collect());
            let rolled: usize = ProcessId::all(opts.spec.n)
                .map(|p| ccp.volatile(p).index.value() - gc.component(p).index.value())
                .sum();
            Line {
                faulty: f.to_string(),
                line: gc.to_raw(),
                rolled_back: rolled,
            }
        })
        .collect();
    if opts.json {
        let doc = Json::Arr(
            lines
                .iter()
                .map(|l| {
                    Json::obj()
                        .field("faulty", Json::Str(l.faulty.clone()))
                        .field("line", Json::uints(l.line.iter().copied()))
                        .field("rolled_back", Json::UInt(l.rolled_back as u64))
                        .build()
                })
                .collect(),
        );
        println!("{}", doc.pretty());
    } else {
        for l in &lines {
            println!(
                "failure of {:<4} → line {:?} ({} checkpoints rolled back)",
                l.faulty, l.line, l.rolled_back
            );
        }
    }
    Ok(())
}

/// `rdt explain` — recovery-line provenance: for each failure scenario,
/// which DV entry pins each component of the line and which entries were
/// amnestied. Every explanation is cross-checked against the Lemma-1
/// oracle ([`rdt_ccp::LineExplanation::cross_check`]); a mismatch is a
/// hard error, so CI can gate on the exit code alone.
pub fn explain(opts: &RunOpts, faulty_arg: Option<&str>) -> Result<(), String> {
    use rdt_ccp::{FaultySet, LineExplanation};
    let report = run(opts, true)?;
    let trace = report.trace.expect("trace recording requested");
    let ccp = CcpBuilder::from_trace(opts.spec.n, &trace)
        .map_err(|e| format!("trace replay failed: {e}"))?
        .build();

    let scenarios: Vec<FaultySet> = match faulty_arg {
        Some(list) => {
            let mut set = FaultySet::new();
            for part in list.split(',') {
                let i: usize = part
                    .trim()
                    .parse()
                    .map_err(|e| format!("--faulty {part:?}: {e}"))?;
                if i >= opts.spec.n {
                    return Err(format!("--faulty: process {i} outside 0..{}", opts.spec.n));
                }
                set.insert(ProcessId::new(i));
            }
            vec![set]
        }
        None => ProcessId::all(opts.spec.n)
            .map(|f| [f].into_iter().collect())
            .collect(),
    };

    let mut docs = Vec::new();
    for faulty in &scenarios {
        let exp = ccp.explain_recovery_line(faulty);
        // The oracle gate: re-derive the line and every pin independently.
        exp.cross_check(&ccp, faulty)
            .map_err(|e| format!("provenance cross-check failed: {e}"))?;
        if opts.json {
            docs.push(explanation_json(faulty, &exp));
        } else {
            print_explanation(faulty, &exp);
        }
    }
    if opts.json {
        println!("{}", Json::Arr(docs).pretty());
    }
    return Ok(());

    fn explanation_json(faulty: &FaultySet, exp: &LineExplanation) -> Json {
        Json::obj()
            .field("faulty", Json::uints(faulty.iter().map(|f| f.index())))
            .field("line", Json::uints(exp.line().to_raw()))
            .field(
                "components",
                Json::Arr(
                    exp.components
                        .iter()
                        .map(|c| {
                            Json::obj()
                                .field("process", Json::UInt(c.process.index() as u64))
                                .field("chosen", Json::UInt(c.chosen.value() as u64))
                                .field("ceiling", Json::UInt(c.ceiling.value() as u64))
                                .field("volatile_kept", Json::Bool(c.volatile_kept))
                                .maybe(
                                    "pinned_by",
                                    c.pinned_by.as_ref().map(|p| {
                                        Json::obj()
                                            .field(
                                                "process",
                                                Json::UInt(p.blocker.index() as u64),
                                            )
                                            .field(
                                                "incarnation",
                                                Json::UInt(u64::from(p.incarnation)),
                                            )
                                            .field("interval", Json::UInt(p.interval as u64))
                                            .field(
                                                "rejected",
                                                Json::UInt(p.rejected.value() as u64),
                                            )
                                            .field(
                                                "last_stable",
                                                Json::UInt(p.last_stable.value() as u64),
                                            )
                                            .build()
                                    }),
                                )
                                .field(
                                    "amnestied",
                                    Json::Arr(
                                        c.amnestied
                                            .iter()
                                            .map(|a| {
                                                Json::obj()
                                                    .field(
                                                        "at",
                                                        Json::UInt(a.at.value() as u64),
                                                    )
                                                    .field(
                                                        "process",
                                                        Json::UInt(a.faulty.index() as u64),
                                                    )
                                                    .field(
                                                        "incarnation",
                                                        Json::UInt(u64::from(a.incarnation)),
                                                    )
                                                    .field(
                                                        "interval",
                                                        Json::UInt(a.interval as u64),
                                                    )
                                                    .field(
                                                        "live_incarnation",
                                                        Json::UInt(u64::from(
                                                            a.live_incarnation,
                                                        )),
                                                    )
                                                    .build()
                                            })
                                            .collect(),
                                    ),
                                )
                                .build()
                        })
                        .collect(),
                ),
            )
            .build()
    }

    fn print_explanation(faulty: &FaultySet, exp: &LineExplanation) {
        let names: Vec<String> = faulty.iter().map(|f| f.to_string()).collect();
        println!(
            "failure of {{{}}} → line {:?}",
            names.join(","),
            exp.line().to_raw()
        );
        for c in &exp.components {
            let state = if c.volatile_kept {
                "keeps running (volatile)".to_string()
            } else if c.chosen == c.ceiling {
                format!("restarts from s^{} (its ceiling)", c.chosen.value())
            } else {
                format!("rolls back to s^{}", c.chosen.value())
            };
            match &c.pinned_by {
                None => println!("  {}: {state} — unpinned", c.process),
                Some(pin) => println!(
                    "  {}: {state} — pinned by DV[{}] = (inc {}, interval {}) at \
                     rejected s^{}: knowledge past {}'s last stable s^{}",
                    c.process,
                    pin.blocker,
                    pin.incarnation,
                    pin.interval,
                    pin.rejected.value(),
                    pin.blocker,
                    pin.last_stable.value()
                ),
            }
            for a in &c.amnestied {
                println!(
                    "      amnestied at s^{}: DV[{}] = (inc {}, interval {}) — dead \
                     incarnation (live is {})",
                    a.at.value(),
                    a.faulty,
                    a.incarnation,
                    a.interval,
                    a.live_incarnation
                );
            }
        }
    }
}

/// The `torture` subcommand: crash-point sweep + seeded corruption plans
/// over the durable storage layer (see `rdt_storage::torture`).
pub fn torture(m: &clap::ArgMatches) -> Result<(), String> {
    use rdt_storage::torture::{run_torture, TortureOptions};
    let get = |name: &str| m.get_one::<String>(name).expect("defaulted").clone();
    let n: usize = get("processes").parse().map_err(|e| format!("-n: {e}"))?;
    if n < 2 {
        return Err("-n: at least two processes required".into());
    }
    let opts = TortureOptions {
        n,
        events: get("events")
            .parse()
            .map_err(|e| format!("--events: {e}"))?,
        seed: get("seed").parse().map_err(|e| format!("-S: {e}"))?,
        protocol: crate::opts::parse_protocol(&get("protocol"))?,
        gc: crate::opts::parse_gc(&get("gc"))?,
        max_crash_points: get("max-crash-points")
            .parse()
            .map_err(|e| format!("--max-crash-points: {e}"))?,
        fault_plans: get("fault-plans")
            .parse()
            .map_err(|e| format!("--fault-plans: {e}"))?,
    };
    let report = run_torture(&opts).map_err(|e| format!("torture harness failed: {e}"))?;
    if m.get_flag("json") {
        let doc = Json::obj()
            .field("total_ops", Json::UInt(report.total_ops))
            .field(
                "crash_points_tested",
                Json::UInt(report.crash_points_tested as u64),
            )
            .field(
                "fault_plans_tested",
                Json::UInt(report.fault_plans_tested as u64),
            )
            .field("quarantined", Json::UInt(report.quarantined as u64))
            .field("append_faults", Json::UInt(report.append_faults))
            .field("transient_retries", Json::UInt(report.transient_retries))
            .field(
                "restarts",
                Json::Arr(
                    report
                        .restarts
                        .iter()
                        .map(|(crash_point, r)| {
                            Json::obj()
                                .field("crash_point", Json::UInt(*crash_point))
                                .field("loaded", Json::UInt(r.loaded as u64))
                                .field("quarantined", Json::UInt(r.quarantined as u64))
                                .field("log_bytes", Json::UInt(r.log_bytes as u64))
                                .field("transient_retries", Json::UInt(r.transient_retries))
                                .build()
                        })
                        .collect(),
                ),
            )
            .field(
                "failures",
                Json::Arr(
                    report
                        .failures
                        .iter()
                        .map(|f| Json::Str(f.clone()))
                        .collect(),
                ),
            )
            .field("passed", Json::Bool(report.passed()))
            .build();
        println!("{}", doc.pretty());
    } else {
        println!(
            "tortured {} backend ops: {} crash points, {} fault plans \
             ({} torn or bit-flipped appends, {} quarantined, {} transient retries absorbed)",
            report.total_ops,
            report.crash_points_tested,
            report.fault_plans_tested,
            report.append_faults,
            report.quarantined,
            report.transient_retries,
        );
        for failure in &report.failures {
            println!("  FAIL {failure}");
        }
        if report.passed() {
            println!("every crash point recovered to the oracle line");
        }
    }
    // Metrics are written even for a failing sweep: the counters are most
    // interesting exactly when a probe violated the contract.
    if let Some(path) = m.get_one::<String>("metrics-out") {
        let mut metrics = rdt_obs::ProfileReport::new();
        metrics.add("torture_ops", report.total_ops);
        metrics.add("torture_crash_points_tested", report.crash_points_tested as u64);
        metrics.add("torture_fault_plans_tested", report.fault_plans_tested as u64);
        metrics.add("torture_failures", report.failures.len() as u64);
        metrics.add("torture_append_faults", report.append_faults);
        metrics.add("restart_quarantined", report.quarantined as u64);
        metrics.add("restart_transient_retries", report.transient_retries);
        for (_, r) in &report.restarts {
            metrics.add("restart_loaded", r.loaded as u64);
            metrics.add("restart_log_bytes", r.log_bytes as u64);
        }
        std::fs::write(path, metrics.to_prometheus())
            .map_err(|e| format!("--metrics-out {path}: {e}"))?;
    }
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} probes violated the crash-consistency contract",
            report.failures.len(),
            report.crash_points_tested + report.fault_plans_tested
        ))
    }
}
