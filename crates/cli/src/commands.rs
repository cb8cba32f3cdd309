//! The `simulate`, `analyze`, `audit`, `line`, `trace` and `torture`
//! subcommands.

use rdt_analysis::{worst_single_failure, CcpStats, OccupancyTimeline};
use rdt_base::{CheckpointId, ProcessId};
use rdt_bench::{derive_seed, par_map};
use rdt_ccp::{collection_safety_violations_through_sessions, missed_at_the_end, CcpBuilder};
use rdt_core::GcKind;
use rdt_obs::json::JsonValue;
use rdt_sim::{Metrics, SimulationBuilder, SimulationReport, TraceLine, ZeroLookaheadFallback};

use crate::opts::RunOpts;

/// Runs the simulator once with the given options.
fn run(opts: &RunOpts, record_trace: bool) -> Result<SimulationReport, String> {
    run_with(opts, opts.spec.seed, record_trace, false)
}

/// Runs the simulator once on `seed`, saying on stderr when a sharded run
/// fell back to the sequential engine.
fn run_with(
    opts: &RunOpts,
    seed: u64,
    record_trace: bool,
    record_occupancy: bool,
) -> Result<SimulationReport, String> {
    let mut builder = SimulationBuilder::new(opts.spec.clone().with_seed(seed))
        .protocol(opts.protocol)
        .garbage_collector(opts.gc)
        .config(opts.config)
        .recovery_mode(opts.recovery);
    if record_trace {
        builder = builder.record_trace();
    }
    if record_occupancy {
        builder = builder.record_occupancy();
    }
    let report = builder
        .run()
        .map_err(|e| format!("simulation failed: {e}"))?;
    if report.metrics.sequential_fallbacks > 0 {
        let shards = opts.config.shard.shards;
        eprintln!("warning: {}", ZeroLookaheadFallback { shards });
    }
    Ok(report)
}

/// Calls `run` once per `--runs` seed and returns the results in run
/// order: one run uses the seed itself, run `k` of several uses
/// `derive_seed(seed, k)`, and several are fanned out across cores. The
/// results do not depend on the number of cores.
fn per_seed<R: Send>(
    opts: &RunOpts,
    run: impl Fn(u64) -> Result<R, String> + Sync,
) -> Result<Vec<R>, String> {
    if opts.runs == 1 {
        return run(opts.spec.seed).map(|r| vec![r]);
    }
    let seeds = (0..opts.runs)
        .map(|k| derive_seed(opts.spec.seed, k))
        .collect();
    par_map(seeds, run).into_iter().collect()
}

/// A CLI float: rounded to three decimals.
fn float3(v: f64) -> JsonValue {
    JsonValue::Num(format!("{v:.3}").parse().unwrap_or(v))
}

/// The full [`Metrics`] struct as JSON — every field, not the curated
/// `simulate` summary.
fn metrics_json(m: &Metrics) -> JsonValue {
    JsonValue::obj()
        .field("ticks", m.ticks)
        .field("control_rounds", m.control_rounds)
        .field("recovery_sessions", m.recovery_sessions)
        .field("total_rolled_back", m.total_rolled_back)
        .field("degraded_lines", m.degraded_lines)
        .field("sequential_fallbacks", m.sequential_fallbacks)
        .field("peak_global_retained", m.peak_global_retained)
        .field(
            "per_process",
            JsonValue::Arr(
                m.per_process
                    .iter()
                    .map(|p| {
                        JsonValue::obj()
                            .field("retained", p.retained)
                            .field("peak_retained", p.peak_retained)
                            .field("total_stored", p.total_stored)
                            .field("total_collected", p.total_collected)
                            .field("basic", p.basic)
                            .field("forced", p.forced)
                            .field("sent", p.sent)
                            .field("delivered", p.delivered)
                            .field("lost", p.lost)
                            .field("retained_sum", p.retained_sum)
                            .field("samples", p.samples)
                            .build()
                    })
                    .collect(),
            ),
        )
        .build()
}

/// The `--metrics-out` document of one run: its full metrics, and its
/// phase profile when recorded.
fn metrics_doc(report: &SimulationReport) -> JsonValue {
    JsonValue::obj()
        .field("metrics", metrics_json(&report.metrics))
        .maybe(
            "profile",
            report.profile.as_ref().map(rdt_obs::ProfileReport::to_json),
        )
        .build()
}

/// One run's document, or several runs' as one array.
fn per_run_doc(mut docs: Vec<JsonValue>) -> JsonValue {
    if docs.len() == 1 {
        docs.remove(0)
    } else {
        JsonValue::Arr(docs)
    }
}

/// Writes `--metrics-out`: the document of each run.
fn write_metrics_out(path: &std::path::Path, reports: &[SimulationReport]) -> Result<(), String> {
    let doc = per_run_doc(reports.iter().map(metrics_doc).collect());
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
    fn new(opts: &RunOpts, report: &SimulationReport) -> Self {
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
        SimulateSummary {
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
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("n", self.n)
            .field("steps", self.steps)
            .field("protocol", self.protocol.clone())
            .field("gc", self.gc.clone())
            .field("ticks", self.ticks)
            .field("delivered", self.delivered)
            .field("lost", self.lost)
            .field("basic_checkpoints", self.basic_checkpoints)
            .field("forced_checkpoints", self.forced_checkpoints)
            .field("collected", self.collected)
            .field("recovery_sessions", self.recovery_sessions)
            .field("rolled_back", self.rolled_back)
            .field("max_retained", self.max_retained)
            .field("peak_global_retained", self.peak_global_retained)
            .field("avg_retained", float3(self.avg_retained))
            .field("per_process_retained", self.per_process_retained.clone())
            .maybe(
                "occupancy",
                self.occupancy.as_ref().map(OccupancySummary::to_json),
            )
            .maybe(
                "profile",
                self.profile.as_ref().map(rdt_obs::ProfileReport::to_json),
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
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("global_peak", self.global_peak)
            .field("global_peak_at", self.global_peak_at)
            .field("time_averaged_global", float3(self.time_averaged_global))
            .field("final_global", self.final_global)
            .field("per_process_peak", self.per_process_peak.clone())
            .build()
    }
}

/// `rdt simulate` — run a workload and report the storage metrics; with
/// `--runs K`, K runs and their aggregate.
pub fn simulate(opts: &RunOpts, occupancy: bool) -> Result<(), String> {
    let reports = per_seed(opts, |seed| run_with(opts, seed, false, occupancy))?;
    if let Some(path) = &opts.metrics_out {
        write_metrics_out(path, &reports)?;
    }
    if opts.json {
        let docs = reports
            .iter()
            .map(|r| SimulateSummary::new(opts, r).to_json())
            .collect();
        println!("{}", per_run_doc(docs).pretty());
        return Ok(());
    }
    match reports.as_slice() {
        [report] => print_run(&SimulateSummary::new(opts, report), report),
        several => print_aggregate(opts.spec.n, several),
    }
    Ok(())
}

/// The aggregate of several runs: per-run means and the worst retention.
fn print_aggregate(n: usize, reports: &[SimulationReport]) {
    let mean = |f: &dyn Fn(&Metrics) -> f64| {
        reports.iter().map(|r| f(&r.metrics)).sum::<f64>() / reports.len() as f64
    };
    println!(
        "aggregate over {} parallel runs (deterministic derived seeds):",
        reports.len()
    );
    println!(
        "checkpoints: {:.1} basic + {:.1} forced, {:.1} collected (per-run mean)",
        mean(&|m| m.total_basic() as f64),
        mean(&|m| m.total_forced() as f64),
        mean(&|m| m.total_collected() as f64),
    );
    println!(
        "retention: avg {:.2} per process, worst max {} (bound n+1 = {})",
        mean(&Metrics::avg_retained),
        reports
            .iter()
            .map(|r| r.metrics.max_retained_per_process())
            .max()
            .unwrap_or(0),
        n + 1
    );
    println!(
        "recovery sessions: {} total across runs ({} degraded lines)",
        reports
            .iter()
            .map(|r| r.recovery_sessions.len())
            .sum::<usize>(),
        reports
            .iter()
            .map(|r| r.metrics.degraded_lines)
            .sum::<u64>()
    );
}

/// Systems of up to this many processes print a per-process line value by
/// value; wider ones summarise it (see [`per_process`]).
const LISTED: usize = 32;

/// Processes a summarised per-process line names.
const NAMED: usize = 8;

/// Prints `label: values`, one value per process in process order, or, for
/// more than [`LISTED`] processes, the values' min / median / max, their
/// most common value and the processes off it (the first [`NAMED`] by
/// name): a line that does not grow with the system.
fn per_process<T: Ord + std::fmt::Debug>(label: &str, values: &[T]) {
    if values.len() <= LISTED {
        println!("{label}: {values:?}");
        return;
    }
    let mut sorted: Vec<&T> = values.iter().collect();
    sorted.sort();
    let (mut mode, mut count, mut run) = (sorted[0], 0, 0);
    for (k, value) in sorted.iter().enumerate() {
        run = if k > 0 && sorted[k - 1] == *value {
            run + 1
        } else {
            1
        };
        if run > count {
            (mode, count) = (value, run);
        }
    }
    let off: Vec<String> = values
        .iter()
        .enumerate()
        .filter(|&(_, value)| value != mode)
        .map(|(p, value)| format!("{} {value:?}", ProcessId::new(p)))
        .collect();
    let (n, named) = (values.len(), off.len().min(NAMED));
    let more = match off.len() - named {
        0 => String::new(),
        rest => format!(" and {rest} more"),
    };
    println!(
        "{label}: min {:?}, median {:?}, max {:?}; {mode:?} on {count} of {n}; off it: {}{more}",
        sorted[0],
        sorted[n / 2],
        sorted[n - 1],
        if off.is_empty() {
            "none".to_string()
        } else {
            off[..named].join(", ")
        },
    );
}

/// One run's summary, with its final incarnations and retained sets.
fn print_run(summary: &SimulateSummary, report: &SimulationReport) {
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
    per_process("final per-process occupancy", &summary.per_process_retained);
    println!("degraded recovery lines: {}", report.metrics.degraded_lines);
    let incarnations: Vec<_> = report
        .final_incarnations
        .iter()
        .map(|v| v.value())
        .collect();
    per_process("final incarnations", &incarnations);
    per_process("final retained checkpoints", &report.final_retained);
    if let Some(occ) = &summary.occupancy {
        println!(
            "timeline: global peak {} at tick {}, time-averaged {:.2}, final {}",
            occ.global_peak, occ.global_peak_at, occ.time_averaged_global, occ.final_global
        );
        per_process("per-process peaks", &occ.per_process_peak);
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
}

/// `rdt trace` — replay a run and emit its global event sequence as JSONL
/// (one `{"type":"run"}` header, one [`TraceLine`] per trace event — the
/// shape a live process's event log has — and, with `--profile`,
/// `span`/`counter` lines from the phase profile). The stream is what
/// `obs_check` validates in CI.
pub fn trace(opts: &RunOpts, out: Option<&str>) -> Result<(), String> {
    let report = run(opts, true)?;
    if let Some(path) = &opts.metrics_out {
        write_metrics_out(path, std::slice::from_ref(&report))?;
    }
    let trace = report.trace.as_ref().expect("trace recording requested");
    let mut lines = String::new();
    lines.push_str(
        &JsonValue::obj()
            .field("type", "run")
            .field("n", opts.spec.n)
            .field("steps", opts.spec.steps)
            .field("seed", opts.spec.seed)
            .field("shards", opts.config.shard.shards)
            .field("protocol", opts.protocol.to_string())
            .field("gc", opts.gc.to_string())
            .build()
            .to_string(),
    );
    lines.push('\n');
    for line in TraceLine::of_trace(trace) {
        line.render(&mut lines);
        lines.push('\n');
    }
    if let Some(profile) = &report.profile {
        for (phase, stats) in &profile.phases {
            lines.push_str(
                &JsonValue::obj()
                    .field("type", "span")
                    .field("phase", phase.clone())
                    .field("count", stats.count)
                    .field("total_ns", stats.total_ns)
                    .build()
                    .to_string(),
            );
            lines.push('\n');
        }
        for (name, value) in &profile.counters {
            lines.push_str(
                &JsonValue::obj()
                    .field("type", "counter")
                    .field("name", name.clone())
                    .field("value", *value)
                    .build()
                    .to_string(),
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
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("rdt", self.rdt)
            .field("stable_checkpoints", self.stable_checkpoints)
            .field("delivered", self.delivered)
            .field("causal_density", float3(self.causal_density))
            .field("zigzag_density", float3(self.zigzag_density))
            .field("doubling_ratio", float3(self.doubling_ratio))
            .field("useless", self.useless)
            .field("obsolete", self.obsolete)
            .field(
                "causally_identifiable_obsolete",
                self.causally_identifiable_obsolete,
            )
            .field("optimality_gap", self.optimality_gap)
            .maybe("worst_failure_process", self.worst_failure_process.clone())
            .maybe("worst_failure_rolled_back", self.worst_failure_rolled_back)
            .maybe(
                "worst_failure_reaches_initial",
                self.worst_failure_reaches_initial,
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
    collected: usize,
    sessions: usize,
    violations: Vec<String>,
    /// Checkpoints retained at the end though no process witnesses them
    /// (Theorem 5 fails for them at the final cut); `None` once a run
    /// crashed, since judging through sessions is not done yet.
    missed: Option<usize>,
}

/// `rdt audit` — run and check every garbage-collection event against the
/// Theorem-1 oracle at its own cut. A crashy run is judged on the history
/// its recovery sessions left live, each session's own eliminations
/// (rollback and `recovery_info`) included. A crash-free run is also
/// judged at its end for what it still retains: `missed` counts the
/// checkpoints no process witnesses, which RDT-LGC must have collected.
/// With `--runs K` every run is audited and the counts are summed.
pub fn audit(opts: &RunOpts) -> Result<(), String> {
    let runs = per_seed(opts, |seed| {
        let report = run_with(opts, seed, true, false)?;
        let trace = report.trace.as_ref().expect("trace recording requested");
        let sessions: Vec<&[CheckpointId]> = report
            .recovery_sessions
            .iter()
            .map(|s| s.eliminated.as_slice())
            .collect();
        let violations =
            collection_safety_violations_through_sessions(opts.spec.n, trace, &sessions)
                .map_err(|e| format!("trace replay failed: {e}"))?;
        let missed = if sessions.is_empty() {
            Some(
                missed_at_the_end(opts.spec.n, trace, &report.final_retained)
                    .map_err(|e| format!("trace replay failed: {e}"))?,
            )
        } else {
            None
        };
        Ok(AuditSummary {
            collected: report.metrics.total_collected(),
            sessions: sessions.len(),
            violations: violations.iter().map(|c| c.to_string()).collect(),
            missed,
        })
    })?;
    let several = runs.len() > 1;
    let mut summary = AuditSummary {
        collected: 0,
        sessions: 0,
        violations: Vec::new(),
        missed: Some(0),
    };
    for (k, run) in runs.into_iter().enumerate() {
        summary.collected += run.collected;
        summary.sessions += run.sessions;
        summary.missed = summary.missed.zip(run.missed).map(|(a, b)| a + b);
        summary
            .violations
            .extend(run.violations.into_iter().map(|v| {
                if several {
                    format!("run {k}: {v}")
                } else {
                    v
                }
            }));
    }
    let collector = opts.gc.to_string();
    if opts.json {
        let doc = JsonValue::obj()
            .field("collector", collector)
            .maybe("runs", several.then_some(opts.runs))
            .field("collected", summary.collected)
            .field("sessions", summary.sessions)
            .field("violations", summary.violations.clone())
            .field(
                "missed",
                summary.missed.map_or(JsonValue::Null, JsonValue::from),
            )
            .build();
        println!("{}", doc.pretty());
    } else {
        println!(
            "{collector}: {} checkpoints collected, {} safety violations",
            summary.collected,
            summary.violations.len()
        );
        if several {
            println!(
                "summed over {} runs (deterministic derived seeds)",
                opts.runs
            );
        }
        if summary.sessions > 0 {
            println!(
                "through {} recovery sessions, their own eliminations included",
                summary.sessions
            );
        }
        for v in &summary.violations {
            println!("  VIOLATION: {v} was not obsolete when eliminated");
        }
        if summary.violations.is_empty() {
            println!("every elimination was provably obsolete (Theorem 1) at its cut");
        }
        match summary.missed {
            Some(missed) => {
                println!("{missed} checkpoints retained at the end with no witness (Theorem 5)")
            }
            None => println!("missed: not judged through recovery sessions"),
        }
    }
    if !summary.violations.is_empty() {
        return Err(format!("{} safety violations", summary.violations.len()));
    }
    match summary.missed {
        Some(missed) if missed > 0 && matches!(opts.gc, GcKind::RdtLgc) => Err(format!(
            "RDT-LGC retained {missed} checkpoints no process witnesses"
        )),
        _ => Ok(()),
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
        let doc = JsonValue::Arr(
            lines
                .iter()
                .map(|l| {
                    JsonValue::obj()
                        .field("faulty", l.faulty.clone())
                        .field("line", l.line.clone())
                        .field("rolled_back", l.rolled_back)
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
        println!("{}", JsonValue::Arr(docs).pretty());
    }
    return Ok(());

    fn explanation_json(faulty: &FaultySet, exp: &LineExplanation) -> JsonValue {
        JsonValue::obj()
            .field(
                "faulty",
                faulty.iter().map(|f| f.index()).collect::<Vec<_>>(),
            )
            .field("line", exp.line().to_raw())
            .field(
                "components",
                JsonValue::Arr(
                    exp.components
                        .iter()
                        .map(|c| {
                            JsonValue::obj()
                                .field("process", c.process.index())
                                .field("chosen", c.chosen.value())
                                .field("ceiling", c.ceiling.value())
                                .field("volatile_kept", c.volatile_kept)
                                .maybe(
                                    "pinned_by",
                                    c.pinned_by.as_ref().map(|p| {
                                        JsonValue::obj()
                                            .field("process", p.blocker.index())
                                            .field("incarnation", u64::from(p.incarnation))
                                            .field("interval", p.interval)
                                            .field("rejected", p.rejected.value())
                                            .field("last_stable", p.last_stable.value())
                                            .build()
                                    }),
                                )
                                .field(
                                    "amnestied",
                                    JsonValue::Arr(
                                        c.amnestied
                                            .iter()
                                            .map(|a| {
                                                JsonValue::obj()
                                                    .field("at", a.at.value())
                                                    .field("process", a.faulty.index())
                                                    .field("incarnation", u64::from(a.incarnation))
                                                    .field("interval", a.interval)
                                                    .field(
                                                        "live_incarnation",
                                                        u64::from(a.live_incarnation),
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
/// over `Middleware<DiskSink>` (see `rdt_cli::torture`).
pub fn torture(m: &clap::ArgMatches) -> Result<(), String> {
    use rdt_cli::torture::{run_torture, TortureOptions};
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
        let doc = JsonValue::obj()
            .field("total_ops", report.total_ops)
            .field("crash_points_tested", report.crash_points_tested)
            .field("fault_plans_tested", report.fault_plans_tested)
            .field("quarantined", report.quarantined)
            .field("append_faults", report.append_faults)
            .field("transient_retries", report.transient_retries)
            .field(
                "restarts",
                JsonValue::Arr(
                    report
                        .restarts
                        .iter()
                        .map(|(crash_point, r)| {
                            JsonValue::obj()
                                .field("crash_point", *crash_point)
                                .field("loaded", r.loaded)
                                .field("quarantined", r.quarantined)
                                .field("log_bytes", r.log_bytes)
                                .field("transient_retries", r.transient_retries)
                                .build()
                        })
                        .collect(),
                ),
            )
            .field("failures", report.failures.clone())
            .field("passed", report.passed())
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
        metrics.add(
            "torture_crash_points_tested",
            report.crash_points_tested as u64,
        );
        metrics.add(
            "torture_fault_plans_tested",
            report.fault_plans_tested as u64,
        );
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
            "{} of {} runs violated the crash-consistency contract",
            report.failures.len(),
            report.runs_judged()
        ))
    }
}
