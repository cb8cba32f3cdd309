//! `rdt serve` — the real runtime: N OS processes exchanging piggybacked
//! traffic over Unix-domain loopback sockets with live checkpoint GC, and
//! a kill-9 chaos harness that checks online recovery against the offline
//! CCP oracle.
//!
//! # Topology
//!
//! The parent re-executes its own binary once per rank with the hidden
//! `__serve-worker` subcommand. Each worker binds a datagram socket in the
//! shared run directory ([`UdsTransport`]), opens its durable checkpoint
//! directory (`p<rank>/`, a `DiskSink` behind a generic `Middleware`), and
//! steps a [`LiveWorker`] over them — the one live loop, which the
//! threaded example and the in-process worker oracle step too. What is
//! left here is what only a real process needs: arguments, the socket,
//! the store and its `--resume` rebuild, a 300 µs pause between steps, a
//! 250 ms drain at the end and the `.prom` dumps.
//!
//! # The event log and its write ordering
//!
//! Every worker's history is its one event log (`flight_p<rank>.jsonl`,
//! the `rdt_obs::flight` log). The [`LiveNode`] runs each operation —
//! basic checkpoint, send and its post-send forced checkpoint, a
//! delivery's forced checkpoint and the delivery, the collects that
//! followed — through the simulators' step core, whose trace events it
//! renders in the line shape `rdt trace` prints ([`rdt_sim::TraceLine`]):
//! the simulated and the live history of an operation are one sequence of
//! events. The harness merges the logs through the one merger
//! ([`rdt_cli::merge`]) into a global [`TraceEvent`] sequence for the
//! offline oracle. The run's totals are those logs' lines tallied by
//! [`LiveStats::tally`], the resumed segment's included; a worker's own
//! counters in its `.prom` dump are its node's [`LiveStats`], counted as
//! the events happened. The worker writes nothing of its own. The
//! per-op discipline, kept by [`LiveWorker`], is **apply → log →
//! transmit**:
//!
//! 1. the middleware operation runs (which commits durable state through
//!    the store's sink),
//! 2. the node writes the operation's event lines in one `write` the page
//!    cache keeps through a kill,
//! 3. the sink's commits and the log's writes are checked — after every
//!    delivery, and again after a send and its forced checkpoint — and
//!    only if all of them succeeded is the sent frame put on the wire; a
//!    failure ends the worker with nothing transmitted.
//!
//! A SIGKILL therefore leaves at most one in-doubt *tail* op per worker,
//! and each case reconciles from what survives: an applied-but-unlogged
//! checkpoint is visible on disk (the harness appends a synthetic
//! `Checkpoint` event); an applied-but-unlogged send was never
//! transmitted, so no peer saw it; an applied-but-unlogged deliver merged
//! only volatile state, which the crash discards. Because a send is logged
//! before the frame leaves, every apply in any log finds its send in the
//! sender's log, and the merge is total. The merged trace carries the
//! collects too, so the harness judges it ([`rdt_cli::verdict`]): every
//! live elimination against Theorem 4 beside the recovery line, and a
//! clean run's final stores against Theorem 5 (no retained checkpoint may
//! lack a witness under RDT-LGC).
//!
//! # Chaos cycle
//!
//! With `--chaos`, the workers run an endless workload; once every log
//! shows traffic the parent SIGKILLs all of them mid-flight, rebuilds
//! every process from its surviving files, runs a full recovery session
//! (all processes faulty — rollback exercises the incarnation WAL against
//! the real filesystem), and asserts the online recovery line equals the
//! offline `rdt-ccp` oracle replaying the merged logs. It then respawns
//! every worker with `--resume` (rollback to the recovered line, more
//! traffic, clean exit) to prove the system keeps executing.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as OsCommand};
use std::time::{Duration, Instant};

use clap::ArgMatches;

use rdt_base::{ProcessId, TraceEvent};
use rdt_cli::merge::Logs;
use rdt_cli::verdict::{judge, Verdict};
use rdt_core::GcKind;
use rdt_env::transport::MAX_FRAME;
use rdt_env::{UdsTransport, WireFrame};
use rdt_obs::json::JsonValue;
use rdt_obs::ProfileReport;
use rdt_protocols::{Middleware, ProtocolKind};
use rdt_sim::{LiveNode, LiveStats, LiveWorker};
use rdt_storage::{DiskSink, DurableStore, RestartReport};

use crate::opts::{parse_gc, parse_protocol};

/// Everything both the parent and a worker need to agree on.
#[derive(Debug, Clone)]
struct ServeConfig {
    n: usize,
    ops: usize,
    seed: u64,
    protocol: ProtocolKind,
    gc: GcKind,
    dir: PathBuf,
}

fn parse_config(
    m: &ArgMatches,
    default_dir: impl FnOnce() -> PathBuf,
) -> Result<ServeConfig, String> {
    let get = |name: &str| m.get_one::<String>(name).expect("defaulted").clone();
    let n: usize = get("processes").parse().map_err(|e| format!("-n: {e}"))?;
    if n < 2 {
        return Err("-n: at least two processes required".into());
    }
    // A frame the receiver's buffer would cut short is dropped for good:
    // refuse the system size, not every message of the run.
    if WireFrame::encoded_len(n).is_none_or(|len| len > MAX_FRAME) {
        return Err(format!(
            "-n: a frame for {n} processes exceeds the transport's frame limit of {MAX_FRAME} bytes \
             (at most {} processes)",
            (MAX_FRAME - WireFrame::encoded_len(0).expect("header")) / rdt_base::codec::ENTRY_BYTES
        ));
    }
    Ok(ServeConfig {
        n,
        ops: get("ops").parse().map_err(|e| format!("--ops: {e}"))?,
        seed: get("seed").parse().map_err(|e| format!("-S: {e}"))?,
        protocol: parse_protocol(&get("protocol"))?,
        gc: parse_gc(&get("gc"))?,
        dir: m
            .get_one::<String>("dir")
            .map(PathBuf::from)
            .unwrap_or_else(default_dir),
    })
}

fn store_dir(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("p{rank}"))
}

fn prom_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("metrics_p{rank}.prom"))
}

/// The worker's event log. A resumed worker is a new process whose sends
/// number from 0 again, so it writes a separate file, and a chaos cycle
/// keeps the kill-point logs for the oracle and `rdt causal --dir`.
fn flight_path(dir: &Path, rank: usize, resume: bool) -> PathBuf {
    if resume {
        dir.join(format!("flight_resume_p{rank}.jsonl"))
    } else {
        dir.join(format!("flight_p{rank}.jsonl"))
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Writes one worker's Prometheus-style textfile dump
/// (`metrics_p<rank>.prom`): phase latencies — frame encode/decode,
/// socket send/recv, `store/*` I/O — when `RDT_PROFILE` is on, plus the
/// always-present traffic and checkpoint counters of this worker's
/// segment (a resumed worker rewrites the file). The parent reads only
/// `checkpoints_retained` of it; its totals come from the event logs. The
/// closest a socket-driven worker gets to a `/metrics` endpoint without a
/// server thread.
fn write_prom(
    dir: &Path,
    rank: usize,
    worker: &LiveWorker<UdsTransport, DiskSink>,
    restart: Option<&RestartReport>,
) -> Result<(), String> {
    let mut report = worker.profile();
    let mw = worker.node().middleware();
    if let Some(p) = mw.sink().disk().profile() {
        report.merge(&p);
    }
    let stats = worker.stats();
    report.add("frames_sent", stats.sent);
    report.add("frames_delivered", stats.delivered);
    report.add("checkpoints_basic", stats.basic);
    report.add("checkpoints_forced", stats.forced);
    report.add("checkpoints_eliminated", stats.eliminated);
    report.add("checkpoints_retained", mw.store().len() as u64);
    if let Some(restart) = restart {
        report.add("restart_loaded", restart.loaded as u64);
        report.add("restart_quarantined", restart.quarantined as u64);
        report.add("restart_log_bytes", restart.log_bytes as u64);
        report.add("restart_transient_retries", restart.transient_retries);
    }
    std::fs::write(prom_path(dir, rank), report.to_prometheus())
        .map_err(|e| format!("metrics dump failed: {e}"))
}

/// The hidden `__serve-worker` subcommand: one real process of the system.
pub fn worker(m: &ArgMatches) -> Result<(), String> {
    let cfg = parse_config(m, || unreachable!("the parent always passes --dir"))?;
    let rank: usize = m
        .get_one::<String>("rank")
        .expect("required")
        .parse()
        .map_err(|e| format!("--rank: {e}"))?;
    if rank >= cfg.n {
        return Err(format!("--rank {rank}: out of range for -n {}", cfg.n));
    }
    let resume = m.get_flag("resume");
    let me = ProcessId::new(rank);

    // The event log: every operation of the node, as it happens.
    rdt_obs::flight::install(flight_path(&cfg.dir, rank, resume), 0);
    if let Some(e) = rdt_obs::flight::take_error() {
        return Err(format!("event log: {e}"));
    }

    let transport = UdsTransport::bind(&cfg.dir, rank, Duration::from_millis(1))
        .map_err(|e| format!("bind failed: {e}"))?;
    let disk = DurableStore::open(store_dir(&cfg.dir, rank), me)
        .map_err(|e| format!("durable store failed: {e}"))?;

    let mut restart = None;
    let mut node = if resume {
        let (store, report) = disk
            .rebuild_reported()
            .map_err(|e| format!("rebuild failed: {e}"))?;
        restart = Some(report);
        let target = store
            .indices()
            .last()
            .ok_or_else(|| "resume found no checkpoint to anchor recovery".to_string())?;
        let mut mw = Middleware::from_store_with(
            me,
            cfg.n,
            cfg.protocol,
            cfg.gc,
            store,
            DiskSink::over(disk),
        );
        // Uncoordinated self-recovery to the newest surviving checkpoint
        // (the parent's recovery session already truncated every store to
        // the line); the write-ahead incarnation log runs again here.
        mw.rollback(target, None)
            .map_err(|e| format!("resume rollback failed: {e}"))?;
        LiveNode::over(mw)
    } else {
        LiveNode::over(Middleware::with_storage(
            me,
            cfg.n,
            cfg.protocol,
            cfg.gc,
            DiskSink::over(disk),
        ))
    };
    if let Some(e) = node.middleware_mut().take_sink_error() {
        return Err(format!("initial commit failed: {e}"));
    }

    let mut worker = LiveWorker::new(node, transport, cfg.seed);
    // Frame-path and socket-path profiling, plus periodic .prom dumps,
    // keyed off the same env switch as everywhere else.
    worker.set_profiling(rdt_obs::profile::env_enabled());
    let mut step = 0;
    while cfg.ops == 0 || step < cfg.ops as u64 {
        step += 1;
        if step.is_multiple_of(64) {
            write_prom(&cfg.dir, rank, &worker, restart.as_ref())?;
        }
        // The collector's clock is the step count: a time-based collector
        // discards what is older than its horizon in steps.
        worker.step(step).map_err(|e| e.to_string())?;
        std::thread::sleep(Duration::from_micros(300));
    }

    // Finite run: drain in-flight traffic for a grace window, then report.
    let deadline = Instant::now() + Duration::from_millis(250);
    while Instant::now() < deadline {
        worker.pump().map_err(|e| e.to_string())?;
        std::thread::sleep(Duration::from_millis(5));
    }
    write_prom(&cfg.dir, rank, &worker, restart.as_ref())
}

// ---------------------------------------------------------------------------
// Parent side: the recovery-line check and the GC audit
// ---------------------------------------------------------------------------

/// Appends the checkpoints each process's store holds beyond what the
/// trace shows (`newest[i]`: the newest index on p_i's disk): the sink
/// commits before the node logs, so a kill can leave the disk exactly one
/// checkpoint ahead of the log — never behind. Structural checkpoint
/// indices are sequential, so the gap closes at the process's tail.
fn reconcile(trace: &mut Vec<TraceEvent>, newest: &[usize]) {
    let mut logged = vec![0; newest.len()];
    for event in trace.iter() {
        if let TraceEvent::Checkpoint { process, .. } = event {
            if let Some(count) = logged.get_mut(process.index()) {
                *count += 1;
            }
        }
    }
    for (i, (&newest, &logged)) in newest.iter().zip(&logged).enumerate() {
        trace.extend((logged..newest).map(|_| TraceEvent::Checkpoint {
            process: ProcessId::new(i),
            forced: false,
        }));
    }
}

/// Merges the workers' logs (tallying their events into `totals`),
/// reconciles the merged trace with the stores, rebuilds every process
/// from disk and [`judge`]s the trace against them.
fn check_lines(dir: &Path, cfg: &ServeConfig, totals: &mut LiveStats) -> Result<Verdict, String> {
    let paths: Vec<PathBuf> = (0..cfg.n).map(|i| flight_path(dir, i, false)).collect();
    let logs = Logs::read(&paths)?;
    logs.lines().for_each(|line| totals.tally(line.event));
    let mut trace = logs.merge()?.oracle_trace();
    let (mut newest, mut mws) = (Vec::with_capacity(cfg.n), Vec::with_capacity(cfg.n));
    for i in 0..cfg.n {
        let me = ProcessId::new(i);
        let disk = DurableStore::open(store_dir(dir, i), me)
            .map_err(|e| format!("opening store of p{i}: {e}"))?;
        let indices = disk
            .indices()
            .map_err(|e| format!("listing store of p{i}: {e}"))?;
        newest.push(indices.last().map_or(0, |c| c.value()));
        let (store, _report) = disk
            .rebuild_reported()
            .map_err(|e| format!("rebuilding p{i}: {e}"))?;
        if store.is_empty() {
            return Err(format!("p{i} has no surviving checkpoint to recover from"));
        }
        mws.push(Middleware::from_store_with(
            me,
            cfg.n,
            cfg.protocol,
            cfg.gc,
            store,
            DiskSink::over(disk),
        ));
    }
    reconcile(&mut trace, &newest);
    judge(&trace, &mut mws)
}

// ---------------------------------------------------------------------------
// Parent side: process management
// ---------------------------------------------------------------------------

fn spawn_workers(cfg: &ServeConfig, ops: usize, resume: bool) -> Result<Vec<Child>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..cfg.n)
        .map(|rank| {
            let mut cmd = OsCommand::new(&exe);
            cmd.arg("__serve-worker")
                .arg("--rank")
                .arg(rank.to_string())
                .arg("--processes")
                .arg(cfg.n.to_string())
                .arg("--ops")
                .arg(ops.to_string())
                .arg("--seed")
                .arg(cfg.seed.to_string())
                .arg("--protocol")
                .arg(cfg.protocol.to_string())
                .arg("--gc")
                .arg(cfg.gc.to_string())
                .arg("--dir")
                .arg(&cfg.dir);
            if resume {
                cmd.arg("--resume");
            }
            cmd.spawn().map_err(|e| format!("spawning p{rank}: {e}"))
        })
        .collect()
}

/// Waits for every worker and fails on the first non-zero exit.
fn join_workers(children: Vec<Child>) -> Result<(), String> {
    let mut failure = None;
    for (rank, mut child) in children.into_iter().enumerate() {
        let status = child
            .wait()
            .map_err(|e| format!("waiting on p{rank}: {e}"))?;
        if !status.success() && failure.is_none() {
            failure = Some(format!("worker p{rank} exited with {status}"));
        }
    }
    failure.map_or(Ok(()), Err)
}

/// Polls until every worker's event log shows real traffic (so a SIGKILL
/// lands mid-flight, not before startup). Fails fast if a worker dies.
fn wait_for_traffic(cfg: &ServeConfig, children: &mut [Child]) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let all_busy = (0..cfg.n).all(|i| {
            std::fs::metadata(flight_path(&cfg.dir, i, false))
                .is_ok_and(|m| m.len() >= TRAFFIC_BYTES)
        });
        if all_busy {
            return Ok(());
        }
        for (rank, child) in children.iter_mut().enumerate() {
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("worker p{rank} died before the kill: {status}"));
            }
        }
        if Instant::now() >= deadline {
            return Err("workers produced no traffic within 20s".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Event-log bytes that show real traffic: some fifty events.
const TRAFFIC_BYTES: u64 = 8 << 10;

fn kill_workers(children: &mut [Child]) -> Result<(), String> {
    for (rank, child) in children.iter_mut().enumerate() {
        child.kill().map_err(|e| format!("killing p{rank}: {e}"))?; // SIGKILL
        child.wait().map_err(|e| format!("reaping p{rank}: {e}"))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Parent side: metrics aggregation
// ---------------------------------------------------------------------------

/// Parses every worker's `metrics_p<rank>.prom` textfile back into a
/// [`rdt_obs::ProfileReport`] and folds them into one snapshot: per-worker
/// series keep a `/p<rank>` suffix, and un-suffixed series carry the
/// cluster-wide totals.
fn merge_prom(dir: &Path, n: usize) -> Result<ProfileReport, String> {
    let mut merged = ProfileReport::new();
    for i in 0..n {
        let path = prom_path(dir, i);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let parsed = ProfileReport::from_prometheus(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        merged.merge_suffixed(&parsed, &format!("p{i}"));
    }
    Ok(merged)
}

/// Serves the live merged snapshot over plain HTTP/1.0 on `addr` from a
/// detached thread — each scrape re-reads and re-merges whatever `.prom`
/// dumps the workers have written so far. The thread dies with the
/// process; `serve` is the only caller, so no shutdown plumbing.
fn spawn_metrics_listener(
    addr: &str,
    dir: PathBuf,
    n: usize,
) -> Result<std::net::SocketAddr, String> {
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("--metrics-addr: {e}"))?;
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let mut head = [0u8; 1024];
            let _ = std::io::Read::read(&mut stream, &mut head);
            // A worker may be mid-rewrite of its dump; a scrape must not
            // kill the run, so merge errors become a comment body.
            let body = match merge_prom(&dir, n) {
                Ok(report) => report.to_prometheus(),
                Err(e) => format!("# merge pending: {e}\n"),
            };
            let response = format!(
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.write_all(response.as_bytes());
        }
    });
    Ok(local)
}

/// The `serve` subcommand.
pub fn serve(m: &ArgMatches) -> Result<(), String> {
    let user_dir = m.get_one::<String>("dir").is_some();
    let cfg = parse_config(m, || {
        std::env::temp_dir().join(format!("rdt-serve-{}", std::process::id()))
    })?;
    let chaos = m.get_flag("chaos");
    let json = m.get_flag("json");
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("run dir: {e}"))?;
    if let Some(addr) = m.get_one::<String>("metrics-addr") {
        let local = spawn_metrics_listener(addr, cfg.dir.clone(), cfg.n)?;
        eprintln!("serving merged metrics on http://{local}/metrics");
    }

    let outcome = run_serve(&cfg, chaos);
    // Final aggregation: fold every worker's textfile dump into one
    // scrape-able snapshot, kept in the run dir and optionally exported;
    // the run's summary is read off it.
    let metrics = merge_prom(&cfg.dir, cfg.n);
    if let Ok(merged) = &metrics {
        let _ = std::fs::write(cfg.dir.join("metrics_merged.prom"), merged.to_prometheus());
    }
    if !user_dir {
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }
    let (
        Verdict {
            online,
            offline,
            gc_violations,
            gc_missed,
        },
        totals,
    ) = outcome?;
    let metrics = metrics?;
    if let Some(path) = m.get_one::<String>("metrics-out") {
        std::fs::write(path, metrics.to_prometheus())
            .map_err(|e| format!("--metrics-out {path}: {e}"))?;
    }
    let max_retained = (0..cfg.n)
        .filter_map(|i| metrics.counters.get(&format!("checkpoints_retained/p{i}")))
        .copied()
        .max()
        .unwrap_or(0);
    let agree = online == offline;

    if json {
        let doc = JsonValue::obj()
            .field("processes", cfg.n)
            .field("transport", "unix-datagram")
            .field("chaos", chaos)
            .field("online_line", online.clone())
            .field("oracle_line", offline.clone())
            .field("lines_agree", agree)
            .field("gc_violations", gc_violations.len())
            .field(
                "gc_missed",
                gc_missed.map_or(JsonValue::Null, JsonValue::from),
            )
            .field("sent", totals.sent)
            .field("delivered", totals.delivered)
            .field("basic_checkpoints", totals.basic)
            .field("forced_checkpoints", totals.forced)
            .field("collected", totals.eliminated)
            .field("max_retained", max_retained)
            .build();
        println!("{}", doc.pretty());
    } else {
        println!(
            "served {} real processes over unix-datagram loopback ({} {})",
            cfg.n, cfg.protocol, cfg.gc
        );
        if totals.sent + totals.delivered > 0 {
            println!(
                "traffic: {} sent, {} delivered; checkpoints: {} basic + {} forced, {} collected live (max retained {max_retained})",
                totals.sent, totals.delivered, totals.basic, totals.forced, totals.eliminated,
            );
        }
        if chaos {
            println!("chaos: SIGKILL mid-flight, restart from disk, resumed to a clean exit");
        }
        println!("online recovery line {online:?}");
        println!("oracle recovery line {offline:?}");
        println!(
            "Theorem 4 audit of the logged collects: {} violations",
            gc_violations.len()
        );
        if let Some(missed) = gc_missed {
            println!("Theorem 5 at the end: {missed} retained checkpoints with no witness");
        }
    }
    if !agree {
        return Err(format!(
            "online recovery line {online:?} disagrees with the offline oracle {offline:?}"
        ));
    }
    if !gc_violations.is_empty() {
        return Err(format!(
            "collected checkpoints that were not obsolete: {gc_violations:?}"
        ));
    }
    match gc_missed {
        Some(missed) if missed > 0 && matches!(cfg.gc, GcKind::RdtLgc) => Err(format!(
            "RDT-LGC retained {missed} checkpoints no process witnesses"
        )),
        _ => Ok(()),
    }
}

/// Runs the workers (one chaos cycle when asked) and returns the verdict
/// on the kill point (chaos) or the final state (clean run), with the
/// events of every segment's logs tallied.
fn run_serve(cfg: &ServeConfig, chaos: bool) -> Result<(Verdict, LiveStats), String> {
    let mut totals = LiveStats::default();
    if chaos {
        // Endless workload; the kill decides the cut.
        let mut children = spawn_workers(cfg, 0, false)?;
        if let Err(e) = wait_for_traffic(cfg, &mut children) {
            let _ = kill_workers(&mut children);
            return Err(e);
        }
        kill_workers(&mut children)?;
        let verdict = check_lines(&cfg.dir, cfg, &mut totals)?;
        // Restart the real processes from the recovered disks: rollback
        // (second WAL round), fresh traffic, clean exit.
        let resumed = spawn_workers(cfg, cfg.ops.max(20), true)?;
        join_workers(resumed)?;
        let paths: Vec<PathBuf> = (0..cfg.n).map(|i| flight_path(&cfg.dir, i, true)).collect();
        Logs::read(&paths)?
            .lines()
            .for_each(|line| totals.tally(line.event));
        let verdict = Verdict {
            gc_missed: None,
            ..verdict
        };
        Ok((verdict, totals))
    } else {
        let children = spawn_workers(cfg, cfg.ops, false)?;
        join_workers(children)?;
        let verdict = check_lines(&cfg.dir, cfg, &mut totals)?;
        Ok((verdict, totals))
    }
}

/// Argument set shared by `serve` and the hidden worker.
fn common_args(cmd: clap::Command) -> clap::Command {
    let arg = |name: &'static str, help: &'static str, default: &'static str| {
        clap::Arg::new(name)
            .long(name)
            .help(help)
            .default_value(default)
            .value_name(name)
    };
    cmd.arg(arg("processes", "number of OS processes", "3").short('n'))
        .arg(arg("ops", "workload operations per process", "200"))
        .arg(arg("seed", "workload seed", "0").short('S'))
        .arg(arg("protocol", "checkpointing protocol", "fdas").short('P'))
        .arg(arg(
            "gc",
            "garbage collector (rdt-lgc, none, simple, wang, time:<horizon>)",
            "rdt-lgc",
        ))
        .arg(
            clap::Arg::new("dir")
                .long("dir")
                .help("run directory for sockets, stores and logs (default: a temp dir)")
                .value_name("path"),
        )
}

/// Builds the `serve` subcommand.
pub fn serve_args(cmd: clap::Command) -> clap::Command {
    common_args(cmd)
        .arg(
            clap::Arg::new("chaos")
                .long("chaos")
                .help("one kill-9 + restart cycle: SIGKILL all workers mid-flight, verify the online recovery line against the offline ccp oracle, resume to a clean exit")
                .action(clap::ArgAction::SetTrue),
        )
        .arg(
            clap::Arg::new("json")
                .long("json")
                .help("emit machine-readable JSON instead of text")
                .action(clap::ArgAction::SetTrue),
        )
        .arg(
            clap::Arg::new("metrics-out")
                .long("metrics-out")
                .help("write the merged cluster-wide Prometheus snapshot to this file")
                .value_name("path"),
        )
        .arg(
            clap::Arg::new("metrics-addr")
                .long("metrics-addr")
                .help("serve the live merged snapshot over HTTP on this address (e.g. 127.0.0.1:9464)")
                .value_name("addr"),
        )
}

/// Builds the hidden `__serve-worker` subcommand.
pub fn worker_args(cmd: clap::Command) -> clap::Command {
    common_args(cmd)
        .arg(
            clap::Arg::new("rank")
                .long("rank")
                .help("this worker's process id")
                .required(true)
                .value_name("rank"),
        )
        .arg(
            clap::Arg::new("resume")
                .long("resume")
                .help("restart from the surviving durable store instead of a fresh system")
                .action(clap::ArgAction::SetTrue),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::tests::{checkpoint, merge, send};
    use rdt_ccp::CcpBuilder;
    use rdt_recovery::FaultySet;
    use std::io::Read as _;

    #[test]
    fn the_metrics_listener_serves_the_merged_dumps() {
        let dir = std::env::temp_dir().join(format!("rdt_serve_listener_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (rank, sent) in [(0, 3), (1, 4)] {
            let mut dump = ProfileReport::new();
            dump.add("frames_sent", sent);
            dump.phase_mut("live/encode").record(100 * sent);
            std::fs::write(prom_path(&dir, rank), dump.to_prometheus()).unwrap();
        }
        let addr = spawn_metrics_listener("127.0.0.1:0", dir.clone(), 2).unwrap();
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();

        let (head, body) = response.split_once("\r\n\r\n").expect("a header block");
        assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
        let expected = merge_prom(&dir, 2).unwrap().to_prometheus();
        assert_eq!(body, expected);
        assert!(
            body.contains("rdt_counter_total{name=\"frames_sent\"} 7"),
            "{body}"
        );
        let length = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("a Content-Length header");
        assert_eq!(length.parse::<usize>().unwrap(), body.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_the_disk_holds_beyond_the_log_closes_the_process_tail() {
        // p0 logged s^1 and a send, and its disk holds s^2 too: a kill cut
        // the op short between the commit and the log. p1's disk holds
        // what its log says.
        let logs = [
            ("p0", vec![checkpoint(0, false), send(0, 1, 0, 0, 2)]),
            ("p1", vec![checkpoint(1, false)]),
        ];
        let logged = merge(&logs).unwrap().oracle_trace();
        let mut trace = logged.clone();
        reconcile(&mut trace, &[2, 1]);
        let p0 = ProcessId::new(0);
        assert_eq!(trace[..logged.len()], logged[..]);
        assert_eq!(
            trace[logged.len()..],
            [TraceEvent::Checkpoint {
                process: p0,
                forced: false
            }]
        );
        // The oracle's all-faulty line now ends at the checkpoint on disk.
        let faulty: FaultySet = ProcessId::all(2).collect();
        let line = CcpBuilder::from_trace(2, &trace)
            .unwrap()
            .build()
            .recovery_line(&faulty);
        assert_eq!(line.to_raw(), [2, 1]);
    }
}
