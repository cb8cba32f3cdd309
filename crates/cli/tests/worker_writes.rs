//! A live worker puts a frame on the wire only after every write of its
//! step succeeded. A CAS worker over a durable store whose backend crashes
//! after `k` operations, for every `k` a short run reaches, must fail the
//! step of the failed commit — a delivery's collect, a checkpoint, a
//! send's forced checkpoint — and its peer must find nothing to deliver;
//! so must a worker whose event log is a full device. And the hidden
//! worker subcommand refuses a rank its system does not have before it
//! binds anything.
//!
//! Own integration binary (own process): the event log is process-global.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use rdt_base::ProcessId;
use rdt_core::GcKind;
use rdt_env::{ChannelTransport, Transport as _};
use rdt_protocols::{Middleware, ProtocolKind};
use rdt_sim::{LiveNode, LiveWorker};
use rdt_storage::{DiskSink, DurableStore, FaultFs, FaultPlan};

const SEED: u64 = 11;
const STEPS: u64 = 40;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdt_worker_writes_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two CAS processes over a channel mesh: p0 on a durable store in `dir`
/// behind `fs`, p1 volatile.
fn system(
    dir: &Path,
    fs: &FaultFs,
) -> (
    LiveWorker<ChannelTransport, DiskSink>,
    LiveWorker<ChannelTransport>,
) {
    let mut mesh = ChannelTransport::mesh(2, Duration::ZERO);
    let (t1, t0) = (mesh.pop().unwrap(), mesh.pop().unwrap());
    let disk = DurableStore::open_with(dir, p(0), Box::new(fs.clone())).unwrap();
    let (cas, lgc) = (ProtocolKind::Cas, GcKind::RdtLgc);
    let mw = Middleware::with_storage(p(0), 2, cas, lgc, DiskSink::over(disk));
    let peer = LiveNode::new(p(1), 2, cas, lgc);
    (
        LiveWorker::new(LiveNode::over(mw), t0, SEED),
        LiveWorker::new(peer, t1, SEED),
    )
}

/// What one step of p0 did in a fault-free run: backend operations done
/// by its end, and frames it delivered and sent.
#[derive(Debug, Clone, Copy)]
struct Step {
    ops_after: u64,
    delivered: u64,
    sent: u64,
}

/// Steps p1 and then p0, round after round, until p0 fails or `STEPS`
/// rounds pass; after each step of p0, p1 delivers what arrived. Once the
/// backend has crashed, p0's step must have failed and nothing may have
/// arrived. Returns p0's steps, or the index of the one that failed.
fn drive(dir: &Path, fs: &FaultFs) -> Result<Vec<Step>, usize> {
    let (mut w0, mut w1) = system(dir, fs);
    let mut steps = Vec::new();
    for now in 1..=STEPS {
        w1.step(now).unwrap();
        let before = w0.stats();
        let outcome = w0.step(now);
        let delivered = w1.stats().delivered;
        w1.pump().unwrap();
        let arrived = w1.stats().delivered - delivered;
        if fs.has_crashed() {
            assert!(outcome.is_err(), "round {now}: a failed commit passed");
            assert_eq!(
                arrived, 0,
                "round {now}: a frame left after a failed commit"
            );
            return Err(steps.len());
        }
        outcome.unwrap();
        let after = w0.stats();
        assert_eq!(arrived, after.sent - before.sent, "round {now}");
        steps.push(Step {
            ops_after: fs.ops_executed(),
            delivered: after.delivered - before.delivered,
            sent: after.sent - before.sent,
        });
    }
    Ok(steps)
}

#[test]
fn a_step_transmits_only_after_every_write_succeeded() {
    // The fault-free run: what every backend operation belongs to.
    let dir = scratch("reference");
    let reference = drive(&dir, &FaultFs::new(FaultPlan::none())).unwrap();
    let total = reference.last().unwrap().ops_after;
    let (mut failed_steps, mut sending, mut delivering) = (0, 0, 0);
    for k in 0..total {
        let dir = scratch("sweep");
        let fs = FaultFs::new(FaultPlan::crash_after(k));
        // A failed commit of s^0 is reported by the first step.
        let round = drive(&dir, &fs).expect_err("a step failed");
        assert_eq!(
            round,
            reference.iter().take_while(|s| s.ops_after <= k).count(),
            "k = {k}"
        );
        failed_steps += 1;
        if let Some(step) = reference.get(round) {
            sending += u64::from(step.sent > 0);
            delivering += u64::from(step.delivered > 0);
        }
    }
    // Not vacuous: crashes hit steps that sent, and steps that delivered.
    assert_eq!(failed_steps, total);
    assert!(sending > 0 && delivering > 0, "{sending} {delivering}");
    std::fs::remove_dir_all(scratch("sweep")).ok();
    std::fs::remove_dir_all(dir).ok();

    // An event log that cannot be written: a step fails on the first line
    // it logs, whether of a delivery or of its own operation, and sends
    // nothing.
    for incoming in [true, false] {
        let dir = scratch("full");
        let mut mesh = ChannelTransport::mesh(2, Duration::ZERO);
        let (mut t1, t0) = (mesh.pop().unwrap(), mesh.pop().unwrap());
        if incoming {
            let mut peer = LiveNode::new(p(1), 2, ProtocolKind::Cas, GcKind::RdtLgc);
            t1.send(p(0), peer.send_frame(p(0)).0.encode()).unwrap();
        }
        let disk = DurableStore::open(&dir, p(0)).unwrap();
        let mw = Middleware::with_storage(
            p(0),
            2,
            ProtocolKind::Cas,
            GcKind::RdtLgc,
            DiskSink::over(disk),
        );
        let mut w0 = LiveWorker::new(LiveNode::over(mw), t0, SEED);
        rdt_obs::flight::install("/dev/full", 0);
        let outcome = w0.step(1);
        rdt_obs::flight::uninstall();
        let e = outcome.expect_err("a step whose log write failed");
        assert!(e.to_string().contains("event log"), "{e}");
        assert_eq!(w0.stats().delivered, 0, "{e}");
        let mut buf = vec![0; rdt_env::transport::MAX_FRAME];
        assert_eq!(t1.recv(&mut buf).unwrap(), None, "a frame left unlogged");
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn a_worker_refuses_a_rank_outside_its_system() {
    let dir = scratch("rank");
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_rdt"))
        .args(["__serve-worker", "--rank", "3", "-n", "3", "--dir"])
        .arg(&dir)
        .output()
        .expect("spawning rdt");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success());
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("--rank 3"), "{stderr}");
    // Refused before it bound a socket or opened a log.
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    std::fs::remove_dir_all(dir).ok();
}
