//! The shipping loop of a live process, stepped deterministically: n
//! `LiveWorker`s — the loop each `rdt serve` process runs — over an
//! in-process channel mesh, one seeded draw choosing which of them steps
//! next, their one event log merged and judged by the verdict `rdt serve`
//! passes on real processes. Under every protocol, RDT-LGC must show no
//! unsafe collect (Theorem 4), no retained checkpoint without a witness
//! (Theorem 5), the online recovery line equal to the offline oracle's
//! with every process faulty, and at most n retained checkpoints a process
//! (n + 1 at the peak). A seed's log is the same bytes every time, and a
//! time-based collector is caught. After every run, each worker's
//! `LiveStats` are the counts of its own lines in the log, and no channel
//! dropped a frame.
//!
//! Own integration binary (own process): the event log is process-global.

use std::sync::Mutex;
use std::time::Duration;

use proptest::prelude::*;
use rdt_base::ProcessId;
use rdt_cli::merge::Logs;
use rdt_cli::verdict::{judge, Verdict};
use rdt_core::GcKind;
use rdt_env::{ChannelTransport, DetRng, Rng as _};
use rdt_protocols::{Middleware, ProtocolKind};
use rdt_sim::{LiveNode, LiveStats, LiveWorker, TraceLine};

/// One run at a time: the event log is the process's.
static LOG: Mutex<()> = Mutex::new(());

/// Steps `n` workers `steps` times in an order drawn from `seed`, then
/// delivers what is in flight. Returns the run's event log and processes.
fn run(
    n: usize,
    protocol: ProtocolKind,
    gc: GcKind,
    seed: u64,
    steps: usize,
) -> (String, Vec<Middleware>) {
    let _log = LOG.lock().unwrap_or_else(|e| e.into_inner());
    let mesh = ChannelTransport::mesh(n, Duration::ZERO);
    let mut workers: Vec<LiveWorker<ChannelTransport>> = mesh
        .into_iter()
        .enumerate()
        .map(|(i, t)| LiveWorker::new(LiveNode::new(ProcessId::new(i), n, protocol, gc), t, seed))
        .collect();
    let mut order = DetRng::seeded(seed ^ 0x006f_7264_6572);
    let mut ticks = vec![0; n];
    let path = std::env::temp_dir().join(format!("rdt_worker_oracle_{}.jsonl", std::process::id()));
    rdt_obs::flight::install(&path, 0);
    for _ in 0..steps {
        let i = order.between(0, n as u64 - 1) as usize;
        ticks[i] += 1;
        workers[i].step(ticks[i]).unwrap();
    }
    // A delivery sends nothing: one round empties every inbox.
    for worker in &mut workers {
        worker.pump().unwrap();
    }
    rdt_obs::flight::uninstall();
    assert!(rdt_obs::flight::take_error().is_none());
    let log = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let logged = counted(&log, n);
    for (i, worker) in workers.iter().enumerate() {
        assert_eq!(worker.stats(), logged[i], "p{i}: stats against its lines");
        assert_eq!(worker.transport().dropped(), 0, "p{i} dropped a frame");
    }
    let mws = workers
        .into_iter()
        .map(|w| w.into_node().into_middleware())
        .collect();
    (log, mws)
}

/// Each process's own lines of `log`, counted as [`LiveStats`].
fn counted(log: &str, n: usize) -> Vec<LiveStats> {
    let mut stats = vec![LiveStats::default(); n];
    for line in log.lines() {
        let line = TraceLine::parse(line).unwrap().expect("an event line");
        if let Some(p) = line.process {
            stats[p.index()].tally(line.event);
        }
    }
    stats
}

/// The verdict on a run: its log merged, judged against its processes.
fn verdict(log: &str, mws: &mut [Middleware]) -> Verdict {
    let mut logs = Logs::default();
    logs.add("log", log).unwrap();
    judge(&logs.merge().unwrap().oracle_trace(), mws).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rdt_lgc_holds_under_every_schedule_of_the_shipping_loop(
        n in 3usize..=6,
        protocol in 0usize..8,
        seed in 0u64..u64::MAX,
        steps in 50usize..=400,
    ) {
        let protocol = ProtocolKind::ALL[protocol];
        let (log, mut mws) = run(n, protocol, GcKind::RdtLgc, seed, steps);
        for mw in &mws {
            let store = mw.store();
            prop_assert!(store.len() <= n && store.peak() <= n + 1, "{}: {} (peak {})", mw.owner(), store.len(), store.peak());
        }
        let v = verdict(&log, &mut mws);
        prop_assert!(v.gc_violations.is_empty(), "{:?}", v.gc_violations);
        prop_assert_eq!(v.gc_missed, Some(0));
        prop_assert_eq!(&v.online, &v.offline);
        prop_assert_eq!(run(n, protocol, GcKind::RdtLgc, seed, steps).0, log, "the same seed, another log");
    }
}

#[test]
fn a_time_based_collector_fails_the_verdict() {
    let (log, mut mws) = run(
        3,
        ProtocolKind::Fdas,
        GcKind::TimeBased { horizon: 3 },
        42,
        120,
    );
    let v = verdict(&log, &mut mws);
    assert!(!v.gc_violations.is_empty(), "{v:?}");
}
