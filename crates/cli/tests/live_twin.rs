//! An in-process twin of `rdt serve`'s chaos check: three to five
//! `LiveNode`s hand their frames to each other in memory — delivered out of
//! order, dropped, delivered twice — under every protocol, and their one
//! event log goes through the same merger and oracle mapping the serve
//! harness uses. Under every RDT protocol the merged log of each seeded
//! case must replay into a CCP whose all-faulty recovery line equals
//! `RecoveryManager`'s over the nodes themselves, pass the Theorem 4
//! audit, and name exactly the checkpoints the nodes eliminated; and
//! deleting any one of its send lines must fail the merge. Under all
//! eight protocols, a schedule that delivers no frame twice is also
//! recorded as a `Script`: each process's events in the merged log must
//! be that process's events in `run_script`'s trace — the live runtime
//! and the step core log one history.
//!
//! Own integration binary (own process): the event log is process-global.

use std::collections::BTreeSet;

use rdt_base::{ProcessId, TraceEvent};
use rdt_ccp::{collection_safety_violations, CcpBuilder};
use rdt_cli::merge::{Logs, Merged};
use rdt_core::GcKind;
use rdt_env::{DetRng, Rng as _};
use rdt_protocols::{Middleware, ProtocolKind};
use rdt_recovery::{FaultySet, RecoveryManager};
use rdt_sim::{run_script, LiveNode, TraceLine};
use rdt_workloads::Script;

/// What one case's schedule did, beyond what the nodes hold: the
/// schedule as a script (meaningful while no frame was delivered twice),
/// and what it dropped and duplicated.
#[derive(Debug, Default)]
struct Tally {
    script: Script,
    dropped: usize,
    duplicated: usize,
}

/// Drives `n` nodes through `steps` seeded operations (delivering applied
/// frames again if `duplicates`), then a closing round in which every node
/// sends one frame its successor applies — so each node's last send is
/// one a peer applied, and no send line can be removed without a trace (a
/// log cut right before an unapplied send is what a kill leaves, and as
/// valid). Frames still in flight are dropped.
fn drive(nodes: &mut [LiveNode], steps: usize, duplicates: bool, rng: &mut DetRng) -> Tally {
    let n = nodes.len();
    let p = ProcessId::new;
    let mut tally = Tally::default();
    // Frames sent and not yet delivered, and frames applied: receiver,
    // send ordinal in the script, bytes.
    let mut in_flight: Vec<(usize, usize, Vec<u8>)> = Vec::new();
    let mut applied: Vec<(usize, Vec<u8>)> = Vec::new();
    for _ in 0..steps {
        let at = rng.between(0, n as u64 - 1) as usize;
        match rng.between(0, 99) {
            0..=19 => {
                nodes[at].checkpoint().unwrap();
                tally.script.checkpoint(p(at));
            }
            20..=54 => {
                let to = (at + 1 + rng.between(0, n as u64 - 2) as usize) % n;
                let bytes = nodes[at].send_frame(p(to)).0.encode().to_vec();
                in_flight.push((to, tally.script.send(p(at), p(to)), bytes));
            }
            55..=84 if !in_flight.is_empty() => {
                let (to, ordinal, bytes) =
                    in_flight.swap_remove(rng.between(0, in_flight.len() as u64 - 1) as usize);
                deliver(nodes, to, &bytes);
                tally.script.deliver(ordinal);
                applied.push((to, bytes));
            }
            85..=91 if !in_flight.is_empty() => {
                in_flight.swap_remove(rng.between(0, in_flight.len() as u64 - 1) as usize);
                tally.dropped += 1;
            }
            92..=99 if duplicates && !applied.is_empty() => {
                let (to, bytes) = &applied[rng.between(0, applied.len() as u64 - 1) as usize];
                deliver(nodes, *to, bytes);
                tally.duplicated += 1;
            }
            _ => {}
        }
    }
    for at in 0..n {
        let to = (at + 1) % n;
        let bytes = nodes[at].send_frame(p(to)).0.encode().to_vec();
        deliver(nodes, to, &bytes);
        let ordinal = tally.script.send(p(at), p(to));
        tally.script.deliver(ordinal);
    }
    tally.dropped += in_flight.len();
    tally
}

/// Process `p`'s events, in its program order.
fn events_of(p: ProcessId, lines: impl Iterator<Item = TraceLine>) -> Vec<TraceEvent> {
    lines
        .filter(|line| line.process == Some(p))
        .map(|line| line.event)
        .collect()
}

/// Each process's events in the merged live log are its events in the
/// step core's trace of the same schedule.
fn assert_one_history(
    case: &str,
    n: usize,
    merged: &Merged,
    script: &Script,
    protocol: ProtocolKind,
) {
    let run = run_script(n, script, protocol, GcKind::RdtLgc).unwrap();
    for p in ProcessId::all(n) {
        assert_eq!(
            events_of(p, merged.order.iter().copied()),
            events_of(p, TraceLine::of_trace(&run.trace)),
            "{case}: {p}"
        );
    }
}

fn deliver(nodes: &mut [LiveNode], to: usize, bytes: &[u8]) {
    nodes[to]
        .deliver_frame(bytes)
        .unwrap()
        .expect("a frame of this system");
}

/// The checkpoints each process eliminated, by its logged collects.
fn logged_collects(n: usize, trace: &[TraceEvent]) -> Vec<BTreeSet<usize>> {
    let mut out = vec![BTreeSet::new(); n];
    for event in trace {
        if let TraceEvent::Collect { process, index } = event {
            assert!(
                out[process.index()].insert(index.value()),
                "{event} logged twice"
            );
        }
    }
    out
}

#[test]
fn merged_logs_of_live_nodes_replay_to_the_online_line_and_pass_the_audit() {
    let dir = std::env::temp_dir().join(format!("rdt_live_twin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("log.jsonl");
    let (mut cases, mut collects, mut forced, mut dropped, mut duplicated) = (0, 0, 0, 0, 0);
    let mut projected = BTreeSet::new();
    for protocol in ProtocolKind::ALL {
        for seed in 0..3u64 {
            let mut rng = DetRng::seeded(seed ^ 0x0077_696e);
            let n = 3 + (seed % 3) as usize;
            let steps = rng.between(100, 180) as usize;
            let case = format!("{protocol}, n = {n}, seed {seed}");
            rdt_obs::flight::install(&path, 0);
            let mut nodes: Vec<LiveNode> = (0..n)
                .map(|i| LiveNode::new(ProcessId::new(i), n, protocol, GcKind::RdtLgc))
                .collect();
            let tally = drive(&mut nodes, steps, seed > 0, &mut rng);
            rdt_obs::flight::uninstall().unwrap();
            assert!(rdt_obs::flight::take_error().is_none(), "{case}");
            let mws: Vec<Middleware> = nodes.into_iter().map(LiveNode::into_middleware).collect();

            let body = std::fs::read_to_string(&path).unwrap();
            let mut logs = Logs::default();
            logs.add("log", &body).unwrap();
            let merged = logs.merge().unwrap();
            assert_eq!((merged.processes, merged.synthetic), (n, 0), "{case}");
            if tally.duplicated == 0 {
                assert_one_history(&case, n, &merged, &tally.script, protocol);
                projected.insert(protocol.to_string());
            }
            if !protocol.ensures_rdt() {
                continue;
            }
            let trace = merged.oracle_trace();

            let faulty: FaultySet = ProcessId::all(n).collect();
            let offline = CcpBuilder::from_trace(n, &trace)
                .unwrap()
                .build()
                .recovery_line(&faulty)
                .to_raw();
            let online: Vec<usize> = RecoveryManager::new()
                .recovery_line(&mws, &faulty)
                .unwrap()
                .iter()
                .map(|c| c.value())
                .collect();
            assert_eq!(online, offline, "{case}: recovery lines");
            let violations = collection_safety_violations(n, &trace).unwrap();
            assert!(violations.is_empty(), "{case}: {violations:?}");

            for (mw, logged) in mws.iter().zip(logged_collects(n, &trace)) {
                let store = mw.store();
                let kept: BTreeSet<usize> = store.indices().map(|c| c.value()).collect();
                let last = store.last().unwrap().value();
                let eliminated: BTreeSet<usize> =
                    (0..=last).filter(|i| !kept.contains(i)).collect();
                assert_eq!(logged, eliminated, "{case}: {}", mw.owner());
                assert_eq!(
                    logged.len(),
                    store.total_collected(),
                    "{case}: {}",
                    mw.owner()
                );
                collects += logged.len();
                forced += mw.forced_count();
            }

            // Every send line is load-bearing: a gap in its process's
            // numbering, or a frame applied without its send.
            let lines: Vec<&str> = body.lines().collect();
            let sends: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].contains("\"kind\":\"send\""))
                .collect();
            assert!(!sends.is_empty());
            for &cut in &sends {
                let rest: String = lines
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != cut)
                    .map(|(_, l)| format!("{l}\n"))
                    .collect();
                let mut logs = Logs::default();
                let outcome = logs.add("log", &rest).and_then(|()| logs.merge().map(drop));
                assert!(
                    outcome.is_err(),
                    "{case}: merged without line {}: {}",
                    cut + 1,
                    lines[cut]
                );
            }
            cases += 1;
            dropped += tally.dropped;
            duplicated += tally.duplicated;
        }
    }
    // Not vacuous: every schedule kind happened, the collector worked, and
    // every protocol had a schedule to project.
    assert_eq!(cases, 18);
    assert!(collects > 0 && forced > 0 && dropped > 0 && duplicated > 0);
    assert_eq!(projected.len(), ProtocolKind::ALL.len(), "{projected:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
