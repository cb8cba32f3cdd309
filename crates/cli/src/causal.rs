//! `rdt causal` — merge per-process event logs into one
//! happened-before order.
//!
//! Each worker of an `rdt serve` run (or any process with the event log
//! installed) leaves a log of the trace lines of what it did. This command
//! reads them through the one merger ([`rdt_cli::merge`], the same reader
//! `rdt serve`'s oracle check uses) and prints the merged order in the
//! same line shape ([`rdt_sim::TraceLine`]): every delivery after its
//! send, the learned dependency-vector lineage checked against what the
//! sender said on the wire, and `"synthetic":true` on a send stood in for
//! because its sender's log was not an input.

use rdt_cli::merge::Logs;

/// Entry point for the `causal` subcommand.
pub fn causal(m: &clap::ArgMatches) -> Result<(), String> {
    let mut inputs: Vec<std::path::PathBuf> = m
        .get_many::<String>("inputs")
        .map(|vals| vals.map(std::path::PathBuf::from).collect())
        .unwrap_or_default();
    if let Some(dir) = m.get_one::<String>("dir") {
        inputs.extend(harvest(std::path::Path::new(dir))?);
    }
    if inputs.is_empty() {
        return Err("no inputs: pass log files or --dir <serve dir>".into());
    }

    let merged = Logs::read(&inputs)?.merge()?;
    let mut doc = String::new();
    for line in &merged.order {
        line.render(&mut doc);
        doc.push('\n');
    }
    match m.get_one::<String>("out") {
        Some(path) => std::fs::write(path, &doc).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{doc}"),
    }
    eprintln!(
        "causal: {} events from {} processes merged ({} synthetic sends)",
        merged.order.len(),
        merged.processes,
        merged.synthetic
    );
    Ok(())
}

/// Collects `flight_p*.jsonl` logs under `dir`, sorted by name.
fn harvest(dir: &std::path::Path) -> Result<Vec<std::path::PathBuf>, String> {
    let mut found = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("flight_p") && name.ends_with(".jsonl") {
            found.push(entry.path());
        }
    }
    if found.is_empty() {
        return Err(format!("{}: no flight_p*.jsonl logs found", dir.display()));
    }
    found.sort();
    Ok(found)
}

#[cfg(test)]
pub(crate) mod tests {
    use rdt_base::{
        CheckpointIndex, DvEntry, Incarnation, IntervalIndex, MessageId, ProcessId, TraceEvent,
    };
    use rdt_cli::merge::Merged;
    use rdt_sim::TraceLine;

    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn m(sender: usize, seq: u64) -> MessageId {
        MessageId::new(p(sender), seq)
    }

    /// One event-log line: `event` at `process`, with a lineage
    /// `(incarnation, interval)` if given.
    fn line(process: usize, event: TraceEvent, lineage: Option<(u32, usize)>) -> String {
        let mut out = String::new();
        TraceLine {
            lineage: lineage.map(|(inc, interval)| {
                DvEntry::new(Incarnation::new(inc), IntervalIndex::new(interval))
            }),
            ..TraceLine::new(Some(p(process)), event)
        }
        .render(&mut out);
        out
    }

    pub(crate) fn checkpoint(process: usize, forced: bool) -> String {
        let event = TraceEvent::Checkpoint {
            process: p(process),
            forced,
        };
        line(process, event, None)
    }

    pub(crate) fn send(process: usize, to: usize, seq: u64, inc: u32, interval: usize) -> String {
        let event = TraceEvent::Send {
            id: m(process, seq),
            to: p(to),
        };
        line(process, event, Some((inc, interval)))
    }

    fn deliver(process: usize, from: usize, seq: u64, inc: u32, interval: usize) -> String {
        let event = TraceEvent::Deliver { id: m(from, seq) };
        line(process, event, Some((inc, interval)))
    }

    fn collect(process: usize, index: usize) -> String {
        let event = TraceEvent::Collect {
            process: p(process),
            index: CheckpointIndex::new(index),
        };
        line(process, event, None)
    }

    pub(crate) fn merge(logs: &[(&str, Vec<String>)]) -> Result<Merged, String> {
        let mut parsed = Logs::default();
        for (file, lines) in logs {
            parsed.add(file, &(lines.join("\n") + "\n"))?;
        }
        parsed.merge()
    }

    fn kinds(merged: &Merged) -> Vec<String> {
        let kind = |line: &TraceLine| match line.event {
            TraceEvent::Send { id, .. } if line.synthetic => format!("synthetic send {}", id.seq),
            TraceEvent::Send { id, .. } => format!("send {}", id.seq),
            TraceEvent::Deliver { id } => format!("deliver {}", id.seq),
            other => other.to_string(),
        };
        merged.order.iter().map(kind).collect()
    }

    /// The merged order as `rdt causal` prints it, checked against the
    /// trace schema, and read back: the output is itself a log the merge
    /// reads, to the same order.
    fn printed(merged: &Merged) -> String {
        let mut doc = String::new();
        for line in &merged.order {
            line.render(&mut doc);
            rdt_cli::check::check_line(doc.lines().last().unwrap()).unwrap();
            doc.push('\n');
        }
        let again = merge(&[("out", doc.lines().map(str::to_string).collect())]).unwrap();
        assert_eq!(again.order, merged.order);
        doc
    }

    #[test]
    fn merges_recv_after_its_send() {
        // p1's log lists its delivery first; the merge must still place
        // p0's send before it.
        let merged = merge(&[
            ("p1", vec![deliver(1, 0, 0, 0, 1)]),
            ("p0", vec![send(0, 1, 0, 0, 1)]),
        ])
        .unwrap();
        assert_eq!(kinds(&merged), ["send 0", "deliver 0"]);
        assert_eq!(merged.synthetic, 0);
        printed(&merged);
    }

    #[test]
    fn a_forced_checkpoint_waits_with_the_delivery_that_forced_it() {
        // p0's receive stored a forced checkpoint before delivering p1's
        // frame: both come after the send, so a collect judged in between
        // sees the cut the receiver was in.
        let merged = merge(&[
            ("p0", vec![checkpoint(0, true), deliver(0, 1, 0, 0, 1)]),
            ("p1", vec![send(1, 0, 0, 0, 1), collect(1, 0)]),
        ])
        .unwrap();
        assert_eq!(
            kinds(&merged),
            ["send 0", "collect p2 s^0", "ckpt p1 (forced)", "deliver 0"]
        );
    }

    #[test]
    fn synthesizes_a_send_only_for_an_origin_absent_from_the_inputs() {
        // p2 is not an input: its frame gets a stand-in, right before the
        // first event that needs it; p0's frame has its real send.
        let merged = merge(&[
            ("p0", vec![send(0, 1, 0, 0, 3)]),
            ("p1", vec![deliver(1, 2, 4, 0, 1), deliver(1, 0, 0, 0, 3)]),
        ])
        .unwrap();
        assert_eq!(merged.synthetic, 1);
        assert_eq!(
            kinds(&merged),
            ["send 0", "synthetic send 4", "deliver 4", "deliver 0"]
        );
        let doc = printed(&merged);
        assert_eq!(
            doc.lines().nth(1),
            Some(r#"{"type":"event","kind":"send","process":2,"seq":4,"to":1,"synthetic":true}"#)
        );
    }

    #[test]
    fn rejects_an_apply_whose_present_origin_logged_no_send() {
        // p0's log is an input and holds only its send 0: there is no
        // window a send 1 could hide outside of.
        let err = merge(&[
            ("p0", vec![send(0, 1, 0, 0, 1)]),
            ("p1", vec![deliver(1, 0, 1, 0, 2)]),
        ])
        .unwrap_err();
        assert!(err.contains("has no send in process 0's log"), "{err}");
    }

    #[test]
    fn drops_the_torn_tail_a_kill_leaves() {
        // A kill mid-write leaves part of one line and no newline: dropped.
        let whole = send(0, 1, 1, 0, 1);
        let torn = format!("{}\n{}", send(0, 1, 0, 0, 1), &whole[..whole.len() / 2]);
        let mut logs = Logs::default();
        logs.add("p0", &torn).unwrap();
        assert_eq!(kinds(&logs.merge().unwrap()), ["send 0"]);
        // A whole line that ends the log is kept.
        let mut logs = Logs::default();
        logs.add("p0", &format!("{}\n{whole}", send(0, 1, 0, 0, 1)))
            .unwrap();
        assert_eq!(kinds(&logs.merge().unwrap()), ["send 0", "send 1"]);
    }

    #[test]
    fn rejects_garbage_anywhere_but_the_tail() {
        // The torn bytes followed by a newline — or by more lines — are no
        // kill's tail.
        let whole = send(0, 1, 1, 0, 1);
        let torn = &whole[..whole.len() / 2];
        let first = send(0, 1, 0, 0, 1);
        for body in [
            format!("{first}\n{torn}\n"),
            format!("{first}\n{torn}\n{whole}\n"),
        ] {
            let err = Logs::default().add("p0", &body).unwrap_err();
            assert!(err.starts_with("p0:2: "), "{err}");
        }
        // A line of the right shape missing a field is garbage too.
        let err = Logs::default()
            .add(
                "p0",
                &(deliver(0, 1, 0, 0, 1).replace(",\"seq\":0", "") + "\n"),
            )
            .unwrap_err();
        assert!(err.contains("missing integer field \"seq\""), "{err}");
    }

    #[test]
    fn rejects_a_gap_in_a_process_sends_and_a_process_in_two_files() {
        let err = merge(&[("p0", vec![send(0, 1, 0, 0, 1), send(0, 1, 2, 0, 1)])]).unwrap_err();
        assert!(err.contains("send seq 2 where 1 is next"), "{err}");
        let err = merge(&[
            ("a", vec![checkpoint(0, false)]),
            ("b", vec![checkpoint(0, false)]),
        ])
        .unwrap_err();
        assert!(err.contains("process 0 appears in both a and b"), "{err}");
    }

    #[test]
    fn rejects_a_causal_cycle() {
        // Each process applies the other's frame before sending its own.
        let err = merge(&[
            ("p0", vec![deliver(0, 1, 0, 0, 1), send(0, 1, 0, 0, 1)]),
            ("p1", vec![deliver(1, 0, 0, 0, 1), send(1, 0, 0, 0, 1)]),
        ])
        .unwrap_err();
        assert!(err.contains("causal cycle"), "{err}");
    }

    #[test]
    fn rejects_an_apply_that_unlearned_the_senders_lineage() {
        let err = merge(&[
            ("p0", vec![send(0, 1, 0, 1, 4)]),
            ("p1", vec![deliver(1, 0, 0, 1, 3)]),
        ])
        .unwrap_err();
        assert!(err.contains("older than the send"), "{err}");
    }

    #[test]
    fn skips_foreign_lines_and_drops() {
        // A trace's header, a profile's span line and a drop (which the
        // merge re-derives) are not a process's events; the checkpoints,
        // sends and collects are, and all of them are kept.
        let foreign = [
            r#"{"type":"run","n":2,"steps":5,"seed":1,"shards":1,"protocol":"fdas","gc":"rdt"}"#,
            r#"{"type":"span","phase":"engine/drain","count":1,"total_ns":9}"#,
            r#"{"type":"event","kind":"drop","from":0,"seq":0}"#,
        ];
        let mut lines: Vec<String> = foreign.iter().map(|l| l.to_string()).collect();
        lines.extend([checkpoint(0, false), send(0, 1, 0, 0, 2), collect(0, 0)]);
        let merged = merge(&[("p0", lines)]).unwrap();
        assert_eq!(
            kinds(&merged),
            ["ckpt p1", "send 0", "collect p1 s^0"],
            "{:?}",
            merged.order
        );
    }

    #[test]
    fn a_forced_apply_checkpoints_before_its_deliver_and_a_cas_send_after_its_send() {
        // p0 sends under CAS (its post-send checkpoint), p1 is forced on
        // receipt; then p1 applies the frame again, and sends one p0
        // never applies, which ends as a drop.
        let merged = merge(&[
            ("p0", vec![send(0, 1, 0, 0, 1), checkpoint(0, true)]),
            (
                "p1",
                vec![
                    checkpoint(1, true),
                    deliver(1, 0, 0, 0, 1),
                    collect(1, 0),
                    deliver(1, 0, 0, 0, 1),
                    send(1, 0, 0, 0, 2),
                ],
            ),
        ])
        .unwrap();
        let ckpt = |i: usize| TraceEvent::Checkpoint {
            process: p(i),
            forced: true,
        };
        assert_eq!(
            merged.oracle_trace(),
            [
                TraceEvent::Send {
                    id: m(0, 0),
                    to: p(1)
                },
                ckpt(0),
                ckpt(1),
                TraceEvent::Deliver { id: m(0, 0) },
                TraceEvent::Collect {
                    process: p(1),
                    index: CheckpointIndex::ZERO
                },
                TraceEvent::Send {
                    id: m(1, 0),
                    to: p(0)
                },
                TraceEvent::Drop { id: m(1, 0) },
            ]
        );
    }

    #[test]
    fn the_audit_flags_a_log_that_collects_a_peer_pinned_checkpoint() {
        // p1 checkpoints s_1^1 and messages p0, who checkpoints s_0^1: s_0^0
        // is pinned by p1's knowledge, so collecting it is a violation.
        // Without the message it is not pinned, and the same collect is safe.
        let audit = |p1: Vec<String>, p0_first: Option<String>| {
            let mut p0: Vec<String> = p0_first.into_iter().collect();
            p0.extend([checkpoint(0, false), collect(0, 0)]);
            let trace = merge(&[("p0", p0), ("p1", p1)]).unwrap().oracle_trace();
            rdt_ccp::collection_safety_violations(2, &trace).unwrap()
        };
        let pinned = audit(
            vec![checkpoint(1, false), send(1, 0, 0, 0, 1)],
            Some(deliver(0, 1, 0, 0, 1)),
        );
        assert_eq!(
            pinned,
            [rdt_base::CheckpointId::new(p(0), CheckpointIndex::ZERO)]
        );
        assert!(audit(vec![checkpoint(1, false)], None).is_empty());
    }
}
