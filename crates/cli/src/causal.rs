//! `rdt causal` — merge per-process event logs into one
//! happened-before-ordered causal trace.
//!
//! Each worker of an `rdt serve` run (or any process with the event log /
//! `RDT_LOG_JSONL` active) leaves a JSONL log of its `rdt_sim::live`
//! events. This command reads them through the one merger
//! ([`rdt_cli::merge`], the same reader `rdt serve`'s oracle check uses)
//! and prints the frame events of the merged order — `send`, `recv`,
//! `apply`, and a `synthetic_send` for each send whose origin's log was
//! not an input — as `{"type":"causal",…}` lines: every receive after its
//! send, the learned dependency-vector lineage checked against what the
//! sender said on the wire. Checkpoints and collects stay in the logs.

use rdt_cli::merge::{Kind, Logs, Merged};
use rdt_obs::json::JsonValue;

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
    let lines = causal_lines(&merged);
    let mut doc = String::new();
    for line in &lines {
        rdt_obs::check::check_jsonl_line(line)
            .map_err(|e| format!("internal: emitted invalid causal line: {e}"))?;
        doc.push_str(line);
        doc.push('\n');
    }
    match m.get_one::<String>("out") {
        Some(path) => std::fs::write(path, &doc).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{doc}"),
    }
    eprintln!(
        "causal: {} events from {} processes merged ({} synthetic sends)",
        lines.len(),
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

/// The frame events of the merged order as causal lines: `pos` counts the
/// lines, sends carry the entry they said, applies the one they learned
/// and their checkpoint effects.
fn causal_lines(merged: &Merged) -> Vec<String> {
    let frames = merged
        .order
        .iter()
        .filter(|r| matches!(r.kind, Kind::Send | Kind::Recv | Kind::Apply));
    frames
        .enumerate()
        .map(|(pos, r)| {
            let kind = if r.synthetic {
                "synthetic_send"
            } else {
                r.kind.as_str()
            };
            let mut obj = JsonValue::obj()
                .field("type", "causal")
                .field("pos", pos)
                .field("kind", kind)
                .field("process", r.process)
                .field("peer", r.peer)
                .field("seq", r.seq);
            if r.kind != Kind::Recv {
                obj = obj.field("inc", r.inc).field("interval", r.interval);
            }
            if r.kind == Kind::Apply {
                obj = obj
                    .field("forced", r.forced)
                    .field("eliminated", r.eliminated);
            }
            obj.build().to_string()
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use rdt_base::{CheckpointIndex, MessageId, ProcessId, TraceEvent};
    use rdt_obs::json;

    use super::*;

    /// One `LiveNode` log line: `event` with `fields`.
    fn line(event: &str, fields: Vec<(&str, JsonValue)>) -> String {
        let mut obj = vec![
            ("level".to_string(), JsonValue::Str("debug".into())),
            ("target".to_string(), JsonValue::Str("rdt_sim::live".into())),
            ("event".to_string(), JsonValue::Str(event.into())),
            ("msg".to_string(), JsonValue::Str(String::new())),
        ];
        obj.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        let mut out = String::new();
        JsonValue::Obj(obj).render(&mut out);
        out
    }

    pub(crate) fn checkpoint(process: u64, index: u64) -> String {
        line(
            "checkpoint",
            vec![
                ("process", JsonValue::UInt(process)),
                ("index", JsonValue::UInt(index)),
            ],
        )
    }

    pub(crate) fn send(
        process: u64,
        to: u64,
        seq: u64,
        inc: u64,
        interval: u64,
        forced: bool,
    ) -> String {
        line(
            "frame_send",
            vec![
                ("process", JsonValue::UInt(process)),
                ("to", JsonValue::UInt(to)),
                ("seq", JsonValue::UInt(seq)),
                ("inc", JsonValue::UInt(inc)),
                ("interval", JsonValue::UInt(interval)),
                ("forced", JsonValue::Bool(forced)),
            ],
        )
    }

    pub(crate) fn recv(process: u64, from: u64, seq: u64) -> String {
        line(
            "frame_recv",
            vec![
                ("process", JsonValue::UInt(process)),
                ("from", JsonValue::UInt(from)),
                ("seq", JsonValue::UInt(seq)),
            ],
        )
    }

    pub(crate) fn apply(
        process: u64,
        from: u64,
        seq: u64,
        inc: u64,
        interval: u64,
        forced: bool,
    ) -> String {
        line(
            "frame_apply",
            vec![
                ("process", JsonValue::UInt(process)),
                ("from", JsonValue::UInt(from)),
                ("seq", JsonValue::UInt(seq)),
                ("inc", JsonValue::UInt(inc)),
                ("interval", JsonValue::UInt(interval)),
                ("forced", JsonValue::Bool(forced)),
                ("eliminated", JsonValue::UInt(0)),
            ],
        )
    }

    pub(crate) fn collect(process: u64, indices: &[usize]) -> String {
        let list: Vec<String> = indices.iter().map(usize::to_string).collect();
        line(
            "gc_collect",
            vec![
                ("process", JsonValue::UInt(process)),
                ("eliminated", JsonValue::UInt(indices.len() as u64)),
                ("collected", JsonValue::Str(list.join(","))),
            ],
        )
    }

    pub(crate) fn merge(logs: &[(&str, Vec<String>)]) -> Result<Merged, String> {
        let mut parsed = Logs::default();
        for (file, lines) in logs {
            parsed.add(file, &(lines.join("\n") + "\n"))?;
        }
        parsed.merge()
    }

    fn kinds(merged: &Merged) -> Vec<String> {
        causal_lines(merged)
            .iter()
            .map(|l| {
                let v = json::parse(l).unwrap();
                let kind = v.get("kind").unwrap().as_str().unwrap();
                format!("{kind} {}", v.get("seq").unwrap().as_u64().unwrap())
            })
            .collect()
    }

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn m(sender: usize, seq: u64) -> MessageId {
        MessageId::new(p(sender), seq)
    }

    fn ckpt(i: usize, forced: bool) -> TraceEvent {
        TraceEvent::Checkpoint {
            process: p(i),
            forced,
        }
    }

    #[test]
    fn merges_recv_after_its_send() {
        // p1's log lists its recv first; the merge must still place p0's
        // send before it.
        let merged = merge(&[
            ("p1", vec![recv(1, 0, 0), apply(1, 0, 0, 0, 1, false)]),
            ("p0", vec![send(0, 1, 0, 0, 1, false)]),
        ])
        .unwrap();
        assert_eq!(kinds(&merged), ["send 0", "recv 0", "apply 0"]);
        assert_eq!(merged.synthetic, 0);
        for l in causal_lines(&merged) {
            rdt_obs::check::check_jsonl_line(&l).unwrap();
        }
    }

    #[test]
    fn synthesizes_a_send_only_for_an_origin_absent_from_the_inputs() {
        // p2 is not an input: its frame gets a stand-in, right before the
        // first event that needs it; p0's frame has its real send.
        let merged = merge(&[
            ("p0", vec![send(0, 1, 0, 0, 3, false)]),
            ("p1", vec![recv(1, 2, 4), recv(1, 0, 0)]),
        ])
        .unwrap();
        assert_eq!(merged.synthetic, 1);
        assert_eq!(
            kinds(&merged),
            ["send 0", "synthetic_send 4", "recv 4", "recv 0"]
        );
        for l in causal_lines(&merged) {
            rdt_obs::check::check_jsonl_line(&l).unwrap();
        }
    }

    #[test]
    fn rejects_an_apply_whose_present_origin_logged_no_send() {
        // p0's log is an input and holds only its send 0: there is no
        // window a send 1 could hide outside of.
        let err = merge(&[
            ("p0", vec![send(0, 1, 0, 0, 1, false)]),
            ("p1", vec![apply(1, 0, 1, 0, 2, false)]),
        ])
        .unwrap_err();
        assert!(err.contains("has no send in process 0's log"), "{err}");
    }

    #[test]
    fn drops_the_torn_tail_a_kill_leaves() {
        // A kill mid-write leaves part of one line and no newline: dropped.
        let whole = send(0, 1, 1, 0, 1, false);
        let torn = format!(
            "{}\n{}",
            send(0, 1, 0, 0, 1, false),
            &whole[..whole.len() / 2]
        );
        let mut logs = Logs::default();
        logs.add("p0", &torn).unwrap();
        assert_eq!(kinds(&logs.merge().unwrap()), ["send 0"]);
        // A whole line that ends the log is kept.
        let mut logs = Logs::default();
        logs.add("p0", &format!("{}\n{whole}", send(0, 1, 0, 0, 1, false)))
            .unwrap();
        assert_eq!(kinds(&logs.merge().unwrap()), ["send 0", "send 1"]);
    }

    #[test]
    fn rejects_garbage_anywhere_but_the_tail() {
        // The torn bytes followed by a newline — or by more lines — are no
        // kill's tail.
        let whole = send(0, 1, 1, 0, 1, false);
        let torn = &whole[..whole.len() / 2];
        let first = send(0, 1, 0, 0, 1, false);
        for body in [
            format!("{first}\n{torn}\n"),
            format!("{first}\n{torn}\n{whole}\n"),
        ] {
            let err = Logs::default().add("p0", &body).unwrap_err();
            assert!(err.starts_with("p0:2: "), "{err}");
        }
        // A line of the right shape missing a field is garbage too.
        let err = Logs::default()
            .add("p0", &(recv(0, 1, 0).replace(",\"seq\":0", "") + "\n"))
            .unwrap_err();
        assert!(err.contains("missing integer field \"seq\""), "{err}");
    }

    #[test]
    fn rejects_a_gap_in_a_process_sends_and_a_process_in_two_files() {
        let err = merge(&[(
            "p0",
            vec![send(0, 1, 0, 0, 1, false), send(0, 1, 2, 0, 1, false)],
        )])
        .unwrap_err();
        assert!(err.contains("send seq 2 where 1 is next"), "{err}");
        let err =
            merge(&[("a", vec![checkpoint(0, 1)]), ("b", vec![checkpoint(0, 2)])]).unwrap_err();
        assert!(err.contains("process 0 appears in both a and b"), "{err}");
    }

    #[test]
    fn rejects_a_causal_cycle() {
        // Each process applies the other's frame before sending its own.
        let err = merge(&[
            (
                "p0",
                vec![apply(0, 1, 0, 0, 1, false), send(0, 1, 0, 0, 1, false)],
            ),
            (
                "p1",
                vec![apply(1, 0, 0, 0, 1, false), send(1, 0, 0, 0, 1, false)],
            ),
        ])
        .unwrap_err();
        assert!(err.contains("causal cycle"), "{err}");
    }

    #[test]
    fn rejects_an_apply_that_unlearned_the_senders_lineage() {
        let err = merge(&[
            ("p0", vec![send(0, 1, 0, 1, 4, false)]),
            ("p1", vec![recv(1, 0, 0), apply(1, 0, 0, 1, 3, false)]),
        ])
        .unwrap_err();
        assert!(err.contains("older than the send"), "{err}");
    }

    #[test]
    fn skips_foreign_lines_and_gc_events() {
        // Simulator trace lines and other targets are not log events; the
        // checkpoints and collects are, for the oracle, but the causal
        // trace carries only frames.
        let foreign = [
            r#"{"type":"run","n":2,"steps":5,"seed":1,"shards":1,"protocol":"fdas","gc":"rdt"}"#,
            r#"{"level":"info","target":"rdt_sim::engine","event":"other","msg":""}"#,
        ];
        let mut lines: Vec<String> = foreign.iter().map(|l| l.to_string()).collect();
        lines.extend([
            checkpoint(0, 1),
            send(0, 1, 0, 0, 2, false),
            collect(0, &[0]),
        ]);
        let merged = merge(&[("p0", lines)]).unwrap();
        assert_eq!(merged.order.len(), 3);
        assert_eq!(kinds(&merged), ["send 0"]);
    }

    #[test]
    fn a_forced_apply_checkpoints_before_its_deliver_and_a_cas_send_after_its_send() {
        // p0 sends under CAS (its post-send checkpoint), p1 is forced on
        // receipt; then p1 applies the frame again, and sends one p0
        // never applies, which ends as a drop.
        let merged = merge(&[
            ("p0", vec![send(0, 1, 0, 0, 1, true)]),
            (
                "p1",
                vec![
                    apply(1, 0, 0, 0, 1, true),
                    collect(1, &[0]),
                    apply(1, 0, 0, 0, 1, false),
                    send(1, 0, 0, 0, 2, false),
                ],
            ),
        ])
        .unwrap();
        assert_eq!(
            merged.oracle_trace(),
            [
                TraceEvent::Send {
                    id: m(0, 0),
                    to: p(1)
                },
                ckpt(0, true),
                ckpt(1, true),
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
            p0.extend([checkpoint(0, 1), collect(0, &[0])]);
            let trace = merge(&[("p0", p0), ("p1", p1)]).unwrap().oracle_trace();
            rdt_ccp::collection_safety_violations(2, &trace).unwrap()
        };
        let pinned = audit(
            vec![checkpoint(1, 1), send(1, 0, 0, 0, 1, false)],
            Some(apply(0, 1, 0, 0, 1, false)),
        );
        assert_eq!(
            pinned,
            [rdt_base::CheckpointId::new(p(0), CheckpointIndex::ZERO)]
        );
        assert!(audit(vec![checkpoint(1, 1)], None).is_empty());
    }
}
