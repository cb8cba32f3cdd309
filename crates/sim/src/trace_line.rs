//! The one line shape of an execution's events, and its one codec.
//!
//! Every history this stack writes is a sequence of [`TraceEvent`]s, one
//! JSON object per line: `rdt trace` prints a simulated run's trace, a
//! [`LiveNode`](crate::LiveNode) appends the same step core's events for
//! its own operations to the process event log (`rdt_obs::flight`) as it
//! performs them, and `rdt causal` prints the merge of such logs. All three go through
//! [`TraceLine::render`], and every reader goes through
//! [`TraceLine::parse`]:
//!
//! ```text
//! {"type":"event","kind":"ckpt","process":0,"forced":false}
//! {"type":"event","kind":"send","process":0,"seq":3,"to":1,"inc":0,"interval":4}
//! {"type":"event","kind":"deliver","process":1,"from":0,"seq":3,"inc":0,"interval":4}
//! {"type":"event","kind":"drop","from":0,"seq":3}
//! {"type":"event","kind":"collect","process":0,"index":2}
//! {"type":"event","kind":"crash","process":0}
//! {"type":"event","kind":"restore","process":0,"to":2}
//! ```
//!
//! Every line but a drop's names the process the event happened at — the
//! receiver, for a delivery — so a per-process log can be split and merged
//! by it. A message is named by its sender and the sender's sequence
//! number. `inc`/`interval` appear on the lines of a live log only: a
//! send's is the sender's own dependency-vector entry the frame carried, a
//! delivery's the receiver's entry for the sender after the merge.
//! `"synthetic":true` marks a send the merge of event logs stood in for.

use std::collections::HashMap;
use std::fmt::Write as _;

use rdt_base::{
    CheckpointIndex, DvEntry, Incarnation, IntervalIndex, MessageId, ProcessId, TraceEvent,
};
use rdt_obs::json::{self, JsonValue};

/// One [`TraceEvent`] as a line of a trace or an event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceLine {
    /// What happened.
    pub event: TraceEvent,
    /// Where it happened: [`TraceEvent::process`], or the receiver of a
    /// [`TraceEvent::Deliver`]; `None` for a drop, which happens in the
    /// network.
    pub process: Option<ProcessId>,
    /// A live send's own entry as its frame carried it, or a live
    /// delivery's entry for the sender after the merge.
    pub lineage: Option<DvEntry>,
    /// A send stood in for by the merge of event logs: its sender's log
    /// was not among the inputs.
    pub synthetic: bool,
}

impl TraceLine {
    /// `event` at `process`, with nothing else on the line.
    pub fn new(process: Option<ProcessId>, event: TraceEvent) -> Self {
        Self {
            event,
            process,
            lineage: None,
            synthetic: false,
        }
    }

    /// The lines of a simulated run's `trace`: each delivery placed at the
    /// receiver its send names.
    pub fn of_trace(trace: &[TraceEvent]) -> impl Iterator<Item = TraceLine> + '_ {
        let mut receivers: HashMap<MessageId, ProcessId> = HashMap::new();
        trace.iter().map(move |&event| {
            let process = match event {
                TraceEvent::Send { id, to } => {
                    receivers.insert(id, to);
                    event.process()
                }
                TraceEvent::Deliver { id } => receivers.get(&id).copied(),
                _ => event.process(),
            };
            TraceLine::new(process, event)
        })
    }

    /// Appends the line to `out`, without a newline.
    pub fn render(&self, out: &mut String) {
        let kind = match self.event {
            TraceEvent::Checkpoint { .. } => "ckpt",
            TraceEvent::Send { .. } => "send",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::Collect { .. } => "collect",
            TraceEvent::Crash { .. } => "crash",
            TraceEvent::Restore { .. } => "restore",
        };
        // Every value is a number, a boolean or one of the names above, so
        // the object is written as is: nothing needs escaping.
        let _ = write!(out, "{{\"type\":\"event\",\"kind\":\"{kind}\"");
        if let Some(p) = self.process {
            let _ = write!(out, ",\"process\":{}", p.index());
        }
        let _ = match self.event {
            TraceEvent::Checkpoint { forced, .. } => write!(out, ",\"forced\":{forced}"),
            TraceEvent::Send { id, to } => write!(out, ",\"seq\":{},\"to\":{}", id.seq, to.index()),
            TraceEvent::Deliver { id } | TraceEvent::Drop { id } => {
                write!(out, ",\"from\":{},\"seq\":{}", id.sender.index(), id.seq)
            }
            TraceEvent::Collect { index, .. } => write!(out, ",\"index\":{}", index.value()),
            TraceEvent::Crash { .. } => Ok(()),
            TraceEvent::Restore { to, .. } => write!(out, ",\"to\":{}", to.value()),
        };
        if let Some(entry) = self.lineage {
            let _ = write!(
                out,
                ",\"inc\":{},\"interval\":{}",
                entry.incarnation().value(),
                entry.interval().value()
            );
        }
        if self.synthetic {
            out.push_str(",\"synthetic\":true");
        }
        out.push('}');
    }

    /// Parses one line. `Ok(None)` for a JSON object that is not an event
    /// line: a trace's `run`, `span` and `counter` lines, a diagnostic
    /// sink's records.
    ///
    /// # Errors
    ///
    /// A line that is not JSON, or an event line of an unknown kind or
    /// missing a field its kind needs.
    pub fn parse(line: &str) -> Result<Option<TraceLine>, String> {
        let v = json::parse(line)?;
        if v.get("type").and_then(JsonValue::as_str) != Some("event") {
            return Ok(None);
        }
        let opt = |key: &str| match v.get(key) {
            None => Ok(None),
            Some(value) => value
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("field {key:?} is not an unsigned integer")),
        };
        let u = |key: &str| opt(key)?.ok_or_else(|| format!("missing integer field {key:?}"));
        let pid = |key: &str| u(key).map(|i| ProcessId::new(i as usize));
        let flag = |key: &str| match v.get(key) {
            None => Ok(false),
            Some(JsonValue::Bool(b)) => Ok(*b),
            Some(_) => Err(format!("field {key:?} is not a boolean")),
        };
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field \"kind\"")?;
        let event = match kind {
            "ckpt" => TraceEvent::Checkpoint {
                process: pid("process")?,
                forced: match v.get("forced") {
                    Some(JsonValue::Bool(b)) => *b,
                    _ => return Err("missing boolean field \"forced\"".into()),
                },
            },
            "send" => TraceEvent::Send {
                id: MessageId::new(pid("process")?, u("seq")?),
                to: pid("to")?,
            },
            "deliver" => TraceEvent::Deliver {
                id: MessageId::new(pid("from")?, u("seq")?),
            },
            "drop" => TraceEvent::Drop {
                id: MessageId::new(pid("from")?, u("seq")?),
            },
            "collect" => TraceEvent::Collect {
                process: pid("process")?,
                index: CheckpointIndex::new(u("index")? as usize),
            },
            "crash" => TraceEvent::Crash {
                process: pid("process")?,
            },
            "restore" => TraceEvent::Restore {
                process: pid("process")?,
                to: CheckpointIndex::new(u("to")? as usize),
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        let process = match event {
            TraceEvent::Deliver { .. } => Some(pid("process")?),
            _ => event.process(),
        };
        let lineage = match (opt("inc")?, opt("interval")?) {
            (None, None) => None,
            (Some(inc), Some(interval)) => Some(
                u32::try_from(inc)
                    .ok()
                    .and_then(|inc| {
                        DvEntry::try_new(
                            Incarnation::new(inc),
                            IntervalIndex::new(interval as usize),
                        )
                        .ok()
                    })
                    .ok_or_else(|| format!("lineage (inc {inc}, interval {interval}) overflows"))?,
            ),
            _ => return Err("\"inc\" and \"interval\" come together".into()),
        };
        Ok(Some(TraceLine {
            event,
            process,
            lineage,
            synthetic: flag("synthetic")?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn m(sender: usize, seq: u64) -> MessageId {
        MessageId::new(p(sender), seq)
    }

    fn render(line: &TraceLine) -> String {
        let mut out = String::new();
        line.render(&mut out);
        out
    }

    #[test]
    fn every_kind_round_trips_and_passes_the_schema_check() {
        let entry = DvEntry::new(Incarnation::new(2), IntervalIndex::new(7));
        let trace = [
            TraceEvent::Checkpoint {
                process: p(0),
                forced: true,
            },
            TraceEvent::Send {
                id: m(0, 3),
                to: p(2),
            },
            TraceEvent::Deliver { id: m(0, 3) },
            TraceEvent::Drop { id: m(1, 0) },
            TraceEvent::Collect {
                process: p(2),
                index: CheckpointIndex::new(4),
            },
            TraceEvent::Crash { process: p(1) },
            TraceEvent::Restore {
                process: p(1),
                to: CheckpointIndex::new(5),
            },
        ];
        let lines: Vec<TraceLine> = TraceLine::of_trace(&trace).collect();
        assert_eq!(lines[2].process, Some(p(2)), "a delivery is the receiver's");
        assert_eq!(lines[3].process, None, "a drop is nobody's");
        let live = [
            TraceLine {
                lineage: Some(entry),
                ..lines[1]
            },
            TraceLine {
                lineage: Some(entry),
                ..lines[2]
            },
            TraceLine {
                synthetic: true,
                ..lines[1]
            },
        ];
        for line in lines.iter().chain(&live) {
            let text = render(line);
            rdt_obs::check::check_jsonl_line(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(TraceLine::parse(&text), Ok(Some(*line)), "{text}");
        }
        assert_eq!(
            render(&live[1]),
            r#"{"type":"event","kind":"deliver","process":2,"from":0,"seq":3,"inc":2,"interval":7}"#
        );
    }

    #[test]
    fn other_lines_are_skipped_and_broken_event_lines_rejected() {
        for other in [
            r#"{"type":"run","n":2,"steps":5,"seed":1,"shards":1,"protocol":"fdas","gc":"rdt"}"#,
            r#"{"level":"warn","target":"rdt_sim::engine","event":"e","msg":""}"#,
        ] {
            assert_eq!(TraceLine::parse(other), Ok(None));
        }
        for (line, why) in [
            (
                r#"{"type":"event","kind":"send","process":0,"to":1}"#,
                "seq",
            ),
            (
                r#"{"type":"event","kind":"deliver","from":0,"seq":1}"#,
                "process",
            ),
            (r#"{"type":"event","kind":"ckpt","process":0}"#, "forced"),
            (r#"{"type":"event","kind":"warp","process":0}"#, "warp"),
            (
                r#"{"type":"event","kind":"send","process":0,"seq":0,"to":1,"inc":0}"#,
                "together",
            ),
            (
                r#"{"type":"event","kind":"send","process":0,"seq":0,"to":1,"inc":65536,"interval":0}"#,
                "overflows",
            ),
            (r#"{"type":"event","kind":"send""#, "JSON"),
        ] {
            let err = TraceLine::parse(line).map(|_| ()).unwrap_err();
            assert!(err.contains(why) || why == "JSON", "{line}: {err}");
        }
    }
}
