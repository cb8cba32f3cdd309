//! Schema validation for everything this stack writes to disk: one event
//! schema — the trace lines `rdt trace` prints, a live process's event
//! log (`rdt_obs::flight`) holds and `rdt causal` prints — beside `rdt
//! trace`'s header, span and counter lines; the `RDT_LOG_JSONL`
//! structured-log envelope; and `.prom` metric textfiles.
//!
//! The `obs_check` binary is a thin wrapper over this module; the logic
//! lives in the library so tests (including the JSONL round-trip proptests)
//! can call it directly.

use crate::json::{self, JsonValue};
use crate::profile::ProfileReport;

/// Validates one JSONL line against the known shapes:
///
/// - **trace lines** carry a `type` discriminator: `run` (header),
///   `event` (one trace event: its kind and the kind's fields, wherever it
///   was written), `span` and `counter`;
/// - **log lines** carry the sink envelope `level`/`target`/`event`/`msg`.
///
/// # Errors
///
/// A human-readable description of the first schema violation.
pub fn check_jsonl_line(line: &str) -> Result<(), String> {
    let value = json::parse(line)?;
    if !matches!(value, JsonValue::Obj(_)) {
        return Err("line is not a JSON object".into());
    }
    if let Some(ty) = value.get("type") {
        let ty = ty.as_str().ok_or("\"type\" is not a string")?;
        return check_trace_line(ty, &value);
    }
    if value.get("level").is_some() {
        return check_log_line(&value);
    }
    Err("object has neither a \"type\" (trace) nor a \"level\" (log) key".into())
}

/// Validates a Prometheus textfile as written by
/// [`ProfileReport::to_prometheus`], returning `(phases, counters)` series
/// counts on success.
///
/// # Errors
///
/// The parse error for the first malformed or inconsistent line.
pub fn check_prom_text(text: &str) -> Result<(usize, usize), String> {
    let report = ProfileReport::from_prometheus(text)?;
    Ok((report.phases.len(), report.counters.len()))
}

fn require_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .ok_or_else(|| format!("missing key {key:?}"))?
        .as_u64()
        .ok_or_else(|| format!("key {key:?} is not an unsigned integer"))
}

fn require_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .ok_or_else(|| format!("missing key {key:?}"))?
        .as_str()
        .ok_or_else(|| format!("key {key:?} is not a string"))
}

fn require_bool(v: &JsonValue, key: &str) -> Result<(), String> {
    match v.get(key) {
        Some(JsonValue::Bool(_)) => Ok(()),
        Some(_) => Err(format!("key {key:?} is not a boolean")),
        None => Err(format!("missing key {key:?}")),
    }
}

fn check_trace_line(ty: &str, v: &JsonValue) -> Result<(), String> {
    match ty {
        "run" => {
            require_u64(v, "n")?;
            require_u64(v, "steps")?;
            require_u64(v, "seed")?;
            require_u64(v, "shards")?;
            require_str(v, "protocol")?;
            require_str(v, "gc")?;
            Ok(())
        }
        "event" => check_event_line(v),
        "span" => {
            require_str(v, "phase")?;
            require_u64(v, "count")?;
            require_u64(v, "total_ns")?;
            Ok(())
        }
        "counter" => {
            require_str(v, "name")?;
            require_u64(v, "value")?;
            Ok(())
        }
        other => Err(format!("unknown line type {other:?}")),
    }
}

/// One trace event. Every kind but `drop` names its `process`; a message
/// is named by `from` (a send's is its `process`) and `seq`. A live
/// log's send and deliver lines add `inc`/`interval`, and a merge's
/// stand-in send `synthetic`.
fn check_event_line(v: &JsonValue) -> Result<(), String> {
    let kind = require_str(v, "kind")?;
    if kind != "drop" {
        require_u64(v, "process")?;
    }
    match kind {
        "send" => {
            require_u64(v, "seq")?;
            require_u64(v, "to")?;
        }
        "deliver" | "drop" => {
            require_u64(v, "from")?;
            require_u64(v, "seq")?;
        }
        "ckpt" => require_bool(v, "forced")?,
        "collect" => {
            require_u64(v, "index")?;
        }
        "crash" => {}
        "restore" => {
            require_u64(v, "to")?;
        }
        other => return Err(format!("unknown event kind {other:?}")),
    }
    if v.get("inc").is_some() || v.get("interval").is_some() {
        require_u64(v, "inc")?;
        require_u64(v, "interval")?;
    }
    if v.get("synthetic").is_some() {
        require_bool(v, "synthetic")?;
    }
    Ok(())
}

fn check_log_line(v: &JsonValue) -> Result<(), String> {
    let level = require_str(v, "level")?;
    if crate::Level::parse(level).is_none() {
        return Err(format!("unknown level {level:?}"));
    }
    require_str(v, "target")?;
    require_str(v, "event")?;
    require_str(v, "msg")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_known_shapes() {
        check_jsonl_line(
            r#"{"type":"run","n":4,"steps":100,"seed":7,"shards":2,"protocol":"rdt-lgc","gc":"rdt"}"#,
        )
        .unwrap();
        check_jsonl_line(r#"{"type":"event","kind":"send","process":1,"seq":0,"to":2}"#).unwrap();
        check_jsonl_line(r#"{"type":"event","kind":"ckpt","process":0,"forced":true}"#).unwrap();
        check_jsonl_line(r#"{"type":"event","kind":"drop","from":1,"seq":0}"#).unwrap();
        check_jsonl_line(r#"{"type":"span","phase":"engine/drain","count":10,"total_ns":1234}"#)
            .unwrap();
        check_jsonl_line(r#"{"type":"counter","name":"events","value":3}"#).unwrap();
        check_jsonl_line(r#"{"level":"warn","target":"t","event":"e","msg":"m","extra":1}"#)
            .unwrap();
    }

    #[test]
    fn accepts_live_and_merged_event_lines() {
        check_jsonl_line(
            r#"{"type":"event","kind":"send","process":0,"seq":0,"to":1,"inc":0,"interval":3}"#,
        )
        .unwrap();
        check_jsonl_line(
            r#"{"type":"event","kind":"deliver","process":1,"from":0,"seq":0,"inc":0,"interval":3}"#,
        )
        .unwrap();
        check_jsonl_line(
            r#"{"type":"event","kind":"send","process":2,"seq":4,"to":1,"synthetic":true}"#,
        )
        .unwrap();
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(check_jsonl_line("not json").is_err());
        assert!(check_jsonl_line("[1,2]").is_err());
        assert!(check_jsonl_line(r#"{"type":"mystery"}"#).is_err());
        assert!(check_jsonl_line(r#"{"type":"event","kind":"send","process":1}"#).is_err());
        assert!(
            check_jsonl_line(r#"{"type":"span","phase":"p","count":-1,"total_ns":0}"#).is_err()
        );
        assert!(
            check_jsonl_line(r#"{"level":"loud","target":"t","event":"e","msg":"m"}"#).is_err()
        );
        assert!(check_jsonl_line(r#"{"no":"discriminator"}"#).is_err());
        assert!(check_jsonl_line(r#"{"type":"event","kind":"warp","process":0}"#).is_err());
        assert!(
            check_jsonl_line(r#"{"type":"event","kind":"deliver","from":0,"seq":0}"#).is_err(),
            "a delivery names its receiver"
        );
        assert!(
            check_jsonl_line(
                r#"{"type":"event","kind":"send","process":0,"seq":0,"to":1,"interval":3}"#
            )
            .is_err(),
            "interval without inc"
        );
    }

    #[test]
    fn validates_prom_textfiles() {
        let mut r = ProfileReport::new();
        r.phase_mut("live/encode").record(100);
        r.add("frames_sent", 2);
        let (phases, counters) = check_prom_text(&r.to_prometheus()).unwrap();
        assert_eq!((phases, counters), (1, 1));
        assert!(check_prom_text("rdt_counter_total{name=\"x\"} nope").is_err());
    }
}
