//! Schema validation for everything this stack writes to disk: `rdt trace`
//! span files, `RDT_LOG_JSONL` structured-log files, per-process event
//! logs (`rdt_obs::flight`), merged causal traces, and `.prom` metric
//! textfiles.
//!
//! The `obs_check` binary is a thin wrapper over this module; the logic
//! lives in the library so tests (including the JSONL round-trip proptests)
//! can call it directly.

use crate::json::{self, JsonValue};
use crate::profile::ProfileReport;

/// Validates one JSONL line against the known shapes:
///
/// - **trace lines** carry a `type` discriminator: `run` (header),
///   `event` (i/kind + kind-specific fields), `span`, `counter`, and
///   `causal` (one merged happened-before-ordered trace entry);
/// - **log lines** carry the sink envelope `level`/`target`/`event`/`msg`
///   (the per-process event logs are log lines too).
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
        "event" => {
            require_u64(v, "i")?;
            let kind = require_str(v, "kind")?;
            match kind {
                "send" => {
                    require_u64(v, "from")?;
                    require_u64(v, "seq")?;
                    require_u64(v, "to")?;
                    Ok(())
                }
                "deliver" | "drop" => {
                    require_u64(v, "from")?;
                    require_u64(v, "seq")?;
                    Ok(())
                }
                "ckpt" => {
                    require_u64(v, "process")?;
                    require_bool(v, "forced")?;
                    Ok(())
                }
                "collect" => {
                    require_u64(v, "process")?;
                    require_u64(v, "index")?;
                    Ok(())
                }
                "crash" => {
                    require_u64(v, "process")?;
                    Ok(())
                }
                "restore" => {
                    require_u64(v, "process")?;
                    require_u64(v, "to")?;
                    Ok(())
                }
                other => Err(format!("unknown event kind {other:?}")),
            }
        }
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
        "causal" => check_causal_line(v),
        other => Err(format!("unknown line type {other:?}")),
    }
}

/// One entry of a merged causal trace (`rdt causal` output):
/// `pos` is the happened-before-consistent position, `kind` one of
/// `send`/`recv`/`apply`/`synthetic_send`, `process` the acting process,
/// `peer` the other endpoint, `seq` the sender-local sequence number.
/// Sends carry the sender's own DV `interval`; applies carry the learned
/// `interval` plus `forced`/`eliminated` checkpoint effects.
fn check_causal_line(v: &JsonValue) -> Result<(), String> {
    require_u64(v, "pos")?;
    require_u64(v, "process")?;
    require_u64(v, "peer")?;
    require_u64(v, "seq")?;
    let kind = require_str(v, "kind")?;
    match kind {
        "send" | "synthetic_send" => {
            require_u64(v, "interval")?;
            Ok(())
        }
        "recv" => Ok(()),
        "apply" => {
            require_u64(v, "interval")?;
            require_bool(v, "forced")?;
            require_u64(v, "eliminated")?;
            Ok(())
        }
        other => Err(format!("unknown causal kind {other:?}")),
    }
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
        check_jsonl_line(r#"{"type":"event","i":0,"kind":"send","from":1,"seq":0,"to":2}"#)
            .unwrap();
        check_jsonl_line(r#"{"type":"event","i":1,"kind":"ckpt","process":0,"forced":true}"#)
            .unwrap();
        check_jsonl_line(r#"{"type":"span","phase":"engine/drain","count":10,"total_ns":1234}"#)
            .unwrap();
        check_jsonl_line(r#"{"type":"counter","name":"events","value":3}"#).unwrap();
        check_jsonl_line(r#"{"level":"warn","target":"t","event":"e","msg":"m","extra":1}"#)
            .unwrap();
    }

    #[test]
    fn accepts_causal_lines() {
        check_jsonl_line(
            r#"{"type":"causal","pos":0,"kind":"send","process":0,"peer":1,"seq":0,"interval":3}"#,
        )
        .unwrap();
        check_jsonl_line(
            r#"{"type":"causal","pos":1,"kind":"recv","process":1,"peer":0,"seq":0}"#,
        )
        .unwrap();
        check_jsonl_line(
            r#"{"type":"causal","pos":2,"kind":"apply","process":1,"peer":0,"seq":0,"interval":3,"forced":false,"eliminated":0}"#,
        )
        .unwrap();
        check_jsonl_line(
            r#"{"type":"causal","pos":0,"kind":"synthetic_send","process":0,"peer":1,"seq":4,"interval":9}"#,
        )
        .unwrap();
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(check_jsonl_line("not json").is_err());
        assert!(check_jsonl_line("[1,2]").is_err());
        assert!(check_jsonl_line(r#"{"type":"mystery"}"#).is_err());
        assert!(check_jsonl_line(r#"{"type":"event","i":0,"kind":"send","from":1}"#).is_err());
        assert!(check_jsonl_line(r#"{"type":"span","phase":"p","count":-1,"total_ns":0}"#).is_err());
        assert!(check_jsonl_line(r#"{"level":"loud","target":"t","event":"e","msg":"m"}"#).is_err());
        assert!(check_jsonl_line(r#"{"no":"discriminator"}"#).is_err());
        assert!(
            check_jsonl_line(r#"{"type":"causal","pos":0,"kind":"warp","process":0,"peer":1,"seq":0}"#)
                .is_err()
        );
        assert!(
            check_jsonl_line(r#"{"type":"causal","pos":0,"kind":"apply","process":0,"peer":1,"seq":0}"#)
                .is_err(),
            "apply without interval/forced/eliminated"
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
