//! Schema validation for what this stack writes beside its events: `rdt
//! trace`'s header, span and counter lines, and `.prom` metric textfiles.
//!
//! Event lines have one codec, `rdt_sim::TraceLine`, and are validated by
//! parsing them with it; this module knows no event line. The `obs_check`
//! binary (in `rdt-cli`) reads files and sends each line to one or the
//! other.

use crate::json::{self, JsonValue};
use crate::profile::ProfileReport;

/// Validates one trace line that is not an event line: a `run` header, a
/// `span` or a `counter` line, told apart by the `type` discriminator.
///
/// # Errors
///
/// A human-readable description of the first schema violation.
pub fn check_jsonl_line(line: &str) -> Result<(), String> {
    let v = json::parse(line)?;
    if !matches!(v, JsonValue::Obj(_)) {
        return Err("line is not a JSON object".into());
    }
    match require_str(&v, "type")? {
        "run" => {
            require_u64(&v, "n")?;
            require_u64(&v, "steps")?;
            require_u64(&v, "seed")?;
            require_u64(&v, "shards")?;
            require_str(&v, "protocol")?;
            require_str(&v, "gc")?;
        }
        "span" => {
            require_str(&v, "phase")?;
            require_u64(&v, "count")?;
            require_u64(&v, "total_ns")?;
        }
        "counter" => {
            require_str(&v, "name")?;
            require_u64(&v, "value")?;
        }
        other => return Err(format!("unknown line type {other:?}")),
    }
    Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_known_shapes() {
        check_jsonl_line(
            r#"{"type":"run","n":4,"steps":100,"seed":7,"shards":2,"protocol":"rdt-lgc","gc":"rdt"}"#,
        )
        .unwrap();
        check_jsonl_line(r#"{"type":"span","phase":"engine/drain","count":10,"total_ns":1234}"#)
            .unwrap();
        check_jsonl_line(r#"{"type":"counter","name":"events","value":3,"extra":1}"#).unwrap();
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(check_jsonl_line("not json").is_err());
        assert!(check_jsonl_line("[1,2]").is_err());
        assert!(check_jsonl_line(r#"{"type":"mystery"}"#).is_err());
        assert!(
            check_jsonl_line(r#"{"type":"span","phase":"p","count":-1,"total_ns":0}"#).is_err()
        );
        assert!(check_jsonl_line(r#"{"type":"counter","name":"c"}"#).is_err());
        assert!(check_jsonl_line(r#"{"no":"discriminator"}"#).is_err());
        assert!(
            check_jsonl_line(r#"{"level":"warn","target":"t","event":"e","msg":"m"}"#).is_err()
        );
        assert!(
            check_jsonl_line(r#"{"type":"event","kind":"send","process":0,"seq":0,"to":1}"#)
                .is_err(),
            "event lines are TraceLine's to parse"
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
