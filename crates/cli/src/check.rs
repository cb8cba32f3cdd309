//! The schema check of one JSONL line this stack writes: an event line is
//! valid iff [`TraceLine::parse`] reads it — the one definition of its
//! shape — and every other line goes to [`rdt_obs::check`].

use rdt_sim::TraceLine;

/// Validates one line: an event line through [`TraceLine::parse`], a
/// trace's `run`, `span` and `counter` lines through
/// [`rdt_obs::check::check_jsonl_line`].
///
/// # Errors
///
/// A human-readable description of the first schema violation.
pub fn check_line(line: &str) -> Result<(), String> {
    match TraceLine::parse(line)? {
        Some(_) => Ok(()),
        None => rdt_obs::check::check_jsonl_line(line),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_known_shapes() {
        for line in [
            r#"{"type":"run","n":4,"steps":100,"seed":7,"shards":2,"protocol":"rdt-lgc","gc":"rdt"}"#,
            r#"{"type":"event","kind":"send","process":1,"seq":0,"to":2}"#,
            r#"{"type":"event","kind":"ckpt","process":0,"forced":true}"#,
            r#"{"type":"event","kind":"drop","from":1,"seq":0}"#,
            r#"{"type":"span","phase":"engine/drain","count":10,"total_ns":1234}"#,
            r#"{"type":"counter","name":"events","value":3}"#,
        ] {
            check_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn accepts_live_and_merged_event_lines() {
        for line in [
            r#"{"type":"event","kind":"send","process":0,"seq":0,"to":1,"inc":0,"interval":3}"#,
            r#"{"type":"event","kind":"deliver","process":1,"from":0,"seq":0,"inc":0,"interval":3}"#,
            r#"{"type":"event","kind":"send","process":2,"seq":4,"to":1,"synthetic":true}"#,
        ] {
            check_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        for (line, why) in [
            ("not json", "not JSON"),
            ("[1,2]", "not an object"),
            (r#"{"type":"mystery"}"#, "unknown type"),
            (r#"{"no":"discriminator"}"#, "no type"),
            (
                r#"{"level":"warn","target":"t","event":"e","msg":"m"}"#,
                "no type",
            ),
            (
                r#"{"type":"span","phase":"p","count":-1,"total_ns":0}"#,
                "negative count",
            ),
            (
                r#"{"type":"event","kind":"send","process":1}"#,
                "a send names its seq and receiver",
            ),
            (
                r#"{"type":"event","kind":"warp","process":0}"#,
                "unknown kind",
            ),
            (
                r#"{"type":"event","kind":"deliver","from":0,"seq":0}"#,
                "a delivery names its receiver",
            ),
            (
                r#"{"type":"event","kind":"send","process":0,"seq":0,"to":1,"interval":3}"#,
                "interval without inc",
            ),
        ] {
            assert!(check_line(line).is_err(), "{why}: {line}");
        }
    }
}
