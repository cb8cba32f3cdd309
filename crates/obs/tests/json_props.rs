//! Property tests for the exposition codecs: arbitrary field strings and
//! non-finite floats through the JSONL writer and back through the
//! `counter`-line validator, and Prometheus textfile round-trips with
//! hostile label values.

use proptest::prelude::*;
use rdt_obs::json::{self, JsonValue};
use rdt_obs::ProfileReport;

/// Arbitrary unicode strings seasoned with the characters the escapers
/// must handle: quotes, backslashes, newlines, tabs, control bytes and
/// non-ASCII codepoints.
fn string_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x11_0000u32, 0..24).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .filter_map(|(i, c)| {
                if i % 5 == 0 {
                    Some(['"', '\\', '\n', '\r', '\t', '\u{1}', 'é', '∎'][(c % 8) as usize])
                } else {
                    char::from_u32(c)
                }
            })
            .collect()
    })
}

/// A `counter` line named `name`, carrying `payload` beside its fields.
fn line_json(name: String, payload: impl Into<JsonValue>) -> JsonValue {
    JsonValue::obj()
        .field("type", "counter")
        .field("name", name)
        .field("value", 1u64)
        .field("payload", payload)
        .build()
}

fn render_line(name: String, payload: f64) -> String {
    line_json(name, JsonValue::Num(payload)).to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any string survives the JSONL writer byte-for-byte, the emitted
    /// line is one line, and the validator accepts it; the indented
    /// layout parses back to the same value.
    #[test]
    fn strings_roundtrip_through_the_jsonl_writer(s in string_strategy(), msg in string_strategy()) {
        let value = line_json(msg.clone(), s.clone());
        prop_assert_eq!(json::parse(&value.pretty()), Ok(value.clone()));
        let line = value.to_string();
        prop_assert!(!line.contains('\n'), "embedded newline leaked: {line:?}");
        if let Err(e) = rdt_obs::check::check_jsonl_line(&line) {
            panic!("validator rejected {line:?}: {e}");
        }
        let parsed = json::parse(&line).unwrap_or_else(|e| panic!("reparse of {line:?}: {e}"));
        prop_assert_eq!(parsed.get("name").and_then(JsonValue::as_str), Some(msg.as_str()));
        prop_assert_eq!(parsed.get("payload").and_then(JsonValue::as_str), Some(s.as_str()));
    }

    /// Finite floats keep a numeric rendering; NaN and ±inf degrade to
    /// JSON `null` (there is no other valid JSON rendering) without
    /// breaking the line or the validator.
    #[test]
    fn floats_render_as_valid_json(bits in 0u64..u64::MAX) {
        let f = f64::from_bits(bits);
        let line = render_line(String::new(), f);
        if let Err(e) = rdt_obs::check::check_jsonl_line(&line) {
            panic!("validator rejected {line:?}: {e}");
        }
        let parsed = json::parse(&line).unwrap_or_else(|e| panic!("reparse of {line:?}: {e}"));
        // The indented layout keeps a finite float a float, exactly.
        let value = line_json(String::new(), JsonValue::Num(f));
        let pretty = json::parse(&value.pretty()).unwrap();
        if f.is_finite() {
            prop_assert_eq!(pretty, value);
        } else {
            prop_assert_eq!(pretty.get("payload"), Some(&JsonValue::Null));
        }
        match parsed.get("payload") {
            Some(JsonValue::Null) => prop_assert!(!f.is_finite()),
            Some(JsonValue::Num(_) | JsonValue::UInt(_) | JsonValue::Int(_)) => {
                prop_assert!(f.is_finite())
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    /// The three non-finite shapes explicitly, so random bit patterns
    /// cannot under-sample them.
    #[test]
    fn non_finite_floats_degrade_to_null(which in 0usize..3) {
        let f = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which];
        let line = render_line(String::new(), f);
        let parsed = json::parse(&line).unwrap();
        prop_assert_eq!(parsed.get("payload"), Some(&JsonValue::Null));
    }

    /// A Prometheus textfile round-trip is a fixpoint: parsing the
    /// emitted text and re-emitting it reproduces the bytes, even with
    /// quotes, backslashes and newlines in phase and counter names.
    #[test]
    fn prom_textfiles_roundtrip(
        phases in prop::collection::vec((string_strategy(), prop::collection::vec(0u64..10_000_000_000, 1..8)), 0..4),
        counters in prop::collection::vec((string_strategy(), 0u64..1_000_000), 0..4),
    ) {
        let mut report = ProfileReport::new();
        for (name, observations) in &phases {
            let stats = report.phase_mut(name);
            for &ns in observations {
                stats.record(ns);
            }
        }
        for (name, delta) in &counters {
            report.add(name, *delta);
        }
        let text = report.to_prometheus();
        let reparsed = ProfileReport::from_prometheus(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(reparsed.to_prometheus(), text);
    }
}
