//! Minimal owned JSON values, the workspace's one JSON writer: compact
//! rendering for the exposition paths
//! ([`ProfileReport::to_json`](crate::ProfileReport::to_json), `rdt trace`),
//! the indented layout of the `rdt` documents (`--json`, `--metrics-out`)
//! and a strict parser for the `obs_check` schema validator.
//!
//! The workspace's `serde` is an offline marker-trait shim, so structured
//! output is emitted by hand. This module keeps that emission in one place
//! with exact integer rendering (`u64` nanosecond totals must not round-trip
//! through `f64`).

use std::fmt::Write as _;

/// An owned JSON value with dynamic (heap) object keys: phase names and
/// event fields are runtime strings.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, rendered exactly (no `f64` round-trip).
    UInt(u64),
    /// A signed integer, rendered exactly.
    Int(i64),
    /// A finite float. Non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved on render.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            JsonValue::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Renders compact (single-line) JSON into `out`.
    pub fn render(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }

    /// [`render`](Self::render) into a fresh string.
    #[allow(clippy::inherent_to_string)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }

    /// An object builder that keeps field order.
    pub fn obj() -> ObjBuilder {
        ObjBuilder(Vec::new())
    }

    /// Renders over several lines: two-space indent, `"key": value`, and
    /// `[]` / `{}` for empty containers, with no trailing newline. A float
    /// keeps a fraction or an exponent (`2.0`, not `2`), so it parses back
    /// as the float it was.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty(&mut out, 0);
        out
    }

    fn render_pretty(&self, out: &mut String, depth: usize) {
        let indent = |out: &mut String, depth: usize| {
            for _ in 0..depth {
                out.push_str("  ");
            }
        };
        match self {
            JsonValue::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            JsonValue::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    item.render_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    escape_into(k, out);
                    out.push_str(": ");
                    v.render_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            scalar_or_empty => scalar_or_empty.render(out),
        }
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Builder returned by [`JsonValue::obj`].
#[derive(Debug, Default)]
pub struct ObjBuilder(Vec<(String, JsonValue)>);

impl ObjBuilder {
    /// Appends a field.
    pub fn field(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Appends a field only when `value` is `Some`.
    pub fn maybe(self, key: &str, value: Option<impl Into<JsonValue>>) -> Self {
        match value {
            Some(value) => self.field(key, value),
            None => self,
        }
    }

    /// Finishes the object.
    pub fn build(self) -> JsonValue {
        JsonValue::Obj(self.0)
    }
}

/// Appends `s` as a quoted JSON string (with escapes) to `out`.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one complete JSON document. Trailing non-whitespace is an error —
/// exactly what a line-oriented (JSONL) validator wants.
///
/// # Errors
///
/// A human-readable message with a byte offset on malformed input.
pub fn parse(s: &str) -> Result<JsonValue, String> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if !float {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(JsonValue::Int(v));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("invalid \\u escape {hex:?}"))?;
                        // Surrogate pairs are not reassembled; the emitters in
                        // this crate never produce them (only control chars are
                        // \u-escaped), so map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one full UTF-8 scalar.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let v = JsonValue::Obj(vec![
            ("level".into(), JsonValue::Str("warn".into())),
            ("shards".into(), JsonValue::UInt(4)),
            ("ratio".into(), JsonValue::Num(0.5)),
            ("ok".into(), JsonValue::Bool(true)),
            (
                "arr".into(),
                JsonValue::Arr(vec![JsonValue::UInt(1), JsonValue::Null]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn exact_u64_rendering() {
        let v = JsonValue::UInt(u64::MAX);
        assert_eq!(v.to_string(), u64::MAX.to_string());
        assert_eq!(parse(&v.to_string()).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn escapes_roundtrip() {
        let v = JsonValue::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nested_pretty_output() {
        let doc = JsonValue::obj()
            .field("n", 4u64)
            .field("name", "a\"b")
            .field("xs", vec![1u64, 2])
            .field("ratio", JsonValue::Num(2.0))
            .maybe("absent", None::<u64>)
            .maybe("present", Some(true))
            .build();
        assert_eq!(
            doc.pretty(),
            "{\n  \"n\": 4,\n  \"name\": \"a\\\"b\",\n  \"xs\": [\n    1,\n    2\n  ],\n  \
             \"ratio\": 2.0,\n  \"present\": true\n}"
        );
        assert_eq!(parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn empty_containers_render_compact() {
        assert_eq!(JsonValue::Arr(vec![]).pretty(), "[]");
        assert_eq!(JsonValue::Obj(vec![]).pretty(), "{}");
        let doc = JsonValue::obj()
            .field("xs", JsonValue::Arr(vec![]))
            .field("o", JsonValue::Obj(vec![]))
            .build();
        assert_eq!(doc.pretty(), "{\n  \"xs\": [],\n  \"o\": {}\n}");
    }

    #[test]
    fn compact_renders_one_line() {
        let doc = JsonValue::obj()
            .field("a", 1u64)
            .field("xs", vec![2u64, 3])
            .field("nested", JsonValue::obj().field("k", 0u64).build())
            .build();
        assert_eq!(
            doc.to_string(),
            "{\"a\":1,\"xs\":[2,3],\"nested\":{\"k\":0}}"
        );
    }

    #[test]
    fn negative_and_float_numbers() {
        assert_eq!(parse("-3").unwrap(), JsonValue::Int(-3));
        assert_eq!(parse("2.5").unwrap(), JsonValue::Num(2.5));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Num(1000.0));
    }
}
