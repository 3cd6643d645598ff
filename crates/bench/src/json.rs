//! A minimal JSON document model with a pretty printer.
//!
//! The build environment has no crates.io access, so report serialization
//! cannot use `serde_json`.  This module implements the small subset the
//! harness writes: numbers, strings, booleans, null, arrays and objects, with
//! insertion-ordered object keys so emitted reports are stable and diffable.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.  JSON has no NaN/Infinity, so non-finite values are emitted
    /// as `null` by the printer.
    Number(f64),
    /// A string.
    String(String),
    /// An array of values.
    Array(Vec<Value>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Convenience constructor for object members.
    pub fn object(members: Vec<(&str, Value)>) -> Value {
        Value::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up an object member by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Renders the value as indented, human-readable JSON.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let inner_pad = "  ".repeat(indent + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&inner_pad);
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Value::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(&inner_pad);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON cannot represent NaN/Infinity; degrade to null so the
        // document stays parseable (mirrors lenient serializers).
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_prints_nested_document() {
        let doc = Value::object(vec![
            ("id", Value::String("fig12a".into())),
            ("n", Value::Number(250000.0)),
            ("ratio", Value::Number(0.9125)),
            ("ok", Value::Bool(true)),
            ("missing", Value::Null),
            (
                "series",
                Value::Array(vec![Value::object(vec![
                    ("name", Value::String("Exact\"MaxRS\"\n".into())),
                    ("points", Value::Array(vec![])),
                ])]),
            ),
        ]);
        let expected = r#"{
  "id": "fig12a",
  "n": 250000,
  "ratio": 0.9125,
  "ok": true,
  "missing": null,
  "series": [
    {
      "name": "Exact\"MaxRS\"\n",
      "points": []
    }
  ]
}"#;
        assert_eq!(doc.to_pretty_string(), expected);
    }

    #[test]
    fn accessors() {
        let v = Value::object(vec![
            ("a", Value::Number(2.5)),
            ("b", Value::String("x".into())),
        ]);
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(2.5));
        assert!(v.get("a").and_then(Value::as_str).is_none());
        assert!(v.get("c").is_none());
    }

    #[test]
    fn non_finite_numbers_degrade_to_null() {
        let doc = Value::Array(vec![
            Value::Number(f64::NAN),
            Value::Number(f64::INFINITY),
            Value::Number(1.5),
        ]);
        assert_eq!(doc.to_pretty_string(), "[\n  null,\n  null,\n  1.5\n]");
    }

    #[test]
    fn unicode_and_escapes() {
        // Quotes, backslashes and control characters are escaped; other
        // characters, non-ASCII included, print as themselves.
        let v = Value::String("café → \"ok\" \\ \t\r\u{1}".into());
        assert_eq!(v.to_pretty_string(), r#""café → \"ok\" \\ \t\r\u0001""#);
    }

    #[test]
    fn non_bmp_characters_print_unescaped() {
        // Characters an ensure-ascii serializer would write as a surrogate
        // pair (U+1F600) print as one UTF-8 character, which is valid JSON.
        let v = Value::String("\u{1F600} ok \u{e9}".into());
        assert_eq!(v.to_pretty_string(), "\"\u{1F600} ok \u{e9}\"");
    }
}
