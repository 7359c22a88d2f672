//! JSON text serialization (compact and pretty).

use crate::Value;
use std::fmt::Write as _;

impl Value {
    /// Serializes to compact JSON text.
    ///
    /// Floats that are finite round-trip through Rust's shortest-repr
    /// formatting; non-finite floats (which JSON cannot represent) are
    /// emitted as `null`, matching common JSON library behaviour. Bytes
    /// are written as a lowercase hex string.
    ///
    /// ```
    /// use flux_value::Value;
    /// let v = Value::from_pairs([("b", Value::Int(2)), ("a", Value::Int(1))]);
    /// assert_eq!(v.to_json(), r#"{"a":1,"b":2}"#);
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Serializes to pretty-printed JSON with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(x) => write_float(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::StrView(s) => write_string(out, s.as_str()),
        Value::Bytes(b) => {
            out.push('"');
            for byte in b.iter() {
                let _ = write!(out, "{byte:02x}");
            }
            out.push('"');
        }
        Value::Array(a) => {
            if a.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_float(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let mut s = format!("{x}");
    // `{}` prints integral floats without a decimal point; re-parsing such
    // text would yield Int, breaking round-trips, so force a ".0".
    if !s.contains(['.', 'e', 'E']) {
        s.push_str(".0");
    }
    out.push_str(&s);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
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
    use crate::Value;

    #[test]
    fn compact_forms() {
        assert_eq!(Value::Null.to_json(), "null");
        assert_eq!(Value::Bool(false).to_json(), "false");
        assert_eq!(Value::Int(-5).to_json(), "-5");
        assert_eq!(Value::Float(1.5).to_json(), "1.5");
        assert_eq!(Value::from("a\"b").to_json(), r#""a\"b""#);
        assert_eq!(Value::array().to_json(), "[]");
        assert_eq!(Value::object().to_json(), "{}");
    }

    #[test]
    fn bytes_are_a_lowercase_hex_string() {
        let bytes = |b: &[u8]| Value::Bytes(std::sync::Arc::from(b));
        let b = bytes(&[0x00, 0xab, b'V', 0xff]);
        assert_eq!(b.to_json(), r#""00ab56ff""#);
        assert_eq!(b.to_json_pretty(), r#""00ab56ff""#);
        assert_eq!(bytes(&[]).to_json(), "\"\"");
        // Text has no byte strings: the hex parses back as a string.
        assert_eq!(Value::parse(&b.to_json()).unwrap(), Value::from("00ab56ff"));
    }

    #[test]
    fn integral_float_keeps_point() {
        assert_eq!(Value::Float(3.0).to_json(), "3.0");
        let back = Value::parse("3.0").unwrap();
        assert_eq!(back, Value::Float(3.0));
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn control_chars_escaped() {
        assert_eq!(Value::from("\u{01}").to_json(), "\"\\u0001\"");
        assert_eq!(Value::from("\n\t").to_json(), r#""\n\t""#);
    }

    #[test]
    fn roundtrip_compact() {
        let src = r#"{"a":[1,2.5,"x",null,true],"b":{"c":-1}}"#;
        let v = Value::parse(src).unwrap();
        assert_eq!(v.to_json(), src);
    }

    #[test]
    fn pretty_has_structure() {
        let v = Value::parse(r#"{"a":[1],"b":2}"#).unwrap();
        let pretty = v.to_json_pretty();
        assert!(pretty.contains("\n  \"a\": [\n    1\n  ]"));
        assert_eq!(Value::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn display_is_compact_json() {
        let v = Value::parse(r#"{"k":1}"#).unwrap();
        assert_eq!(format!("{v}"), r#"{"k":1}"#);
    }
}
