//! A recursive-descent JSON parser.
//!
//! Accepts standard JSON (RFC 8259): the full escape set, `\uXXXX` with
//! surrogate pairs, nested containers, and integer/float literals. Rejects
//! trailing garbage, unterminated strings, bare control characters, and
//! over-deep nesting (a depth limit guards the stack, since payloads arrive
//! over the wire).

use crate::{Map, Value};
use std::fmt;

/// Maximum container nesting depth accepted by the parser.
pub const MAX_DEPTH: usize = 128;

/// An error produced while parsing JSON text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl Value {
    /// Parses JSON text into a [`Value`].
    ///
    /// ```
    /// use flux_value::Value;
    /// let v = Value::parse(r#"[1, 2.5, "x", null, {"k": true}]"#).unwrap();
    /// assert_eq!(v.get_index(0), Some(&Value::Int(1)));
    /// ```
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("invalid literal, expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(out)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        // The members in text order; the map sorts them once at the end,
        // a repeated key keeping its last value.
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(Map::new()));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            members.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(members.into_iter().collect())),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let ch = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: a \uXXXX low surrogate must follow.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("high surrogate not followed by \\u"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))?
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err(self.err("unexpected low surrogate"));
                        } else {
                            char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                        };
                        out.push(ch);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(c) if c < 0x20 => return Err(self.err("bare control character in string")),
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // Multi-byte UTF-8: the input is a &str so it is valid;
                    // reconstruct the char from the remaining bytes.
                    let start = self.pos - 1;
                    let width = utf8_width(c);
                    let end = start + width;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: either a single 0 or [1-9][0-9]*.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            // Integral but out of i64 range: fall through to float.
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| ParseError { offset: start, message: "number out of range".into() })
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Value {
        Value::parse(s).unwrap()
    }

    fn fails(s: &str) {
        assert!(Value::parse(s).is_err(), "expected parse failure for {s:?}");
    }

    #[test]
    fn scalars() {
        assert_eq!(p("null"), Value::Null);
        assert_eq!(p("true"), Value::Bool(true));
        assert_eq!(p("false"), Value::Bool(false));
        assert_eq!(p("42"), Value::Int(42));
        assert_eq!(p("-17"), Value::Int(-17));
        assert_eq!(p("0"), Value::Int(0));
        assert_eq!(p("2.5"), Value::Float(2.5));
        assert_eq!(p("1e3"), Value::Float(1000.0));
        assert_eq!(p("-1.25E-2"), Value::Float(-0.0125));
        assert_eq!(p("\"hi\""), Value::from("hi"));
    }

    #[test]
    fn huge_integral_becomes_float() {
        assert_eq!(p("99999999999999999999"), Value::Float(1e20));
    }

    #[test]
    fn i64_bounds_stay_int() {
        assert_eq!(p("9223372036854775807"), Value::Int(i64::MAX));
        assert_eq!(p("-9223372036854775808"), Value::Int(i64::MIN));
    }

    #[test]
    fn containers() {
        assert_eq!(p("[]"), Value::array());
        assert_eq!(p("{}"), Value::object());
        assert_eq!(p("[1,[2,[3]]]").get_index(1).unwrap().get_index(1).unwrap().get_index(0), Some(&Value::Int(3)));
        let v = p(r#"{"a": {"b": [1, 2]}}"#);
        assert_eq!(v.get("a").unwrap().get("b").unwrap().get_index(0), Some(&Value::Int(1)));
    }

    #[test]
    fn whitespace_everywhere() {
        assert_eq!(p(" \t\n{ \"a\" :\r [ 1 , 2 ] } \n"), p(r#"{"a":[1,2]}"#));
    }

    #[test]
    fn escapes() {
        assert_eq!(p(r#""\n\t\"\\\/\b\f\r""#), Value::from("\n\t\"\\/\u{8}\u{c}\r"));
        assert_eq!(p(r#""A""#), Value::from("A"));
        assert_eq!(p(r#""é""#), Value::from("é"));
        // Surrogate pair for U+1F600.
        assert_eq!(p(r#""😀""#), Value::from("😀"));
    }

    #[test]
    fn raw_utf8_passthrough() {
        assert_eq!(p("\"héllo ∆ 😀\""), Value::from("héllo ∆ 😀"));
    }

    #[test]
    fn duplicate_keys_last_wins() {
        assert_eq!(p(r#"{"a":1,"a":2}"#).get("a"), Some(&Value::Int(2)));
    }

    #[test]
    fn rejects_malformed() {
        fails("");
        fails("nul");
        fails("tru");
        fails("[1,");
        fails("[1 2]");
        fails("{\"a\":}");
        fails("{a: 1}");
        fails("\"unterminated");
        fails("\"bad\\escape\"");
        fails("01");
        fails("1.");
        fails("1e");
        fails("-");
        fails("+1");
        fails("[]]");
        fails("{} {}");
        fails("\"\\ud83d\""); // lone high surrogate
        fails("\"\\ude00\""); // lone low surrogate
        fails("\"\u{01}\"");
    }

    #[test]
    fn depth_limit_enforced() {
        let deep_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&deep_ok).is_ok());
        let deep_bad = format!("{}1{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
        assert!(Value::parse(&deep_bad).is_err());
    }

    #[test]
    fn error_offsets_point_at_problem() {
        let e = Value::parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }
}
