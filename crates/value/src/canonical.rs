//! Canonical binary encoding.
//!
//! The KVS content-addresses objects by the SHA1 of their encoding
//! (paper §IV-B, the ZFS/git-style hash tree). That only works if equal
//! values encode to identical bytes, so this encoding is *canonical*:
//!
//! * objects iterate in sorted key order (guaranteed by [`crate::Map`]),
//! * lengths are unsigned LEB128 varints,
//! * integers are 8-byte little-endian two's complement,
//! * floats are 8-byte little-endian IEEE 754 bit patterns (so `-0.0` and
//!   `0.0` encode differently, and every NaN bit pattern is preserved),
//! * each value is prefixed by a one-byte tag.
//!
//! The encoding is self-delimiting, so it can be embedded in larger frames.

use crate::{Map, Value};
use std::fmt;

/// Value tags in the canonical encoding.
mod tag {
    pub const NULL: u8 = 0x00;
    pub const FALSE: u8 = 0x01;
    pub const TRUE: u8 = 0x02;
    pub const INT: u8 = 0x03;
    pub const FLOAT: u8 = 0x04;
    pub const STR: u8 = 0x05;
    pub const ARRAY: u8 = 0x06;
    pub const OBJECT: u8 = 0x07;
}

/// An error produced while decoding the canonical encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    Truncated,
    /// An unknown tag byte was found.
    BadTag(u8),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A varint was longer than 10 bytes.
    BadVarint,
    /// Bytes remained after the root value (when using `decode_canonical`).
    TrailingBytes,
    /// Object keys were not strictly ascending (non-canonical input).
    UnsortedKeys,
    /// Containers nested beyond [`MAX_DEPTH`] (hostile or corrupt input;
    /// decoding recurses, so unbounded nesting would overflow the stack).
    TooDeep,
}

/// Maximum container nesting depth the decoder accepts. Far above
/// anything the KVS or the control plane produces, far below what could
/// exhaust a thread stack.
pub const MAX_DEPTH: u32 = 128;

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "canonical value truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown canonical tag {t:#04x}"),
            DecodeError::BadUtf8 => write!(f, "canonical string is not UTF-8"),
            DecodeError::BadVarint => write!(f, "varint too long"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after canonical value"),
            DecodeError::UnsortedKeys => write!(f, "object keys not in canonical order"),
            DecodeError::TooDeep => {
                write!(f, "containers nested deeper than {MAX_DEPTH}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl Value {
    /// Encodes to the canonical binary form.
    pub fn encode_canonical(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.approx_size() + 16);
        encode_into(self, &mut out);
        out
    }

    /// Appends the canonical encoding to `out` (avoids intermediate
    /// allocations when framing).
    pub fn encode_canonical_into(&self, out: &mut Vec<u8>) {
        encode_into(self, out);
    }

    /// Decodes a value from the canonical binary form, requiring the input
    /// to be exactly one value.
    pub fn decode_canonical(bytes: &[u8]) -> Result<Value, DecodeError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let v = decode_one(&mut cur, 0)?;
        if cur.pos != bytes.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(v)
    }

    /// Decodes one value from the front of `bytes`, returning it and the
    /// number of bytes consumed.
    pub fn decode_canonical_prefix(bytes: &[u8]) -> Result<(Value, usize), DecodeError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let v = decode_one(&mut cur, 0)?;
        Ok((v, cur.pos))
    }
}

/// Writes `v` as an unsigned LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint from the front of `bytes`, returning
/// the value and bytes consumed.
pub fn read_varint(bytes: &[u8]) -> Result<(u64, usize), DecodeError> {
    let mut v: u64 = 0;
    for (i, &b) in bytes.iter().enumerate().take(10) {
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            return Ok((v, i + 1));
        }
    }
    if bytes.len() < 10 {
        Err(DecodeError::Truncated)
    } else {
        Err(DecodeError::BadVarint)
    }
}

fn encode_into(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(tag::NULL),
        Value::Bool(false) => out.push(tag::FALSE),
        Value::Bool(true) => out.push(tag::TRUE),
        Value::Int(i) => {
            out.push(tag::INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(tag::FLOAT);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(tag::STR);
            write_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(a) => {
            out.push(tag::ARRAY);
            write_varint(out, a.len() as u64);
            for item in a {
                encode_into(item, out);
            }
        }
        Value::Object(m) => {
            out.push(tag::OBJECT);
            write_varint(out, m.len() as u64);
            for (k, val) in m {
                write_varint(out, k.len() as u64);
                out.extend_from_slice(k.as_bytes());
                encode_into(val, out);
            }
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.bytes.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, DecodeError> {
        let (v, n) = read_varint(&self.bytes[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    /// How many of `claimed` elements, each at least `min_bytes` long,
    /// the unread input can hold: a container is sized from its length
    /// prefix, but a hostile prefix reserves no more than the input.
    fn room(&self, claimed: u64, min_bytes: usize) -> usize {
        let left = (self.bytes.len() - self.pos) / min_bytes;
        usize::try_from(claimed).map_or(left, |n| n.min(left))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.varint()? as usize;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map(str::to_owned).map_err(|_| DecodeError::BadUtf8)
    }
}

fn decode_one(cur: &mut Cursor<'_>, depth: u32) -> Result<Value, DecodeError> {
    if depth > MAX_DEPTH {
        return Err(DecodeError::TooDeep);
    }
    let t = cur.take(1)?[0];
    Ok(match t {
        tag::NULL => Value::Null,
        tag::FALSE => Value::Bool(false),
        tag::TRUE => Value::Bool(true),
        tag::INT => {
            let raw: [u8; 8] = cur.take(8)?.try_into().expect("len checked");
            Value::Int(i64::from_le_bytes(raw))
        }
        tag::FLOAT => {
            let raw: [u8; 8] = cur.take(8)?.try_into().expect("len checked");
            Value::Float(f64::from_bits(u64::from_le_bytes(raw)))
        }
        tag::STR => Value::Str(cur.string()?),
        tag::ARRAY => {
            let len = cur.varint()?;
            let mut a = Vec::with_capacity(cur.room(len, 1));
            for _ in 0..len {
                a.push(decode_one(cur, depth + 1)?);
            }
            Value::Array(a)
        }
        tag::OBJECT => {
            let len = cur.varint()?;
            // An entry is at least a key length and a value tag.
            let mut m = Map::with_capacity(cur.room(len, 2));
            for _ in 0..len {
                let k = cur.string()?;
                // Keys arrive strictly ascending, so the map's last key is
                // the previous one: no copy of it is kept.
                if m.last_key_value().is_some_and(|(prev, _)| *prev >= k) {
                    return Err(DecodeError::UnsortedKeys);
                }
                let v = decode_one(cur, depth + 1)?;
                m.push_last(k, v);
            }
            Value::Object(m)
        }
        other => return Err(DecodeError::BadTag(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let enc = v.encode_canonical();
        assert_eq!(Value::decode_canonical(&enc).unwrap(), v, "roundtrip of {v:?}");
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(Value::Null);
        roundtrip(Value::Bool(true));
        roundtrip(Value::Bool(false));
        roundtrip(Value::Int(0));
        roundtrip(Value::Int(i64::MIN));
        roundtrip(Value::Int(i64::MAX));
        roundtrip(Value::Float(0.0));
        roundtrip(Value::Float(-1.5e300));
        roundtrip(Value::from("hello ∆ world"));
        roundtrip(Value::from(""));
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(Value::array());
        roundtrip(Value::object());
        roundtrip(Value::parse(r#"{"a":[1,{"b":null}],"c":"x"}"#).unwrap());
    }

    #[test]
    fn negative_zero_distinct_from_zero() {
        let pz = Value::Float(0.0).encode_canonical();
        let nz = Value::Float(-0.0).encode_canonical();
        assert_ne!(pz, nz);
    }

    #[test]
    fn equal_values_encode_identically() {
        // Build the same object with different insertion orders.
        let a = Value::from_pairs([("x", Value::Int(1)), ("y", Value::Int(2))]);
        let b = Value::from_pairs([("y", Value::Int(2)), ("x", Value::Int(1))]);
        assert_eq!(a.encode_canonical(), b.encode_canonical());
    }

    #[test]
    fn varint_edge_cases() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (back, n) = read_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overlong() {
        let eleven = [0x80u8; 11];
        assert_eq!(read_varint(&eleven), Err(DecodeError::BadVarint));
        assert_eq!(read_varint(&[0x80]), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = Value::from("hello").encode_canonical();
        for cut in 0..enc.len() {
            assert!(Value::decode_canonical(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_rejects_bad_tag_and_trailing() {
        assert_eq!(Value::decode_canonical(&[0xff]), Err(DecodeError::BadTag(0xff)));
        let mut enc = Value::Null.encode_canonical();
        enc.push(0);
        assert_eq!(Value::decode_canonical(&enc), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn decode_rejects_unsorted_or_duplicate_keys() {
        // Hand-build an object with keys in the wrong order: {"b":null,"a":null}.
        let mut buf = vec![0x07, 2];
        buf.extend([1, b'b', 0x00]);
        buf.extend([1, b'a', 0x00]);
        assert_eq!(Value::decode_canonical(&buf), Err(DecodeError::UnsortedKeys));
        // Duplicate keys are likewise non-canonical.
        let mut buf = vec![0x07, 2];
        buf.extend([1, b'a', 0x00]);
        buf.extend([1, b'a', 0x00]);
        assert_eq!(Value::decode_canonical(&buf), Err(DecodeError::UnsortedKeys));
    }

    #[test]
    fn a_length_prefix_claiming_more_than_the_input_holds_is_truncated() {
        // 2^40 entries claimed, one present: the container is sized by
        // the bytes left (a reservation of 2^40 entries would abort).
        for (tag, entry) in [(tag::OBJECT, &[1, b'a', tag::NULL][..]), (tag::ARRAY, &[tag::NULL])] {
            let mut buf = vec![tag];
            write_varint(&mut buf, 1 << 40);
            buf.extend_from_slice(entry);
            assert_eq!(Value::decode_canonical(&buf), Err(DecodeError::Truncated));
        }
    }

    /// `[[[…]]]` nested `n` deep, as raw bytes (each level is tag + len 1,
    /// innermost is the empty array).
    fn nested_array_bytes(n: usize) -> Vec<u8> {
        let mut buf = Vec::with_capacity(2 * n);
        for _ in 0..n.saturating_sub(1) {
            buf.extend([tag::ARRAY, 1]);
        }
        buf.extend([tag::ARRAY, 0]);
        buf
    }

    #[test]
    fn decode_rejects_hostile_nesting_depth() {
        // Deep nesting must return an error, not blow the stack: this is
        // what a 20 KB hostile frame would do to a broker thread.
        let deep = nested_array_bytes(10_000);
        assert_eq!(Value::decode_canonical(&deep), Err(DecodeError::TooDeep));
        // Sane nesting still decodes.
        let ok = nested_array_bytes(MAX_DEPTH as usize);
        assert!(Value::decode_canonical(&ok).is_ok());
        // One past the limit is the boundary.
        let over = nested_array_bytes(MAX_DEPTH as usize + 2);
        assert_eq!(Value::decode_canonical(&over), Err(DecodeError::TooDeep));
    }

    #[test]
    fn prefix_decoding_reports_consumed() {
        let mut buf = Value::Int(7).encode_canonical();
        let one = buf.len();
        buf.extend(Value::from("x").encode_canonical());
        let (v, n) = Value::decode_canonical_prefix(&buf).unwrap();
        assert_eq!(v, Value::Int(7));
        assert_eq!(n, one);
        let (v2, _) = Value::decode_canonical_prefix(&buf[n..]).unwrap();
        assert_eq!(v2, Value::from("x"));
    }
}
