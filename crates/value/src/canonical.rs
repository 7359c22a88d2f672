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
//! * each value is prefixed by a one-byte tag,
//! * a byte string ([`Value::Bytes`]) is its length and its bytes,
//!   verbatim: a KVS object embedded in a payload is exactly the bytes
//!   its address hashes.
//!
//! The encoding is self-delimiting, so it can be embedded in larger frames.

use crate::value::StrView;
use crate::{Map, Value};
use std::fmt;
use std::sync::Arc;

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
    pub const BYTES: u8 = 0x08;
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
        let mut out = Vec::with_capacity(self.encoded_len());
        encode_into(self, &mut out);
        out
    }

    /// Length of the canonical encoding, summed without writing it: the
    /// bytes this value adds to a frame or a KVS object, and so what the
    /// KVS cache and the simulator's cost model charge for it. Mirrors
    /// `encode_into` arm for arm.
    pub fn encoded_len(&self) -> usize {
        let text = |len: usize| varint_len(len as u64) + len;
        1 + match self {
            Value::Null | Value::Bool(_) => 0,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => text(s.len()),
            Value::StrView(s) => text(s.as_bytes().len()),
            Value::Bytes(b) => varint_len(b.len() as u64) + b.len(),
            Value::Array(a) => {
                varint_len(a.len() as u64) + a.iter().map(Value::encoded_len).sum::<usize>()
            }
            Value::Object(m) => {
                varint_len(m.len() as u64)
                    + m.iter().map(|(k, v)| text(k.len()) + v.encoded_len()).sum::<usize>()
            }
        }
    }

    /// Appends the canonical encoding to `out` (avoids intermediate
    /// allocations when framing).
    pub fn encode_canonical_into(&self, out: &mut Vec<u8>) {
        encode_into(self, out);
    }

    /// Decodes a value from the canonical binary form, requiring the input
    /// to be exactly one value.
    pub fn decode_canonical(bytes: &[u8]) -> Result<Value, DecodeError> {
        let mut cur = Cursor { bytes, pos: 0, shared: None };
        let v = decode_one(&mut cur, 0)?;
        if cur.pos != bytes.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(v)
    }

    /// Decodes `buf[from..]` as [`Value::decode_canonical`] does, with
    /// its checks, except that every string is a [`Value::StrView`] of
    /// `buf`: the value shares the buffer it was read from instead of
    /// copying its text. Object keys are owned.
    pub fn decode_canonical_shared(buf: &Arc<[u8]>, from: usize) -> Result<Value, DecodeError> {
        let mut cur = Cursor { bytes: buf, pos: from, shared: Some(buf) };
        let v = decode_one(&mut cur, 0)?;
        if cur.pos != buf.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(v)
    }

    /// Checks that `bytes` are exactly one value's canonical encoding
    /// without building the value: the same verdict, error for error, as
    /// [`Value::decode_canonical`], and no allocation. What a receiver
    /// runs on bytes it stores or passes on as they came.
    pub fn check_canonical(bytes: &[u8]) -> Result<(), DecodeError> {
        let mut cur = Cursor { bytes, pos: 0, shared: None };
        skip_one(&mut cur, 0)?;
        if cur.pos != bytes.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(())
    }

    /// Decodes one value from the front of `bytes`, returning it and the
    /// number of bytes consumed.
    pub fn decode_canonical_prefix(bytes: &[u8]) -> Result<(Value, usize), DecodeError> {
        let mut cur = Cursor { bytes, pos: 0, shared: None };
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

/// Number of bytes [`write_varint`] writes for `v`.
pub fn varint_len(v: u64) -> usize {
    // One byte per started group of 7 bits; 0 still takes a byte.
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
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
        Value::Str(s) => encode_text(s.as_bytes(), out),
        Value::StrView(s) => encode_text(s.as_bytes(), out),
        Value::Bytes(b) => {
            out.push(tag::BYTES);
            write_varint(out, b.len() as u64);
            out.extend_from_slice(b);
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

fn encode_text(s: &[u8], out: &mut Vec<u8>) {
    out.push(tag::STR);
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s);
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// `bytes` as a shared buffer, when strings are decoded as views of it.
    shared: Option<&'a Arc<[u8]>>,
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

    /// A length-prefixed run of bytes.
    fn run(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.varint()? as usize;
        self.take(len)
    }

    fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.run()?).map_err(|_| DecodeError::BadUtf8)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        self.str().map(str::to_owned)
    }

    /// A string value: a view of the shared buffer if there is one,
    /// an owned copy otherwise.
    fn text(&mut self) -> Result<Value, DecodeError> {
        let s = self.str()?;
        let view = self.shared.and_then(|buf| StrView::new(buf, self.pos - s.len(), s.len()));
        Ok(view.map_or_else(|| Value::Str(s.to_owned()), Value::StrView))
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
        tag::STR => cur.text()?,
        tag::BYTES => Value::Bytes(Arc::from(cur.run()?)),
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

/// [`decode_one`]'s checks, in its order, with nothing built.
fn skip_one(cur: &mut Cursor<'_>, depth: u32) -> Result<(), DecodeError> {
    if depth > MAX_DEPTH {
        return Err(DecodeError::TooDeep);
    }
    match cur.take(1)?[0] {
        tag::NULL | tag::FALSE | tag::TRUE => {}
        tag::INT | tag::FLOAT => {
            cur.take(8)?;
        }
        tag::STR => {
            cur.str()?;
        }
        tag::BYTES => {
            cur.run()?;
        }
        tag::ARRAY => {
            for _ in 0..cur.varint()? {
                skip_one(cur, depth + 1)?;
            }
        }
        tag::OBJECT => {
            let mut prev = None;
            for _ in 0..cur.varint()? {
                let k = cur.str()?;
                if prev.is_some_and(|p| p >= k) {
                    return Err(DecodeError::UnsortedKeys);
                }
                prev = Some(k);
                skip_one(cur, depth + 1)?;
            }
        }
        other => return Err(DecodeError::BadTag(other)),
    }
    Ok(())
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
        roundtrip(Value::Bytes(Arc::from(&b""[..])));
        roundtrip(Value::Bytes(Arc::from(&[0u8, 0xff, b'V'][..])));
    }

    #[test]
    fn bytes_are_carried_verbatim_under_their_own_tag() {
        let raw = [b'V', 0x03, 0xff];
        let enc = Value::Bytes(Arc::from(&raw[..])).encode_canonical();
        assert_eq!(enc, [&[tag::BYTES, 3][..], &raw].concat());
        // The same bytes as a string are another value.
        assert_ne!(Value::from("abc").encode_canonical()[1..], enc[1..]);
        assert_eq!(Value::check_canonical(&enc), Ok(()));
        assert_eq!(Value::check_canonical(&enc[..4]), Err(DecodeError::Truncated));
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
        for v in [0u64, 1, 127, 128, 16383, 16384, 1 << 62, 1 << 63, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (back, n) = read_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!((n, varint_len(v)), (buf.len(), buf.len()));
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
        assert_eq!(Value::check_canonical(&buf), Err(DecodeError::UnsortedKeys));
        // Duplicate keys are likewise non-canonical.
        let mut buf = vec![0x07, 2];
        buf.extend([1, b'a', 0x00]);
        buf.extend([1, b'a', 0x00]);
        assert_eq!(Value::decode_canonical(&buf), Err(DecodeError::UnsortedKeys));
        assert_eq!(Value::check_canonical(&buf), Err(DecodeError::UnsortedKeys));
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
        assert_eq!(Value::check_canonical(&deep), Err(DecodeError::TooDeep));
        // Sane nesting still decodes.
        let ok = nested_array_bytes(MAX_DEPTH as usize);
        assert!(Value::decode_canonical(&ok).is_ok());
        // One past the limit is the boundary.
        let over = nested_array_bytes(MAX_DEPTH as usize + 2);
        assert_eq!(Value::decode_canonical(&over), Err(DecodeError::TooDeep));
    }

    #[test]
    fn a_shared_decode_views_every_string_in_its_buffer_and_owns_keys() {
        let v = Value::parse(r#"{"k":["ab",1,{"x":"cd"}],"s":""}"#).unwrap();
        let buf: Arc<[u8]> = [&b"V"[..], &v.encode_canonical()].concat().into();
        let shared = Value::decode_canonical_shared(&buf, 1).unwrap();
        assert_eq!(shared, v);
        let view = |v: &Value| match v {
            Value::StrView(s) => Arc::ptr_eq(s.buf(), &buf).then(|| s.as_str().to_owned()),
            _ => None,
        };
        let list = shared.get("k").and_then(Value::as_array).unwrap();
        assert_eq!(view(&list[0]).as_deref(), Some("ab"));
        assert_eq!(view(list[2].get("x").unwrap()).as_deref(), Some("cd"));
        assert_eq!(view(shared.get("s").unwrap()).as_deref(), Some(""));
        assert_eq!(Value::decode_canonical_shared(&buf, 0), Err(DecodeError::BadTag(b'V')));
        for past in [buf.len(), buf.len() + 1] {
            assert_eq!(Value::decode_canonical_shared(&buf, past), Err(DecodeError::Truncated));
        }
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
