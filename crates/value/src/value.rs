//! The [`Value`] enum and its accessors/constructors.

use crate::Map;
use std::fmt;
use std::sync::Arc;

/// An owned JSON value.
///
/// Numbers are split into [`Value::Int`] (exact 64-bit signed integers) and
/// [`Value::Float`] (IEEE 754 doubles). JSON text containing an integral
/// literal without a fraction or exponent parses to `Int` when it fits in
/// `i64`, and to `Float` otherwise, matching the behaviour HPC tooling
/// expects for ranks, counts, and sizes.
///
/// [`Value::Bytes`] is the one variant JSON text has no literal for: a
/// byte string shared by reference, which the canonical encoding carries
/// verbatim and JSON text renders as lowercase hex. It is how a KVS
/// object travels as the bytes its address hashes.
///
/// [`Value::StrView`] is a string decoded in place
/// ([`Value::decode_canonical_shared`]): it reads as, compares equal to
/// and encodes exactly as the [`Value::Str`] holding the same text, and
/// differs only in where its bytes live.
#[derive(Clone, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// An exact signed 64-bit integer.
    Int(i64),
    /// An IEEE 754 double-precision float.
    Float(f64),
    /// A UTF-8 string.
    Str(String),
    /// A UTF-8 string that is a slice of a shared buffer: a string the
    /// shared decoder read, still in the bytes it was read from.
    StrView(StrView),
    /// An ordered array of values.
    Array(Vec<Value>),
    /// A key→value object with deterministic (sorted) key order.
    Object(Map),
    /// A byte string, shared by reference: a clone is a reference-count
    /// bump. JSON text renders it as a lowercase hex string, which
    /// parses back as a [`Value::Str`].
    Bytes(Arc<[u8]>),
}

impl Value {
    /// Builds an empty object.
    pub fn object() -> Value {
        Value::Object(Map::new())
    }

    /// Builds an empty array.
    pub fn array() -> Value {
        Value::Array(Vec::new())
    }

    /// Convenience constructor: an object from an iterator of pairs. A
    /// repeated key keeps its last value, as `collect` into a [`Map`]
    /// does.
    ///
    /// ```
    /// use flux_value::Value;
    /// let v = Value::from_pairs([("a", Value::Int(1)), ("b", Value::Bool(true))]);
    /// assert_eq!(v.get("a"), Some(&Value::Int(1)));
    /// ```
    pub fn from_pairs<K, I>(pairs: I) -> Value
    where
        K: Into<String>,
        I: IntoIterator<Item = (K, Value)>,
    {
        // `collect` sizes the entries from the size hint and sorts them
        // only if they arrive out of order.
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Returns `true` if this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the boolean if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the integer as `u64` if this is a non-negative `Int`.
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Returns a float if this is `Float` or `Int` (ints convert losslessly
    /// enough for metric use).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the string slice if this is a `Str` or a `StrView`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::StrView(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The UTF-8 bytes of a `Str` or a `StrView`, read without a check:
    /// what equality compares.
    pub(crate) fn text_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Str(s) => Some(s.as_bytes()),
            Value::StrView(s) => Some(s.as_bytes()),
            _ => None,
        }
    }

    /// Returns the shared bytes if this is `Bytes`.
    pub fn as_bytes(&self) -> Option<&Arc<[u8]>> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the array slice if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the object map if this is an `Object`.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Returns a mutable object map if this is an `Object`.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Looks up `key` in an object; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Looks up index `i` in an array.
    pub fn get_index(&self, i: usize) -> Option<&Value> {
        self.as_array().and_then(|a| a.get(i))
    }

    /// Inserts `key = value` into an object, converting `self` to an empty
    /// object first if it was `Null`. Returns the previous value if any.
    ///
    /// # Panics
    ///
    /// Panics if `self` is neither an object nor null — inserting into a
    /// scalar is a logic error we want loud.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        if self.is_null() {
            *self = Value::object();
        }
        match self {
            Value::Object(m) => m.insert(key.into(), value),
            other => panic!("Value::insert on non-object {other:?}"),
        }
    }

    /// [`Value::encoded_len`] under its former name, kept for the one
    /// benchmark probe that still calls it; `approx_size_sane` and
    /// `approx_size_is_monotone_in_content` still hold it.
    #[doc(hidden)]
    pub fn approx_size(&self) -> usize {
        self.encoded_len()
    }
}

/// A string decoded in place: `len` bytes of `buf` from `start`, checked
/// as UTF-8 when they were decoded. A clone is a reference-count bump,
/// and the buffer lives as long as any view into it.
#[derive(Clone)]
pub struct StrView {
    buf: Arc<[u8]>,
    start: u32,
    len: u32,
}

impl StrView {
    /// A view of `buf[start..start + len]`, which the caller has checked
    /// is UTF-8; `None` if `start` or `len` does not fit a `u32`.
    pub(crate) fn new(buf: &Arc<[u8]>, start: usize, len: usize) -> Option<StrView> {
        let (start, len) = (start.try_into().ok()?, len.try_into().ok()?);
        Some(StrView { buf: Arc::clone(buf), start, len })
    }

    /// The viewed bytes.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        let start = self.start as usize;
        &self.buf[start..start + self.len as usize]
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("checked as UTF-8 when decoded")
    }

    /// The buffer the text is a slice of.
    pub fn buf(&self) -> &Arc<[u8]> {
        &self.buf
    }
}

impl PartialEq for Value {
    /// Structural equality, a view equal to the `Str` of the same text.
    fn eq(&self, other: &Value) -> bool {
        if let (Some(a), Some(b)) = (self.text_bytes(), other.text_bytes()) {
            return a == b;
        }
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Debug for Value {
    /// What `derive(Debug)` writes, a view written as the `Str` of the
    /// same text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("Null"),
            Value::Bool(b) => f.debug_tuple("Bool").field(b).finish(),
            Value::Int(i) => f.debug_tuple("Int").field(i).finish(),
            Value::Float(x) => f.debug_tuple("Float").field(x).finish(),
            Value::Str(s) => f.debug_tuple("Str").field(s).finish(),
            Value::StrView(s) => f.debug_tuple("Str").field(&s.as_str()).finish(),
            Value::Array(a) => f.debug_tuple("Array").field(a).finish(),
            Value::Object(m) => f.debug_tuple("Object").field(m).finish(),
            Value::Bytes(b) => f.debug_tuple("Bytes").field(b).finish(),
        }
    }
}

impl fmt::Display for Value {
    /// Displays as compact JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<usize> for Value {
    /// Converts, saturating at `i64::MAX` (sizes beyond 2^63 do not occur).
    fn from(i: usize) -> Self {
        Value::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert!(Value::Null.is_null());
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(-3).as_int(), Some(-3));
        assert_eq!(Value::Int(-3).as_uint(), None);
        assert_eq!(Value::Int(3).as_uint(), Some(3));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert!(Value::Bool(true).as_str().is_none());
        let bytes: Arc<[u8]> = Arc::from(&b"ab"[..]);
        assert!(Arc::ptr_eq(Value::Bytes(Arc::clone(&bytes)).as_bytes().unwrap(), &bytes));
        assert!(Value::from("ab").as_bytes().is_none());
    }

    #[test]
    fn insert_and_get() {
        let mut v = Value::Null;
        v.insert("a", Value::Int(1));
        v.insert("b", Value::from("x"));
        assert_eq!(v.get("a"), Some(&Value::Int(1)));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.insert("a", Value::Int(2)), Some(Value::Int(1)));
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn insert_into_scalar_panics() {
        let mut v = Value::Int(1);
        v.insert("a", Value::Null);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(vec![1i64, 2]), Value::Array(vec![Value::Int(1), Value::Int(2)]));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(7i64)), Value::Int(7));
    }

    #[test]
    fn approx_size_is_monotone_in_content() {
        let small = Value::from("ab");
        let big = Value::from("abcdefgh");
        assert!(big.approx_size() > small.approx_size());
        let arr = Value::from(vec![1i64; 100]);
        assert!(arr.approx_size() >= 800);
    }

    #[test]
    fn a_value_is_four_words() {
        assert_eq!(std::mem::size_of::<Value>(), 32);
    }

    #[test]
    fn a_view_reads_compares_and_prints_as_its_string() {
        let buf: Arc<[u8]> = Arc::from(&b"xhi\"y"[..]);
        let view = Value::StrView(StrView::new(&buf, 1, 4).unwrap());
        let owned = Value::from("hi\"y");
        assert_eq!(view.as_str(), Some("hi\"y"));
        assert_eq!(view, owned);
        assert_eq!(owned, view);
        assert_ne!(view, Value::from("hi"));
        assert_ne!(view, Value::Bytes(Arc::from(&b"hi\"y"[..])));
        assert_eq!(format!("{view:?}"), format!("{owned:?}"));
        assert_eq!(format!("{view:#?}"), format!("{owned:#?}"));
        assert_eq!(view.to_json(), owned.to_json());
        let Value::StrView(s) = &view else { unreachable!("a view") };
        assert!(Arc::ptr_eq(s.buf(), &buf));
    }

    #[test]
    fn object_keys_are_sorted() {
        let v = Value::from_pairs([("z", Value::Int(1)), ("a", Value::Int(2))]);
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["a", "z"]);
    }
}
