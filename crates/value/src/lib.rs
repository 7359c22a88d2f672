//! # flux-value
//!
//! JSON-compatible value type used throughout flux-rs.
//!
//! The ICPP'14 Flux paper specifies that every CMB message carries a JSON
//! payload frame, and that the KVS stores JSON objects in a
//! content-addressable object store keyed by SHA1 digest. Content addressing
//! requires a *canonical* encoding — two semantically equal values must
//! produce byte-identical encodings — which ordinary JSON text does not
//! provide (key order, whitespace, number formatting all vary). This crate
//! therefore provides:
//!
//! * [`Value`] — an owned JSON value with deterministic object ordering
//!   (an object is a [`Map`], its entries in one key-sorted vector),
//! * a JSON text parser ([`Value::parse`]) and serializer
//!   ([`Value::to_json`], [`Value::to_json_pretty`]),
//! * a canonical binary encoding ([`Value::encode_canonical`] /
//!   [`Value::decode_canonical`]) that is injective on values and is what
//!   the KVS hashes, and a decoder whose strings are views of the buffer
//!   they were read from ([`Value::decode_canonical_shared`]).
//!
//! # Example
//!
//! ```
//! use flux_value::Value;
//!
//! let v = Value::parse(r#"{"rank": 3, "host": "zin64", "cores": [0, 1]}"#).unwrap();
//! assert_eq!(v.get("rank").and_then(Value::as_int), Some(3));
//! let bytes = v.encode_canonical();
//! assert_eq!(Value::decode_canonical(&bytes).unwrap(), v);
//! ```

mod canonical;
pub mod map;
mod parse;
mod ser;
mod value;

pub use canonical::{read_varint, varint_len, write_varint, DecodeError};
pub use parse::ParseError;
pub use map::Map;
pub use value::{StrView, Value};

#[cfg(test)]
mod proptests;
