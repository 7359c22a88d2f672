//! KVS objects: values and directories.
//!
//! An object is its canonical bytes ([`KvsObject::encode`]), and its
//! name is their SHA1, as a git object's is. Every tier stores, serves
//! and passes on those bytes as one `Arc<[u8]>`, embedded in a payload
//! as a [`Value::Bytes`] ([`KvsObject::to_value`]). A receiver checks
//! an object by hashing the slice it got ([`value_id`], [`receive`]);
//! only a directory is decoded, once, into the view a walk reads.

use flux_hash::ObjectId;
use flux_value::{varint_len, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A stored object: either a JSON value or a directory mapping names to
/// other objects by their SHA1 reference (paper §IV-B: "A directory is an
/// object that maps a list of names to other objects by their SHA1
/// reference").
#[derive(Clone, PartialEq, Debug)]
pub enum KvsObject {
    /// A terminal JSON value.
    Val(Value),
    /// A directory: name → object reference, deterministically ordered.
    Dir(BTreeMap<String, ObjectId>),
}

/// Errors converting wire payloads into objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectError {
    /// Payload was not a recognizable object encoding.
    Malformed,
}

impl fmt::Display for ObjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectError::Malformed => write!(f, "malformed KVS object"),
        }
    }
}

impl std::error::Error for ObjectError {}

impl KvsObject {
    /// An empty directory (the initial root of every session).
    pub fn empty_dir() -> KvsObject {
        KvsObject::Dir(BTreeMap::new())
    }

    /// True if this is a directory.
    pub fn is_dir(&self) -> bool {
        matches!(self, KvsObject::Dir(_))
    }

    /// The canonical byte encoding this object is hashed over.
    ///
    /// Values and directories get distinct leading tags so a value that
    /// *looks* like a directory listing cannot collide with one.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            KvsObject::Val(v) => encode_val(v),
            KvsObject::Dir(entries) => {
                let mut out = Vec::with_capacity(self.encoded_len());
                out.push(b'D');
                flux_value::write_varint(&mut out, entries.len() as u64);
                for (name, id) in entries {
                    flux_value::write_varint(&mut out, name.len() as u64);
                    out.extend_from_slice(name.as_bytes());
                    out.extend_from_slice(&id.0);
                }
                out
            }
        }
    }

    /// Decodes the canonical byte encoding. A directory's names must
    /// ascend strictly, as `encode` writes them, so a decoded directory
    /// encodes back to the bytes it came from.
    pub fn decode(bytes: &[u8]) -> Result<KvsObject, ObjectError> {
        match bytes.first() {
            Some(b'V') => Value::decode_canonical(&bytes[1..])
                .map(KvsObject::Val)
                .map_err(|_| ObjectError::Malformed),
            Some(b'D') => {
                let mut pos = 1;
                let (count, used) =
                    flux_value::read_varint(&bytes[pos..]).map_err(|_| ObjectError::Malformed)?;
                pos += used;
                let mut entries = BTreeMap::new();
                for _ in 0..count {
                    let (nlen, used) = flux_value::read_varint(&bytes[pos..])
                        .map_err(|_| ObjectError::Malformed)?;
                    pos += used;
                    let nlen = nlen as usize;
                    if pos + nlen + 20 > bytes.len() {
                        return Err(ObjectError::Malformed);
                    }
                    let name = std::str::from_utf8(&bytes[pos..pos + nlen])
                        .map_err(|_| ObjectError::Malformed)?
                        .to_owned();
                    pos += nlen;
                    if entries.last_key_value().is_some_and(|(prev, _)| *prev >= name) {
                        return Err(ObjectError::Malformed);
                    }
                    let mut digest = [0u8; 20];
                    digest.copy_from_slice(&bytes[pos..pos + 20]);
                    pos += 20;
                    entries.insert(name, ObjectId(digest));
                }
                if pos != bytes.len() {
                    return Err(ObjectError::Malformed);
                }
                Ok(KvsObject::Dir(entries))
            }
            _ => Err(ObjectError::Malformed),
        }
    }

    /// The content address: SHA1 of the canonical encoding.
    pub fn id(&self) -> ObjectId {
        ObjectId::hash(&self.encode())
    }

    /// Length of [`KvsObject::encode`]'s output, summed without encoding.
    /// A directory entry costs its name, the name's length prefix and a
    /// 20-byte id: a directory grows with its entries, which is what
    /// makes a single-directory `kvs_get` heavy at scale (Fig. 4a).
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            KvsObject::Val(v) => v.encoded_len(),
            KvsObject::Dir(entries) => {
                let entry = |name: &String| varint_len(name.len() as u64) + name.len() + 20;
                varint_len(entries.len() as u64) + entries.keys().map(entry).sum::<usize>()
            }
        }
    }

    /// Embeds the object in a payload as its canonical bytes, the form
    /// a `kvs.load` reply and a batch's object manifest carry.
    pub fn to_value(&self) -> Value {
        Value::Bytes(self.encode().into())
    }

    /// Decodes the [`KvsObject::to_value`] embedding.
    pub fn from_value(v: &Value) -> Result<KvsObject, ObjectError> {
        KvsObject::decode(v.as_bytes().ok_or(ObjectError::Malformed)?)
    }
}

/// The canonical bytes of the value object holding `v`, encoded from a
/// borrow: what `kvs.put` stores.
pub(crate) fn encode_val(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + v.encoded_len());
    out.push(b'V');
    v.encode_canonical_into(&mut out);
    out
}

/// Checks bytes received as a value object, a batch's manifest entry:
/// their address, if they are one well-formed value object. Nothing is
/// decoded. A batch carries the value objects its puts made, so a
/// directory there is malformed.
pub(crate) fn value_id(bytes: &[u8]) -> Option<ObjectId> {
    let (b'V', body) = bytes.split_first()? else { return None };
    Value::check_canonical(body).ok()?;
    Some(ObjectId::hash(bytes))
}

/// Checks bytes received as any object, a `kvs.load` reply's: their
/// address, and a directory's view decoded from them (`None` for a
/// value, which is read from its bytes). `None` if they are not a
/// well-formed object.
pub(crate) fn receive(bytes: &[u8]) -> Option<(ObjectId, Option<KvsObject>)> {
    if bytes.first() == Some(&b'D') {
        let dir = KvsObject::decode(bytes).ok()?;
        return Some((ObjectId::hash(bytes), Some(dir)));
    }
    Some((value_id(bytes)?, None))
}

/// The value a value object's bytes hold: what its `kvs.get` reply
/// carries. Its strings are views of `bytes`, so the value costs its
/// text once, in the bytes the cache already holds.
pub(crate) fn value_of(bytes: &Arc<[u8]>) -> Option<Value> {
    let (b'V', _) = bytes.split_first()? else { return None };
    Value::decode_canonical_shared(bytes, 1).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dir(pairs: &[(&str, &[u8])]) -> KvsObject {
        KvsObject::Dir(
            pairs
                .iter()
                .map(|(n, c)| (n.to_string(), ObjectId::hash(c)))
                .collect(),
        )
    }

    #[test]
    fn encode_roundtrip_val() {
        for v in [
            Value::Null,
            Value::Int(42),
            Value::from("hello"),
            Value::parse(r#"{"a":[1,2,{"b":null}]}"#).unwrap(),
        ] {
            let obj = KvsObject::Val(v);
            assert_eq!(KvsObject::decode(&obj.encode()).unwrap(), obj);
        }
    }

    #[test]
    fn encode_roundtrip_dir() {
        for obj in [
            KvsObject::empty_dir(),
            dir(&[("a", b"1")]),
            dir(&[("alpha", b"1"), ("beta", b"2"), ("z", b"3")]),
        ] {
            assert_eq!(KvsObject::decode(&obj.encode()).unwrap(), obj);
        }
    }

    #[test]
    fn ids_differ_between_val_and_dir() {
        // An empty directory and an empty object value must not collide.
        let d = KvsObject::empty_dir();
        let v = KvsObject::Val(Value::object());
        assert_ne!(d.id(), v.id());
    }

    #[test]
    fn same_content_same_id() {
        let a = KvsObject::Val(Value::from("x".repeat(100)));
        let b = KvsObject::Val(Value::from("x".repeat(100)));
        assert_eq!(a.id(), b.id());
        let c = KvsObject::Val(Value::from("y".repeat(100)));
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn value_embedding_roundtrip() {
        for obj in [
            KvsObject::Val(Value::parse(r#"{"k":[1,"s"]}"#).unwrap()),
            KvsObject::empty_dir(),
            dir(&[("n1", b"a"), ("n2", b"b")]),
        ] {
            let embedded = obj.to_value();
            assert_eq!(embedded.as_bytes().map(|b| b.to_vec()), Some(obj.encode()));
            let back = KvsObject::from_value(&embedded).unwrap();
            assert_eq!(back, obj);
            assert_eq!(back.id(), obj.id());
        }
    }

    #[test]
    fn from_value_rejects_garbage() {
        assert!(KvsObject::from_value(&Value::Null).is_err());
        // The hex of an object's bytes is text, not the object.
        let hex = Value::from(KvsObject::empty_dir().id().to_hex());
        assert_eq!(KvsObject::from_value(&hex), Err(ObjectError::Malformed));
        let bytes = |b: &[u8]| Value::Bytes(b.into());
        assert_eq!(KvsObject::from_value(&bytes(b"X")), Err(ObjectError::Malformed));
    }

    #[test]
    fn received_bytes_are_checked_and_only_a_directory_is_decoded() {
        let val = KvsObject::Val(Value::from("v"));
        let sub = dir(&[("a", b"1"), ("b", b"2")]);
        let (val_bytes, dir_bytes) = (val.encode(), sub.encode());
        assert_eq!(value_id(&val_bytes), Some(val.id()));
        assert_eq!(receive(&val_bytes), Some((val.id(), None)));
        assert_eq!(value_of(&val_bytes.as_slice().into()), Some(Value::from("v")));
        assert_eq!(receive(&dir_bytes), Some((sub.id(), Some(sub.clone()))));
        assert_eq!(value_id(&dir_bytes), None, "a manifest carries values only");
        assert_eq!(value_of(&dir_bytes.as_slice().into()), None);
        // Any byte changed: another address, or not an object at all.
        for bytes in [&val_bytes, &dir_bytes] {
            for at in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[at] ^= 0x01;
                let id = ObjectId::hash(bytes);
                assert_ne!(receive(&flipped).map(|(got, _)| got), Some(id), "byte {at}");
            }
        }
        // Names out of order: not the canonical bytes of any directory.
        let mut swapped = vec![b'D', 2];
        for name in [b'b', b'a'] {
            swapped.extend([1, name]);
            swapped.extend(ObjectId::hash(b"x").0);
        }
        assert_eq!(receive(&swapped), None);
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert!(KvsObject::decode(b"").is_err());
        assert!(KvsObject::decode(b"X123").is_err());
        let enc = dir(&[("name", b"c")]).encode();
        for cut in 0..enc.len() {
            assert!(KvsObject::decode(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    /// Values, and directories of up to 200 entries under names of up to
    /// 40 characters: every length prefix reaches two bytes.
    fn arb_object() -> impl Strategy<Value = KvsObject> {
        let entry = (".{0,40}", any::<u64>())
            .prop_map(|(name, seed)| (name, ObjectId::hash(&seed.to_le_bytes())));
        let dir = prop::collection::vec(entry, 0..200).prop_map(BTreeMap::from_iter);
        prop_oneof![".{0,200}".prop_map(|s| KvsObject::Val(s.into())), dir.prop_map(KvsObject::Dir)]
    }

    proptest! {
        // The default configuration, so that `PROPTEST_CASES` widens it.

        /// `encoded_len` is exactly the length of the encoding the id
        /// hashes, and the cache holds, and the encoding decodes back.
        #[test]
        fn encoded_len_equals_encode_len(obj in arb_object()) {
            let bytes = obj.encode();
            prop_assert_eq!(obj.encoded_len(), bytes.len());
            prop_assert_eq!(KvsObject::decode(&bytes), Ok(obj));
        }
    }
}
