//! KVS objects: values and directories.

use flux_hash::ObjectId;
use flux_value::{Map, Value};
use std::collections::BTreeMap;
use std::fmt;

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
    /// A directory entry's SHA1 reference failed to parse.
    BadReference,
}

impl fmt::Display for ObjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectError::Malformed => write!(f, "malformed KVS object"),
            ObjectError::BadReference => write!(f, "bad SHA1 reference in directory"),
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
            KvsObject::Val(v) => {
                let mut out = vec![b'V'];
                v.encode_canonical_into(&mut out);
                out
            }
            KvsObject::Dir(entries) => {
                let mut out = vec![b'D'];
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

    /// Decodes the canonical byte encoding.
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

    /// Approximate in-memory/wire size in bytes (drives cache accounting
    /// and the simulator's transfer costs — a directory with G entries is
    /// ~50·G bytes, which is what makes single-directory `kvs_get` heavy
    /// at scale, Fig. 4a).
    pub fn approx_size(&self) -> usize {
        match self {
            KvsObject::Val(v) => 1 + v.approx_size(),
            KvsObject::Dir(entries) => {
                1 + entries.keys().map(|name| name.len() + 28).sum::<usize>()
            }
        }
    }

    /// Embeds the object in a JSON payload (for `kvs.load` responses and
    /// fence/commit object manifests).
    pub fn to_value(&self) -> Value {
        match self {
            KvsObject::Val(v) => {
                Value::from_pairs([("t", Value::from("val")), ("v", v.clone())])
            }
            KvsObject::Dir(entries) => {
                let mut m = Map::new();
                for (name, id) in entries {
                    m.insert(name.clone(), Value::from(id.to_hex()));
                }
                Value::from_pairs([("t", Value::from("dir")), ("e", Value::Object(m))])
            }
        }
    }

    /// Parses the [`KvsObject::to_value`] embedding.
    pub fn from_value(v: &Value) -> Result<KvsObject, ObjectError> {
        match v.get("t").and_then(Value::as_str) {
            Some("val") => Ok(KvsObject::Val(v.get("v").cloned().unwrap_or(Value::Null))),
            Some("dir") => {
                let entries = v
                    .get("e")
                    .and_then(Value::as_object)
                    .ok_or(ObjectError::Malformed)?;
                // The object outlives the message, so its entries are
                // owned.
                let mut out = BTreeMap::new();
                for (name, idv) in entries {
                    let hex = idv.as_str().ok_or(ObjectError::BadReference)?;
                    let id = ObjectId::from_hex(hex).map_err(|_| ObjectError::BadReference)?;
                    out.insert(name.clone(), id);
                }
                Ok(KvsObject::Dir(out))
            }
            _ => Err(ObjectError::Malformed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let back = KvsObject::from_value(&obj.to_value()).unwrap();
            assert_eq!(back, obj);
            assert_eq!(back.id(), obj.id());
        }
    }

    #[test]
    fn from_value_rejects_garbage() {
        assert!(KvsObject::from_value(&Value::Null).is_err());
        assert!(KvsObject::from_value(&Value::from_pairs([("t", Value::from("x"))])).is_err());
        let bad_ref = Value::from_pairs([
            ("t", Value::from("dir")),
            ("e", Value::from_pairs([("n", Value::from("nothex"))])),
        ]);
        assert_eq!(KvsObject::from_value(&bad_ref), Err(ObjectError::BadReference));
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

    #[test]
    fn dir_size_scales_with_entries() {
        let small = dir(&[("a", b"1")]);
        let entries: Vec<(String, ObjectId)> =
            (0..1000).map(|i| (format!("k{i:04}"), ObjectId::hash(b"v"))).collect();
        let big = KvsObject::Dir(entries.into_iter().collect());
        assert!(big.approx_size() > 100 * small.approx_size());
        // ~33 bytes/entry at minimum.
        assert!(big.approx_size() >= 1000 * 30);
    }
}
