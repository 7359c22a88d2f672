//! [`ObjectId`]: the content address used throughout the KVS.

use crate::sha1::{Digest, Sha1};
use std::fmt;

/// A content address: the SHA1 digest of an object's canonical encoding.
///
/// Ordered and hashable so it can key maps; displayed as 40 hex digits like
/// git object names.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub Digest);

/// Error returned by [`ObjectId::from_hex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HexError {
    /// Input was not exactly 40 characters.
    BadLength(usize),
    /// Input contained a non-hex character at this position.
    BadDigit(usize),
}

impl fmt::Display for HexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HexError::BadLength(n) => write!(f, "object id must be 40 hex chars, got {n}"),
            HexError::BadDigit(i) => write!(f, "invalid hex digit at position {i}"),
        }
    }
}

impl std::error::Error for HexError {}

impl ObjectId {
    /// Hashes raw bytes into an id.
    pub fn hash(bytes: &[u8]) -> ObjectId {
        ObjectId(Sha1::digest(bytes))
    }

    /// The 40-character lowercase hex form.
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(40);
        for b in self.0 {
            s.push(HEX[(b >> 4) as usize] as char);
            s.push(HEX[(b & 0xf) as usize] as char);
        }
        s
    }

    /// A short 8-character prefix for logs, like `git log --oneline`.
    fn short(self) -> String {
        self.to_hex()[..8].to_owned()
    }

    /// Parses the 40-character hex form.
    pub fn from_hex(s: &str) -> Result<ObjectId, HexError> {
        let bytes = s.as_bytes();
        if bytes.len() != 40 {
            return Err(HexError::BadLength(bytes.len()));
        }
        let mut out = [0u8; 20];
        for (i, pair) in bytes.chunks_exact(2).enumerate() {
            let hi = unhex(pair[0]).ok_or(HexError::BadDigit(2 * i))?;
            let lo = unhex(pair[1]).ok_or(HexError::BadDigit(2 * i + 1))?;
            out[i] = (hi << 4) | lo;
        }
        Ok(ObjectId(out))
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

fn unhex(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl From<Digest> for ObjectId {
    fn from(d: Digest) -> Self {
        ObjectId(d)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectId({})", self.short())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let id = ObjectId::hash(b"x");
        let hex = id.to_hex();
        assert_eq!(hex.len(), 40);
        assert_eq!(ObjectId::from_hex(&hex).unwrap(), id);
        // Uppercase also accepted.
        assert_eq!(ObjectId::from_hex(&hex.to_uppercase()).unwrap(), id);
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(ObjectId::from_hex("abc"), Err(HexError::BadLength(3)));
        let mut s = ObjectId::hash(b"x").to_hex();
        s.replace_range(10..11, "g");
        assert_eq!(ObjectId::from_hex(&s), Err(HexError::BadDigit(10)));
    }

    #[test]
    fn distinct_content_distinct_ids() {
        assert_ne!(ObjectId::hash(b"a"), ObjectId::hash(b"b"));
        assert_eq!(ObjectId::hash(b"a"), ObjectId::hash(b"a"));
    }

    #[test]
    fn display_and_short() {
        let id = ObjectId::hash(b"hello world");
        assert_eq!(format!("{id}"), "2aae6c35c94fcfb415dbe95f408b9ce91ee846ed");
        assert_eq!(id.short(), "2aae6c35");
        assert!(format!("{id:?}").contains("2aae6c35"));
    }

    #[test]
    fn ordering_is_total() {
        let mut ids = [ObjectId::hash(b"1"), ObjectId::hash(b"2"), ObjectId::hash(b"3")];
        ids.sort();
        assert!(ids.windows(2).all(|w| w[0] <= w[1]));
    }
}
