//! [`ObjectId`]: the content address used throughout the KVS.

use crate::sha1::{Digest, Sha1};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A content address: the SHA1 digest of an object's canonical encoding.
///
/// Ordered and hashable so it can key maps; displayed as 40 hex digits like
/// git object names.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObjectId(pub Digest);

/// Feeds the digest to the hasher as three whole words, not twenty
/// bytes behind a length prefix: every byte still counts, so `Hash`
/// agrees with the derived `Eq`.
impl Hash for ObjectId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let d = &self.0;
        state.write_u64(u64::from_le_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]]));
        state.write_u64(u64::from_le_bytes([d[8], d[9], d[10], d[11], d[12], d[13], d[14], d[15]]));
        state.write_u32(u32::from_le_bytes([d[16], d[17], d[18], d[19]]));
    }
}

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
        let mut out = [0u8; 40];
        for (pair, b) in out.chunks_exact_mut(2).zip(self.0) {
            pair[0] = HEX[usize::from(b >> 4)];
            pair[1] = HEX[usize::from(b & 0xf)];
        }
        // Every byte is an ASCII hex digit, so nothing is replaced.
        String::from_utf8_lossy(&out).into_owned()
    }

    /// A short 8-character prefix for logs, like `git log --oneline`.
    fn short(self) -> String {
        self.to_hex()[..8].to_owned()
    }

    /// Parses the 40-character hex form, either case.
    pub fn from_hex(s: &str) -> Result<ObjectId, HexError> {
        let bytes = s.as_bytes();
        if bytes.len() != 40 {
            return Err(HexError::BadLength(bytes.len()));
        }
        let mut out = [0u8; 20];
        for (i, pair) in bytes.chunks_exact(2).enumerate() {
            let (hi, lo) = (UNHEX[usize::from(pair[0])], UNHEX[usize::from(pair[1])]);
            if hi == NOT_HEX {
                return Err(HexError::BadDigit(2 * i));
            }
            if lo == NOT_HEX {
                return Err(HexError::BadDigit(2 * i + 1));
            }
            out[i] = (hi << 4) | lo;
        }
        Ok(ObjectId(out))
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// [`UNHEX`]'s entry for a byte that is not a hex digit.
const NOT_HEX: u8 = 0xff;

/// Each byte's hex-digit value, or [`NOT_HEX`]: one load per digit
/// instead of a range match.
const UNHEX: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX[i] as usize] = i as u8;
        table[HEX[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

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
    fn the_digit_table_accepts_exactly_the_hex_digits() {
        let base = ObjectId::hash(b"x").to_hex();
        for c in 0..=127u8 {
            for pos in [6, 7] {
                let mut s = base.clone().into_bytes();
                s[pos] = c;
                let s = String::from_utf8(s).expect("ascii");
                let got = ObjectId::from_hex(&s);
                if c.is_ascii_hexdigit() {
                    let v = if c.is_ascii_digit() { c - b'0' } else { (c | 0x20) - b'a' + 10 };
                    let byte = got.expect("a hex digit").0[pos / 2];
                    assert_eq!(if pos % 2 == 0 { byte >> 4 } else { byte & 0xf }, v);
                } else {
                    assert_eq!(got, Err(HexError::BadDigit(pos)), "{c}");
                }
            }
        }
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
