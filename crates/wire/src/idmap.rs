//! [`IdMap`] / [`IdSet`]: hash tables for keys this process computed or
//! a session broker minted — [`crate::MsgId`]s, SHA1 object ids, local
//! counters. Such keys are fixed-width and nobody outside the session
//! chooses them, so SipHash's defence against chosen keys buys nothing on
//! the per-message paths that look them up; a multiply-rotate word mix
//! does the same job in a few cycles. A key a client or peer chooses (a
//! name, a path) keeps `std`'s `RandomState`.
//!
//! The mix is seeded once per process from `RandomState`, so iteration
//! order still differs between processes, exactly as for a `HashMap`:
//! whatever reaches a record must not depend on it.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed by computed or broker-minted ids.
pub type IdMap<K, V> = HashMap<K, V, IdHasher>;

/// A `HashSet` of computed or broker-minted ids.
pub type IdSet<K> = HashSet<K, IdHasher>;

/// Odd 64-bit multiplier with well-spread bits (the golden ratio's).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The per-process seed: one `RandomState` draw, taken on first use.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0x5eed_u64))
}

/// Builds [`IdHasher`]s starting from the process seed; also the hasher
/// itself. `Default` is what `IdMap::default()` calls.
#[derive(Clone, Copy, Debug)]
pub struct IdHasher(u64);

impl Default for IdHasher {
    fn default() -> Self {
        IdHasher(seed())
    }
}

impl BuildHasher for IdHasher {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        *self
    }
}

impl IdHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MUL);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in words.by_ref() {
            self.mix(u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.mix(u64::from_le_bytes(tail) ^ bytes.len() as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    /// The multiply leaves its best-mixed bits at the top; the table
    /// indexes buckets by the low bits, so rotate the top down.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MsgId, Rank};

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut m: IdMap<MsgId, u64> = IdMap::default();
        for seq in 0..1000 {
            m.insert(MsgId { origin: Rank(seq as u32 % 7), seq }, seq);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&MsgId { origin: Rank(3), seq: 10 }), Some(&10));
        assert_eq!(m.get(&MsgId { origin: Rank(4), seq: 10 }), None);
        let s: IdSet<u64> = (0..100).chain(0..100).collect();
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn one_process_one_seed_and_byte_writes_see_every_byte() {
        let hash = |bytes: &[u8]| {
            let mut h = IdHasher::default().build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"same"), hash(b"same"));
        assert_ne!(hash(b"0123456789"), hash(b"0123456788"));
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
    }
}
