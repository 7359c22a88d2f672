//! [`IdMap`] / [`IdSet`]: hash tables for keys this process computed or
//! a session broker minted — [`crate::MsgId`]s, SHA1 object ids, local
//! counters. Such keys are fixed-width and nobody outside the session
//! chooses them, so SipHash's defence against chosen keys buys nothing on
//! the per-message paths that look them up; a multiply-rotate word mix
//! does the same job in a few cycles. A key a client or peer chooses (a
//! name, an id it asks for) goes in a [`PeerMap`], which keeps `std`'s
//! keyed SipHash: a seed does not stop a peer from choosing keys that
//! share their low product bits under the mix.
//!
//! The mix is seeded once per process from `RandomState`, so iteration
//! order differs between processes, exactly as for a `HashMap`: whatever
//! reaches a record must not depend on it. A thread that hosts a
//! simulated session seeds its tables from the session's seed instead
//! ([`seed_id_hashers`]), a [`PeerMap`]'s too, since no peer there
//! chooses anything: the simulator's tables then grow, and its heap
//! reads, the same in every process. The live runtimes keep the random
//! process seed and SipHash.

use std::cell::Cell;
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed by computed or broker-minted ids.
pub type IdMap<K, V> = HashMap<K, V, IdHasher>;

/// A `HashSet` of computed or broker-minted ids.
pub type IdSet<K> = HashSet<K, IdHasher>;

/// A `HashMap` keyed by what a client or peer chooses.
pub type PeerMap<K, V> = HashMap<K, V, PeerKeyed>;

/// Odd 64-bit multiplier with well-spread bits (the golden ratio's).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The per-process seed: one `RandomState` draw, taken on first use.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0x5eed_u64))
}

thread_local! {
    /// The seed of the simulated session this thread hosts, if any.
    static SESSION_SEED: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Seeds the [`IdHasher`]s built on this thread from `seed` (`None`:
/// from the process seed again) and returns the seed it replaces, for
/// the caller to put back. A simulated session sets its own seed while
/// it lives.
pub fn seed_id_hashers(seed: Option<u64>) -> Option<u64> {
    SESSION_SEED.replace(seed)
}

/// Builds [`IdHasher`]s starting from this thread's session seed, or
/// else the process seed; also the hasher itself. `Default` is what
/// `IdMap::default()` calls.
#[derive(Clone, Copy, Debug)]
pub struct IdHasher(u64);

impl Default for IdHasher {
    fn default() -> Self {
        IdHasher(SESSION_SEED.get().map_or_else(seed, |s| (s ^ 0x5eed).wrapping_mul(MUL)))
    }
}

impl BuildHasher for IdHasher {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        *self
    }
}

/// Builds the hashers of a [`PeerMap`]: `std`'s keyed SipHash, or on a
/// thread that hosts a simulated session, the session-seeded mix.
#[derive(Clone, Debug)]
pub enum PeerKeyed {
    /// Live: a random SipHash key per table.
    Sip(RandomState),
    /// Simulated: the mix, from the session's seed.
    Session(IdHasher),
}

impl Default for PeerKeyed {
    fn default() -> Self {
        match SESSION_SEED.get() {
            Some(_) => PeerKeyed::Session(IdHasher::default()),
            None => PeerKeyed::Sip(RandomState::new()),
        }
    }
}

impl BuildHasher for PeerKeyed {
    type Hasher = PeerHasher;

    fn build_hasher(&self) -> PeerHasher {
        match self {
            PeerKeyed::Sip(state) => PeerHasher::Sip(state.build_hasher()),
            PeerKeyed::Session(mix) => PeerHasher::Session(*mix),
        }
    }
}

/// The hasher a [`PeerKeyed`] builds.
#[derive(Clone, Debug)]
pub enum PeerHasher {
    /// `std`'s SipHash.
    Sip(DefaultHasher),
    /// The id mix.
    Session(IdHasher),
}

impl Hasher for PeerHasher {
    fn write(&mut self, bytes: &[u8]) {
        match self {
            PeerHasher::Sip(h) => h.write(bytes),
            PeerHasher::Session(h) => h.write(bytes),
        }
    }

    fn write_u32(&mut self, n: u32) {
        match self {
            PeerHasher::Sip(h) => h.write_u32(n),
            PeerHasher::Session(h) => h.write_u32(n),
        }
    }

    fn write_u64(&mut self, n: u64) {
        match self {
            PeerHasher::Sip(h) => h.write_u64(n),
            PeerHasher::Session(h) => h.write_u64(n),
        }
    }

    fn write_usize(&mut self, n: usize) {
        match self {
            PeerHasher::Sip(h) => h.write_usize(n),
            PeerHasher::Session(h) => h.write_usize(n),
        }
    }

    fn finish(&self) -> u64 {
        match self {
            PeerHasher::Sip(h) => h.finish(),
            PeerHasher::Session(h) => h.finish(),
        }
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

    #[test]
    fn a_session_seed_fixes_the_mix_until_it_is_put_back() {
        let hash = || IdHasher::default().hash_one(42u64);
        let process = hash();
        let outer = seed_id_hashers(Some(7));
        let seven = hash();
        assert_eq!(seed_id_hashers(Some(7)), Some(7));
        assert_eq!(hash(), seven, "one seed, one mix");
        seed_id_hashers(Some(8));
        assert_ne!(hash(), seven);
        seed_id_hashers(outer);
        assert_eq!(hash(), process, "the process seed again");
    }

    #[test]
    fn a_peer_keyed_table_is_siphash_live_and_the_session_mix_simulated() {
        let outer = seed_id_hashers(None);
        assert!(matches!(PeerKeyed::default(), PeerKeyed::Sip(_)));
        seed_id_hashers(Some(7));
        let PeerKeyed::Session(mix) = PeerKeyed::default() else { panic!("not the session's mix") };
        assert_eq!(PeerKeyed::Session(mix).hash_one("name"), IdHasher::default().hash_one("name"));
        seed_id_hashers(outer);
        let mut names: PeerMap<String, u32> = PeerMap::default();
        names.insert("a".into(), 1);
        assert_eq!(names.get("a"), Some(&1));
    }
}
