//! Namespace sharding: key → shard → master rank.
//!
//! With `shards = N > 1` the KVS namespace is split across N
//! independent masters (ranks `0..N`, one hash-tree root, version
//! stream, and commit-batching window each). The split is by key hash:
//! the SHA1 of the **validated canonical path** decides the shard, so
//! routing is stable under any client-side spelling that validation
//! would reject anyway (`a..b` never hashes differently from `a.b` —
//! it never hashes at all).
//!
//! Everything here is pure: the module and clients share one function
//! so a commit's partitioning and a reader's routing can never
//! disagree.

use crate::path::{validate_key, KeyError};
use flux_hash::ObjectId;
use flux_wire::Rank;

/// Computes the shard owning `key` among `shards` shards.
///
/// The key is validated first (`EINVAL`/`ENAMETOOLONG` shapes are
/// rejected, not hashed), so only canonical spellings — non-empty
/// components joined by single `'.'`s — ever reach the hash. The first
/// four digest bytes, read big-endian, are reduced modulo `shards`.
pub fn shard_of_key(key: &str, shards: u32) -> Result<u32, KeyError> {
    validate_key(key)?;
    if shards <= 1 {
        return Ok(0);
    }
    let digest = ObjectId::hash(key.as_bytes()).0;
    let h = u32::from_be_bytes([digest[0], digest[1], digest[2], digest[3]]);
    Ok(h % shards)
}

/// Whether a session `shards` wide has more than the paper's single
/// master. Exactly two things depend on the answer: how a write part
/// reaches a master on another broker, and which wire spelling the
/// session speaks ([`crate::msg`]).
pub fn sharded(shards: u32) -> bool {
    shards > 1
}

/// The rank mastering `shard`: shard *s* lives on rank *s*. Sessions
/// must therefore be at least `shards` brokers wide.
pub fn master_of(shard: u32) -> Rank {
    Rank(shard)
}

/// Splits a tuple batch by shard, preserving per-shard arrival order
/// (the per-shard applications then equal applying the original batch
/// sequentially, shard by shard). Tuples whose key fails validation
/// land on shard 0 — the shard-0 master's own `apply_tuples` treats
/// them as ordinary (unresolvable) keys, exactly like the unsharded
/// path would.
pub fn partition_tuples(
    tuples: Vec<(String, Option<ObjectId>)>,
    shards: u32,
) -> Vec<Vec<(String, Option<ObjectId>)>> {
    let mut parts: Vec<Vec<(String, Option<ObjectId>)>> =
        (0..shards.max(1)).map(|_| Vec::new()).collect();
    for (key, id) in tuples {
        let s = shard_of_key(&key, shards).unwrap_or(0);
        parts[s as usize].push((key, id));
    }
    parts
}

/// Picks a key of the form `{prefix}{i}` landing on `shard` (for tests
/// and scenario builders that need keys with a known placement).
#[expect(
    clippy::panic,
    reason = "test/scenario helper; 10k draws missing a shard of a uniform hash means the \
              hash itself is broken"
)]
pub fn key_on_shard(prefix: &str, shard: u32, shards: u32) -> String {
    for i in 0..10_000u32 {
        let k = format!("{prefix}{i}");
        if shard_of_key(&k, shards) == Ok(shard) {
            return k;
        }
    }
    panic!("no key with prefix {prefix} lands on shard {shard}/{shards}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::MAX_KEY_LEN;

    #[test]
    fn single_shard_is_always_zero() {
        assert_eq!(shard_of_key("a.b.c", 1), Ok(0));
        assert_eq!(shard_of_key("anything", 0), Ok(0));
    }

    #[test]
    fn sharding_is_deterministic_and_in_range() {
        for shards in [2u32, 3, 4, 8] {
            for i in 0..64 {
                let key = format!("bench.k{i}");
                let s = shard_of_key(&key, shards).unwrap();
                assert!(s < shards);
                assert_eq!(shard_of_key(&key, shards), Ok(s));
            }
        }
    }

    #[test]
    fn all_shards_are_reachable() {
        // A uniform hash over a few dozen keys must hit every shard.
        for shards in [2u32, 4, 8] {
            let mut hit = vec![false; shards as usize];
            for i in 0..256 {
                let s = shard_of_key(&format!("spread.k{i}"), shards).unwrap();
                hit[s as usize] = true;
            }
            assert!(hit.iter().all(|&h| h), "shards {shards}: {hit:?}");
        }
    }

    #[test]
    fn invalid_keys_are_rejected_not_hashed() {
        // The normalization fix: `a.b` hashes, a rejected spelling like
        // `a..b` must never reach the hash and land somewhere else — it
        // is refused with the same errnum the write path reports.
        assert!(shard_of_key("a.b", 4).is_ok());
        let err = shard_of_key("a..b", 4).unwrap_err();
        assert_eq!(err, KeyError::EmptyComponent);
        assert_eq!(err.errnum(), flux_wire::errnum::EINVAL);
        assert!(matches!(shard_of_key("", 4), Err(KeyError::Empty)));
        assert!(matches!(shard_of_key(".a", 4), Err(KeyError::EmptyComponent)));
        assert!(matches!(
            shard_of_key(&"x".repeat(MAX_KEY_LEN + 1), 4),
            Err(KeyError::TooLong(_))
        ));
    }

    #[test]
    fn canonical_hashing_matches_component_join() {
        // shard_of_key hashes the validated canonical path — identical
        // to hashing the component join, for every valid key.
        for key in ["a", "a.b", "deep.a.b.c.d"] {
            let canonical = key.split('.').collect::<Vec<_>>().join(".");
            let digest = ObjectId::hash(canonical.as_bytes()).0;
            let h = u32::from_be_bytes([digest[0], digest[1], digest[2], digest[3]]);
            assert_eq!(shard_of_key(key, 5), Ok(h % 5));
        }
    }

    #[test]
    fn partition_preserves_order_and_covers_all_tuples() {
        let tuples: Vec<(String, Option<ObjectId>)> =
            (0..32).map(|i| (format!("p.k{i}"), None)).collect();
        let parts = partition_tuples(tuples.clone(), 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 32);
        for (s, part) in parts.iter().enumerate() {
            let mut last = None;
            for (key, _) in part {
                assert_eq!(shard_of_key(key, 4), Ok(s as u32));
                // Order within a shard follows the original batch order.
                let idx: u32 = key.trim_start_matches("p.k").parse().unwrap();
                assert!(last.is_none_or(|l| l < idx));
                last = Some(idx);
            }
        }
    }

    #[test]
    fn key_on_shard_lands_where_asked() {
        for shard in 0..4 {
            let k = key_on_shard("t.s", shard, 4);
            assert_eq!(shard_of_key(&k, 4), Ok(shard));
        }
    }

    #[test]
    fn master_mapping_is_identity() {
        assert_eq!(master_of(0), Rank(0));
        assert_eq!(master_of(3), Rank(3));
    }
}
