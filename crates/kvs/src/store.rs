//! The per-broker object cache.
//!
//! The master's cache is authoritative and never expires; slave caches
//! evict entries unused for a configurable number of heartbeat epochs
//! ("Unused slave object cache entries are expired after a period of
//! disuse to save memory").
//!
//! Beside each object an entry keeps the replies built from it
//! ([`ObjectCache::reply`]). An object is immutable and named by its
//! content, so a reply built from it is the same for every reader and
//! can never go stale; it is built once, shared by reference, and
//! dropped with the entry.

use crate::object::KvsObject;
use flux_hash::ObjectId;
use flux_wire::{IdMap, Payload};
use std::collections::hash_map::Entry as Slot;
use std::sync::Arc;

/// Cache occupancy and traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Objects currently resident.
    pub entries: usize,
    /// Sum of the resident objects' encoded lengths.
    pub bytes: usize,
    /// Lookup hits since creation.
    pub hits: u64,
    /// Lookup misses since creation.
    pub misses: u64,
    /// Entries expired so far.
    pub expired: u64,
}

/// A reply a broker builds from one held object ([`ObjectCache::reply`]).
#[derive(Clone, Copy)]
pub(crate) enum Reply {
    /// The `kvs.load` reply, `{id, obj}`.
    Load,
    /// The `kvs.get` reply: a value object's `{v}`, a directory's `{dir}`.
    Get,
}

struct Entry {
    obj: Arc<KvsObject>,
    size: usize,
    last_used_epoch: u64,
    /// The replies built from `obj` so far, by [`Reply`].
    replies: [Option<Payload>; 2],
}

/// A content-addressed object cache.
pub struct ObjectCache {
    /// Keyed by ids this broker hashed itself (a loaded object is checked
    /// against its id before it is inserted).
    map: IdMap<ObjectId, Entry>,
    stats: CacheStats,
    epoch: u64,
}

impl ObjectCache {
    /// Creates an empty cache pre-seeded with the session's initial empty
    /// root directory (every broker derives the same id for it).
    pub fn new() -> ObjectCache {
        let mut c = ObjectCache { map: IdMap::default(), stats: CacheStats::default(), epoch: 0 };
        c.insert(KvsObject::empty_dir());
        c
    }

    /// Inserts an object, returning its content address. Idempotent.
    pub fn insert(&mut self, obj: KvsObject) -> ObjectId {
        let (id, size) = obj.id_and_len();
        self.insert_with_id(id, Arc::new(obj), Some(size));
        id
    }

    /// Inserts an object whose id the caller already computed, sharing
    /// the caller's allocation: brokers that decoded one payload together
    /// hold one object together. `size` is the object's encoded length
    /// when the caller has it; `None` measures it here. Either way an id
    /// already held costs one lookup and nothing else.
    ///
    /// # Panics
    /// In debug builds, panics if `id` does not match the content.
    pub fn insert_with_id(&mut self, id: ObjectId, obj: Arc<KvsObject>, size: Option<usize>) {
        debug_assert_eq!(id, obj.id(), "content address mismatch");
        if let Slot::Vacant(slot) = self.map.entry(id) {
            let size = size.unwrap_or_else(|| obj.encoded_len());
            self.stats.entries += 1;
            self.stats.bytes += size;
            slot.insert(Entry { obj, size, last_used_epoch: self.epoch, replies: [None, None] });
        }
    }

    /// Looks up an object, refreshing its last-used epoch on hit.
    pub fn get(&mut self, id: ObjectId) -> Option<Arc<KvsObject>> {
        match self.map.get_mut(&id) {
            Some(e) => {
                e.last_used_epoch = self.epoch;
                self.stats.hits += 1;
                Some(Arc::clone(&e.obj))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The `kind` reply to held object `id`: built from the object by
    /// `build` the first time, a reference-count bump of that one
    /// payload every time after. `None` if `id` is not held. It neither
    /// refreshes the entry nor counts a hit: the caller has just looked
    /// the object up.
    pub(crate) fn reply(
        &mut self,
        id: ObjectId,
        kind: Reply,
        build: impl FnOnce(&KvsObject) -> Payload,
    ) -> Option<Payload> {
        let e = self.map.get_mut(&id)?;
        Some(e.replies[kind as usize].get_or_insert_with(|| build(&e.obj)).clone())
    }

    /// True if the object is resident (does not refresh last-used).
    pub fn contains(&self, id: ObjectId) -> bool {
        self.map.contains_key(&id)
    }

    /// Advances the cache's epoch (called on heartbeats).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Expires entries unused for more than `max_idle_epochs`, keeping the
    /// objects in `pinned` (the current root path must never be evicted
    /// mid-lookup; callers pin the current root).
    pub fn expire(&mut self, max_idle_epochs: u64, pinned: &[ObjectId]) {
        let cutoff = self.epoch.saturating_sub(max_idle_epochs);
        let stats = &mut self.stats;
        self.map.retain(|id, e| {
            if e.last_used_epoch >= cutoff || pinned.contains(id) {
                true
            } else {
                stats.entries -= 1;
                stats.bytes -= e.size;
                stats.expired += 1;
                false
            }
        });
    }

    /// Occupancy and traffic counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

impl Default for ObjectCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_value::Value;

    fn obj(s: &str) -> KvsObject {
        KvsObject::Val(Value::from(s))
    }

    #[test]
    fn starts_with_empty_root() {
        let c = ObjectCache::new();
        assert!(c.contains(KvsObject::empty_dir().id()));
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = ObjectCache::new();
        let id = c.insert(obj("hello"));
        assert_eq!(*c.get(id).unwrap(), obj("hello"));
        assert!(c.get(ObjectId::hash(b"missing")).is_none());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn a_held_id_keeps_its_first_size_and_a_given_size_is_taken() {
        let mut c = ObjectCache::new();
        let before = c.stats().bytes;
        let o = obj("sized");
        let (id, real) = o.id_and_len();
        c.insert_with_id(id, Arc::new(o.clone()), Some(real));
        assert_eq!(c.stats().bytes, before + real);
        c.insert_with_id(id, Arc::new(o), Some(1_000_000));
        assert_eq!(c.stats().bytes, before + real, "a held id is not re-sized");
    }

    #[test]
    fn insert_is_idempotent() {
        let mut c = ObjectCache::new();
        let a = c.insert(obj("x"));
        let b = c.insert(obj("x"));
        assert_eq!(a, b);
        assert_eq!(c.stats().entries, 2); // root + one object
    }

    #[test]
    fn expiry_honours_idle_epochs_and_pins() {
        let mut c = ObjectCache::new();
        let old = c.insert(obj("old"));
        let pinned = c.insert(obj("pinned"));
        c.set_epoch(10);
        let fresh = c.insert(obj("fresh"));
        let _ = c.get(fresh);
        c.expire(5, &[pinned]);
        assert!(!c.contains(old), "idle entry expired");
        assert!(c.contains(pinned), "pinned entry kept");
        assert!(c.contains(fresh), "fresh entry kept");
        assert_eq!(c.stats().expired, 2); // `old` and the initial root
    }

    #[test]
    fn get_refreshes_last_used() {
        let mut c = ObjectCache::new();
        let id = c.insert(obj("keepalive"));
        for epoch in 1..20 {
            c.set_epoch(epoch);
            assert!(c.get(id).is_some());
            c.expire(2, &[]);
        }
        assert!(c.contains(id));
    }

    #[test]
    fn bytes_accounting_tracks_content() {
        // `bytes` is the sum of the held objects' encodings, the empty
        // root's included, however each was inserted.
        let mut c = ObjectCache::new();
        let entries = (0..200).map(|i| (format!("k{i}"), ObjectId::hash(b"v")));
        let objs = [obj(&"x".repeat(1000)), obj(""), KvsObject::Dir(entries.collect())];
        let id = c.insert(objs[0].clone());
        for o in &objs[1..] {
            c.insert_with_id(o.id(), Arc::new(o.clone()), None);
        }
        let held = |c: &ObjectCache| c.map.values().map(|e| e.obj.encode().len()).sum::<usize>();
        assert_eq!((c.stats().bytes, c.map.len()), (held(&c), 4));
        c.set_epoch(100);
        c.expire(1, &[id]);
        assert_eq!((c.stats().bytes, c.map.len()), (held(&c), 1), "expiry gives back the same");
    }
}
