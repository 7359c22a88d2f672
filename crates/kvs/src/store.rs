//! The per-broker object cache.
//!
//! The master's cache is authoritative and never expires; slave caches
//! evict entries unused for a configurable number of heartbeat epochs
//! ("Unused slave object cache entries are expired after a period of
//! disuse to save memory").
//!
//! An entry holds an object as its canonical bytes, one `Arc<[u8]>`
//! shared with the payload that brought it or the code that encoded it,
//! and, for a directory only, the decoded view walks read. A value is
//! never decoded here: its one decoded form is its `kvs.get` reply.
//!
//! Beside each object an entry keeps the replies built from it
//! ([`ObjectCache::reply`]). An object is immutable and named by its
//! content, so a reply built from it is the same for every reader and
//! can never go stale; it is built once, shared by reference, and
//! dropped with the entry.

use crate::object::{KvsObject, View};
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
    /// The canonical bytes, hashed to the entry's id.
    bytes: Arc<[u8]>,
    /// A directory's decoded view; `None` for a value.
    view: View,
    last_used_epoch: u64,
    /// The replies built from the object so far, by [`Reply`].
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

    /// Inserts an object this broker built, returning its content
    /// address. Idempotent. The object is encoded once: the cache holds
    /// those bytes, and a directory keeps `obj` as its view.
    pub fn insert(&mut self, obj: KvsObject) -> ObjectId {
        let bytes: Arc<[u8]> = obj.encode().into();
        let id = ObjectId::hash(&bytes);
        let view = obj.is_dir().then(|| Arc::new(obj));
        self.insert_bytes(id, bytes, view);
        id
    }

    /// Inserts the object `bytes` under `id`, their hash, sharing the
    /// caller's allocations: the bytes a payload carried are the bytes
    /// held, and brokers handed one payload hold one directory view
    /// together. `view` is a directory's decoded view, `None` for a
    /// value. An id already held costs one lookup and nothing else.
    ///
    /// # Panics
    /// In debug builds, panics if `id` is not the hash of `bytes`, or
    /// if `view` is missing for a directory or present for a value.
    pub(crate) fn insert_bytes(&mut self, id: ObjectId, bytes: Arc<[u8]>, view: View) {
        debug_assert_eq!(id, ObjectId::hash(&bytes), "content address mismatch");
        debug_assert_eq!(view.is_some(), bytes.first() == Some(&b'D'), "a view iff a directory");
        if let Slot::Vacant(slot) = self.map.entry(id) {
            self.stats.entries += 1;
            self.stats.bytes += bytes.len();
            slot.insert(Entry { bytes, view, last_used_epoch: self.epoch, replies: [None, None] });
        }
    }

    /// The entry for `id`, its last-used epoch refreshed, counted as a
    /// hit or a miss.
    fn touch(&mut self, id: ObjectId) -> Option<&Entry> {
        let Some(e) = self.map.get_mut(&id) else {
            self.stats.misses += 1;
            return None;
        };
        e.last_used_epoch = self.epoch;
        self.stats.hits += 1;
        Some(e)
    }

    /// Looks up an object for a walk, refreshing its last-used epoch on
    /// hit: `Some` of its view if it is held (a directory's, shared;
    /// `None` for a value).
    pub(crate) fn lookup(&mut self, id: ObjectId) -> Option<View> {
        self.touch(id).map(|e| e.view.clone())
    }

    /// Looks up an object, refreshing its last-used epoch on hit. A
    /// directory is its shared view; a value is decoded from its bytes
    /// on every call (the module's own reads decode a value once, into
    /// its get reply).
    pub fn get(&mut self, id: ObjectId) -> Option<Arc<KvsObject>> {
        let e = self.touch(id)?;
        match &e.view {
            Some(dir) => Some(Arc::clone(dir)),
            None => KvsObject::decode(&e.bytes).ok().map(Arc::new),
        }
    }

    /// The `kind` reply to held object `id`: built by `build` from the
    /// object's bytes and view the first time, a reference-count bump of
    /// that one payload every time after. `None` if `id` is not held or
    /// `build` finds nothing to reply. It neither refreshes the entry
    /// nor counts a hit: the caller has just looked the object up.
    pub(crate) fn reply(
        &mut self,
        id: ObjectId,
        kind: Reply,
        build: impl FnOnce(&Arc<[u8]>, Option<&KvsObject>) -> Option<Payload>,
    ) -> Option<Payload> {
        let e = self.map.get_mut(&id)?;
        let slot = &mut e.replies[kind as usize];
        if slot.is_none() {
            *slot = Some(build(&e.bytes, e.view.as_deref())?);
        }
        slot.clone()
    }

    /// The bytes held for `id` (does not refresh it).
    #[cfg(test)]
    pub(crate) fn bytes(&self, id: ObjectId) -> Option<&Arc<[u8]>> {
        self.map.get(&id).map(|e| &e.bytes)
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
                stats.bytes -= e.bytes.len();
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
    fn a_held_id_keeps_its_first_bytes_and_only_a_directory_a_view() {
        let mut c = ObjectCache::new();
        let before = c.stats().bytes;
        let bytes: Arc<[u8]> = obj("sized").encode().into();
        let id = ObjectId::hash(&bytes);
        c.insert_bytes(id, Arc::clone(&bytes), None);
        assert_eq!(c.stats().bytes, before + bytes.len());
        c.insert_bytes(id, obj("sized").encode().into(), None);
        assert!(Arc::ptr_eq(c.bytes(id).unwrap(), &bytes), "a held id keeps its first bytes");
        assert_eq!(c.stats().bytes, before + bytes.len());
        assert_eq!(c.lookup(id), Some(None), "a value keeps no view");
        let dir = KvsObject::Dir([("a".to_owned(), id)].into());
        let dir_id = c.insert(dir.clone());
        assert_eq!(c.lookup(dir_id), Some(Some(Arc::new(dir))));
        assert_eq!(*c.get(id).unwrap(), obj("sized"), "a value is decoded for `get`");
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
            c.insert(o.clone());
        }
        let encoded = |c: &mut ObjectCache, id| c.get(id).map_or(0, |o| o.encode().len());
        let held = |c: &mut ObjectCache| {
            let ids: Vec<ObjectId> = c.map.keys().copied().collect();
            ids.into_iter().map(|id| encoded(c, id)).sum::<usize>()
        };
        assert_eq!((c.stats().bytes, c.map.len()), (held(&mut c), 4));
        c.set_epoch(100);
        c.expire(1, &[id]);
        assert_eq!((c.stats().bytes, c.map.len()), (held(&mut c), 1), "expiry gives back the same");
    }
}
