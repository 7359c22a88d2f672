//! The per-broker object cache.
//!
//! The master's cache is authoritative and never expires; slave caches
//! evict entries unused for a configurable number of heartbeat epochs
//! ("Unused slave object cache entries are expired after a period of
//! disuse to save memory").
//!
//! An entry points at one shared [`Held`] object: its canonical bytes,
//! one `Arc<[u8]>` shared with the payload that brought them or the code
//! that encoded them; for a directory only, the decoded view walks read;
//! and its `kvs.get` reply once built. A value is decoded only into that
//! reply or for [`ObjectCache::get`], and then its strings are views of
//! the held bytes: a string value costs its text once, however many
//! replies share it.
//!
//! An object a `kvs.load` reply brought is the held object kept in that
//! payload's memo, so every tier the payload reaches caches the one
//! `Held` (in the DES, every broker of the session), and a value's get
//! reply is built once between them. An object is immutable and named
//! by its content, so a reply built from it is the same for every reader
//! and can never go stale.
//!
//! Beside the held object an entry keeps this broker's `kvs.load`
//! reply ([`ObjectCache::load_reply`]): the payload that brought the
//! object, or one built from the bytes at the master. It stays per
//! broker and outside the held object: the payload's memo holds the
//! held object, so the held object holding the payload would be a
//! cycle, and a reply rebuilt from the bytes would make every child
//! decode the directory again. A slot is the id and three words (48
//! bytes).

use crate::object::{self, KvsObject};
use flux_hash::ObjectId;
use flux_wire::{IdMap, Payload};
use std::collections::hash_map::Entry as Slot;
use std::sync::{Arc, OnceLock};

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

/// One object as the caches hold it, shared by every cache it reached.
pub(crate) struct Held {
    /// The canonical bytes, hashed to the object's id.
    bytes: Arc<[u8]>,
    /// A directory's decoded view; `None` for a value.
    dir: Option<KvsObject>,
    /// The `kvs.get` reply: a value object's `{v}`, a directory's `{dir}`.
    get: OnceLock<Payload>,
}

impl Held {
    /// Holds `bytes`, and `dir`, their decoded view if they are a
    /// directory.
    pub(crate) fn new(bytes: Arc<[u8]>, dir: Option<KvsObject>) -> Arc<Held> {
        Arc::new(Held { bytes, dir, get: OnceLock::new() })
    }

    /// The canonical bytes.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> &Arc<[u8]> {
        &self.bytes
    }

    /// A directory's view; `None` for a value.
    pub(crate) fn dir(&self) -> Option<&KvsObject> {
        self.dir.as_ref()
    }

    /// The object's `kvs.get` reply: built by `build` from its bytes and
    /// view the first time, a reference-count bump of that one payload
    /// every time after. `None` if `build` finds nothing to reply.
    pub(crate) fn get_reply(
        &self,
        build: impl FnOnce(&Arc<[u8]>, Option<&KvsObject>) -> Option<Payload>,
    ) -> Option<Payload> {
        if let Some(reply) = self.get.get() {
            return Some(reply.clone());
        }
        let reply = build(&self.bytes, self.dir.as_ref())?;
        Some(self.get.get_or_init(|| reply).clone())
    }
}

struct Entry {
    held: Arc<Held>,
    /// This broker's `kvs.load` reply, once it has one.
    load: Option<Payload>,
    last_used_epoch: u64,
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
        if !self.map.contains_key(&id) {
            let dir = obj.is_dir().then_some(obj);
            self.insert_held(id, Held::new(bytes, dir), None);
        }
        id
    }

    /// Inserts the value object `bytes` under `id`, their hash, sharing
    /// the caller's allocation: the bytes a push carried are the bytes
    /// held. An id already held costs one lookup and nothing else.
    pub(crate) fn insert_bytes(&mut self, id: ObjectId, bytes: Arc<[u8]>) {
        if !self.map.contains_key(&id) {
            self.insert_held(id, Held::new(bytes, None), None);
        }
    }

    /// Inserts `held` under `id`, its bytes' hash, with `load`, the
    /// payload that brought it, as this broker's `kvs.load` reply (`None`:
    /// built from the bytes when first asked for). An id already held
    /// keeps what it holds.
    ///
    /// # Panics
    /// In debug builds, panics if `id` is not the hash of the bytes, or
    /// if the view is missing for a directory or present for a value.
    pub(crate) fn insert_held(&mut self, id: ObjectId, held: Arc<Held>, load: Option<Payload>) {
        debug_assert_eq!(id, ObjectId::hash(&held.bytes), "content address mismatch");
        let is_dir = held.bytes.first() == Some(&b'D');
        debug_assert_eq!(held.dir.is_some(), is_dir, "a view iff a directory");
        if let Slot::Vacant(slot) = self.map.entry(id) {
            self.stats.entries += 1;
            self.stats.bytes += held.bytes.len();
            slot.insert(Entry { held, load, last_used_epoch: self.epoch });
        }
    }

    /// Looks up an object for a walk, refreshing its last-used epoch and
    /// counting a hit or a miss: the held object, shared.
    pub(crate) fn lookup(&mut self, id: ObjectId) -> Option<Arc<Held>> {
        let Some(e) = self.map.get_mut(&id) else {
            self.stats.misses += 1;
            return None;
        };
        e.last_used_epoch = self.epoch;
        self.stats.hits += 1;
        Some(Arc::clone(&e.held))
    }

    /// Looks up an object, refreshing its last-used epoch on hit. It is
    /// decoded for the caller: a directory is a copy of its view, and a
    /// value's strings are views of its bytes, so no text is copied. The
    /// module's own reads use the held object and its shared replies.
    pub fn get(&mut self, id: ObjectId) -> Option<Arc<KvsObject>> {
        let held = self.lookup(id)?;
        match &held.dir {
            Some(dir) => Some(Arc::new(dir.clone())),
            None => object::value_of(&held.bytes).map(|v| Arc::new(KvsObject::Val(v))),
        }
    }

    /// Held object `id`'s `kvs.load` reply: the payload that brought it,
    /// or else built from its bytes the first time and shared every time
    /// after. `None` if `id` is not held. It neither refreshes the entry
    /// nor counts a hit: the caller has just looked the object up.
    pub(crate) fn load_reply(
        &mut self,
        id: ObjectId,
        build: impl FnOnce(&Arc<[u8]>) -> Payload,
    ) -> Option<Payload> {
        let e = self.map.get_mut(&id)?;
        Some(e.load.get_or_insert_with(|| build(&e.held.bytes)).clone())
    }

    /// The object held for `id` (does not refresh it).
    #[cfg(test)]
    pub(crate) fn held(&self, id: ObjectId) -> Option<&Arc<Held>> {
        self.map.get(&id).map(|e| &e.held)
    }

    /// The bytes held for `id` (does not refresh it).
    #[cfg(test)]
    pub(crate) fn bytes(&self, id: ObjectId) -> Option<&Arc<[u8]>> {
        self.held(id).map(|h| h.bytes())
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
                stats.bytes -= e.held.bytes.len();
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
        c.insert_bytes(id, Arc::clone(&bytes));
        assert_eq!(c.stats().bytes, before + bytes.len());
        c.insert_bytes(id, obj("sized").encode().into());
        assert!(Arc::ptr_eq(c.bytes(id).unwrap(), &bytes), "a held id keeps its first bytes");
        assert_eq!(c.stats().bytes, before + bytes.len());
        assert!(c.lookup(id).unwrap().dir().is_none(), "a value keeps no view");
        let dir = KvsObject::Dir([("a".to_owned(), id)].into());
        let dir_id = c.insert(dir.clone());
        assert_eq!(c.lookup(dir_id).unwrap().dir(), Some(&dir));
        assert_eq!(*c.get(id).unwrap(), obj("sized"), "a value is decoded for `get`");
        assert_eq!(*c.get(dir_id).unwrap(), dir, "a directory is its view");
    }

    #[test]
    fn a_slot_is_an_id_and_three_words() {
        // The held object, the load reply and the epoch.
        assert_eq!(std::mem::size_of::<(ObjectId, Entry)>(), 48);
    }

    #[test]
    fn a_get_reply_is_built_once_per_held_object() {
        let held = Held::new(obj("once").encode().into(), None);
        let build = |_: &Arc<[u8]>, _: Option<&KvsObject>| Some(Payload::from(Value::Int(1)));
        let first = held.get_reply(build).unwrap();
        let again = held.get_reply(|_, _| panic!("built twice")).unwrap();
        assert!(std::ptr::eq(first.value(), again.value()));
        // Nothing to reply is not remembered.
        let other = Held::new(obj("none").encode().into(), None);
        assert!(other.get_reply(|_, _| None).is_none());
        assert!(other.get_reply(build).is_some());
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
