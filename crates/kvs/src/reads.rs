//! The read role: lookups, fault-in through the cache chain, watches.
//!
//! A `kvs.get` walks the hash tree from the root of the key's shard,
//! one directory object per path component. A component missing from
//! the local cache parks the walk and faults the object in: up the
//! tree — every ancestor is a cache tier that shares one transfer among
//! all its children (the Fig. 4 effect) — and from the tree root
//! rank-addressed to the shard's master when the root does not master
//! that shard itself. The authoritative copy never faults: a miss there
//! is `ENOENT`. A transport failure is never reported as `ENOENT` (that
//! would violate monotonic reads): every load is in the [`InFlight`]
//! table, which retries a lost one on the heartbeat and reports only
//! what the tier above itself refused.
//!
//! A walk that the local cache resolves is answered in the call that
//! started it and owns nothing beyond the request it was handed. Only a
//! walk that must fault an object in parks: the request moves into the
//! walk and the key is copied.
//!
//! A walk reads a directory's decoded view and a value's tag alone, and
//! ends on the object it found. Objects are immutable and
//! content-addressed, so every reply built from one — its `kvs.get`
//! reply (`{v}` decoded from a value's bytes, `{dir}` for a directory)
//! and its `kvs.load` reply, the held bytes themselves — is the same
//! for every reader: it is built once,
//! kept beside the object in its cache entry ([`ObjectCache::reply`])
//! and handed to every later reader as a reference-count bump of that
//! one payload. A reply cannot go stale (its key is the content) and
//! lives exactly as long as the object's cache entry. A watch check
//! reads its value out of the same shared get reply.
//!
//! A child's `kvs.load` that misses here is parked, and the load this
//! broker sends up for it is the child's own payload when that payload
//! is exactly the request this broker would build
//! ([`msg::is_load_request`]): nothing is rebuilt, and the id
//! parsed here rides on in the payload's memo slot ([`load_id`]) for
//! every tier above. Any other payload and a walk's miss send a freshly
//! built request, so what travels upstream is the same either way. A
//! heartbeat retry sends the same request again under its own id.

use crate::inflight::{Answer, InFlight};
use crate::module::Replica;
use flux_broker::Requester;
use crate::msg;
use crate::object::{self, KvsObject, View};
use crate::path::validate_key;
use crate::shard;
use crate::store::{ObjectCache, Reply};
use crate::watch::Watches;
use flux_broker::{Handled, ModuleCtx};
use flux_hash::ObjectId;
use flux_proto::KvsMethod;
use flux_value::Value;
use flux_wire::{errnum, IdMap, Message, Payload};
use std::collections::HashMap;
use std::sync::Arc;

/// One lookup parked on an object being faulted in.
struct Walk {
    kind: WalkKind,
    key: String,
    /// Bytes of `key` consumed: the components before `pos` lead to `cur`.
    pos: usize,
    /// Object id to load next.
    cur: ObjectId,
    want: Want,
    /// Shard whose tree this walk descends.
    shard: u32,
}

enum WalkKind {
    /// Answer this request with the final value.
    Get(Message),
    /// Re-check a watcher after a root switch.
    WatchCheck(u64),
}

/// What a walk reads at the end of its key.
#[derive(Clone, Copy)]
enum Want {
    /// A get's value.
    Value,
    /// A get's directory listing (`dir`).
    Listing,
    /// A watch check's: a watched directory's listing is its value.
    Either,
}

/// How a walk ended: the object at the end of its key and its view, or
/// an errnum.
type WalkEnd = Result<(ObjectId, View), u32>;

/// The reply to a walk that wanted `want` and ended as `end`: the
/// found object's one get reply, built on first use and shared by every
/// later read of that object ([`ObjectCache::reply`]), or the errnum
/// that says why there is none.
fn get_reply(cache: &mut ObjectCache, end: WalkEnd, want: Want) -> Result<Payload, u32> {
    let (id, view) = end?;
    match (view.is_some(), want) {
        (false, Want::Listing) => Err(errnum::ENOTDIR),
        (true, Want::Value) => Err(errnum::EISDIR),
        _ => cache
            .reply(id, Reply::Get, |bytes, view| msg::get_reply(bytes, view).map(Payload::from))
            .ok_or(errnum::ENOENT),
    }
}

/// `id`'s one `kvs.load` reply, built on first use and shared by every
/// child that asks after; `None` if the cache does not hold `id`. It
/// carries the held bytes themselves: nothing is encoded.
fn load_reply(cache: &mut ObjectCache, id: ObjectId) -> Option<Payload> {
    cache.reply(id, Reply::Load, |bytes, _| {
        Some(msg::load_reply(id, Value::Bytes(Arc::clone(bytes))).into())
    })
}

/// Where a walk through the local cache stopped.
enum Stop {
    Done(WalkEnd),
    /// Object `.0` is not cached; `.1` is how far into the key the walk got.
    Miss(ObjectId, usize),
}

/// The walk: descends `key` from byte `pos`, standing on object `cur`,
/// one directory per component, as far as `cache` reaches.
fn step_walk(cache: &mut ObjectCache, key: &str, mut pos: usize, mut cur: ObjectId) -> Stop {
    loop {
        let Some(view) = cache.lookup(cur) else { return Stop::Miss(cur, pos) };
        let rest = &key[pos..];
        if rest.is_empty() {
            return Stop::Done(Ok((cur, view)));
        }
        // A byte search: `.` is ASCII, so the offset is a char boundary.
        let (name, tail) = match rest.bytes().position(|b| b == b'.') {
            Some(dot) => (&rest[..dot], &rest[dot + 1..]),
            None => (rest, ""),
        };
        cur = match view.as_deref() {
            Some(KvsObject::Dir(entries)) => match entries.get(name) {
                Some(&next) => next,
                None => return Stop::Done(Err(errnum::ENOENT)),
            },
            _ => return Stop::Done(Err(errnum::ENOTDIR)),
        };
        pos = key.len() - tail.len();
    }
}

/// Answers a get with its reply or its errnum.
fn answer(ctx: &mut ModuleCtx<'_>, req: &Message, reply: Result<Payload, u32>) -> Handled {
    match reply {
        Ok(payload) => ctx.respond(req, payload),
        Err(e) => ctx.respond_err(req, e),
    }
}

/// What a `kvs.load` reply payload holds: the bytes of its `obj`, the
/// content address they hash to (never the `id` the sender wrote beside
/// them) and, for a directory, the view decoded from them. `None` is a
/// malformed `obj`. This is kept in the payload's memo slot, so brokers
/// handed one payload check, hash and decode it once between them.
type Loaded = Option<(ObjectId, Arc<[u8]>, View)>;

fn decode_load_reply(payload: &Value) -> Loaded {
    let bytes = msg::load_reply_object(payload)?;
    let (id, view) = object::receive(bytes)?;
    Some((id, Arc::clone(bytes), view))
}

/// Files `item` on a waiter list, sized for one on its first: nearly
/// every object is waited on once per broker, where a first `push`
/// would reserve four.
fn push_one<T>(list: &mut Vec<T>, item: T) {
    if list.capacity() == 0 {
        list.reserve_exact(1);
    }
    list.push(item);
}

/// The object a `kvs.load` request asks for (`None`: no hex `id`). A
/// tier that forwards the request stores its parse in the payload's
/// memo slot ([`Reads::serve_load`]), and every tier above reads that;
/// a request answered where it first lands is parsed without a memo.
pub(crate) fn load_id(payload: &Payload) -> Option<ObjectId> {
    match payload.memoized::<Option<ObjectId>>() {
        Some(id) => *id,
        None => msg::load_request_id(payload),
    }
}

#[derive(Default)]
pub(crate) struct Reads {
    walks: IdMap<u64, Walk>,
    next_walk: u64,
    /// Object id → (walks parked on it, child `kvs.load` requests for it).
    /// The id is what a child asked for, so this map keeps `RandomState`.
    load_waiters: HashMap<ObjectId, (Vec<u64>, Vec<Message>)>,
    /// Outstanding load RPCs, tagged (object id, shard whose tree wants
    /// it). The waiters of a load lost in transit stay parked.
    loads: InFlight<(ObjectId, u32)>,
    pub(crate) watch: Watches,
}

impl Reads {
    // ----- requests --------------------------------------------------------

    pub(crate) fn lookup(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        rep: &mut Replica,
        req: Message,
        key: &str,
        want_dir: bool,
    ) -> Handled {
        if let Err(e) = validate_key(key) {
            return ctx.respond_err(&req, e.errnum());
        }
        let want = if want_dir { Want::Listing } else { Want::Value };
        let shard = rep.slots.shard_of(key);
        match step_walk(&mut rep.cache, key, 0, rep.slots.root(shard).0) {
            Stop::Done(end) => answer(ctx, &req, get_reply(&mut rep.cache, end, want)),
            Stop::Miss(cur, pos) => {
                let (req, parked) = ctx.park(req);
                let kind = WalkKind::Get(req);
                self.park(ctx, rep, Walk { kind, key: key.to_owned(), pos, cur, want, shard });
                parked
            }
        }
    }

    /// A child's (or client's) `kvs.load` of object `id` of `shard`'s
    /// tree; `shard` was validated by the dispatcher. The first miss on
    /// `id` sends the request's own payload up when it is the one this
    /// broker would build (module docs).
    pub(crate) fn serve_load(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        rep: &mut Replica,
        req: Message,
        id: ObjectId,
        shard: u32,
    ) -> Handled {
        if let Some(payload) = rep.cache.lookup(id).and_then(|_| load_reply(&mut rep.cache, id)) {
            return ctx.respond(&req, payload);
        }
        if rep.slots.masters(shard) {
            return ctx.respond_err(&req, errnum::ENOENT);
        }
        let entry = self.load_waiters.entry(id).or_default();
        let first = entry.0.is_empty() && entry.1.is_empty();
        let ask = first.then(|| {
            if !msg::is_load_request(&req.payload, id, shard) {
                return Payload::from(msg::load_request(id, shard));
            }
            // `id` is this payload's own parse ([`load_id`]): kept in its
            // memo, the tiers above read it instead of parsing again.
            req.payload.memo(|_| Some(id));
            req.payload.clone()
        });
        let (req, parked) = ctx.park(req);
        push_one(&mut entry.1, req);
        if let Some(ask) = ask {
            self.send_load(ctx, rep, id, shard, ask);
        }
        parked
    }

    pub(crate) fn watch(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        rep: &mut Replica,
        req: Message,
        key: &str,
        requester: Requester,
    ) -> Handled {
        let shard = rep.slots.shard_of(key);
        let (req, parked) = ctx.park(req);
        let id = self.watch.add(req, key, requester, shard);
        self.check_watch(ctx, rep, id, key);
        parked
    }

    /// Re-walks the watchers of every shard whose root moved since the
    /// last call (deterministic registration order per shard).
    pub(crate) fn recheck(&mut self, ctx: &mut ModuleCtx<'_>, rep: &mut Replica) {
        for shard in rep.slots.take_moved() {
            for (id, key) in self.watch.on_shard(shard) {
                self.check_watch(ctx, rep, id, &key);
            }
        }
    }

    // ----- walks -----------------------------------------------------------

    /// Walks watcher `id`'s key and reports what it reads. A key that
    /// fails validation never resolves, so its watcher hears nothing.
    fn check_watch(&mut self, ctx: &mut ModuleCtx<'_>, rep: &mut Replica, id: u64, key: &str) {
        if validate_key(key).is_err() {
            return;
        }
        let shard = rep.slots.shard_of(key);
        let kind = WalkKind::WatchCheck(id);
        match step_walk(&mut rep.cache, key, 0, rep.slots.root(shard).0) {
            Stop::Done(end) => self.finish(ctx, kind, get_reply(&mut rep.cache, end, Want::Either)),
            Stop::Miss(cur, pos) => {
                let (key, want) = (key.to_owned(), Want::Either);
                self.park(ctx, rep, Walk { kind, key, pos, cur, want, shard });
            }
        }
    }

    /// Carries a parked walk on from the object that just arrived.
    fn resume(&mut self, ctx: &mut ModuleCtx<'_>, rep: &mut Replica, mut walk: Walk) {
        match step_walk(&mut rep.cache, &walk.key, walk.pos, walk.cur) {
            Stop::Done(end) => {
                let reply = get_reply(&mut rep.cache, end, walk.want);
                self.finish(ctx, walk.kind, reply);
            }
            Stop::Miss(cur, pos) => {
                (walk.cur, walk.pos) = (cur, pos);
                self.park(ctx, rep, walk);
            }
        }
    }

    /// Parks `walk` on the object it found missing and faults that in.
    fn park(&mut self, ctx: &mut ModuleCtx<'_>, rep: &mut Replica, walk: Walk) {
        if rep.slots.masters(walk.shard) {
            // Authoritative store: a miss is a hard ENOENT.
            return self.finish(ctx, walk.kind, Err(errnum::ENOENT));
        }
        let (missing, shard) = (walk.cur, walk.shard);
        self.next_walk += 1;
        self.walks.insert(self.next_walk, walk);
        let entry = self.load_waiters.entry(missing).or_default();
        push_one(&mut entry.0, self.next_walk);
        if entry.0.len() == 1 && entry.1.is_empty() {
            let payload = Payload::from(msg::load_request(missing, shard));
            self.send_load(ctx, rep, missing, shard, payload);
        }
    }

    /// Ends a walk with its reply or errnum. A watch check reads the
    /// value out of the shared get reply: a value's `v`, a directory's
    /// listing.
    fn finish(&mut self, ctx: &mut ModuleCtx<'_>, kind: WalkKind, reply: Result<Payload, u32>) {
        match kind {
            WalkKind::Get(req) => {
                answer(ctx, &req, reply);
            }
            WalkKind::WatchCheck(id) => {
                let reply = reply.ok();
                let now = reply.as_deref().and_then(|r| msg::value(r).or_else(|| msg::listing(r)));
                self.watch.observe(ctx, id, now);
            }
        }
    }

    // ----- fault-in --------------------------------------------------------

    /// Sends `payload`, the `kvs.load` request for object `id` of
    /// `shard`'s tree, to the next tier: the parent, or from the tree
    /// root, the last cache tier, the shard's master.
    fn send_load(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        rep: &mut Replica,
        id: ObjectId,
        shard: u32,
        payload: Payload,
    ) {
        let to = if !ctx.is_root() {
            None
        } else if rep.slots.masters(shard) {
            return self.complete_load(ctx, rep, id, Err(errnum::ENOENT));
        } else {
            Some(shard::master_of(shard))
        };
        // Only an upstream send from the root can be refused.
        let _ = self.loads.send(ctx, to, KvsMethod::Load, payload, (id, shard));
    }

    /// Resolves a load: with the object, once the cache holds it, or
    /// with `loaded`'s code that says why there is none.
    fn complete_load(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        rep: &mut Replica,
        id: ObjectId,
        loaded: Result<(), u32>,
    ) {
        let Some((walks, requests)) = self.load_waiters.remove(&id) else { return };
        // One shared reply payload answers every child waiting on this id.
        let reply = rep
            .cache
            .lookup(id)
            .and_then(|_| load_reply(&mut rep.cache, id))
            .ok_or(loaded.err().unwrap_or(errnum::ENOENT));
        for req in requests {
            match &reply {
                Ok(payload) => ctx.respond(&req, payload.clone()),
                Err(code) => ctx.respond_err(&req, *code),
            };
        }
        for walk_id in walks {
            let Some(walk) = self.walks.remove(&walk_id) else { continue };
            match &reply {
                Ok(_) => self.resume(ctx, rep, walk),
                Err(code) => self.finish(ctx, walk.kind, Err(*code)),
            }
        }
    }

    /// Claims `msg` if it answers a load; returns whether it did.
    pub(crate) fn handle_response(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        rep: &mut Replica,
        msg: &Message,
    ) -> bool {
        let Some(((id, _), answer)) = self.loads.claim(msg) else { return false };
        let loaded = match answer {
            // Lost in transit, not absent: the waiters stay parked and
            // the heartbeat tries again.
            Answer::Lost => return true,
            // The tier above has no such object (`ENOENT`) or cannot
            // read the request (`EINVAL`); asking again changes neither.
            Answer::Refused(code) => Err(code),
            // Verify the content address before trusting a loaded
            // object. The check, the hash and a directory's decode are
            // the payload's, made once for every broker handed this same
            // payload; the comparison with the id *this* broker asked
            // for is its own.
            Answer::Ok => match &*msg.payload.memo(decode_load_reply) {
                Some((hashed, bytes, view)) if *hashed == id => {
                    // Read-path caching at every level of the chain: this
                    // is what lets C consumers share log2(C) transfers
                    // (Fig. 4 model). The cache holds the payload's bytes.
                    rep.cache.insert_bytes(id, Arc::clone(bytes), view.clone());
                    // The upstream reply payload is exactly the reply this
                    // broker would build for its own children: it becomes
                    // the object's load reply.
                    rep.cache.reply(id, Reply::Load, |_, _| Some(msg.payload.clone()));
                    Ok(())
                }
                _ => Err(errnum::ENOENT),
            },
        };
        self.complete_load(ctx, rep, id, loaded);
        true
    }

    /// Sends again the loads that are due: lost in transit, or
    /// unanswered for a whole heartbeat period. Each is a load somebody
    /// still waits on, since only its answer ends it.
    pub(crate) fn on_heartbeat(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.loads.sweep(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::KvsModule;
    use crate::testutil::{messages, request};
    use flux_broker::testing::with_ctx;
    use flux_broker::CommsModule;
    use flux_wire::{MsgId, MsgType};

    /// The one load in flight, as the request the parent would answer.
    fn load_in_flight(reads: &Reads) -> Message {
        let ids: Vec<MsgId> = reads.loads.in_flight().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 1, "one load in flight");
        let mut load = request(KvsMethod::Load, Value::object());
        load.header.id = ids[0];
        load
    }

    fn loads_sent(msgs: &[&Message]) -> usize {
        msgs.iter().filter(|m| m.header.topic.as_str() == KvsMethod::Load.topic_str()).count()
    }

    fn dir_b7() -> KvsObject {
        KvsObject::Dir([("b".to_owned(), KvsObject::Val(Value::Int(7)).id())].into())
    }

    /// The `kvs.load` reply a parent builds: `obj`, said to be object `id`.
    fn load_payload(id: ObjectId, obj: Value) -> Payload {
        msg::load_reply(id, obj).into()
    }

    /// One slave broker gets `b` under root `want`, faults the root in
    /// and is answered with `payload`. Returns the errnum its get was
    /// answered with (if it was) and what its cache holds under `want`.
    fn slave_handed(want: ObjectId, payload: &Payload) -> (Option<u32>, Option<Arc<KvsObject>>) {
        let get = request(KvsMethod::Get, Value::object());
        let (get_id, payload) = (get.header.id, payload.clone());
        let (cached, outs) = with_ctx(2, 3, move |ctx| {
            let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
            rep.slots.apply_root(ctx, 0, 1, want);
            reads.lookup(ctx, &mut rep, get, "b", false);
            let reply = Message::response_to(&load_in_flight(&reads), payload);
            assert!(reads.handle_response(ctx, &mut rep, &reply));
            rep.cache.get(want)
        });
        let answer = messages(&outs).into_iter().find(|m| m.header.id == get_id);
        (answer.map(|m| m.header.errnum), cached)
    }

    #[test]
    fn brokers_handed_one_load_reply_share_one_decoded_object() {
        let dir = dir_b7();
        let payload = load_payload(dir.id(), dir.to_value());
        let (_, a) = slave_handed(dir.id(), &payload);
        let (_, b) = slave_handed(dir.id(), &payload);
        let (a, b) = (a.expect("cached"), b.expect("cached"));
        assert_eq!(*a, dir);
        assert!(Arc::ptr_eq(&a, &b), "one allocation serves both caches");
        // The same reply read off a socket is a fresh payload: that
        // broker decodes and hashes for itself.
        let framed = Message::response_to(&request(KvsMethod::Load, Value::object()), payload);
        let (framed, _) = Message::decode(&framed.encode()).expect("round trip");
        let (_, c) = slave_handed(dir.id(), &framed.payload);
        assert!(!Arc::ptr_eq(&a, &c.expect("cached")));
    }

    #[test]
    fn every_broker_checks_a_shared_load_reply_against_the_id_it_asked_for() {
        let other = KvsObject::Val(Value::Int(8));
        let (a, b) = (dir_b7().id(), other.id());
        let refused = (Some(errnum::ENOENT), None);
        // Forged (said to be `a`, hashes to `b`), malformed, absent.
        let forged = load_payload(a, other.to_value());
        let malformed = load_payload(a, Value::from_pairs([("t", "nope".into())]));
        let absent = Payload::from(Value::from_pairs([("id", a.to_hex().into())]));
        // `a`'s own bytes with any one byte changed.
        let flipped = (0..dir_b7().encode().len()).map(|at| {
            let mut bytes = dir_b7().encode();
            bytes[at] ^= 0x01;
            load_payload(a, Value::Bytes(bytes.into()))
        });
        for bad in [forged, malformed, absent].into_iter().chain(flipped) {
            for _broker in 0..2 {
                assert_eq!(slave_handed(a, &bad), refused);
            }
        }
        // A valid reply for `b`: whoever asked for `a` is refused, before
        // and after the broker that asked for `b` accepted the payload.
        let for_b = load_payload(b, other.to_value());
        assert_eq!(slave_handed(a, &for_b), refused);
        assert_eq!(slave_handed(b, &for_b).1.as_deref(), Some(&other));
        assert_eq!(slave_handed(a, &for_b), refused);
    }

    #[test]
    fn a_faulted_in_object_is_held_as_the_reply_payloads_bytes_and_a_value_keeps_no_view() {
        let (seven, dir) = (KvsObject::Val(Value::Int(7)), dir_b7());
        let get = request(KvsMethod::Get, Value::object());
        let get_id = get.header.id;
        let (_, outs) = with_ctx(2, 3, move |ctx| {
            let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
            rep.slots.apply_root(ctx, 0, 1, dir.id());
            reads.lookup(ctx, &mut rep, get, "b", false);
            // The walk faults in the root directory, then the value.
            for obj in [&dir, &seven] {
                let payload = load_payload(obj.id(), obj.to_value());
                let reply = Message::response_to(&load_in_flight(&reads), payload.clone());
                assert!(reads.handle_response(ctx, &mut rep, &reply));
                let carried = msg::load_reply_object(&payload).expect("bytes");
                let held = rep.cache.bytes(obj.id()).expect("held");
                assert!(Arc::ptr_eq(held, carried), "the payload's bytes, not a copy");
            }
            assert_eq!(rep.cache.lookup(seven.id()), Some(None), "a value keeps no view");
            assert_eq!(rep.cache.lookup(dir.id()), Some(Some(Arc::new(dir))));
        });
        let answer = messages(&outs).into_iter().find(|m| m.header.id == get_id);
        assert_eq!(answer.expect("answered").payload.get("v"), Some(&Value::Int(7)));
    }

    #[test]
    fn a_master_serves_a_load_from_the_bytes_a_push_brought() {
        use crate::authority::Authority;
        use crate::module::KvsConfig;
        let seven = KvsObject::Val(Value::Int(7));
        let id = seven.id();
        let bytes: Arc<[u8]> = seven.encode().into();
        let objects = msg::Objects::from([(id, Arc::clone(&bytes))]);
        let part = msg::push_payload(0, None, &[("k".to_owned(), Some(id))], &objects);
        let push = request(KvsMethod::Push, part);
        let load = request(KvsMethod::Load, msg::load_request(id, 0));
        let load_id = load.header.id;
        let (_, outs) = with_ctx(0, 2, move |ctx| {
            let (mut rep, mut authority) = (Replica::new(1), Authority::default());
            rep.slots.start(1, Some(0));
            let cfg = KvsConfig { batch_window_ns: 0, ..KvsConfig::default() };
            authority.accept_push(ctx, &cfg, &mut rep, push, None);
            Reads::default().serve_load(ctx, &mut rep, load, id, 0);
        });
        let reply = messages(&outs).into_iter().find(|m| m.header.id == load_id).expect("served");
        let served = msg::load_reply_object(&reply.payload).expect("bytes");
        assert!(Arc::ptr_eq(served, &bytes), "the put's bytes, through the push and the cache");
    }

    #[test]
    fn a_load_reply_is_dropped_when_its_object_expires() {
        let get = request(KvsMethod::Get, Value::object());
        let dir = dir_b7();
        with_ctx(2, 3, move |ctx| {
            let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
            rep.slots.apply_root(ctx, 0, 1, dir.id());
            reads.lookup(ctx, &mut rep, get, "b", false);
            let reply = Message::response_to(
                &load_in_flight(&reads),
                load_payload(dir.id(), dir.to_value()),
            );
            assert!(reads.handle_response(ctx, &mut rep, &reply));
            drop(reply);
            let obj = rep.cache.get(dir.id()).expect("cached");
            // The payload is the object's load reply, kept in its cache
            // entry, and its memo holds the decoded object.
            assert_eq!(Arc::strong_count(&obj), 3, "the cache, the reply's memo, this test");
            // The root moves on and the directory idles past its expiry.
            rep.slots.apply_root(ctx, 0, 2, KvsObject::empty_dir().id());
            rep.cache.set_epoch(100);
            rep.cache.expire(16, &rep.slots.roots());
            assert!(!rep.cache.contains(dir.id()));
            assert_eq!(Arc::strong_count(&obj), 1, "the reply went with it: nothing pins it");
        });
    }

    /// Root `{a, b, d, e}`: `a` and `b` name one value, `d` and `e` one
    /// directory. Returns every object and the root's id.
    fn shared_tree() -> (Vec<KvsObject>, ObjectId) {
        let (seven, sub) = (KvsObject::Val(Value::Int(7)), dir_b7());
        let names = [("a", seven.id()), ("b", seven.id()), ("d", sub.id()), ("e", sub.id())];
        let root = KvsObject::Dir(names.into_iter().map(|(n, id)| (n.to_owned(), id)).collect());
        let id = root.id();
        (vec![seven, sub, root], id)
    }

    /// One slave broker whose cache holds `objects`, under root `root`,
    /// answers a get of each `(key, want_dir)` in turn: their replies.
    fn answered(objects: Vec<KvsObject>, root: ObjectId, asks: &[(&str, bool)]) -> Vec<Payload> {
        let gets: Vec<Message> =
            asks.iter().map(|_| request(KvsMethod::Get, Value::object())).collect();
        let ids: Vec<MsgId> = gets.iter().map(|g| g.header.id).collect();
        let (_, outs) = with_ctx(2, 3, |ctx| {
            let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
            for obj in objects {
                rep.cache.insert(obj);
            }
            rep.slots.apply_root(ctx, 0, 1, root);
            for (get, (key, want_dir)) in gets.into_iter().zip(asks) {
                reads.lookup(ctx, &mut rep, get, key, *want_dir);
            }
        });
        let msgs = messages(&outs);
        let reply = |id| msgs.iter().find(|m| m.header.id == id && !m.is_error());
        ids.into_iter().map(|id| reply(id).expect("answered").payload.clone()).collect()
    }

    /// Whether every payload in `replies` is one allocation.
    fn one_allocation(replies: &[Payload]) -> bool {
        replies.iter().all(|r| std::ptr::eq(r.value(), replies[0].value()))
    }

    #[test]
    fn two_keys_bound_to_one_content_get_one_reply_allocation() {
        let (objects, root) = shared_tree();
        let replies = answered(objects, root, &[("a", false), ("b", false), ("a", false)]);
        assert_eq!(replies[0], Value::from_pairs([("v", Value::Int(7))]));
        assert!(one_allocation(&replies), "three reads, one reply");
    }

    #[test]
    fn two_listings_of_one_directory_share_one_dir_reply() {
        let (objects, root) = shared_tree();
        let replies = answered(objects, root, &[("d", true), ("e", true)]);
        let hex7 = Value::from(KvsObject::Val(Value::Int(7)).id().to_hex());
        assert_eq!(replies[0], Value::from_pairs([("dir", Value::from_pairs([("b", hex7)]))]));
        assert!(one_allocation(&replies), "two listings, one reply");
    }

    #[test]
    fn a_get_reply_is_dropped_when_its_object_expires() {
        let (objects, root) = shared_tree();
        let seven = objects[0].id();
        let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
        for obj in objects {
            rep.cache.insert(obj);
        }
        let get = request(KvsMethod::Get, Value::object());
        let get_id = get.header.id;
        let (_, outs) = with_ctx(2, 3, |ctx| {
            rep.slots.apply_root(ctx, 0, 1, root);
            reads.lookup(ctx, &mut rep, get, "a", false);
        });
        let reply = messages(&outs).into_iter().find(|m| m.header.id == get_id).map(|m| &m.payload);
        // A marker kept in the reply's memo slot lives exactly as long as
        // the reply does.
        let marker = reply.expect("answered").memo(|_| ());
        drop(outs);
        assert_eq!(Arc::strong_count(&marker), 2, "the cache entry keeps the reply");
        // The root moves on and the value idles past its expiry.
        with_ctx(2, 3, |ctx| rep.slots.apply_root(ctx, 0, 2, KvsObject::empty_dir().id()));
        rep.cache.set_epoch(100);
        rep.cache.expire(16, &rep.slots.roots());
        assert!(!rep.cache.contains(seven));
        assert_eq!(Arc::strong_count(&marker), 1, "the reply went with its object");
    }

    #[test]
    fn a_get_reply_read_off_a_socket_is_a_fresh_payload() {
        let (objects, root) = shared_tree();
        let shared = answered(objects, root, &[("a", false)]).remove(0);
        // Framed and decoded, the same reply is a payload of its own: a
        // socket client records its own copy.
        let get = request(KvsMethod::Get, Value::object());
        let framed = Message::response_to(&get, shared.clone());
        let (framed, _) = Message::decode(&framed.encode()).expect("round trip");
        assert_eq!(framed.payload, shared);
        assert!(!one_allocation(&[shared, framed.payload]));
    }

    #[test]
    fn a_warm_walk_answers_at_once_and_only_a_cold_one_parks() {
        let seven = KvsObject::Val(Value::Int(7));
        let (sub, hex7) = (dir_b7(), Value::from(seven.id().to_hex()));
        let root = KvsObject::Dir([("a".into(), seven.id()), ("d".into(), sub.id())].into());
        let cases = [
            ("a", false, Ok(("v", Value::Int(7)))),
            ("zz", false, Err(errnum::ENOENT)),
            ("a.b", false, Err(errnum::ENOTDIR)),
            ("d", false, Err(errnum::EISDIR)),
            ("d", true, Ok(("dir", Value::from_pairs([("b", hex7)])))),
        ];
        for (key, want_dir, expect) in cases {
            let expect = match expect {
                Ok((field, v)) => (0, Value::from_pairs([(field, v)])),
                Err(code) => (code, Value::Null),
            };
            // Warm: every object cached. Cold: the root is not.
            for warm in [true, false] {
                let get = request(KvsMethod::Get, Value::object());
                let get_id = get.header.id;
                let objects = [seven.clone(), sub.clone(), root.clone()];
                let (_, outs) = with_ctx(2, 3, move |ctx| {
                    let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
                    let [seven, sub, root] = objects;
                    let (root_id, root_value) = (root.id(), root.to_value());
                    rep.cache.insert(seven);
                    rep.cache.insert(sub);
                    if warm {
                        rep.cache.insert(root);
                    }
                    rep.slots.apply_root(ctx, 0, 1, root_id);
                    reads.lookup(ctx, &mut rep, get, key, want_dir);
                    if !warm {
                        assert_eq!(reads.walks.len(), 1, "{key}: the cold walk parks");
                        let load = load_in_flight(&reads);
                        let reply = Message::response_to(&load, load_payload(root_id, root_value));
                        assert!(reads.handle_response(ctx, &mut rep, &reply));
                    }
                    assert!(reads.walks.is_empty() && reads.load_waiters.is_empty(), "{key}");
                });
                let msgs = messages(&outs);
                assert_eq!(loads_sent(&msgs), usize::from(!warm), "{key} warm={warm}");
                let replies: Vec<_> = msgs.iter().filter(|m| m.header.id == get_id).collect();
                assert_eq!(replies.len(), 1, "{key} warm={warm}");
                let (code, payload) = (replies[0].header.errnum, replies[0].payload.value());
                let got = (code, if code == 0 { payload.clone() } else { Value::Null });
                assert_eq!(got, expect, "{key} dir={want_dir} warm={warm}");
            }
        }
    }

    #[test]
    fn a_load_lost_in_transit_is_retried_and_only_a_real_enoent_is_reported() {
        // The last answer is what the get reports: a declared code of
        // the tier above, never the transport's.
        for refusal in [errnum::ENOENT, errnum::EINVAL] {
            let get = request(KvsMethod::Get, Value::object());
            let get_id = get.header.id;
            // A one-shard slave: the miss on the root directory goes to the parent.
            let (_, outs) = with_ctx(2, 3, move |ctx| {
                let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
                rep.slots.apply_root(ctx, 0, 1, ObjectId::hash(b"a root this slave never saw"));
                reads.lookup(ctx, &mut rep, get, "a.b", false);
                let mut answer = |reads: &mut Reads, ctx: &mut ModuleCtx<'_>, code| {
                    let reply = Message::error_response_to(&load_in_flight(reads), code);
                    assert!(reads.handle_response(ctx, &mut rep, &reply));
                    reads.on_heartbeat(ctx);
                };
                answer(&mut reads, ctx, errnum::EHOSTDOWN);
                assert_eq!(reads.walks.len(), 1, "still parked, and asked again");
                answer(&mut reads, ctx, refusal);
                assert!(reads.walks.is_empty() && reads.load_waiters.is_empty());
                assert!(reads.loads.in_flight().is_empty(), "a refused load is not re-sent");
            });
            let msgs = messages(&outs);
            assert_eq!(loads_sent(&msgs), 2, "sent, then re-sent on the heartbeat");
            let replies: Vec<_> = msgs.iter().filter(|m| m.header.id == get_id).collect();
            assert_eq!(replies.len(), 1);
            assert_eq!(replies[0].header.errnum, refusal);
        }
    }

    /// A child's `kvs.load` of `id` carrying `payload`.
    fn child_load(payload: &Payload) -> Message {
        let mut load = request(KvsMethod::Load, Value::object());
        load.payload = payload.clone();
        load
    }

    /// What a one-shard broker on `rank` (of 4, arity 2) sends upstream
    /// when it misses on the child load `payload`.
    fn forwarded_by(rank: u32, payload: &Payload) -> Payload {
        let load = child_load(payload);
        let (_, outs) = with_ctx(rank, 4, move |ctx| {
            let mut kvs = KvsModule::new();
            kvs.on_start(ctx);
            kvs.handle_request(ctx, load);
        });
        let sent: Vec<&Message> =
            messages(&outs).into_iter().filter(|m| m.header.msg_type == MsgType::Request).collect();
        assert_eq!((sent.len(), loads_sent(&sent)), (1, 1), "{outs:?}");
        sent[0].payload.clone()
    }

    /// The parse of a `kvs.load` request kept in `payload`'s memo slot.
    fn memo_of(payload: &Payload) -> Option<Arc<Option<ObjectId>>> {
        payload.memoized::<Option<ObjectId>>()
    }

    #[test]
    fn a_missed_child_load_climbs_on_as_the_childs_own_payload() {
        let id = dir_b7().id();
        let ask = Payload::from(msg::load_request(id, 0));
        assert!(memo_of(&ask).is_none());
        let sent = forwarded_by(1, &ask);
        assert_eq!(sent, ask);
        let parsed = memo_of(&ask).expect("the forwarding tier kept its parse");
        assert_eq!(*parsed, Some(id));
        assert!(Arc::ptr_eq(&memo_of(&sent).expect("memo"), &parsed), "the child's own payload");
    }

    #[test]
    fn a_child_load_with_another_spelling_is_sent_on_rebuilt() {
        let id = dir_b7().id();
        let canonical = msg::load_request(id, 0);
        let mut extra = canonical.clone();
        extra.insert("x", Value::from(1i64));
        let upper = Value::from_pairs([("id", Value::from(id.to_hex().to_uppercase()))]);
        for odd in [extra, upper] {
            let ask = Payload::from(odd);
            assert_eq!(load_id(&ask), Some(id), "{ask:?} asks for the same object");
            let sent = forwarded_by(1, &ask);
            assert_eq!(sent, canonical, "{ask:?}");
            let fresh = memo_of(&ask).is_none() && memo_of(&sent).is_none();
            assert!(fresh, "{ask:?}: a fresh payload");
        }
    }

    #[test]
    fn brokers_handed_one_load_request_parse_its_id_once() {
        let id = dir_b7().id();
        let ask = Payload::from(msg::load_request(id, 0));
        // Rank 3 misses and forwards; its parent, rank 1, is handed the
        // same payload and misses too.
        let from_leaf = forwarded_by(3, &ask);
        let parsed = memo_of(&ask).expect("rank 3 kept its parse");
        let from_interior = forwarded_by(1, &from_leaf);
        assert!(Arc::ptr_eq(&memo_of(&from_interior).expect("memo"), &parsed), "one parse");
        // The tier above reads the memo, not the hex: a payload whose
        // memo names another object (a broken build, never a real one)
        // is sent on as a fresh request for the memo's object.
        let other = KvsObject::Val(Value::Int(8)).id();
        let misread = Payload::from(msg::load_request(id, 0));
        misread.memo(|_| Some(other));
        assert_eq!(forwarded_by(1, &misread), msg::load_request(other, 0));
    }

    #[test]
    fn is_load_request_accepts_exactly_what_load_request_builds() {
        let id = dir_b7().id();
        for shard in [0, 2] {
            let built = msg::load_request(id, shard);
            assert!(msg::is_load_request(&built, id, shard));
            assert!(!msg::is_load_request(&built, KvsObject::empty_dir().id(), shard));
            assert!(!msg::is_load_request(&built, id, shard + 1), "another shard");
            let mut extra = built.clone();
            extra.insert("x", Value::Null);
            assert!(!msg::is_load_request(&extra, id, shard));
        }
        let bare = Value::from_pairs([("id", Value::from(id.to_hex()))]);
        assert!(!msg::is_load_request(&bare, id, 0), "no shard field");
    }

    #[test]
    fn a_load_that_is_never_answered_is_sent_again_after_two_heartbeats() {
        let get = request(KvsMethod::Get, Value::object());
        let get_id = get.header.id;
        let dir = dir_b7();
        let (load_id, outs) = with_ctx(2, 3, move |ctx| {
            let mut rep = Replica::new(1);
            rep.cache.insert(KvsObject::Val(Value::Int(7)));
            rep.slots.apply_root(ctx, 0, 1, dir.id());
            let mut reads = Reads::default();
            reads.lookup(ctx, &mut rep, get, "b", false);
            let first = load_in_flight(&reads);
            // One beat: merely in flight. Two: sent again. Three: merely
            // in flight again.
            for _ in 0..3 {
                reads.on_heartbeat(ctx);
            }
            assert_eq!(load_in_flight(&reads).header.id, first.header.id, "sent again as itself");
            let reply = Message::response_to(&first, msg::load_reply(dir.id(), dir.to_value()));
            assert!(reads.handle_response(ctx, &mut rep, &reply), "an answer to either copy");
            assert!(reads.walks.is_empty() && reads.loads.in_flight().is_empty());
            assert!(
                !reads.handle_response(ctx, &mut rep, &reply),
                "the other copy's is not claimed"
            );
            first.header.id
        });
        let msgs = messages(&outs);
        let loads: Vec<&Message> =
            msgs.iter().copied().filter(|m| m.header.msg_type == MsgType::Request).collect();
        assert_eq!(loads_sent(&loads), 2, "exactly one re-send");
        assert!(loads.iter().all(|m| m.header.id == load_id), "under the first id");
        let replies: Vec<_> = msgs.iter().filter(|m| m.header.id == get_id).collect();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].payload.get("v"), Some(&Value::Int(7)));
    }
}
