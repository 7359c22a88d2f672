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
//! would violate monotonic reads): a walk's own load is in the
//! [`InFlight`] table, which retries a lost one on the heartbeat and
//! reports only what the tier above itself refused.
//!
//! A walk that the local cache resolves is answered in the call that
//! started it and owns nothing beyond the request it was handed. Only a
//! walk that must fault an object in parks: the request moves into the
//! walk and the key is copied, and the walk itself is filed in the
//! waiter list of the object it waits on (`waiters`), so it has no id
//! and no table of its own. When the object arrives, the walks in its
//! list resume in the order they parked.
//!
//! A walk reads a directory's decoded view and a value's tag alone, and
//! ends on the held object it found ([`Held`]). Objects are immutable
//! and content-addressed, so every reply built from one is the same for
//! every reader. Its `kvs.get` reply (`{v}` decoded from a value's
//! bytes, its strings views of them; `{dir}` for a directory) is built
//! once and kept in the held object, which every tier a load payload
//! reached shares. Its `kvs.load` reply is this broker's, kept in the
//! cache entry: the payload that brought the object, or the held bytes
//! wrapped at the master ([`ObjectCache::load_reply`]). Every later
//! reader gets a reference-count bump of that one payload. A reply
//! cannot go stale (its key is the content) and lives as long as the
//! held object or the cache entry that keeps it. A watch check reads
//! its value out of the same shared get reply.
//!
//! A child's `kvs.load` that misses here is forwarded as it came, by
//! the route a walk's own load takes, and its hop stack carries the
//! answer back; this broker keeps one marker per object in flight
//! (`markers`: the forwarded request's id, its heartbeats, its shard).
//! The id parsed here rides on in the payload's memo slot ([`load_id`])
//! for every tier above. While a request for an object is in flight
//! from here (forwarded, or a walk's own), later requests and walks for
//! it wait behind it (`waiters`, filed only for an object something
//! waits on). Answers passing this broker on their way down
//! ([`Reads::passing_reply`]) are matched by the object they carry,
//! whichever request they answer: a success by the address its bytes
//! hash to (the payload's memo, made once per payload), a refusal by
//! the `id` it names (`{errstr, id}`, [`msg::load_refusal`]). So an
//! answer carrying an object this broker waits on is cached and answers
//! everything waiting here on it, every tier still caches and shares
//! one transfer, and no answer path scans a table. The retry rules:
//!
//! - a repeat of a forwarded request (same id) is forwarded again: it,
//!   or its answer, was lost above;
//! - a repeat of a parked request takes the parked copy's place;
//! - a refusal its method declares passing down answers the parked
//!   requests and walks of the object it names; a transport error leaves
//!   them parked, for the child's repeat;
//! - a forged or malformed answer matches nothing it does not carry: it
//!   is never turned into `ENOENT` here. What it left waiting asks again
//!   when the marker lapses, as after a lost transfer;
//! - a marker unanswered for two heartbeats lapses, and on that
//!   heartbeat an object still waited on gets a request in flight again
//!   (objects in id order): a parked walk's own load, or else the first
//!   parked request, forwarded.
//!
//! The marker and waiter tables give their memory back once they drain
//! below a quarter of the most entries they held since they last did.

use crate::inflight::{Answer, InFlight};
use crate::module::Replica;
use flux_broker::Requester;
use crate::msg;
use crate::object::{self, KvsObject};
use crate::path::validate_key;
use crate::shard;
use crate::store::{Held, ObjectCache};
use crate::watch::Watches;
use flux_broker::{Handled, ModuleCtx};
use flux_hash::ObjectId;
use flux_proto::KvsMethod;
use flux_value::Value;
use flux_wire::{errnum, Message, MsgId, Payload, PeerMap, Rank};
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

/// How a walk ended: the object at the end of its key, or an errnum.
type WalkEnd = Result<Arc<Held>, u32>;

/// The reply to a walk that wanted `want` and ended as `end`: the
/// found object's one get reply, built on first use and shared by every
/// later read of that object ([`Held::get_reply`]), or the errnum that
/// says why there is none.
fn get_reply(end: WalkEnd, want: Want) -> Result<Payload, u32> {
    let held = end?;
    match (held.dir().is_some(), want) {
        (false, Want::Listing) => Err(errnum::ENOTDIR),
        (true, Want::Value) => Err(errnum::EISDIR),
        _ => held
            .get_reply(|bytes, dir| msg::get_reply(bytes, dir).map(Payload::from))
            .ok_or(errnum::ENOENT),
    }
}

/// `id`'s `kvs.load` reply here, shared by every child that asks;
/// `None` if the cache does not hold `id`. Built from the held bytes
/// when no payload brought them: nothing is encoded.
fn load_reply(cache: &mut ObjectCache, id: ObjectId) -> Option<Payload> {
    cache.load_reply(id, |bytes| msg::load_reply(Value::Bytes(Arc::clone(bytes))).into())
}

/// Refuses `req`, a `kvs.load` of object `id`, with `code`, naming the
/// object: every tier the refusal passes on its way down matches it to
/// what waits there.
fn refuse_load(
    ctx: &mut ModuleCtx<'_>,
    req: &Message,
    id: ObjectId,
    code: u32,
) -> Handled {
    ctx.respond_err_with(req, code, msg::load_refusal(id, code))
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
        let Some(held) = cache.lookup(cur) else { return Stop::Miss(cur, pos) };
        let rest = &key[pos..];
        if rest.is_empty() {
            return Stop::Done(Ok(held));
        }
        // A byte search: `.` is ASCII, so the offset is a char boundary.
        let (name, tail) = match rest.bytes().position(|b| b == b'.') {
            Some(dot) => (&rest[..dot], &rest[dot + 1..]),
            None => (rest, ""),
        };
        cur = match held.dir() {
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

/// What a `kvs.load` reply payload holds: the content address its
/// `obj` bytes hash to, and the held object made of them (the bytes
/// themselves and, for a directory, the view decoded from them). This
/// is kept in the payload's memo slot, so brokers handed one payload
/// check, hash and decode it once between them, and cache one object.
type Loaded = (ObjectId, Arc<Held>);

/// The payload's [`Loaded`] (`None`: a malformed `obj`).
fn decode_load_reply(payload: &Value) -> Option<Loaded> {
    let bytes = msg::load_reply_object(payload)?;
    let (id, dir) = object::receive(bytes)?;
    Some((id, Held::new(Arc::clone(bytes), dir)))
}

/// Caches `loaded`, what `payload`, a `kvs.load` reply, carries.
fn keep(rep: &mut Replica, payload: &Payload, (id, held): &Loaded) {
    // Read-path caching at every level of the chain: this is what lets C
    // consumers share log2(C) transfers (Fig. 4 model). The cache holds
    // the payload's held object, and answers its own children's loads
    // with the payload itself: it carries nothing but the object, so it
    // is exactly the reply this broker would build.
    rep.cache.insert_held(*id, Arc::clone(held), Some(payload.clone()));
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

/// Slots a drained table keeps: loads that trickle in one at a time
/// would otherwise free the table and allocate it again for each one.
const DRAINED_KEEPS: usize = 16;

/// A table keyed by object that gives its memory back once drained,
/// with the most entries it held since it last did. Entries go in
/// through [`Table::insert`] and [`Table::file`], which keep the mark;
/// everything else is the map's own.
struct Table<V> {
    map: PeerMap<ObjectId, V>,
    /// The most entries since the table was last shrunk: what its
    /// buckets were sized for. `capacity` cannot say: it counts the
    /// slots still free to fill, and every tombstone a removal leaves
    /// takes one away, so a table drained by removals reads nearly full.
    high: usize,
}

impl<V> Default for Table<V> {
    fn default() -> Self {
        Table { map: PeerMap::default(), high: 0 }
    }
}

impl<V> std::ops::Deref for Table<V> {
    type Target = PeerMap<ObjectId, V>;

    fn deref(&self) -> &Self::Target {
        &self.map
    }
}

impl<V> std::ops::DerefMut for Table<V> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.map
    }
}

impl<V> Table<V> {
    /// Inserts `value` for `id`.
    fn insert(&mut self, id: ObjectId, value: V) {
        self.map.insert(id, value);
        self.high = self.high.max(self.map.len());
    }

    /// The entry for `id`, made empty if there is none.
    fn file(&mut self, id: ObjectId) -> &mut V
    where
        V: Default,
    {
        let len = self.map.len() + usize::from(!self.map.contains_key(&id));
        self.high = self.high.max(len);
        self.map.entry(id).or_default()
    }

    /// Gives a drained table's memory back: once it holds fewer than a
    /// quarter of its high-water mark, it shrinks to twice its entries,
    /// and to no fewer than [`DRAINED_KEEPS`]. A wave of loads leaves
    /// no peak-sized table behind, and the quarter keeps a table that
    /// shrinks and grows again from doing so on every entry. The shrunk
    /// table is half empty: shrunk to its entries alone it would be
    /// full and grow again on the next one.
    fn shrink_drained(&mut self) {
        if self.high > DRAINED_KEEPS && self.map.len() < self.high / 4 {
            self.map.shrink_to((2 * self.map.len()).max(DRAINED_KEEPS));
            self.high = self.map.len();
        }
    }
}

/// The object a `kvs.load` request asks for (`None`: no hex `id`). A
/// tier that forwards the request stores its parse in the payload's
/// memo slot ([`Reads::serve_load`]), and every tier above reads that;
/// a request answered where it first lands is parsed without a memo.
pub(crate) fn load_id(payload: &Payload) -> Option<ObjectId> {
    match payload.memoized::<Option<ObjectId>>() {
        Some(id) => *id,
        None => msg::load_id(payload),
    }
}

/// The next tier for a load of `shard`'s tree from a broker that does
/// not master it: the parent (`None`), or from the tree root, the
/// shard's master.
fn load_route(ctx: &ModuleCtx<'_>, shard: u32) -> Option<Rank> {
    ctx.is_root().then(|| shard::master_of(shard))
}

/// Passes a child's `kvs.load` on to the next tier, as it came.
fn forward_load(ctx: &mut ModuleCtx<'_>, req: Message, shard: u32) -> Handled {
    match load_route(ctx, shard) {
        None => ctx.forward_upstream(req),
        Some(master) => ctx.forward_to_rank(master, req),
    }
}

/// A child's `kvs.load` of one object, forwarded from here and not yet
/// answered.
struct Marker {
    /// The forwarded request's id: a repeat of it is forwarded again.
    req: MsgId,
    /// Heartbeats it has gone unanswered.
    beats: u8,
    /// The shard whose tree it asks of: where a request sent for the
    /// object when the marker lapses goes.
    shard: u32,
}

/// What waits here for one object to arrive.
#[derive(Default)]
struct Waiting {
    /// Walks parked on it, in the order they parked; a request for it
    /// is in flight.
    walks: Vec<Walk>,
    /// Child `kvs.load` requests parked behind the request in flight.
    requests: Vec<Message>,
}

#[derive(Default)]
pub(crate) struct Reads {
    /// Object id → the child's request forwarded from here for it. A
    /// child chooses the id, so the table is a `PeerMap`.
    markers: Table<Marker>,
    /// Object id → what waits here for it, for an object something
    /// waits on only.
    waiters: Table<Waiting>,
    /// This broker's own load RPCs, tagged with the object. The waiters
    /// of a load lost in transit stay parked.
    loads: InFlight<ObjectId>,
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
            Stop::Done(end) => answer(ctx, &req, get_reply(end, want)),
            Stop::Miss(cur, pos) => {
                let (req, parked) = ctx.park(req);
                let kind = WalkKind::Get(req);
                self.park(ctx, rep, Walk { kind, key: key.to_owned(), pos, cur, want, shard });
                parked
            }
        }
    }

    /// A child's (or client's) `kvs.load` of object `id` of `shard`'s
    /// tree; `shard` was validated by the dispatcher. A miss is forwarded
    /// or waits behind the request in flight (module docs).
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
            return refuse_load(ctx, &req, id, errnum::ENOENT);
        }
        let repeat = self.markers.get(&id).is_some_and(|m| m.req == req.header.id);
        if !repeat {
            if self.in_flight(id) {
                let waiting = self.waiters.file(id);
                waiting.requests.retain(|parked| parked.header.id != req.header.id);
                let (req, parked) = ctx.park(req);
                push_one(&mut waiting.requests, req);
                return parked;
            }
            self.markers.insert(id, Marker { req: req.header.id, beats: 0, shard });
        }
        // `id` is this payload's own parse ([`load_id`]): kept in its
        // memo, the tiers above read it instead of parsing again.
        req.payload.memo(|_| Some(id));
        forward_load(ctx, req, shard)
    }

    /// Whether a request for object `id` is in flight from here: a
    /// forwarded child's, or a parked walk's own.
    fn in_flight(&self, id: ObjectId) -> bool {
        self.markers.contains_key(&id)
            || self.waiters.get(&id).is_some_and(|waiting| !waiting.walks.is_empty())
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
            Stop::Done(end) => self.finish(ctx, kind, get_reply(end, Want::Either)),
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
                let reply = get_reply(end, walk.want);
                self.finish(ctx, walk.kind, reply);
            }
            Stop::Miss(cur, pos) => {
                (walk.cur, walk.pos) = (cur, pos);
                self.park(ctx, rep, walk);
            }
        }
    }

    /// Parks `walk` on the object it found missing and, unless a request
    /// for that object is already in flight, faults it in.
    fn park(&mut self, ctx: &mut ModuleCtx<'_>, rep: &mut Replica, walk: Walk) {
        if rep.slots.masters(walk.shard) {
            // Authoritative store: a miss is a hard ENOENT.
            return self.finish(ctx, walk.kind, Err(errnum::ENOENT));
        }
        let (missing, shard) = (walk.cur, walk.shard);
        let ask = !self.in_flight(missing);
        push_one(&mut self.waiters.file(missing).walks, walk);
        if ask {
            self.send_load(ctx, missing, shard);
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

    /// Sends this broker's own `kvs.load` of object `id` of `shard`'s
    /// tree to the next tier.
    fn send_load(&mut self, ctx: &mut ModuleCtx<'_>, id: ObjectId, shard: u32) {
        let payload = Payload::from(msg::load_request(id, shard));
        // Only an upstream send from the root can be refused, and the
        // root sends rank-addressed.
        let _ = self.loads.send(ctx, load_route(ctx, shard), KvsMethod::Load, payload, id);
    }

    /// Resolves object `id`'s waiters: with the object, once the cache
    /// holds it, or with `loaded`'s code that says why there is none. A
    /// marker for `id` goes with them.
    fn complete_load(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        rep: &mut Replica,
        id: ObjectId,
        loaded: Result<(), u32>,
    ) {
        if self.markers.remove(&id).is_some() {
            self.markers.shrink_drained();
        }
        let Some(waiting) = self.waiters.remove(&id) else { return };
        self.waiters.shrink_drained();
        // One shared reply payload answers every child waiting on this id.
        let reply = rep
            .cache
            .lookup(id)
            .and_then(|_| load_reply(&mut rep.cache, id))
            .ok_or(loaded.err().unwrap_or(errnum::ENOENT));
        for req in waiting.requests {
            match &reply {
                Ok(payload) => ctx.respond(&req, payload.clone()),
                Err(code) => refuse_load(ctx, &req, id, *code),
            };
        }
        for walk in waiting.walks {
            match &reply {
                Ok(_) => self.resume(ctx, rep, walk),
                Err(code) => self.finish(ctx, walk.kind, Err(*code)),
            }
        }
    }

    /// Claims `msg` if it answers this broker's own load; returns whether
    /// it did. A success is checked against the id this broker asked for.
    pub(crate) fn handle_response(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        rep: &mut Replica,
        msg: &Message,
    ) -> bool {
        let Some((id, answer)) = self.loads.claim(msg) else { return false };
        let loaded = match answer {
            // Lost in transit, not absent: the waiters stay parked and
            // the heartbeat tries again.
            Answer::Lost => return true,
            // The tier above has no such object (`ENOENT`) or cannot
            // read the request (`EINVAL`); asking again changes neither.
            Answer::Refused(code) => Err(code),
            Answer::Ok => match &*msg.payload.memo(decode_load_reply) {
                Some(loaded) if loaded.0 == id => {
                    keep(rep, &msg.payload, loaded);
                    Ok(())
                }
                _ => Err(errnum::ENOENT),
            },
        };
        self.complete_load(ctx, rep, id, loaded);
        true
    }

    /// Reads `msg`, a `kvs.load` answer on its way down past this
    /// broker, and resolves what waits here on the object it carries
    /// (module docs); returns whether it did. A transport error is the
    /// child's to retry, and an answer that carries nothing waited on
    /// here, or nothing at all, changes nothing.
    pub(crate) fn passing_reply(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        rep: &mut Replica,
        msg: &Message,
    ) -> bool {
        // Nothing waits here: the answer is not even decoded.
        if self.markers.is_empty() && self.waiters.is_empty() {
            return false;
        }
        let wanted = |reads: &Reads, id| {
            reads.markers.contains_key(&id) || reads.waiters.contains_key(&id)
        };
        let (id, loaded) = match Answer::of(KvsMethod::Load, msg) {
            Answer::Lost => return false,
            Answer::Refused(code) => match msg::load_id(&msg.payload) {
                Some(id) if wanted(self, id) => (id, Err(code)),
                _ => return false,
            },
            Answer::Ok => match &*msg.payload.memo(decode_load_reply) {
                Some(loaded) if wanted(self, loaded.0) => {
                    keep(rep, &msg.payload, loaded);
                    (loaded.0, Ok(()))
                }
                _ => return false,
            },
        };
        self.complete_load(ctx, rep, id, loaded);
        true
    }

    /// The heartbeat: sends again this broker's own loads that are due
    /// (lost in transit, or unanswered for a whole period), and lapses
    /// the markers unanswered for two beats. An object still waited on
    /// whose marker lapsed gets a new request (module docs).
    pub(crate) fn on_heartbeat(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.loads.sweep(ctx);
        let mut lapsed = Vec::new();
        self.markers.retain(|&id, marker| {
            marker.beats += 1;
            let keep = marker.beats < 2;
            if !keep {
                lapsed.push((id, marker.shard));
            }
            keep
        });
        self.markers.shrink_drained();
        // In id order: what is sent must not depend on hash order.
        lapsed.sort_unstable();
        for (id, shard) in lapsed {
            self.ask_again(ctx, id, shard);
        }
    }

    /// Object `id`'s marker lapsed: whatever still waits on it gets a
    /// request in flight again, a parked walk's own load, or else the
    /// first parked child request, forwarded.
    fn ask_again(&mut self, ctx: &mut ModuleCtx<'_>, id: ObjectId, shard: u32) {
        let Some(waiting) = self.waiters.get_mut(&id) else { return };
        if !waiting.walks.is_empty() {
            return self.send_load(ctx, id, shard);
        }
        // Only parked requests wait: the first is forwarded in its turn.
        let requests = &mut waiting.requests;
        let Some(req) = (!requests.is_empty()).then(|| requests.remove(0)) else { return };
        if requests.is_empty() {
            self.waiters.remove(&id);
            self.waiters.shrink_drained();
        }
        self.markers.insert(id, Marker { req: req.header.id, beats: 0, shard });
        forward_load(ctx, req, shard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::KvsModule;
    use crate::testutil::{messages, request};
    use flux_broker::testing::with_ctx;
    use flux_broker::CommsModule;
    use flux_wire::MsgType;

    /// The one load in flight, as the request the parent would answer.
    fn load_in_flight(reads: &Reads) -> Message {
        let ids: Vec<MsgId> = reads.loads.in_flight().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 1, "one load in flight");
        let mut load = request(KvsMethod::Load, Value::object());
        load.header.id = ids[0];
        load
    }

    /// The walks parked here, in every object's waiter list.
    fn parked_walks(reads: &Reads) -> usize {
        reads.waiters.values().map(|waiting| waiting.walks.len()).sum()
    }

    fn loads_sent(msgs: &[&Message]) -> usize {
        msgs.iter().filter(|m| m.header.topic.as_str() == KvsMethod::Load.topic_str()).count()
    }

    fn dir_b7() -> KvsObject {
        KvsObject::Dir([("b".to_owned(), KvsObject::Val(Value::Int(7)).id())].into())
    }

    /// The `kvs.load` reply a parent builds for `obj`.
    fn load_payload(obj: &KvsObject) -> Payload {
        msg::load_reply(obj.to_value()).into()
    }

    /// One slave broker gets `b` under root `want`, faults the root in
    /// and is answered with `payload`. Returns the errnum its get was
    /// answered with (if it was) and the object its cache holds under
    /// `want`.
    fn slave_held(want: ObjectId, payload: &Payload) -> (Option<u32>, Option<Arc<Held>>) {
        let get = request(KvsMethod::Get, Value::object());
        let (get_id, payload) = (get.header.id, payload.clone());
        let (cached, outs) = with_ctx(2, 3, move |ctx| {
            let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
            rep.slots.apply_root(ctx, 0, 1, want);
            reads.lookup(ctx, &mut rep, get, "b", false);
            let reply = Message::response_to(&load_in_flight(&reads), payload);
            assert!(reads.handle_response(ctx, &mut rep, &reply));
            rep.cache.held(want).cloned()
        });
        let answer = messages(&outs).into_iter().find(|m| m.header.id == get_id);
        (answer.map(|m| m.header.errnum), cached)
    }

    /// [`slave_held`], the held object decoded.
    fn slave_handed(want: ObjectId, payload: &Payload) -> (Option<u32>, Option<KvsObject>) {
        let (code, held) = slave_held(want, payload);
        (code, held.map(|h| KvsObject::decode(h.bytes()).expect("held bytes decode")))
    }

    #[test]
    fn brokers_handed_one_load_reply_share_one_decoded_object() {
        let dir = dir_b7();
        let payload = load_payload(&dir);
        let (_, a) = slave_held(dir.id(), &payload);
        let (_, b) = slave_held(dir.id(), &payload);
        let (a, b) = (a.expect("cached"), b.expect("cached"));
        assert_eq!(a.dir(), Some(&dir));
        assert!(Arc::ptr_eq(&a, &b), "one allocation serves both caches");
        // The same reply read off a socket is a fresh payload: that
        // broker decodes and hashes for itself.
        let framed = Message::response_to(&request(KvsMethod::Load, Value::object()), payload);
        let (framed, _) = Message::decode(&framed.encode()).expect("round trip");
        let (_, c) = slave_held(dir.id(), &framed.payload);
        assert!(!Arc::ptr_eq(&a, &c.expect("cached")));
    }

    #[test]
    fn every_broker_checks_a_shared_load_reply_against_the_id_it_asked_for() {
        let other = KvsObject::Val(Value::Int(8));
        let (a, b) = (dir_b7().id(), other.id());
        let refused = (Some(errnum::ENOENT), None);
        // Malformed, absent.
        let malformed = Payload::from(msg::load_reply(Value::from_pairs([("t", "nope".into())])));
        let absent = Payload::from(Value::object());
        // `a`'s own bytes with any one byte changed.
        let flipped = (0..dir_b7().encode().len()).map(|at| {
            let mut bytes = dir_b7().encode();
            bytes[at] ^= 0x01;
            Payload::from(msg::load_reply(Value::Bytes(bytes.into())))
        });
        for bad in [malformed, absent].into_iter().chain(flipped) {
            for _broker in 0..2 {
                assert_eq!(slave_handed(a, &bad), refused);
            }
        }
        // A valid reply for `b`: whoever asked for `a` is refused, before
        // and after the broker that asked for `b` accepted the payload.
        let for_b = load_payload(&other);
        assert_eq!(slave_handed(a, &for_b), refused);
        assert_eq!(slave_handed(b, &for_b).1, Some(other));
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
                let payload = load_payload(obj);
                let reply = Message::response_to(&load_in_flight(&reads), payload.clone());
                assert!(reads.handle_response(ctx, &mut rep, &reply));
                let carried = msg::load_reply_object(&payload).expect("bytes");
                let held = rep.cache.bytes(obj.id()).expect("held");
                assert!(Arc::ptr_eq(held, carried), "the payload's bytes, not a copy");
            }
            let view = |id| rep.cache.held(id).expect("held").dir().cloned();
            assert_eq!(view(seven.id()), None, "a value keeps no view");
            assert_eq!(view(dir.id()), Some(dir));
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
            let reply = Message::response_to(&load_in_flight(&reads), load_payload(&dir));
            assert!(reads.handle_response(ctx, &mut rep, &reply));
            drop(reply);
            let obj = Arc::clone(rep.cache.held(dir.id()).expect("cached"));
            // The payload is the object's load reply, kept in its cache
            // entry, and its memo holds the held object.
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
    fn a_get_replys_string_is_a_view_of_the_cached_objects_bytes() {
        let text = KvsObject::Val(Value::from("x".repeat(512)));
        let root = KvsObject::Dir([("s".to_owned(), text.id())].into());
        let (get, root_id) = (request(KvsMethod::Get, Value::object()), root.id());
        let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
        rep.cache.insert(text.clone());
        rep.cache.insert(root);
        let (_, outs) = with_ctx(2, 3, |ctx| {
            rep.slots.apply_root(ctx, 0, 1, root_id);
            reads.lookup(ctx, &mut rep, get.clone(), "s", false);
        });
        let reply = &messages(&outs)[0].payload;
        let held = rep.cache.bytes(text.id()).expect("cached");
        let Some(Value::StrView(v)) = msg::value(reply) else { panic!("{reply:?}") };
        assert!(Arc::ptr_eq(v.buf(), held), "the reply's text is the held bytes");
        assert_eq!(v.as_str(), "x".repeat(512));
        // Off a socket the reply's string is its own.
        let framed = Message::response_to(&get, reply.clone());
        let (framed, _) = Message::decode(&framed.encode()).expect("round trip");
        assert!(matches!(msg::value(&framed.payload), Some(Value::Str(_))));
        assert_eq!(framed.payload, *reply);
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
                    let (root_id, root_reply) = (root.id(), load_payload(&root));
                    rep.cache.insert(seven);
                    rep.cache.insert(sub);
                    if warm {
                        rep.cache.insert(root);
                    }
                    rep.slots.apply_root(ctx, 0, 1, root_id);
                    reads.lookup(ctx, &mut rep, get, key, want_dir);
                    if !warm {
                        assert_eq!(parked_walks(&reads), 1, "{key}: the cold walk parks");
                        let load = load_in_flight(&reads);
                        let reply = Message::response_to(&load, root_reply);
                        assert!(reads.handle_response(ctx, &mut rep, &reply));
                    }
                    assert!(reads.waiters.is_empty(), "{key}");
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
                assert_eq!(parked_walks(&reads), 1, "still parked, and asked again");
                answer(&mut reads, ctx, refusal);
                assert!(reads.waiters.is_empty());
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
        // Two tiers: the second reuses the first one's parse.
        let ask = Payload::from(msg::load_request(id, 0));
        let sent = forwarded_by(1, &forwarded_by(3, &ask));
        let parsed = memo_of(&ask).expect("the first tier's parse");
        assert!(Arc::ptr_eq(&memo_of(&sent).expect("memo"), &parsed), "one parse, two tiers");
    }

    #[test]
    fn the_root_forwards_a_load_of_a_shard_it_does_not_master_to_that_master() {
        use crate::module::KvsConfig;
        let id = dir_b7().id();
        let load = child_load(&Payload::from(msg::load_request(id, 1)));
        let load_id = load.header.id;
        let (_, outs) = with_ctx(0, 4, move |ctx| {
            let mut kvs = KvsModule::with_config(KvsConfig { shards: 2, ..KvsConfig::default() });
            kvs.on_start(ctx);
            kvs.handle_request(ctx, load);
        });
        let sent: Vec<&Message> = messages(&outs);
        assert_eq!(sent.len(), 1, "{outs:?}");
        assert_eq!((sent[0].header.id, sent[0].header.dst), (load_id, Some(Rank(1))));
    }

    /// A child's `kvs.load` of `obj`, as rank 3 sends it.
    fn child_ask(obj: &KvsObject) -> Message {
        child_load(&Payload::from(msg::load_request(obj.id(), 0)))
    }

    /// The loads `outs` sends upstream, by request id.
    fn loads_up(outs: &[flux_broker::Output]) -> Vec<MsgId> {
        let msgs = messages(outs);
        let up = msgs.iter().filter(|m| m.header.msg_type == MsgType::Request);
        up.filter(|m| m.header.topic == KvsMethod::Load.topic()).map(|m| m.header.id).collect()
    }

    /// The errnums `outs` answers request `id` with, in order.
    fn answers(outs: &[flux_broker::Output], id: MsgId) -> Vec<u32> {
        let msgs = messages(outs);
        let replies = msgs.iter().filter(|m| m.header.msg_type == MsgType::Response);
        replies.filter(|m| m.header.id == id).map(|m| m.header.errnum).collect()
    }

    /// The answer to `ask` from above, carrying `obj`, as it passes this
    /// broker.
    fn from_above(ask: &Message, obj: &KvsObject) -> Message {
        Message::response_to(ask, load_payload(obj))
    }

    /// The master's refusal of `ask`, naming `obj`.
    fn refused_above(ask: &Message, obj: &KvsObject, code: u32) -> Message {
        Message::error_response_with(ask, code, msg::load_refusal(obj.id(), code))
    }

    /// Whether nothing is in flight from, or waits at, this broker.
    fn drained(reads: &Reads) -> bool {
        reads.markers.is_empty() && reads.waiters.is_empty()
    }

    #[test]
    fn a_forwarded_load_leaves_one_record_and_a_repeat_of_it_is_forwarded_again() {
        let dir = dir_b7();
        let ask = child_ask(&dir);
        let (a, reply) = (ask.header.id, from_above(&ask, &dir));
        let (_, outs) = with_ctx(1, 4, |ctx| {
            let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
            reads.serve_load(ctx, &mut rep, ask.clone(), dir.id(), 0);
            assert_eq!(reads.markers.len(), 1, "one marker");
            assert!(reads.waiters.is_empty(), "nothing waits: nothing filed");
            assert!(reads.loads.in_flight().is_empty(), "no load of this broker's own");
            reads.serve_load(ctx, &mut rep, ask, dir.id(), 0);
            assert_eq!(reads.markers[&dir.id()].req, a, "the repeat is the same request");
            assert!(reads.waiters.is_empty());
            assert!(reads.passing_reply(ctx, &mut rep, &reply));
            assert!(drained(&reads));
            assert!(rep.cache.contains(dir.id()), "the tier caches what passes");
        });
        assert_eq!(loads_up(&outs), [a, a], "forwarded, then forwarded again");
        assert!(answers(&outs, a).is_empty(), "the answer is the one from above");
    }

    #[test]
    fn a_repeat_of_a_parked_request_takes_the_parked_copys_place() {
        let dir = dir_b7();
        let (first, second) = (child_ask(&dir), child_ask(&dir));
        let (a, b, reply) = (first.header.id, second.header.id, from_above(&first, &dir));
        let (_, outs) = with_ctx(1, 4, |ctx| {
            let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
            reads.serve_load(ctx, &mut rep, first, dir.id(), 0);
            for _ in 0..2 {
                reads.serve_load(ctx, &mut rep, second.clone(), dir.id(), 0);
                assert_eq!(reads.waiters[&dir.id()].requests.len(), 1, "one copy parked");
            }
            assert!(reads.passing_reply(ctx, &mut rep, &reply));
        });
        assert_eq!(loads_up(&outs), [a], "only the first request climbs");
        assert_eq!(answers(&outs, b), [0], "the parked request is answered once");
    }

    #[test]
    fn an_answer_carrying_an_object_answers_its_waiters_whichever_request_it_answers() {
        // Three children ask for the directory: the first request climbs,
        // the others park. Its marker lapses, and the second climbs in
        // its turn; then the first one's late answer passes.
        let dir = dir_b7();
        let [first, second, third] = [(); 3].map(|()| child_ask(&dir));
        let (a, b, c) = (first.header.id, second.header.id, third.header.id);
        let (late, on_time) = (from_above(&first, &dir), from_above(&second, &dir));
        let (_, outs) = with_ctx(1, 4, |ctx| {
            let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
            for ask in [first, second, third] {
                reads.serve_load(ctx, &mut rep, ask, dir.id(), 0);
            }
            reads.on_heartbeat(ctx);
            reads.on_heartbeat(ctx);
            assert_eq!(reads.markers[&dir.id()].req, b, "the second request, forwarded");
            assert!(reads.passing_reply(ctx, &mut rep, &late), "it carries what waits here");
            assert!(drained(&reads));
            assert!(!reads.passing_reply(ctx, &mut rep, &on_time), "nothing waits any more");
        });
        assert_eq!(loads_up(&outs), [a, b]);
        assert_eq!(answers(&outs, c), [0], "the third, answered by the first one's answer");
        assert!(answers(&outs, b).is_empty(), "its answer is the one from above");
    }

    #[test]
    fn a_forged_answer_serves_the_object_it_carries_and_never_refuses_the_one_asked_for() {
        // `x` and `y` are each asked for twice: one request of each
        // climbs, one parks. The answer to `x`'s request carries `y`.
        let (x, y) = (dir_b7(), KvsObject::Val(Value::Int(8)));
        let (ask_x, parked_x) = (child_ask(&x), child_ask(&x));
        let (ask_y, parked_y) = (child_ask(&y), child_ask(&y));
        let forged = from_above(&ask_x, &y);
        let (px, py) = (parked_x.header.id, parked_y.header.id);
        let (_, outs) = with_ctx(1, 4, |ctx| {
            let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
            for (ask, obj) in [(ask_x, &x), (parked_x, &x), (ask_y, &y), (parked_y, &y)] {
                reads.serve_load(ctx, &mut rep, ask, obj.id(), 0);
            }
            assert!(reads.passing_reply(ctx, &mut rep, &forged));
            assert!(rep.cache.contains(y.id()) && !rep.cache.contains(x.id()));
            assert_eq!((reads.markers.len(), reads.waiters.len()), (1, 1), "x still waits");
            // The marker lapses, and `x`'s parked request asks again.
            reads.on_heartbeat(ctx);
            reads.on_heartbeat(ctx);
            assert_eq!(reads.markers[&x.id()].req, px);
            assert!(reads.waiters.is_empty());
        });
        assert_eq!(answers(&outs, py), [0], "y's waiter, served by what the answer carries");
        assert!(answers(&outs, px).is_empty(), "x's waiter is never refused");
        assert_eq!(loads_up(&outs).last(), Some(&px), "it asks again after the lapse");
    }

    #[test]
    fn an_answer_read_off_the_wire_is_matched_by_the_object_it_carries() {
        // A fresh payload, decoded from the bytes: no memo is shared with
        // the broker that built it.
        let dir = dir_b7();
        let (first, second) = (child_ask(&dir), child_ask(&dir));
        let b = second.header.id;
        let (reply, _) = Message::decode(&from_above(&first, &dir).encode()).expect("round trip");
        let (_, outs) = with_ctx(1, 4, |ctx| {
            let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
            reads.serve_load(ctx, &mut rep, first, dir.id(), 0);
            reads.serve_load(ctx, &mut rep, second, dir.id(), 0);
            assert!(reads.passing_reply(ctx, &mut rep, &reply));
            assert!(drained(&reads));
        });
        assert_eq!(answers(&outs, b), [0]);
    }

    #[test]
    fn a_declared_refusal_passing_down_answers_what_waits_and_a_transport_error_does_not() {
        let dir = dir_b7();
        for refusal in [errnum::ENOENT, errnum::EINVAL] {
            let (first, second) = (child_ask(&dir), child_ask(&dir));
            let b = second.header.id;
            let get = request(KvsMethod::Get, Value::object());
            let get_id = get.header.id;
            let (_, outs) = with_ctx(1, 4, |ctx| {
                let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
                rep.slots.apply_root(ctx, 0, 1, dir.id());
                reads.serve_load(ctx, &mut rep, first.clone(), dir.id(), 0);
                reads.serve_load(ctx, &mut rep, second, dir.id(), 0);
                reads.lookup(ctx, &mut rep, get, "b", false);
                let lost = Message::error_response_to(&first, errnum::EHOSTDOWN);
                assert!(!reads.passing_reply(ctx, &mut rep, &lost));
                // A refusal naming no object matches nothing.
                let bare = Message::error_response_to(&first, refusal);
                assert!(!reads.passing_reply(ctx, &mut rep, &bare));
                assert_eq!(reads.markers.len(), 1, "the marker stays for the child's repeat");
                assert_eq!(parked_walks(&reads), 1);
                assert!(reads.passing_reply(ctx, &mut rep, &refused_above(&first, &dir, refusal)));
                assert!(drained(&reads) && reads.loads.in_flight().is_empty());
            });
            assert_eq!(answers(&outs, b), [refusal], "the parked request");
            assert_eq!(answers(&outs, get_id), [refusal], "the walk behind it");
            assert_eq!(loads_up(&outs).len(), 1, "the walk sent nothing of its own");
            // What this tier answers names the object too, for the tiers below.
            let msgs = messages(&outs);
            let parked = msgs.iter().find(|m| m.header.id == b).expect("answered");
            assert_eq!(msg::load_id(&parked.payload), Some(dir.id()));
        }
    }

    #[test]
    fn the_master_refuses_a_load_naming_the_object() {
        let dir = dir_b7();
        let ask = child_ask(&dir);
        let a = ask.header.id;
        let (_, outs) = with_ctx(0, 4, |ctx| {
            let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
            rep.slots.start(1, Some(0));
            reads.serve_load(ctx, &mut rep, ask, dir.id(), 0);
        });
        assert_eq!(answers(&outs, a), [errnum::ENOENT]);
        let msgs = messages(&outs);
        let refusal = msgs.iter().find(|m| m.header.id == a).expect("refused");
        assert_eq!(refusal.payload.value(), &msg::load_refusal(dir.id(), errnum::ENOENT));
    }

    #[test]
    fn a_record_unanswered_for_two_beats_is_dropped_and_what_still_waits_asks_again() {
        // Root {a: x, b: y, c: z} is cached; x, y and z are not. Children
        // ask for all three; walks wait behind x and y, a second child
        // request behind z, and nothing else behind the first.
        let (x, y, z) = (KvsObject::Val(Value::Int(1)), dir_b7(), KvsObject::Val(Value::Int(2)));
        let names = [("a", x.id()), ("b", y.id()), ("c", z.id())];
        let root = KvsObject::Dir(names.iter().map(|(n, id)| ((*n).to_owned(), *id)).collect());
        let asks: Vec<Message> = [&x, &y, &z].map(child_ask).into();
        let parked = child_ask(&z);
        let gets = [(); 2].map(|()| request(KvsMethod::Get, Value::object()));
        let forwarded: Vec<MsgId> = asks.iter().map(|m| m.header.id).collect();
        let parked_id = parked.header.id;
        let (own, outs) = with_ctx(1, 4, |ctx| {
            let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
            let root_id = root.id();
            rep.cache.insert(root);
            rep.slots.apply_root(ctx, 0, 1, root_id);
            for (ask, obj) in asks.into_iter().zip([&x, &y, &z]) {
                reads.serve_load(ctx, &mut rep, ask, obj.id(), 0);
            }
            reads.serve_load(ctx, &mut rep, parked, z.id(), 0);
            let [get_a, get_b] = gets;
            reads.lookup(ctx, &mut rep, get_b, "b", false);
            reads.lookup(ctx, &mut rep, get_a, "a", false);
            reads.on_heartbeat(ctx);
            assert_eq!(reads.markers.len(), 3, "one beat: still in flight");
            reads.on_heartbeat(ctx);
            let own: Vec<ObjectId> =
                reads.loads.in_flight().into_iter().map(|(_, id)| id).collect();
            assert_eq!(reads.markers.len(), 1, "z's parked request, forwarded in its turn");
            assert_eq!(reads.markers[&z.id()].req, parked_id);
            assert_eq!(parked_walks(&reads), 2, "the walks wait on their own loads");
            assert_eq!(reads.waiters.len(), 2, "z's waiter left with its request");
            own
        });
        let mut sorted = [x.id(), y.id()];
        sorted.sort_unstable();
        assert_eq!(own, sorted, "the walks' own loads, in id order");
        let up = loads_up(&outs);
        assert_eq!(&up[..3], forwarded, "the children's requests, forwarded on arrival");
        assert_eq!(up[3..].iter().filter(|id| **id == parked_id).count(), 1);
        assert_eq!(up.len(), 6, "then two own loads and the parked request");
    }

    #[test]
    fn a_record_with_nothing_behind_it_leaves_no_waiter_entry_when_dropped() {
        let dir = dir_b7();
        with_ctx(1, 4, |ctx| {
            let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
            reads.serve_load(ctx, &mut rep, child_ask(&dir), dir.id(), 0);
            reads.on_heartbeat(ctx);
            reads.on_heartbeat(ctx);
            assert!(drained(&reads));
            assert!(reads.loads.in_flight().is_empty(), "nobody here wants it");
        });
    }

    #[test]
    fn drained_tables_give_their_memory_back() {
        // Each object is asked for twice: one request climbs and leaves a
        // marker, the other parks.
        let objects: Vec<KvsObject> = (0..256).map(|i| KvsObject::Val(Value::Int(i))).collect();
        let asks: Vec<Message> = objects.iter().map(child_ask).collect();
        with_ctx(1, 4, |ctx| {
            let (mut reads, mut rep) = (Reads::default(), Replica::new(1));
            for (ask, obj) in asks.iter().zip(&objects) {
                reads.serve_load(ctx, &mut rep, ask.clone(), obj.id(), 0);
                reads.serve_load(ctx, &mut rep, child_ask(obj), obj.id(), 0);
            }
            let peak = (reads.markers.capacity(), reads.waiters.capacity());
            assert!(peak.0 >= 256 && peak.1 >= 256);
            for (ask, obj) in asks.iter().zip(&objects).skip(2) {
                assert!(reads.passing_reply(ctx, &mut rep, &from_above(ask, obj)));
            }
            assert_eq!((reads.markers.len(), reads.waiters.len()), (2, 2));
            assert!(reads.markers.capacity() < peak.0 / 4, "{}", reads.markers.capacity());
            assert!(reads.waiters.capacity() < peak.1 / 4);
            // Drained, each keeps a few slots for the next load.
            for (ask, obj) in asks.iter().zip(&objects).take(2) {
                assert!(reads.passing_reply(ctx, &mut rep, &from_above(ask, obj)));
            }
            assert!(drained(&reads));
            assert!(reads.markers.capacity() >= DRAINED_KEEPS);
            assert!(reads.waiters.capacity() >= DRAINED_KEEPS);
        });
    }

    #[test]
    fn a_table_drained_by_removals_alone_gives_its_buckets_back() {
        // A fixed seed: where the tombstones fall is the same every run.
        let outer = flux_wire::seed_id_hashers(Some(1));
        let ids: Vec<ObjectId> = (0..896u64).map(|i| ObjectId::hash(&i.to_le_bytes())).collect();
        let mut table = Table::<u64>::default();
        // The same table left alone: its buckets stay peak-sized.
        let mut kept: PeerMap<ObjectId, u64> = PeerMap::default();
        for (n, id) in (0..).zip(&ids) {
            table.insert(*id, n);
            kept.insert(*id, n);
        }
        let peak = table.capacity();
        for id in &ids[2..] {
            table.remove(id);
            table.shrink_drained();
            kept.remove(id);
        }
        flux_wire::seed_id_hashers(outer);
        assert_eq!(table.len(), 2);
        assert!(table.capacity() < 2 * DRAINED_KEEPS, "{} of {peak} kept", table.capacity());
        // Why the mark: the tombstones hide most of the untouched table's
        // buckets from `capacity`.
        assert!(kept.capacity() < peak / 2, "{} of {peak}", kept.capacity());
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
            let reply = Message::response_to(&first, load_payload(&dir));
            assert!(reads.handle_response(ctx, &mut rep, &reply), "an answer to either copy");
            assert!(reads.waiters.is_empty() && reads.loads.in_flight().is_empty());
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
