//! The KVS wire vocabulary — the one module that knows how a client
//! request or reply, a root reference, a frontier, a `kvs.setroot`
//! event, a tuple batch or a load request and its reply is spelled.
//! Every client builds its requests here ([`put`], [`key`], [`dir`],
//! [`fence`], [`version`]; `kvs.commit` and `kvs.stats` take `{}`) and
//! reads its replies here ([`value`], [`listing`], [`watch_update`],
//! [`decode_cut`]); the module parses requests through the borrowing
//! readers beside them, and the role structs encode through the rest.
//! The exception is the fence, a collective: the `{name, nprocs}` of
//! `kvs.fence` and the `{name, nprocs, count}` of `kvs.fence.up` are
//! read and written by `flux_broker::reduce::Collective`, which spells
//! `barrier.enter` and `barrier.up` the same way.
//!
//! A session speaks one of two spellings (`Spelling`), fixed when the
//! module starts. With one shard a root reference is the paper's bare
//! `{version, root}` and a commit is announced as
//! `{version, root, fences}`. With N shards every slot-scoped message
//! also names its `shard`, a commit or fence answers the whole cut it
//! observed (`{shards: N, frontier: [{shard, version, root}…]}`) and a
//! fence completes with one combined event
//! (`{shards: [{shard, version, root}…], fences}`). The shapes are kept
//! apart because every committed benchmark cell pins the one-shard
//! bytes; decoding is shape-driven and needs no spelling.

use crate::master::Tuple;
use crate::object::KvsObject;
use crate::shard;
use crate::store::CacheStats;
use flux_hash::ObjectId;
use flux_value::{Map, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Value objects travelling with a tuple batch, by content address.
pub(crate) type Objects = BTreeMap<ObjectId, Arc<KvsObject>>;

// ----- client requests -----------------------------------------------------

/// `kvs.put {k, v}`: stage `val` under `key`.
pub fn put(key: &str, val: Value) -> Value {
    Value::from_pairs([("k", Value::from(key)), ("v", val)])
}

/// `{k}`: the request of `kvs.get`, `kvs.unlink`, `kvs.watch` and
/// `kvs.unwatch`, which name one key and nothing else.
pub fn key(key: &str) -> Value {
    Value::from_pairs([("k", Value::from(key))])
}

/// `kvs.get {k, dir: true}`: the directory listing of `key`.
pub fn dir(key: &str) -> Value {
    Value::from_pairs([("k", Value::from(key)), ("dir", Value::Bool(true))])
}

/// `kvs.fence {name, nprocs}`: `nprocs` participants commit as one.
/// `barrier.enter` has the same shape.
pub fn fence(name: &str, nprocs: u64) -> Value {
    Value::from_pairs([("name", Value::from(name)), ("nprocs", Value::from(nprocs as i64))])
}

/// `kvs.get_version` (no `version`) or `kvs.wait_version {version}`,
/// against `shard`'s version stream (`None`: shard 0's, unstated).
pub fn version(version: Option<u64>, shard: Option<u32>) -> Value {
    let mut m = Map::new();
    if let Some(v) = version {
        m.insert("version".to_owned(), Value::from(v as i64));
    }
    if let Some(s) = shard {
        m.insert("shard".to_owned(), Value::from(s as i64));
    }
    Value::Object(m)
}

// ----- request readers (borrowing: the module allocates nothing here) ------

/// The key a `{k, …}` request names.
pub(crate) fn key_of(req: &Value) -> Option<&str> {
    req.get("k")?.as_str()
}

/// True if a `kvs.get` asks for the listing.
pub(crate) fn wants_dir(req: &Value) -> bool {
    req.get("dir").and_then(Value::as_bool).unwrap_or(false)
}

/// The target of a `kvs.wait_version`.
pub(crate) fn target_version(req: &Value) -> Option<u64> {
    req.get("version")?.as_uint()
}

/// The shard a request names: `Ok(None)` if it names none, `Err` if the
/// field is not a count.
pub(crate) fn shard_of(req: &Value) -> Result<Option<u64>, ()> {
    req.get("shard").map(|v| v.as_uint().ok_or(())).transpose()
}

/// The fence a `kvs.shard.push` batch is part of.
pub(crate) fn push_fence(req: &Value) -> Option<&str> {
    req.get("fence")?.as_str()
}

// ----- client replies ------------------------------------------------------

/// The field of a `kvs.get` reply that holds the value.
pub(crate) const VALUE: &str = "v";
/// The field of a `kvs.get {dir}` reply that holds the listing.
pub(crate) const LISTING: &str = "dir";

/// A `kvs.watch` update: `key` now holds `val` (`Null`: it is gone). It
/// has a put's shape, `{k, v}`.
pub(crate) fn watch_reply(key: &str, val: Value) -> Value {
    put(key, val)
}

/// The `v` of a `kvs.get` reply, a watch update or a `kvs.put` request.
pub fn value(payload: &Value) -> Option<&Value> {
    payload.get(VALUE)
}

/// The name → SHA1-hex listing of a `kvs.get {dir}` reply.
pub fn listing(reply: &Value) -> Option<&Value> {
    reply.get(LISTING)
}

/// A `kvs.watch` update: the watched key and its value (`Null` once the
/// key is gone).
pub fn watch_update(reply: &Value) -> (&str, &Value) {
    let key = reply.get("k").and_then(Value::as_str).unwrap_or_default();
    (key, value(reply).unwrap_or(&Value::Null))
}

/// The `kvs.stats` reply: `shards` is stated by N-shard sessions only.
pub(crate) fn stats_reply(
    s: &CacheStats,
    version: u64,
    commits: u64,
    pushes_batched: u64,
    shards: Option<u32>,
) -> Value {
    let mut pairs = vec![
        ("entries", Value::from(s.entries)),
        ("bytes", Value::from(s.bytes)),
        ("hits", Value::from(s.hits as i64)),
        ("misses", Value::from(s.misses as i64)),
        ("expired", Value::from(s.expired as i64)),
        ("version", Value::from(version as i64)),
        ("commits", Value::from(commits as i64)),
        ("pushes_batched", Value::from(pushes_batched as i64)),
    ];
    pairs.extend(shards.map(|n| ("shards", Value::from(n as i64))));
    Value::from_pairs(pairs)
}

/// One slot's root reference as replies and events carry it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RootRef {
    /// Shard the root belongs to (0 in a one-shard session).
    pub shard: u32,
    /// That shard's store version.
    pub version: u64,
    /// Root object id, hex.
    pub root: String,
}

/// A decoded `commit`/`fence`/`get_version`/`wait_version` reply or
/// `kvs.setroot` event body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cut {
    /// Session shard count, stated by frontier replies only: `Some`
    /// marks the N-shard reply shape, `None` a bare root reference (or
    /// an event, whose `roots` are all a reader needs).
    pub shards: Option<u32>,
    /// The root references, in message order (shard order for lists).
    pub roots: Vec<RootRef>,
}

fn root_ref(v: &Value) -> RootRef {
    RootRef {
        shard: v.get("shard").and_then(Value::as_uint).unwrap_or(0) as u32,
        version: v.get("version").and_then(Value::as_uint).unwrap_or(0),
        root: v.get("root").and_then(Value::as_str).unwrap_or_default().to_owned(),
    }
}

/// Decodes the root references of a reply or event payload. Lenient
/// like every reply decoder here: absent fields read as `0` / `""`.
pub fn decode_cut(payload: &Value) -> Cut {
    let count = payload.get("shards");
    let list = payload.get("frontier").or(count).and_then(Value::as_array);
    match list {
        Some(entries) => Cut {
            shards: count.and_then(Value::as_uint).map(|n| n as u32),
            roots: entries.iter().map(root_ref).collect(),
        },
        None => Cut { shards: None, roots: vec![root_ref(payload)] },
    }
}

impl Cut {
    /// The version of a one-root reply; `None` for a frontier.
    pub fn version(&self) -> Option<u64> {
        match self.shards {
            Some(_) => None,
            None => Some(self.roots.first().map_or(0, |r| r.version)),
        }
    }
}

/// A decoded `kvs.setroot` event.
pub(crate) struct Setroot<'a> {
    /// Roots to adopt (none for a failure announcement).
    pub roots: Vec<RootRef>,
    /// Fences this event completes — or fails, when `failed` is set.
    pub fences: Vec<&'a str>,
    /// Error number the named fences failed with.
    pub failed: Option<u32>,
}

fn names(v: Option<&Value>) -> Vec<&str> {
    v.and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_str).collect())
        .unwrap_or_default()
}

pub(crate) fn decode_setroot(payload: &Value) -> Setroot<'_> {
    if let Some(failed) = payload.get("fences_failed") {
        let code = payload.get("errnum").and_then(Value::as_uint);
        return Setroot {
            roots: Vec::new(),
            fences: names(Some(failed)),
            failed: Some(code.unwrap_or(u64::from(flux_wire::errnum::EINVAL)) as u32),
        };
    }
    Setroot { roots: decode_cut(payload).roots, fences: names(payload.get("fences")), failed: None }
}

/// Announces that fence `name` failed with `errnum` at the coordinator.
pub(crate) fn fence_failed_event(name: &str, errnum: u32) -> Value {
    Value::from_pairs([
        ("fences_failed", Value::Array(vec![Value::from(name)])),
        ("errnum", Value::from(errnum as i64)),
    ])
}

fn root_fields(r: &RootRef, tagged: bool) -> Map {
    let mut m = Map::new();
    m.insert("version".to_owned(), Value::from(r.version as i64));
    m.insert("root".to_owned(), Value::from(r.root.as_str()));
    if tagged {
        m.insert("shard".to_owned(), Value::from(r.shard as i64));
    }
    m
}

fn frontier_entries(cut: &[RootRef]) -> Value {
    Value::Array(cut.iter().map(|r| Value::Object(root_fields(r, true))).collect())
}

/// Which of the two spellings this session speaks (module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum Spelling {
    /// One shard: the paper's single-master shapes.
    #[default]
    Single,
    /// This many shards: shard-tagged references and frontier lists.
    Sharded(u32),
}

impl Spelling {
    /// The spelling of a session `shards` wide (after the start-up
    /// clamp) — the codec's one selection.
    pub(crate) fn of(shards: u32) -> Spelling {
        if shard::sharded(shards) {
            Spelling::Sharded(shards)
        } else {
            Spelling::Single
        }
    }

    /// The shard count an N-shard session advertises (`kvs.stats`).
    pub(crate) fn shards(self) -> Option<u32> {
        match self {
            Spelling::Single => None,
            Spelling::Sharded(n) => Some(n),
        }
    }

    fn slot_fields(self, r: &RootRef) -> Map {
        root_fields(r, matches!(self, Spelling::Sharded(_)))
    }

    /// One slot's `(version, root)`: the `get_version`/`wait_version`
    /// reply and the acknowledgement of a push.
    pub(crate) fn version_reply(self, r: &RootRef) -> Value {
        Value::Object(self.slot_fields(r))
    }

    /// The cut a commit or fence observed, in shard order.
    pub(crate) fn cut_reply(self, cut: &[RootRef]) -> Value {
        match self {
            Spelling::Single => {
                Value::Object(self.slot_fields(cut.first().unwrap_or(&RootRef::default())))
            }
            Spelling::Sharded(n) => Value::from_pairs([
                ("shards", Value::from(n as i64)),
                ("frontier", frontier_entries(cut)),
            ]),
        }
    }

    /// `kvs.setroot` for an ordinary commit applied on `r.shard`.
    pub(crate) fn commit_event(self, r: &RootRef) -> Value {
        let mut m = self.slot_fields(r);
        m.insert("fences".to_owned(), Value::Array(Vec::new()));
        Value::Object(m)
    }

    /// `kvs.setroot` completing fence `name` at the cut `cut`: every
    /// broker adopts all listed roots, then releases its local waiters.
    pub(crate) fn fence_event(self, cut: &[RootRef], name: &str) -> Value {
        let mut m = match self {
            Spelling::Single => self.slot_fields(cut.first().unwrap_or(&RootRef::default())),
            Spelling::Sharded(_) => Map::from([("shards".to_owned(), frontier_entries(cut))]),
        };
        m.insert("fences".to_owned(), Value::Array(vec![Value::from(name)]));
        Value::Object(m)
    }

    /// `kvs.load` request for object `id` of `shard`'s tree: `{id}`, or
    /// `{id, shard}` in a sharded session.
    pub(crate) fn load_request(self, id: ObjectId, shard: u32) -> Value {
        let mut m = Map::from([(LOAD_ID.to_owned(), Value::from(id.to_hex()))]);
        if let Spelling::Sharded(_) = self {
            m.insert("shard".to_owned(), Value::from(shard as i64));
        }
        Value::Object(m)
    }

    /// True if `v` is exactly [`Spelling::load_request`]`(id, shard)`,
    /// told without building it: no other field, lowercase hex, and a
    /// `shard` field exactly when this spelling has one.
    pub(crate) fn is_load_request(self, v: &Value, id: ObjectId, shard: u32) -> bool {
        let Some(m) = v.as_object() else { return false };
        let hex_is_id = |h: &str| {
            !h.bytes().any(|b| b.is_ascii_uppercase()) && ObjectId::from_hex(h) == Ok(id)
        };
        let id_ok = m.get(LOAD_ID).and_then(Value::as_str).is_some_and(hex_is_id);
        let shard_ok = match self {
            Spelling::Single => m.len() == 1,
            Spelling::Sharded(_) => {
                m.len() == 2 && m.get("shard") == Some(&Value::from(shard as i64))
            }
        };
        id_ok && shard_ok
    }
}

/// The field of a `kvs.load` request, and of its reply, naming the object.
const LOAD_ID: &str = "id";
/// The field of a `kvs.load` reply carrying the object.
const LOAD_OBJ: &str = "obj";

/// The object a `kvs.load` request asks for (`None`: no hex `id`).
pub(crate) fn load_request_id(req: &Value) -> Option<ObjectId> {
    ObjectId::from_hex(req.get(LOAD_ID)?.as_str()?).ok()
}

/// The `kvs.load` reply `{id, obj}`: `obj`, an object's
/// [`KvsObject::to_value`], said to be object `id`.
pub(crate) fn load_reply(id: ObjectId, obj: Value) -> Value {
    Value::from_pairs([(LOAD_ID, Value::from(id.to_hex())), (LOAD_OBJ, obj)])
}

/// The object a `kvs.load` reply carries (`None`: no well-formed
/// `obj`). The `id` beside it is not read: a reader trusts only the
/// address it computes from the object.
pub(crate) fn load_reply_object(reply: &Value) -> Option<KvsObject> {
    KvsObject::from_value(reply.get(LOAD_OBJ)?).ok()
}

// ----- tuple batches -------------------------------------------------------

/// One `{k, s}` tuple: key `k` bound to object `s`, or unlinked (`null`).
pub(crate) fn tuple_value(k: &str, id: Option<ObjectId>) -> Value {
    Value::from_pairs([
        ("k", Value::from(k)),
        ("s", id.map(|i| Value::from(i.to_hex())).unwrap_or(Value::Null)),
    ])
}

pub(crate) fn tuples_to_value(tuples: &[Tuple]) -> Value {
    Value::Array(tuples.iter().map(|(k, id)| tuple_value(k, *id)).collect())
}

/// Reads one `{k, s}` tuple, borrowing its key: `None` unless `k` is a
/// string and `s` is `null`, absent or a hex object id.
pub(crate) fn tuple_of(t: &Value) -> Option<(&str, Option<ObjectId>)> {
    let k = t.get("k")?.as_str()?;
    let s = match t.get("s") {
        Some(Value::Null) | None => None,
        Some(sv) => Some(ObjectId::from_hex(sv.as_str()?).ok()?),
    };
    Some((k, s))
}

pub(crate) fn tuples_from_value(v: Option<&Value>) -> Option<Vec<Tuple>> {
    let arr = v?.as_array()?;
    let mut out = Vec::with_capacity(arr.len());
    for t in arr {
        let (k, s) = tuple_of(t)?;
        // The tuples outlive the message, so their keys are owned.
        out.push((k.to_owned(), s));
    }
    Some(out)
}

/// An object manifest as a batch spells it: hex id → embedded object.
pub(crate) fn objects_map(objects: &Objects) -> Map {
    let mut m = Map::new();
    for (id, obj) in objects {
        m.insert(id.to_hex(), obj.to_value());
    }
    m
}

/// Reads one manifest entry, verifying its content address: `None`
/// unless `hex` is an object id and `objv` decodes to the object that
/// hashes to it.
pub(crate) fn object_of(hex: &str, objv: &Value) -> Option<(ObjectId, KvsObject)> {
    let id = ObjectId::from_hex(hex).ok()?;
    let obj = KvsObject::from_value(objv).ok()?;
    (obj.id() == id).then_some((id, obj))
}

/// Decodes an object manifest, verifying every content address.
pub(crate) fn objects_from_value(v: Option<&Value>) -> Option<Objects> {
    let mut out = BTreeMap::new();
    for (hex, objv) in v?.as_object()? {
        let (id, obj) = object_of(hex, objv)?;
        out.insert(id, Arc::new(obj));
    }
    Some(out)
}

/// A commit batch for one master: `kvs.push` carries no `shard` (it
/// climbs the tree to the only master), `kvs.shard.push` names it;
/// `fence` marks a part of a collective fence.
pub(crate) fn push_payload(
    shard: Option<u32>,
    fence: Option<&str>,
    tuples: &[Tuple],
    objects: &Objects,
) -> Value {
    let mut m = Map::from([
        ("tuples".to_owned(), tuples_to_value(tuples)),
        ("objects".to_owned(), Value::Object(objects_map(objects))),
    ]);
    if let Some(s) = shard {
        m.insert("shard".to_owned(), Value::from(s as i64));
    }
    if let Some(name) = fence {
        m.insert("fence".to_owned(), Value::from(name));
    }
    Value::Object(m)
}

// ----- reads ---------------------------------------------------------------

/// A directory's name → SHA1-hex listing.
pub(crate) fn dir_listing(entries: &BTreeMap<String, ObjectId>) -> Value {
    let mut listing = Map::new();
    for (name, child) in entries {
        listing.insert(name.clone(), Value::from(child.to_hex()));
    }
    Value::Object(listing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(shard: u32, version: u64, root: &str) -> RootRef {
        RootRef { shard, version, root: root.to_owned() }
    }

    #[test]
    fn one_shard_shapes_are_the_pinned_bytes() {
        let s = Spelling::of(1);
        assert_eq!(s.version_reply(&r(0, 4, "ab")).to_json(), r#"{"root":"ab","version":4}"#);
        assert_eq!(s.cut_reply(&[r(0, 4, "ab")]).to_json(), r#"{"root":"ab","version":4}"#);
        assert_eq!(
            s.fence_event(&[r(0, 4, "ab")], "f").to_json(),
            r#"{"fences":["f"],"root":"ab","version":4}"#
        );
        assert_eq!(
            s.commit_event(&r(0, 4, "ab")).to_json(),
            r#"{"fences":[],"root":"ab","version":4}"#
        );
    }

    #[test]
    fn load_request_and_reply_are_the_pinned_bytes_and_read_back() {
        let obj = KvsObject::Val(Value::Int(9));
        let id = obj.id();
        let hex = id.to_hex();
        let reply = format!(r#"{{"id":"{hex}","obj":{{"t":"val","v":9}}}}"#);
        let table = [
            (Spelling::of(1).load_request(id, 0), format!(r#"{{"id":"{hex}"}}"#)),
            (Spelling::of(4).load_request(id, 2), format!(r#"{{"id":"{hex}","shard":2}}"#)),
            (load_reply(id, obj.to_value()), reply),
        ];
        for (built, literal) in &table {
            assert_eq!(built.to_json(), *literal);
            assert_eq!(load_request_id(built), Some(id), "{literal}");
        }
        assert_eq!(load_reply_object(&table[2].0), Some(obj));
        for request in [r#"{}"#, r#"{"id":"zz"}"#, r#"{"id":9}"#] {
            assert_eq!(load_request_id(&Value::parse(request).unwrap()), None, "{request}");
        }
        for reply in [r#"{}"#, r#"{"obj":{"t":"nope"}}"#, &format!(r#"{{"id":"{hex}"}}"#)] {
            assert_eq!(load_reply_object(&Value::parse(reply).unwrap()), None, "{reply}");
        }
    }

    #[test]
    fn every_shape_round_trips() {
        let cut = vec![r(0, 3, "aa"), r(2, 7, "cc")];
        for shards in [1u32, 4] {
            let s = Spelling::of(shards);
            let one = decode_cut(&s.version_reply(&cut[1]));
            assert!(one.shards.is_none());
            let want = if shards == 1 { r(0, 7, "cc") } else { cut[1].clone() };
            assert_eq!(one.roots, vec![want]);

            let whole = decode_cut(&s.cut_reply(&cut));
            let event = s.fence_event(&cut, "f");
            let ev = decode_setroot(&event);
            assert_eq!(ev.fences, vec!["f"]);
            assert_eq!(ev.failed, None);
            if shards == 1 {
                assert_eq!(whole.roots, vec![cut[0].clone()]);
                assert_eq!(ev.roots, vec![cut[0].clone()]);
            } else {
                assert_eq!(whole.shards, Some(4));
                assert_eq!(whole.roots, cut);
                assert_eq!(ev.roots, cut);
            }
            let commit = s.commit_event(&cut[1]);
            let ev = decode_setroot(&commit);
            assert!(ev.fences.is_empty());
            assert_eq!(ev.roots[0].version, 7);
        }
        let failed = fence_failed_event("f", 22);
        let failed = decode_setroot(&failed);
        assert_eq!((failed.fences, failed.failed), (vec!["f"], Some(22)));
        assert!(failed.roots.is_empty());
    }

    #[test]
    fn batches_round_trip_and_forged_objects_are_refused() {
        let obj = KvsObject::Val(Value::Int(9));
        let id = obj.id();
        let tuples: Vec<Tuple> = vec![("a.b".to_owned(), Some(id)), ("gone".to_owned(), None)];
        let objects: Objects = BTreeMap::from([(id, Arc::new(obj))]);
        let plain = push_payload(None, None, &tuples, &objects);
        assert!(plain.get("shard").is_none() && plain.get("fence").is_none());
        let tagged = push_payload(Some(3), Some("f"), &tuples, &objects);
        assert_eq!(tagged.get("shard").and_then(Value::as_uint), Some(3));
        assert_eq!(tagged.get("fence").and_then(Value::as_str), Some("f"));
        for p in [&plain, &tagged] {
            assert_eq!(tuples_from_value(p.get("tuples")), Some(tuples.clone()));
            assert_eq!(objects_from_value(p.get("objects")), Some(objects.clone()));
        }
        let forged = Value::from_pairs([(
            ObjectId::hash(b"claimed").to_hex(),
            KvsObject::Val(Value::Int(9)).to_value(),
        )]);
        assert_eq!(objects_from_value(Some(&forged)), None);
    }
}
