//! The KVS wire vocabulary — the one module that knows how a client
//! request or reply, a root reference, a frontier, a `kvs.setroot`
//! event, a tuple batch or a load request and its reply is spelled.
//! Every client builds its requests here ([`put`], [`key`], [`dir`],
//! [`fence`], [`version`]; `kvs.commit` and `kvs.stats` take `{}`) and
//! reads its replies here ([`value`], [`listing`], [`watch_update`],
//! [`decode_root`], [`decode_cut`]); the module parses requests through
//! the borrowing readers beside them, and the role structs encode
//! through the rest.
//! The exception is the fence, a collective: the `{name, nprocs}` of
//! `kvs.fence` and the `{name, nprocs, count}` of `kvs.fence.up` are
//! read and written by `flux_broker::reduce::Collective`, which spells
//! `barrier.enter` and `barrier.up` the same way.
//!
//! Every message has one shape per kind, whatever the shard count. A
//! root reference is `{shard, version, root}`: the `get_version` /
//! `wait_version` reply and a master's answer to a push. A commit or
//! fence answers the whole cut it observed as
//! `{shards: N, frontier: [{shard, version, root}…]}`, every
//! `kvs.setroot` is `{frontier, fences}` (or, for a fence the
//! coordinator gave up, `{fences_failed, errnum}`), `kvs.load` is
//! `{id, shard}`, and both push topics carry
//! `{shard, tuples, objects[, fence]}`. `shards` is always the count.
//! An object travels as its canonical bytes, one byte-string value: the
//! `obj` of a `kvs.load` reply and each entry of an `objects` manifest
//! (`crate::object`).
//! A reader picks its decoder by method ([`decode_root`] or
//! [`decode_cut`]), not by payload shape. Client requests stay lenient:
//! they are outside input, so one that names no `shard` reads as shard 0.

use crate::master::Tuple;
use crate::object::{self, KvsObject};
use crate::store::CacheStats;
use flux_hash::ObjectId;
use flux_value::{Map, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Value objects travelling with a tuple batch, as their canonical
/// bytes, by content address.
pub(crate) type Objects = BTreeMap<ObjectId, Arc<[u8]>>;

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

/// The fence a `kvs.push` batch is part of.
pub(crate) fn push_fence(req: &Value) -> Option<&str> {
    req.get("fence")?.as_str()
}

// ----- client replies ------------------------------------------------------

/// The field of a `kvs.get` reply that holds the value.
pub(crate) const VALUE: &str = "v";
/// The field of a `kvs.get {dir}` reply that holds the listing.
pub(crate) const LISTING: &str = "dir";

/// The `kvs.get` reply a stored object answers with: a directory's
/// `{dir}` listing, read from its `view`, or a value object's `{v}`,
/// decoded from its `bytes` (`None` if they hold no value). It depends
/// on the object alone, so a broker builds it once per object and
/// shares it.
pub(crate) fn get_reply(bytes: &[u8], view: Option<&KvsObject>) -> Option<Value> {
    Some(match view {
        Some(KvsObject::Dir(entries)) => Value::from_pairs([(LISTING, dir_listing(entries))]),
        _ => Value::from_pairs([(VALUE, object::value_of(bytes)?)]),
    })
}

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

/// The `kvs.stats` reply.
pub(crate) fn stats_reply(
    s: &CacheStats,
    version: u64,
    commits: u64,
    pushes_batched: u64,
    shards: u32,
) -> Value {
    Value::from_pairs([
        ("entries", Value::from(s.entries)),
        ("bytes", Value::from(s.bytes)),
        ("hits", Value::from(s.hits as i64)),
        ("misses", Value::from(s.misses as i64)),
        ("expired", Value::from(s.expired as i64)),
        ("version", Value::from(version as i64)),
        ("commits", Value::from(commits as i64)),
        ("pushes_batched", Value::from(pushes_batched as i64)),
        ("shards", Value::from(shards as i64)),
    ])
}

/// One slot's root reference as replies and events carry it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RootRef {
    /// Shard the root belongs to.
    pub shard: u32,
    /// That shard's store version.
    pub version: u64,
    /// Root object id, hex.
    pub root: String,
}

/// A decoded `commit` / `fence` reply: the cut the operation observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cut {
    /// Session shard count.
    pub shards: u32,
    /// The root references, in shard order.
    pub roots: Vec<RootRef>,
}

/// Decodes one root reference: a `get_version` / `wait_version` reply,
/// a push acknowledgement or a frontier entry. Lenient like every reply
/// decoder here: absent fields read as `0` / `""`.
pub fn decode_root(v: &Value) -> RootRef {
    RootRef {
        shard: v.get("shard").and_then(Value::as_uint).unwrap_or(0) as u32,
        version: v.get("version").and_then(Value::as_uint).unwrap_or(0),
        root: v.get("root").and_then(Value::as_str).unwrap_or_default().to_owned(),
    }
}

fn frontier_of(payload: &Value) -> Vec<RootRef> {
    let entries = payload.get("frontier").and_then(Value::as_array);
    entries.map(|e| e.iter().map(decode_root).collect()).unwrap_or_default()
}

/// Decodes a `commit` / `fence` reply.
pub fn decode_cut(payload: &Value) -> Cut {
    let shards = payload.get("shards").and_then(Value::as_uint).unwrap_or(0) as u32;
    Cut { shards, roots: frontier_of(payload) }
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
    Setroot { roots: frontier_of(payload), fences: names(payload.get("fences")), failed: None }
}

/// Announces that fence `name` failed with `errnum` at the coordinator.
pub(crate) fn fence_failed_event(name: &str, errnum: u32) -> Value {
    Value::from_pairs([
        ("fences_failed", Value::Array(vec![Value::from(name)])),
        ("errnum", Value::from(errnum as i64)),
    ])
}

/// One slot's `{shard, version, root}`: the `get_version` /
/// `wait_version` reply and the acknowledgement of a push.
pub fn version_reply(r: &RootRef) -> Value {
    Value::from_pairs([
        ("root", Value::from(r.root.as_str())),
        ("shard", Value::from(r.shard as i64)),
        ("version", Value::from(r.version as i64)),
    ])
}

fn frontier(cut: &[RootRef]) -> Value {
    Value::Array(cut.iter().map(version_reply).collect())
}

/// The cut a commit or fence observed, in shard order, in a session
/// `shards` wide.
pub fn cut_reply(shards: u32, cut: &[RootRef]) -> Value {
    Value::from_pairs([("frontier", frontier(cut)), ("shards", Value::from(shards as i64))])
}

/// `kvs.setroot` announcing the roots `cut`: an ordinary commit's one
/// root (no fence), or the whole cut that completes fence `name`. Every
/// broker adopts all listed roots, then releases its local waiters.
pub(crate) fn setroot_event(cut: &[RootRef], fence: Option<&str>) -> Value {
    let fences = fence.into_iter().map(Value::from).collect();
    Value::from_pairs([("fences", Value::Array(fences)), ("frontier", frontier(cut))])
}

/// `kvs.load {id, shard}`: object `id` of `shard`'s tree.
pub(crate) fn load_request(id: ObjectId, shard: u32) -> Value {
    Value::from_pairs([(LOAD_ID, Value::from(id.to_hex())), ("shard", Value::from(shard as i64))])
}

/// True if `v` is exactly [`load_request`]`(id, shard)`, told without
/// building it: no other field, lowercase hex.
pub(crate) fn is_load_request(v: &Value, id: ObjectId, shard: u32) -> bool {
    let Some(m) = v.as_object() else { return false };
    let hex_is_id =
        |h: &str| !h.bytes().any(|b| b.is_ascii_uppercase()) && ObjectId::from_hex(h) == Ok(id);
    m.len() == 2
        && m.get(LOAD_ID).and_then(Value::as_str).is_some_and(hex_is_id)
        && m.get("shard") == Some(&Value::from(shard as i64))
}

/// The field of a `kvs.load` request, and of its reply, naming the object.
const LOAD_ID: &str = "id";
/// The field of a `kvs.load` reply carrying the object.
const LOAD_OBJ: &str = "obj";

/// The object a `kvs.load` request asks for (`None`: no hex `id`).
pub(crate) fn load_request_id(req: &Value) -> Option<ObjectId> {
    ObjectId::from_hex(req.get(LOAD_ID)?.as_str()?).ok()
}

/// The `kvs.load` reply `{id, obj}`: `obj`, an object's bytes as
/// [`KvsObject::to_value`] embeds them, said to be object `id`.
pub(crate) fn load_reply(id: ObjectId, obj: Value) -> Value {
    Value::from_pairs([(LOAD_ID, Value::from(id.to_hex())), (LOAD_OBJ, obj)])
}

/// The bytes a `kvs.load` reply carries as its object (`None`: `obj`
/// is not a byte string). Nothing is checked here, and the `id` beside
/// them is not read: a reader trusts only the address it computes from
/// the bytes ([`object::receive`]).
pub(crate) fn load_reply_object(reply: &Value) -> Option<&Arc<[u8]>> {
    reply.get(LOAD_OBJ)?.as_bytes()
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

/// An object manifest as a batch spells it: hex id → the object's
/// bytes, shared with `objects`.
pub(crate) fn objects_map(objects: &Objects) -> Map {
    objects.iter().map(|(id, bytes)| (id.to_hex(), Value::Bytes(Arc::clone(bytes)))).collect()
}

/// Reads one manifest entry as spelled, unchecked: `None` unless `hex`
/// is an object id and `objv` a byte string.
pub(crate) fn manifest_entry<'a>(hex: &str, objv: &'a Value) -> Option<(ObjectId, &'a Arc<[u8]>)> {
    Some((ObjectId::from_hex(hex).ok()?, objv.as_bytes()?))
}

/// Reads one manifest entry, verifying its content address: `None`
/// unless `objv` is a well-formed value object whose bytes hash to the
/// id `hex` names.
pub(crate) fn object_of<'a>(hex: &str, objv: &'a Value) -> Option<(ObjectId, &'a Arc<[u8]>)> {
    let (id, bytes) = manifest_entry(hex, objv)?;
    (object::value_id(bytes)? == id).then_some((id, bytes))
}

/// Reads an object manifest, verifying every content address. The
/// bytes are the payload's, shared.
pub(crate) fn objects_from_value(v: Option<&Value>) -> Option<Objects> {
    let mut out = BTreeMap::new();
    for (hex, objv) in v?.as_object()? {
        let (id, bytes) = object_of(hex, objv)?;
        out.insert(id, Arc::clone(bytes));
    }
    Some(out)
}

/// A `kvs.push` batch for `shard`'s master, whichever route it takes
/// (up the tree or rank-addressed); `fence` marks a part of a collective
/// fence.
pub(crate) fn push_payload(
    shard: u32,
    fence: Option<&str>,
    tuples: &[Tuple],
    objects: &Objects,
) -> Value {
    let mut m = Map::from([
        ("objects".to_owned(), Value::Object(objects_map(objects))),
        ("shard".to_owned(), Value::from(shard as i64)),
        ("tuples".to_owned(), tuples_to_value(tuples)),
    ]);
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

    /// The bytes a one-shard session puts on the wire, written out in
    /// full: the single master's shapes are the general ones, shard 0
    /// named like any other.
    #[test]
    fn one_shard_shapes_are_the_pinned_bytes() {
        let at = r(0, 4, "ab");
        let cut = [at.clone()];
        let entry = r#"{"root":"ab","shard":0,"version":4}"#;
        assert_eq!(version_reply(&at).to_json(), entry);
        assert_eq!(
            cut_reply(1, &cut).to_json(),
            r#"{"frontier":[{"root":"ab","shard":0,"version":4}],"shards":1}"#
        );
        assert_eq!(
            setroot_event(&cut, Some("f")).to_json(),
            r#"{"fences":["f"],"frontier":[{"root":"ab","shard":0,"version":4}]}"#
        );
        assert_eq!(
            setroot_event(&cut, None).to_json(),
            r#"{"fences":[],"frontier":[{"root":"ab","shard":0,"version":4}]}"#
        );
    }

    #[test]
    fn load_request_and_reply_are_the_pinned_bytes_and_read_back() {
        let obj = KvsObject::Val(Value::Int(9));
        let id = obj.id();
        let hex = id.to_hex();
        // `obj` is the object's canonical bytes, which JSON text writes
        // as hex: `V`, the integer tag, 9 as eight little-endian bytes.
        let reply = format!(r#"{{"id":"{hex}","obj":"56030900000000000000"}}"#);
        let table = [
            (load_request(id, 0), format!(r#"{{"id":"{hex}","shard":0}}"#)),
            (load_reply(id, obj.to_value()), reply),
        ];
        for (built, literal) in &table {
            assert_eq!(built.to_json(), *literal);
            assert_eq!(load_request_id(built), Some(id), "{literal}");
        }
        assert_eq!(load_reply_object(&table[1].0).map(|b| b.to_vec()), Some(obj.encode()));
        for request in [r#"{}"#, r#"{"id":"zz"}"#, r#"{"id":9}"#] {
            assert_eq!(load_request_id(&Value::parse(request).unwrap()), None, "{request}");
        }
        for reply in [r#"{}"#, r#"{"obj":{"t":"nope"}}"#, &format!(r#"{{"id":"{hex}"}}"#)] {
            assert_eq!(load_reply_object(&Value::parse(reply).unwrap()), None, "{reply}");
        }
    }

    /// Each shape is one literal, values aside, at one shard and at
    /// four: only the values a session of that width fills in differ.
    /// Every shape decodes back to what built it.
    #[test]
    fn every_shape_round_trips() {
        let id = KvsObject::Val(Value::Int(9)).id();
        let hex = id.to_hex();
        for (shards, cut) in [(1, vec![r(0, 3, "aa")]), (4, vec![r(0, 3, "aa"), r(2, 7, "cc")])] {
            let cut = &cut[..];
            let at = cut.last().unwrap();
            let s = at.shard;
            let entry = |r: &RootRef| {
                format!(r#"{{"root":"{}","shard":{},"version":{}}}"#, r.root, r.shard, r.version)
            };
            let entries = cut.iter().map(entry).collect::<Vec<_>>().join(",");
            let table = [
                (version_reply(at), entry(at)),
                (
                    cut_reply(shards, cut),
                    format!(r#"{{"frontier":[{entries}],"shards":{shards}}}"#),
                ),
                (
                    setroot_event(cut, Some("f")),
                    format!(r#"{{"fences":["f"],"frontier":[{entries}]}}"#),
                ),
                (
                    setroot_event(&cut[..1], None),
                    format!(r#"{{"fences":[],"frontier":[{}]}}"#, entry(&cut[0])),
                ),
                (load_request(id, s), format!(r#"{{"id":"{hex}","shard":{s}}}"#)),
                (
                    push_payload(s, Some("f"), &[], &Objects::new()),
                    format!(r#"{{"fence":"f","objects":{{}},"shard":{s},"tuples":[]}}"#),
                ),
                (
                    stats_reply(&CacheStats::default(), 7, 1, 0, shards),
                    format!(
                        r#"{{"bytes":0,"commits":1,"entries":0,"expired":0,"hits":0,"misses":0,"pushes_batched":0,"shards":{shards},"version":7}}"#
                    ),
                ),
            ];
            for (built, literal) in &table {
                assert_eq!(built.to_json(), *literal, "{shards} shards");
            }
            assert_eq!(decode_root(&table[0].0), *at);
            assert_eq!(decode_cut(&table[1].0), Cut { shards, roots: cut.to_vec() });
            let ev = decode_setroot(&table[2].0);
            assert_eq!((ev.roots, ev.fences, ev.failed), (cut.to_vec(), vec!["f"], None));
            let ev = decode_setroot(&table[3].0);
            assert_eq!((ev.roots, ev.fences.len()), (vec![cut[0].clone()], 0));
            assert!(is_load_request(&table[4].0, id, s));
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
        let objects: Objects = BTreeMap::from([(id, obj.encode().into())]);
        let plain = push_payload(0, None, &tuples, &objects);
        assert!(plain.get("fence").is_none());
        let tagged = push_payload(3, Some("f"), &tuples, &objects);
        assert_eq!(tagged.get("shard").and_then(Value::as_uint), Some(3));
        assert_eq!(tagged.get("fence").and_then(Value::as_str), Some("f"));
        for p in [&plain, &tagged] {
            assert_eq!(tuples_from_value(p.get("tuples")), Some(tuples.clone()));
            let read = objects_from_value(p.get("objects")).expect("sound");
            assert!(Arc::ptr_eq(&read[&id], &objects[&id]), "the batch's bytes, shared");
        }
        let forged = Value::from_pairs([(
            ObjectId::hash(b"claimed").to_hex(),
            KvsObject::Val(Value::Int(9)).to_value(),
        )]);
        assert_eq!(objects_from_value(Some(&forged)), None);
        // One byte of the object changed: it no longer hashes to its id.
        let mut flipped = objects[&id].to_vec();
        flipped[3] ^= 0x01;
        let flipped = Value::from_pairs([(id.to_hex(), Value::Bytes(flipped.into()))]);
        assert_eq!(objects_from_value(Some(&flipped)), None);
        // A directory, named by its own hash: a batch carries values only.
        let dir = KvsObject::empty_dir();
        let dir = Value::from_pairs([(dir.id().to_hex(), dir.to_value())]);
        assert_eq!(objects_from_value(Some(&dir)), None);
    }
}
