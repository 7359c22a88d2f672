//! The fence tree reduction.
//!
//! `kvs.fence` contributions merge upstream one window at a time:
//! value objects deduplicate at every hop while `(key, SHA1)` tuples
//! concatenate — the paper's Fig. 3 effect. This role owns only what is
//! the fence's own (who contributed here, what merges, when to flush);
//! the flow itself is a [`flux_broker::reduce::Reduction`]. Once the
//! tree root has counted `nprocs` contributions the merged batch is
//! handed to the coordinator like any other commit.
//!
//! A partial holds its tuples and objects spelled as a `kvs.fence.up`
//! payload spells them, so a hop only checks what a child sent and
//! carries it on: [`take`] moves the elements out of the received
//! payload, a merge moves them into the accumulator and the window
//! flush moves them into the next payload. Nothing is re-encoded on the
//! way up. A local contribution is spelled once, where it enters, and
//! the tree root decodes the total once, for the coordinator.

use crate::master::Tuple;
use crate::module::Requester;
use crate::msg::{self, Objects};
use flux_broker::reduce::{Partial, Reduction};
use flux_broker::ModuleCtx;
use flux_proto::KvsMethod;
use flux_value::{Map, Value};
use flux_wire::{errnum, Message, Payload};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Contributions to one fence: the partial that climbs the tree and,
/// at the root, the session-wide total.
pub(crate) struct FenceAcc {
    pub(crate) nprocs: u64,
    pub(crate) count: u64,
    /// `{k, s}` tuples in arrival order, as a batch spells them.
    pub(crate) tuples: Vec<Value>,
    /// Value objects by hex content address, as a batch spells them.
    pub(crate) objects: Map,
}

impl Partial for FenceAcc {
    fn merge(&mut self, mut other: FenceAcc) {
        self.count += other.count;
        self.tuples.append(&mut other.tuples);
        // Objects dedup here: identical (redundant) values merge to one
        // entry at every hop of the tree. The smaller map goes into the
        // larger; under one id both hold the same object.
        if self.objects.len() < other.objects.len() {
            std::mem::swap(&mut self.objects, &mut other.objects);
        }
        self.objects.extend(other.objects);
    }
}

impl FenceAcc {
    /// One local participant's write set: `1` of `nprocs`.
    pub(crate) fn local(nprocs: u64, tuples: &[Tuple], objects: &Objects) -> FenceAcc {
        let tuples = tuples.iter().map(|(k, id)| msg::tuple_value(k, *id)).collect();
        FenceAcc { nprocs, count: 1, tuples, objects: msg::objects_map(objects) }
    }

    /// The write set decoded for the coordinator, at the tree root.
    /// Every element was checked on receipt or spelled here, so none is
    /// left out.
    pub(crate) fn decode(&self) -> (Vec<Tuple>, Objects) {
        let tuples = self.tuples.iter().filter_map(msg::tuple_of);
        let objects = self.objects.iter().filter_map(|(hex, v)| msg::object_of(hex, v));
        (
            tuples.map(|(k, s)| (k.to_owned(), s)).collect(),
            objects.map(|(id, obj)| (id, Arc::new(obj))).collect(),
        )
    }
}

/// Checks a child's `kvs.fence.up` batch before anything of it merges:
/// a name, `nprocs != 0` (a fence of none would park forever), a count,
/// every tuple's shape and hex id, every object's content address.
/// Returns its `(nprocs, count)`; `None` drops the batch.
pub(crate) fn check(payload: &Value) -> Option<(u64, u64)> {
    payload.get("name")?.as_str()?;
    let nprocs = payload.get("nprocs")?.as_uint().filter(|&n| n != 0)?;
    let count = payload.get("count")?.as_uint()?;
    let tuples = payload.get("tuples")?.as_array()?;
    let objects = payload.get("objects")?.as_object()?;
    let sound = tuples.iter().all(|t| msg::tuple_of(t).is_some())
        && objects.iter().all(|(hex, v)| msg::object_of(hex, v).is_some());
    sound.then_some((nprocs, count))
}

/// Takes a [`check`]ed batch apart into its fence name and partial,
/// moving the tuples and objects out of the payload (a copy only if the
/// payload is still shared, as a duplicated frame's is).
pub(crate) fn take(payload: Payload, nprocs: u64, count: u64) -> (String, FenceAcc) {
    let mut fields = match payload.into_value() {
        Value::Object(fields) => fields,
        _ => Map::new(),
    };
    let mut field = |name: &str| fields.remove(name).unwrap_or(Value::Null);
    let (name, tuples, objects) = match (field("name"), field("tuples"), field("objects")) {
        (Value::Str(name), Value::Array(tuples), Value::Object(objects)) => (name, tuples, objects),
        _ => Default::default(),
    };
    (name, FenceAcc { nprocs, count, tuples, objects })
}

/// This broker's own clients in one fence.
#[derive(Default)]
struct Local {
    nprocs: u64,
    /// Fence requests awaiting completion.
    waiters: Vec<Message>,
    /// Requesters that already contributed: a process fencing the same
    /// name twice must not count as two of `nprocs` participants.
    contributors: HashSet<Requester>,
}

#[derive(Default)]
pub(crate) struct FenceTree {
    up: Reduction<String, FenceAcc>,
    local: HashMap<String, Local>,
}

impl FenceTree {
    /// Admits a local participant: `EINVAL` if it disagrees on `nprocs`
    /// or already contributed to this fence.
    pub(crate) fn enlist(
        &mut self,
        name: &str,
        nprocs: u64,
        requester: Requester,
    ) -> Result<(), u32> {
        let local = self.local.entry(name.to_owned()).or_default();
        if local.nprocs != 0 && local.nprocs != nprocs {
            return Err(errnum::EINVAL);
        }
        // A duplicate contribution from the same process would complete
        // the fence one real participant early.
        if !local.contributors.insert(requester) {
            return Err(errnum::EINVAL);
        }
        local.nprocs = nprocs;
        Ok(())
    }

    /// False for a child batch merged before: a transport-duplicated
    /// `kvs.fence.up` frame must not complete the fence early.
    pub(crate) fn admit(&mut self, batch: &Value) -> bool {
        self.up.admit(batch)
    }

    /// Merges `part` into fence `name`. At the tree root this returns
    /// the total once `nprocs` are in; anywhere else it arms the flush
    /// window (once) and returns `None`.
    pub(crate) fn contribute(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        name: &str,
        part: FenceAcc,
        waiter: Option<Message>,
    ) -> Option<FenceAcc> {
        if let Some(waiter) = waiter {
            self.local.entry(name.to_owned()).or_default().waiters.push(waiter);
        }
        self.up.gather(ctx, name.to_owned(), part);
        if !ctx.is_root() {
            return None;
        }
        let mut done = self.up.drain(|k, total| k == name && total.count >= total.nprocs);
        done.pop().map(|(_, total)| total)
    }

    /// A window timer fired (its tokens count from 1; the batch window's
    /// is 0): send what accumulated one hop up.
    pub(crate) fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        self.up.on_window(ctx, token, &KvsMethod::FenceUp.topic(), |name, part| {
            Value::from_pairs([
                ("name", Value::from(name)),
                ("nprocs", Value::from(part.nprocs as i64)),
                ("count", Value::from(part.count as i64)),
                ("tuples", Value::Array(part.tuples)),
                ("objects", Value::Object(part.objects)),
            ])
        });
    }

    /// The fence completed (or failed) session-wide: hands back the
    /// local waiters and forgets its roster.
    pub(crate) fn release(&mut self, name: &str) -> Vec<Message> {
        self.local.remove(name).map(|local| local.waiters).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::KvsModule;
    use crate::object::KvsObject;
    use crate::testutil::{messages, request};
    use flux_broker::testing::with_ctx;
    use flux_broker::{CommsModule, Output};
    use flux_hash::ObjectId;
    use flux_wire::Rank;

    /// `count` of `nprocs` contributions writing `key`.
    fn part(nprocs: u64, count: u64, key: &str) -> FenceAcc {
        FenceAcc { nprocs, count, tuples: vec![msg::tuple_value(key, None)], objects: Map::new() }
    }

    #[test]
    fn window_arms_once_and_one_flush_carries_everything() {
        let (_, outs) = with_ctx(2, 3, |ctx| {
            let mut tree = FenceTree::default();
            for key in ["a", "b", "c"] {
                assert!(tree.contribute(ctx, "f", part(8, 1, key), None).is_none());
            }
            tree.on_timer(ctx, 1);
            // Nothing new since the flush: a stray second firing is mute.
            tree.on_timer(ctx, 1);
        });
        let timers: Vec<_> = outs.iter().filter(|o| matches!(o, Output::SetTimer { .. })).collect();
        assert_eq!(timers.len(), 1, "{outs:?}");
        let ups = messages(&outs);
        assert_eq!(ups.len(), 1);
        let up = &ups[0].payload;
        assert_eq!(up.get("count").and_then(|v| v.as_uint()), Some(3));
        assert_eq!(up.get("src").and_then(|v| v.as_uint()), Some(2));
        assert_eq!(msg::tuples_from_value(up.get("tuples")).map(|t| t.len()), Some(3));
    }

    #[test]
    fn duplicate_contributor_and_mismatched_nprocs_are_rejected() {
        let mut tree = FenceTree::default();
        let client = |id, broker| Requester(Some(Rank::client_hop(id)), broker);
        let (a, b) = (client(1, None), client(2, None));
        assert_eq!(tree.enlist("f", 4, a), Ok(()));
        assert_eq!(tree.enlist("f", 4, a), Err(errnum::EINVAL), "same process twice");
        assert_eq!(tree.enlist("f", 4, b), Ok(()));
        assert_eq!(tree.enlist("f", 4, client(1, Some(Rank(3)))), Ok(()), "a child's client 1");
        assert_eq!(tree.enlist("g", 4, a), Ok(()), "another fence is another roster");
        assert_eq!(tree.enlist("f", 5, client(3, None)), Err(errnum::EINVAL));
    }

    /// The batch one child flushed, as its parent receives it.
    fn flushed_by(rank: u32, name: &'static str, nprocs: u64, key: &'static str) -> Value {
        let (_, outs) = with_ctx(rank, 3, move |ctx| {
            let mut tree = FenceTree::default();
            tree.contribute(ctx, name, part(nprocs, 1, key), None);
            tree.on_timer(ctx, 1);
        });
        messages(&outs)[0].payload.value().clone()
    }

    #[test]
    fn duplicate_child_batch_is_ignored() {
        let mut tree = FenceTree::default();
        let (one, two) = (flushed_by(1, "f", 2, "a"), flushed_by(2, "f", 2, "b"));
        assert!(tree.admit(&one));
        assert!(!tree.admit(&one), "same (src, batch) again");
        assert!(tree.admit(&two), "batch 1 of another sender");
        assert!(!tree.admit(&Value::object()), "no stamp: cannot be told from its copy");
    }

    #[test]
    fn copy_of_a_completed_fences_last_batch_leaves_nothing_behind() {
        let (one, two) = (flushed_by(1, "f", 2, "a"), flushed_by(2, "f", 2, "b"));
        let _ = with_ctx(0, 3, move |ctx| {
            let mut tree = FenceTree::default();
            let mut deliver = |tree: &mut FenceTree, batch: &Value| {
                tree.admit(batch).then(|| tree.contribute(ctx, "f", part(2, 1, "k"), None))
            };
            assert!(matches!(deliver(&mut tree, &one), Some(None)), "1 of 2");
            assert!(matches!(deliver(&mut tree, &two), Some(Some(_))), "2 of 2: complete");
            // The copy arrives after the fence is forgotten. The record
            // of its stamp outlives the fence, so it opens nothing.
            assert!(deliver(&mut tree, &two).is_none(), "refused");
            assert!(tree.up.drain(|_, _| true).is_empty(), "no accumulator left behind");
        });
    }

    #[test]
    fn root_completes_exactly_at_nprocs() {
        let _ = with_ctx(0, 1, |ctx| {
            let mut tree = FenceTree::default();
            assert!(tree.contribute(ctx, "f", part(5, 2, "a"), None).is_none());
            assert!(tree.contribute(ctx, "f", part(5, 2, "b"), None).is_none());
            let done = tree.contribute(ctx, "f", part(5, 1, "c"), None).expect("5 of 5");
            assert_eq!(done.tuples.len(), 3);
            assert!(tree.up.drain(|_, _| true).is_empty(), "completion consumed the total");
        });
    }

    /// A value object and its manifest entry.
    fn object(v: i64) -> (ObjectId, KvsObject) {
        let obj = KvsObject::Val(Value::Int(v));
        (obj.id(), obj)
    }

    /// A `kvs.fence.up` batch of fence `f`, stamped `(src, 1)`.
    fn batch(src: u32, nprocs: i64, tuples: Vec<Value>, objects: Map) -> Value {
        Value::from_pairs([
            ("name", Value::from("f")),
            ("nprocs", Value::from(nprocs)),
            ("count", Value::from(1i64)),
            ("tuples", Value::Array(tuples)),
            ("objects", Value::Object(objects)),
            ("src", Value::from(src)),
            ("batch", Value::from(1i64)),
        ])
    }

    /// A well-formed batch binding `a` to a checked object.
    fn sound(src: u32) -> Value {
        let (id, obj) = object(5);
        let objects = Map::from([(id.to_hex(), obj.to_value())]);
        batch(src, 8, vec![msg::tuple_value("a", Some(id))], objects)
    }

    /// Hands each message to one KVS module on rank 1 of 3, fires its
    /// fence window, and returns the payloads it flushed upstream.
    fn flushed_after(deliveries: Vec<Message>) -> Vec<Value> {
        let (_, outs) = with_ctx(1, 3, move |ctx| {
            let mut kvs = KvsModule::new();
            kvs.on_start(ctx);
            for msg in deliveries {
                kvs.handle_request(ctx, msg);
            }
            kvs.on_timer(ctx, 1);
        });
        messages(&outs).into_iter().map(|m| m.payload.value().clone()).collect()
    }

    fn fence_up(payload: Value) -> Message {
        request(KvsMethod::FenceUp, payload)
    }

    #[test]
    fn a_bad_child_batch_is_dropped_before_anything_merges() {
        let (id, obj) = object(5);
        let forged = Map::from([(ObjectId::hash(b"claimed").to_hex(), obj.to_value())]);
        let non_hex = Value::from_pairs([("k", Value::from("a")), ("s", Value::from("zz"))]);
        let objects = || Map::from([(id.to_hex(), obj.to_value())]);
        let good_tuple = || vec![msg::tuple_value("a", Some(id))];
        let bad = [
            ("forged object", batch(1, 8, good_tuple(), forged)),
            ("non-hex tuple id", batch(1, 8, vec![non_hex], objects())),
            ("nprocs 0", batch(1, 0, good_tuple(), objects())),
        ];
        for (what, payload) in bad {
            assert_eq!(check(&payload), None, "{what}");
            assert_eq!(flushed_after(vec![fence_up(payload)]), Vec::<Value>::new(), "{what}");
        }
        // A bad batch followed by a sound one with the same stamp: the bad
        // one left no record behind, so the sound one merges.
        let bad = batch(1, 0, good_tuple(), objects());
        let up = flushed_after(vec![fence_up(bad), fence_up(sound(1))]);
        assert_eq!(up.len(), 1);
        assert_eq!(up[0].get("count").and_then(Value::as_uint), Some(1));
    }

    #[test]
    fn a_duplicated_shared_batch_merges_once() {
        let first = fence_up(sound(2));
        // A transport duplicate: the same payload, still shared with the
        // first copy when that copy is taken apart.
        let copy = first.clone();
        let up = flushed_after(vec![first, copy]);
        assert_eq!(up.len(), 1);
        let expect = sound(2);
        assert_eq!(up[0].get("count").and_then(Value::as_uint), Some(1));
        assert_eq!(up[0].get("tuples"), expect.get("tuples"));
        assert_eq!(up[0].get("objects"), expect.get("objects"));
    }

    #[test]
    fn a_three_broker_fence_hands_the_coordinator_every_tuple_in_order_and_every_object_once() {
        let (shared_id, shared) = object(1);
        // Each broker's clients: an unlink, a key on the object every
        // broker writes, and a key on an object of its own.
        let write_set = |rank: u32| {
            let (own_id, own) = object(10 + i64::from(rank));
            let tuples: Vec<Tuple> = vec![
                (format!("gone{rank}"), None),
                (format!("same{rank}"), Some(shared_id)),
                (format!("own{rank}"), Some(own_id)),
            ];
            let objects: Objects =
                [(shared_id, Arc::new(shared.clone())), (own_id, Arc::new(own))].into();
            (tuples, objects)
        };
        let leaf = |rank: u32| {
            let (tuples, objects) = write_set(rank);
            let (_, outs) = with_ctx(rank, 3, move |ctx| {
                let mut tree = FenceTree::default();
                tree.contribute(ctx, "f", FenceAcc::local(3, &tuples, &objects), None);
                tree.on_timer(ctx, 1);
            });
            Payload::from(messages(&outs)[0].payload.value().clone())
        };
        let (one, two) = (leaf(1), leaf(2));
        let (total, _) = with_ctx(0, 3, move |ctx| {
            let mut tree = FenceTree::default();
            let (tuples, objects) = write_set(0);
            let local = FenceAcc::local(3, &tuples, &objects);
            assert!(tree.contribute(ctx, "f", local, None).is_none());
            let mut receive = |tree: &mut FenceTree, payload: Payload| {
                let (nprocs, count) = check(&payload).expect("sound");
                assert!(tree.admit(&payload));
                let (name, part) = take(payload, nprocs, count);
                tree.contribute(ctx, &name, part, None)
            };
            assert!(receive(&mut tree, one).is_none());
            receive(&mut tree, two).expect("3 of 3")
        });
        // What the coordinator was handed before partials were carried
        // as payload elements: the tuples concatenated in arrival order,
        // the objects merged by id.
        let (mut tuples, mut objects) = (Vec::new(), Objects::new());
        for rank in [0, 1, 2] {
            let (t, o) = write_set(rank);
            tuples.extend(t);
            objects.extend(o);
        }
        assert_eq!(total.decode(), (tuples, objects));
        assert_eq!(total.objects.len(), 4, "the shared object once, three of their own");
    }
}
