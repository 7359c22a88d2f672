//! The write set a fence carries.
//!
//! `kvs.fence` is a [`flux_broker::reduce::Collective`], as
//! `barrier.enter` is: the roster, the count up the tree and the
//! release are the broker's. What is the fence's own is the part its
//! tally carries, the write set: value objects deduplicate at every hop
//! while `(key, SHA1)` tuples concatenate — the paper's Fig. 3 effect.
//! Once the tree root has counted `nprocs` entries the merged write set
//! is handed to the coordinator like any other commit.
//!
//! A part holds its tuples and objects spelled as a `kvs.fence.up`
//! payload spells them, so a hop only checks what a child sent
//! ([`sound`]) and carries it on: [`take`] moves the elements out of the
//! received payload, a merge moves them into the accumulator and
//! [`spell`] moves them into the next payload. Nothing is re-encoded on
//! the way up. A local contribution is spelled once, where it enters,
//! and the tree root decodes the total once, for the coordinator.

use crate::master::Tuple;
use crate::msg::{self, Objects};
use flux_broker::reduce::Partial;
use flux_value::{Map, Value};
use flux_wire::Payload;
use std::sync::Arc;

/// The write set of some of a fence's entries.
#[derive(Default, Clone)]
pub(crate) struct FenceAcc {
    /// `{k, s}` tuples in arrival order, as a batch spells them.
    pub(crate) tuples: Vec<Value>,
    /// Value objects by hex content address, as a batch spells them.
    pub(crate) objects: Map,
}

impl Partial for FenceAcc {
    fn merge(&mut self, mut other: FenceAcc) {
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
    /// One local participant's write set.
    pub(crate) fn local(tuples: &[Tuple], objects: &Objects) -> FenceAcc {
        let tuples = tuples.iter().map(|(k, id)| msg::tuple_value(k, *id)).collect();
        FenceAcc { tuples, objects: msg::objects_map(objects) }
    }

    /// The write set decoded for the coordinator, at the tree root.
    /// Every element was checked on receipt or spelled here, so none is
    /// left out and no object is hashed again; each keeps its bytes.
    pub(crate) fn decode(&self) -> (Vec<Tuple>, Objects) {
        let tuples = self.tuples.iter().filter_map(msg::tuple_of);
        let objects = self.objects.iter().filter_map(|(hex, v)| msg::manifest_entry(hex, v));
        (
            tuples.map(|(k, s)| (k.to_owned(), s)).collect(),
            objects.map(|(id, bytes)| (id, Arc::clone(bytes))).collect(),
        )
    }
}

/// Checks the write set of a child's `kvs.fence.up` batch before
/// anything of it merges: every tuple's shape and hex id, every
/// object's content address, the hash of the bytes it came as.
pub(crate) fn sound(batch: &Value) -> bool {
    let tuples = batch.get("tuples").and_then(Value::as_array);
    let objects = batch.get("objects").and_then(Value::as_object);
    tuples.is_some_and(|ts| ts.iter().all(|t| msg::tuple_of(t).is_some()))
        && objects.is_some_and(|os| os.iter().all(|(hex, v)| msg::object_of(hex, v).is_some()))
}

/// Moves the write set out of a [`sound`] batch (a copy only if the
/// payload is still shared, as a duplicated frame's is).
pub(crate) fn take(batch: Payload) -> FenceAcc {
    let mut fields = match batch.into_value() {
        Value::Object(fields) => fields,
        _ => Map::new(),
    };
    let mut field = |name: &str| fields.remove(name).unwrap_or(Value::Null);
    match (field("tuples"), field("objects")) {
        (Value::Array(tuples), Value::Object(objects)) => FenceAcc { tuples, objects },
        _ => FenceAcc::default(),
    }
}

/// The write set's fields in the batch a window flushes.
pub(crate) fn spell(part: FenceAcc) -> [(&'static str, Value); 2] {
    [("tuples", Value::Array(part.tuples)), ("objects", Value::Object(part.objects))]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::KvsModule;
    use crate::object::KvsObject;
    use crate::testutil::{messages, request};
    use flux_broker::reduce::{Collective, Done};
    use flux_broker::testing::with_ctx;
    use flux_broker::{CommsModule, ModuleCtx, Output};
    use flux_hash::ObjectId;
    use flux_proto::KvsMethod;
    use flux_wire::{errnum, Message, Rank};

    /// Client `client`'s entry into fence `name`, through the broker
    /// `via` it is attached to (`None`: this one).
    fn entry(client: u32, via: Option<Rank>, name: &str, nprocs: u64) -> Message {
        let mut msg = request(KvsMethod::Fence, msg::fence(name, nprocs));
        msg.header.hops = [Some(Rank::client_hop(client)), via].into_iter().flatten().collect();
        msg
    }

    /// A write set unlinking `key`.
    fn unlink(key: &str) -> FenceAcc {
        FenceAcc { tuples: vec![msg::tuple_value(key, None)], objects: Map::new() }
    }

    /// Fires window `token`, as the module's timer does.
    fn flush(fence: &mut Collective<FenceAcc>, ctx: &mut ModuleCtx<'_>, token: u64) {
        fence.on_window(ctx, token, &KvsMethod::FenceUp.topic(), spell);
    }

    /// Hands `fence` a child's batch, as the module does.
    fn arrive(
        fence: &mut Collective<FenceAcc>,
        ctx: &mut ModuleCtx<'_>,
        batch: Value,
    ) -> Option<Done<FenceAcc>> {
        fence.arrive(ctx, fence_up(batch), true, sound, take).1
    }

    #[test]
    fn window_arms_once_and_one_flush_carries_everything() {
        let (_, outs) = with_ctx(2, 3, |ctx| {
            let mut fence = Collective::default();
            for (client, key) in [(1, "a"), (2, "b"), (3, "c")] {
                let (_, done) = fence.enter(ctx, entry(client, None, "f", 8), |_| unlink(key));
                assert!(done.is_none());
            }
            flush(&mut fence, ctx, 1);
            // Nothing new since the flush: a stray second firing is mute.
            flush(&mut fence, ctx, 1);
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
        let entries = [
            (entry(1, None, "f", 4), None),
            (entry(1, None, "f", 4), Some("same process twice")),
            (entry(2, None, "f", 4), None),
            (entry(1, Some(Rank(3)), "f", 4), None),
            (entry(1, None, "g", 4), None),
            (entry(3, None, "f", 5), Some("nprocs disagrees")),
            (entry(4, None, "f", 0), Some("nprocs 0")),
        ];
        let refused: Vec<_> = entries
            .iter()
            .filter(|(_, why)| why.is_some())
            .map(|(msg, _)| (msg.header.id, errnum::EINVAL))
            .collect();
        let (_, outs) = with_ctx(1, 3, |ctx| {
            let mut fence = Collective::default();
            for (msg, _) in entries {
                fence.enter(ctx, msg, |_| unlink("k"));
            }
        });
        // A child's client 1 is another process, and fence `g` another
        // roster: both are parked.
        let answered: Vec<_> =
            messages(&outs).iter().map(|m| (m.header.id, m.header.errnum)).collect();
        assert_eq!(answered, refused);
    }

    /// The batch one child flushed, as its parent receives it.
    fn flushed_by(rank: u32, nprocs: u64, key: &'static str) -> Value {
        let (_, outs) = with_ctx(rank, 3, move |ctx| {
            let mut fence = Collective::default();
            fence.enter(ctx, entry(1, None, "f", nprocs), |_| unlink(key));
            flush(&mut fence, ctx, 1);
        });
        messages(&outs)[0].payload.value().clone()
    }

    #[test]
    fn duplicate_child_batch_is_ignored() {
        let (one, two) = (flushed_by(1, 2, "a"), flushed_by(2, 2, "b"));
        let mut unstamped = two.clone();
        if let Value::Object(fields) = &mut unstamped {
            fields.retain(|k, _| k != "src" && k != "batch");
        }
        let _ = with_ctx(0, 3, move |ctx| {
            let mut fence = Collective::default();
            assert!(arrive(&mut fence, ctx, one.clone()).is_none(), "1 of 2");
            assert!(arrive(&mut fence, ctx, one).is_none(), "same (src, batch) again");
            assert!(arrive(&mut fence, ctx, unstamped).is_none(), "cannot be told from its copy");
            assert!(arrive(&mut fence, ctx, two).is_some(), "batch 1 of another sender");
        });
    }

    #[test]
    fn copy_of_a_completed_fences_last_batch_leaves_nothing_behind() {
        let (one, two) = (flushed_by(1, 2, "a"), flushed_by(2, 2, "b"));
        let _ = with_ctx(0, 3, move |ctx| {
            let mut fence = Collective::default();
            assert!(arrive(&mut fence, ctx, one).is_none(), "1 of 2");
            assert!(arrive(&mut fence, ctx, two.clone()).is_some(), "2 of 2: complete");
            // The copy arrives after the fence is forgotten. The record
            // of its stamp outlives the fence, so it opens nothing.
            assert!(arrive(&mut fence, ctx, two).is_none(), "refused");
            let (_, done) = fence.enter(ctx, entry(1, None, "f", 2), |_| unlink("c"));
            assert!(done.is_none(), "the next fence of the name starts from 0");
        });
    }

    #[test]
    fn root_completes_exactly_at_nprocs() {
        let _ = with_ctx(0, 3, |ctx| {
            let mut fence = Collective::default();
            let unlinks = |key| vec![msg::tuple_value(key, None)];
            assert!(arrive(&mut fence, ctx, batch(1, 5, 2, unlinks("a"), Map::new())).is_none());
            assert!(arrive(&mut fence, ctx, batch(2, 5, 2, unlinks("b"), Map::new())).is_none());
            let (_, done) = fence.enter(ctx, entry(1, None, "f", 5), |_| unlink("c"));
            let done = done.expect("5 of 5");
            let done = (done.name.as_str(), done.part.tuples.len(), done.waiters.len());
            assert_eq!(done, ("f", 3, 1));
            let (_, done) = fence.enter(ctx, entry(1, None, "f", 5), |_| unlink("d"));
            assert!(done.is_none(), "completion consumed the total");
        });
    }

    /// A value object and its manifest entry.
    fn object(v: i64) -> (ObjectId, KvsObject) {
        let obj = KvsObject::Val(Value::Int(v));
        (obj.id(), obj)
    }

    /// A `kvs.fence.up` batch of fence `f`, `count` of `nprocs` entries,
    /// stamped `(src, 1)`.
    fn batch(src: u32, nprocs: i64, count: i64, tuples: Vec<Value>, objects: Map) -> Value {
        Value::from_pairs([
            ("name", Value::from("f")),
            ("nprocs", Value::from(nprocs)),
            ("count", Value::from(count)),
            ("tuples", Value::Array(tuples)),
            ("objects", Value::Object(objects)),
            ("src", Value::from(src)),
            ("batch", Value::from(1i64)),
        ])
    }

    /// A well-formed batch binding `a` to a checked object.
    fn sound_batch(src: u32) -> Value {
        let (id, obj) = object(5);
        let objects = Map::from([(id.to_hex(), obj.to_value())]);
        batch(src, 8, 1, vec![msg::tuple_value("a", Some(id))], objects)
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
            ("forged object", batch(1, 8, 1, good_tuple(), forged)),
            ("non-hex tuple id", batch(1, 8, 1, vec![non_hex], objects())),
            ("nprocs 0", batch(1, 0, 1, good_tuple(), objects())),
        ];
        for (what, payload) in bad {
            assert_eq!(flushed_after(vec![fence_up(payload)]), Vec::<Value>::new(), "{what}");
        }
        // A bad batch followed by a sound one with the same stamp: the bad
        // one left no record behind, so the sound one merges.
        let bad = batch(1, 0, 1, good_tuple(), objects());
        let up = flushed_after(vec![fence_up(bad), fence_up(sound_batch(1))]);
        assert_eq!(up.len(), 1);
        assert_eq!(up[0].get("count").and_then(Value::as_uint), Some(1));
    }

    #[test]
    fn a_duplicated_shared_batch_merges_once() {
        let first = fence_up(sound_batch(2));
        // A transport duplicate: the same payload, still shared with the
        // first copy when that copy is taken apart.
        let copy = first.clone();
        let up = flushed_after(vec![first, copy]);
        assert_eq!(up.len(), 1);
        let expect = sound_batch(2);
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
                [(shared_id, shared.encode().into()), (own_id, own.encode().into())].into();
            (tuples, objects)
        };
        let enter = |fence: &mut Collective<FenceAcc>, ctx: &mut ModuleCtx<'_>, rank| {
            let (tuples, objects) = write_set(rank);
            fence.enter(ctx, entry(1, None, "f", 3), |_| FenceAcc::local(&tuples, &objects)).1
        };
        let leaf = |rank: u32| {
            let (_, outs) = with_ctx(rank, 3, |ctx| {
                let mut fence = Collective::default();
                enter(&mut fence, ctx, rank);
                flush(&mut fence, ctx, 1);
            });
            messages(&outs)[0].payload.value().clone()
        };
        let (one, two) = (leaf(1), leaf(2));
        let (total, _) = with_ctx(0, 3, |ctx| {
            let mut fence = Collective::default();
            assert!(enter(&mut fence, ctx, 0).is_none());
            assert!(arrive(&mut fence, ctx, one).is_none());
            arrive(&mut fence, ctx, two).expect("3 of 3").part
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
