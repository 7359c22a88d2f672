//! The master role: authoritative apply for the slot this broker
//! masters.
//!
//! Every commit batch — a committer's local part, a `kvs.push` that
//! climbed the tree or came rank-addressed, a fence part — ends in
//! [`Authority::apply`]: one hash-tree walk, one version bump, one root
//! switch. Around it sit the three at-most-once guards a lossy,
//! duplicating transport needs: request-id dedup, the batch window that
//! coalesces concurrent pushes, and the memo of applied fence parts.
//! They are the push's far end; its near end, the committer's in-flight
//! table, re-sends it, and no broker in between keeps anything.

use crate::master::{apply_tuples, Tuple};
use crate::module::{KvsConfig, Replica};
use crate::msg::{self, Objects, RootRef};
use flux_broker::{Handled, ModuleCtx};
use flux_proto::Event;
use flux_wire::{errnum, IdSet, Message, MsgId, PeerMap};
use std::collections::VecDeque;

/// Timer token of the batch window. Every firing flushes whatever is
/// parked, so one token serves all windows; fence windows count from 1.
pub(crate) const BATCH_TOKEN: u64 = 0;

/// One push parked awaiting a coalesced apply.
type ParkedPush = (Message, Vec<Tuple>, Objects);

#[derive(Default)]
pub(crate) struct Authority {
    /// Recently handled push request ids, so a transport-duplicated
    /// push frame, or a committer's retry, is applied at most once.
    /// Bounded FIFO.
    seen_pushes: IdSet<MsgId>,
    seen_push_order: VecDeque<MsgId>,
    /// Parked pushes awaiting one coalesced hash-tree walk.
    batch: Vec<ParkedPush>,
    /// Request ids parked in `batch`: a duplicate whose original is
    /// still parked is dropped (the parked copy carries the reply
    /// obligation) rather than answered with the pre-apply version.
    batch_ids: IdSet<MsgId>,
    /// A batch window timer is pending.
    batch_armed: bool,
    /// Applied fence parts: fence name → the root they produced. A
    /// coordinator retry (its first push or our reply was lost in a
    /// blackout window) is answered from here instead of
    /// double-applying. Bounded FIFO.
    fence_applied: PeerMap<String, RootRef>,
    fence_applied_order: VecDeque<String>,
    /// Applies performed; with batching one covers many pushes.
    pub(crate) commits_applied: u64,
    /// Pushes that went through the batch window.
    pub(crate) pushes_batched: u64,
}

impl Authority {
    /// Records a push request id; returns false if it was already seen
    /// (a duplicate or a retry — a late copy re-applying an old batch
    /// after newer commits would silently rewind keys).
    fn note_push(&mut self, id: MsgId) -> bool {
        if !self.seen_pushes.insert(id) {
            return false;
        }
        self.seen_push_order.push_back(id);
        if self.seen_push_order.len() > 4096 {
            if let Some(old) = self.seen_push_order.pop_front() {
                self.seen_pushes.remove(&old);
            }
        }
        true
    }

    /// Applies one batch to the slot this broker masters and switches
    /// its root. An ordinary commit is announced with its own
    /// `kvs.setroot`; a fence part (`fence` names it) stays quiet — the
    /// coordinator's one completion event is the announcement, so a
    /// fence is never released against a half-applied cut.
    pub(crate) fn apply(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        rep: &mut Replica,
        tuples: &[Tuple],
        objects: Objects,
        fence: Option<&str>,
    ) -> RootRef {
        let shard = rep.slots.mine().unwrap_or(0);
        // Value objects: the bytes a put encoded or a push carried.
        for (id, bytes) in objects {
            rep.cache.insert_bytes(id, bytes);
        }
        let (root, version) = rep.slots.root(shard);
        let root = apply_tuples(&mut rep.cache, root, tuples);
        self.commits_applied += 1;
        rep.slots.apply_root(ctx, shard, version + 1, root);
        let new = rep.slots.root_ref(shard);
        match fence {
            Some(name) => self.note_fence_applied(name, &new),
            None => ctx.publish(
                Event::KvsSetroot.topic(),
                msg::setroot_event(std::slice::from_ref(&new), None),
            ),
        }
        new
    }

    fn note_fence_applied(&mut self, name: &str, at: &RootRef) {
        // Once per collective fence, not per commit.
        if self.fence_applied.insert(name.to_owned(), at.clone()).is_none() {
            self.fence_applied_order.push_back(name.to_owned());
            if self.fence_applied_order.len() > 64 {
                if let Some(old) = self.fence_applied_order.pop_front() {
                    self.fence_applied.remove(&old);
                }
            }
        }
    }

    /// A commit batch addressed to the slot this broker masters.
    pub(crate) fn accept_push(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        cfg: &KvsConfig,
        rep: &mut Replica,
        msg: Message,
        fence: Option<&str>,
    ) -> Handled {
        let shard = rep.slots.mine().unwrap_or(0);
        if let Some(at) = fence.and_then(|name| self.fence_applied.get(name)) {
            // A coordinator retry of an already-applied fence part:
            // re-answer the recorded result, never double-apply.
            return ctx.respond(&msg, msg::version_reply(at));
        }
        if cfg.dedup && !self.note_push(msg.header.id) {
            // A push id seen before: a duplicate, or a retry along any
            // path. While the first copy is parked in the batch it
            // carries the reply obligation, and an answer now would
            // predate the push (a read-your-writes violation): the copy
            // is dropped. Otherwise the first answer may have been lost
            // on the way down, and the copy gets the current version,
            // which includes the push.
            if self.batch_ids.contains(&msg.header.id) {
                return ctx.drop_duplicate(&msg);
            }
            return rep.slots.respond_version(ctx, shard, &msg);
        }
        let (Some(tuples), Some(objects)) = (
            msg::tuples_from_value(msg.payload.get("tuples")),
            msg::objects_from_value(msg.payload.get("objects")),
        ) else {
            return ctx.respond_err(&msg, errnum::EINVAL);
        };
        if fence.is_some() || cfg.batch_window_ns == 0 {
            // Fence parts never wait in the window (their coordinator
            // holds every waiter until all parts land); a zero window
            // turns batching off.
            self.apply(ctx, rep, &tuples, objects, fence);
            return rep.slots.respond_version(ctx, shard, &msg);
        }
        // Park the push: concurrent pushes inside the window share one
        // hash-tree walk, one version bump, and one setroot broadcast.
        // Tuples later concatenate in arrival order, so the merged
        // application equals applying them sequentially.
        self.pushes_batched += 1;
        self.batch_ids.insert(msg.header.id);
        // Parked so the batch flush can answer it.
        let (req, parked) = ctx.park(msg);
        self.batch.push((req, tuples, objects));
        if self.batch.len() >= cfg.batch_max {
            self.flush_batch(ctx, rep);
        } else if !self.batch_armed {
            self.batch_armed = true;
            ctx.set_timer(cfg.batch_window_ns, BATCH_TOKEN);
        }
        parked
    }

    /// Applies every parked push in one hash-tree walk and answers each
    /// committer with the single resulting version.
    pub(crate) fn flush_batch(&mut self, ctx: &mut ModuleCtx<'_>, rep: &mut Replica) {
        self.batch_armed = false;
        if self.batch.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.batch);
        self.batch_ids.clear();
        let mut tuples = Vec::new();
        let mut objects = Objects::new();
        let mut reqs = Vec::with_capacity(parked.len());
        for (req, t, o) in parked {
            tuples.extend(t);
            // Content-addressed objects: identical values across pushes
            // merge to one entry, exactly like the fence-side dedup.
            objects.extend(o);
            reqs.push(req);
        }
        let at = self.apply(ctx, rep, &tuples, objects, None);
        for req in reqs {
            rep.slots.respond_version(ctx, at.shard, &req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::KvsObject;
    use crate::testutil::{messages, request};
    use flux_broker::testing::with_ctx;
    use flux_proto::KvsMethod;
    use flux_value::Value;

    fn push(key: &str, val: i64) -> Message {
        let obj = KvsObject::Val(Value::Int(val));
        let id = obj.id();
        let objects = Objects::from([(id, obj.encode().into())]);
        request(
            KvsMethod::Push,
            msg::push_payload(0, None, &[(key.to_owned(), Some(id))], &objects),
        )
    }

    struct Fixture {
        auth: Authority,
        rep: Replica,
        cfg: KvsConfig,
    }

    fn master(batch_max: usize) -> Fixture {
        let mut rep = Replica::new(1);
        rep.slots.start(1, Some(0));
        let cfg = KvsConfig { batch_max, ..KvsConfig::default() };
        Fixture { auth: Authority::default(), rep, cfg }
    }

    impl Fixture {
        fn push(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
            let fence = msg.payload.get("fence").and_then(Value::as_str);
            self.auth.accept_push(ctx, &self.cfg, &mut self.rep, msg.clone(), fence);
        }
    }

    #[test]
    fn pushes_park_until_batch_max_then_flush_as_one_apply() {
        let reqs = [push("a", 1), push("b", 2), push("c", 3)];
        let ids: Vec<MsgId> = reqs.iter().map(|m| m.header.id).collect();
        let (f, outs) = with_ctx(0, 2, move |ctx| {
            let mut f = master(3);
            f.push(ctx, &reqs[0]);
            f.push(ctx, &reqs[1]);
            assert_eq!(
                (f.auth.commits_applied, f.rep.slots.version(0)),
                (0, 0),
                "parked, not applied"
            );
            f.push(ctx, &reqs[2]);
            f
        });
        assert_eq!(
            (f.auth.commits_applied, f.auth.pushes_batched, f.rep.slots.version(0)),
            (1, 3, 1)
        );
        let timers =
            outs.iter().filter(|o| matches!(o, flux_broker::Output::SetTimer { .. })).count();
        assert_eq!(timers, 1, "the window arms once");
        // One setroot announcement (to the one child) and one reply per
        // committer, all carrying the single resulting version.
        let (events, replies): (Vec<_>, Vec<_>) = messages(&outs)
            .into_iter()
            .partition(|m| m.header.topic.as_str() == Event::KvsSetroot.topic_str());
        assert_eq!(events.len(), 1);
        let replies: Vec<_> =
            replies.iter().map(|m| (m.header.id, m.payload.get("version").cloned())).collect();
        assert_eq!(replies, ids.iter().map(|id| (*id, Some(Value::Int(1)))).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_while_parked_is_silent_and_after_apply_is_re_answered() {
        let first = push("a", 1);
        let dup = first.clone();
        let (f, outs) = with_ctx(0, 1, move |ctx| {
            let mut f = master(64);
            f.push(ctx, &first);
            f.push(ctx, &dup);
            assert_eq!(f.auth.pushes_batched, 1, "the parked duplicate is dropped");
            f.auth.flush_batch(ctx, &mut f.rep);
            f.push(ctx, &dup);
            f
        });
        assert_eq!((f.auth.commits_applied, f.rep.slots.version(0)), (1, 1), "never applied twice");
        let replies: Vec<_> = messages(&outs)
            .into_iter()
            .filter(|m| m.header.topic.as_str() == KvsMethod::Push.topic_str())
            .map(|m| m.payload.get("version").cloned())
            .collect();
        // Nothing while parked; one reply from the flush; one re-answer.
        assert_eq!(replies, vec![Some(Value::Int(1)), Some(Value::Int(1))]);
    }

    #[test]
    fn fence_parts_apply_quietly_once_and_retries_read_the_memo() {
        let obj = KvsObject::Val(Value::Int(5));
        let id = obj.id();
        let objects = Objects::from([(id, obj.encode().into())]);
        let part = msg::push_payload(1, Some("f"), &[("k".to_owned(), Some(id))], &objects);
        let (first, retry) =
            (request(KvsMethod::Push, part.clone()), request(KvsMethod::Push, part));
        let (f, outs) = with_ctx(1, 2, move |ctx| {
            let mut f = master(64);
            f.rep.slots.start(2, Some(1));
            f.push(ctx, &first);
            f.push(ctx, &retry);
            f
        });
        assert_eq!((f.auth.commits_applied, f.rep.slots.version(1)), (1, 1));
        let msgs = messages(&outs);
        assert!(
            msgs.iter().all(|m| m.header.topic.as_str() != Event::KvsSetroot.topic_str()),
            "quiet"
        );
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].payload, msgs[1].payload);
        assert_eq!(msgs[0].payload.get("shard"), Some(&Value::Int(1)));
    }
}
