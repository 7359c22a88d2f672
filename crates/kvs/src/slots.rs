//! Per-shard replicated root state, and the only root switch.
//!
//! Every broker keeps one slot per shard: the newest root reference it
//! has adopted and the `wait_version` callers parked on that version
//! stream. A one-shard session is simply the one-slot instance. The
//! slot this broker masters (`rank < shards`; the tree root in a
//! one-shard session), if any, is the authoritative copy.

use crate::msg::{self, RootRef};
use crate::object::KvsObject;
use crate::shard;
use flux_broker::{Handled, ModuleCtx};
use flux_hash::ObjectId;
use flux_wire::Message;

struct Slot {
    version: u64,
    root: ObjectId,
    waiters: Vec<(u64, Message)>,
}

/// The per-shard slots of one broker.
#[derive(Default)]
pub(crate) struct Slots {
    slots: Vec<Slot>,
    mine: Option<u32>,
    /// Shards whose root moved since [`Slots::take_moved`]: their
    /// watchers are re-checked once the current handler is done.
    moved: Vec<u32>,
}

impl Slots {
    pub(crate) fn new(shards: u32) -> Slots {
        let mut s = Slots::default();
        s.start(shards.max(1), None);
        s
    }

    /// Fixes the session geometry: `shards` slots (kept if the count is
    /// unchanged), of which this broker masters `mine`.
    pub(crate) fn start(&mut self, shards: u32, mine: Option<u32>) {
        if self.slots.len() != shards as usize {
            let root = KvsObject::empty_dir().id();
            self.slots =
                (0..shards).map(|_| Slot { version: 0, root, waiters: Vec::new() }).collect();
        }
        self.mine = mine;
    }

    pub(crate) fn shards(&self) -> u32 {
        self.slots.len() as u32
    }

    /// The shard this broker masters, if any.
    pub(crate) fn mine(&self) -> Option<u32> {
        self.mine
    }

    /// Whether this broker holds the authoritative copy of `shard`.
    pub(crate) fn masters(&self, shard: u32) -> bool {
        self.mine == Some(shard)
    }

    /// `(root, version)` of `shard`. Shard indices are validated where
    /// they enter; an unknown one reads as the empty store at version 0
    /// so this stays total.
    pub(crate) fn root(&self, shard: u32) -> (ObjectId, u64) {
        match self.slots.get(shard as usize) {
            Some(s) => (s.root, s.version),
            None => (KvsObject::empty_dir().id(), 0),
        }
    }

    pub(crate) fn version(&self, shard: u32) -> u64 {
        self.root(shard).1
    }

    /// `shard`'s current root as replies and events carry it.
    pub(crate) fn root_ref(&self, shard: u32) -> RootRef {
        let (root, version) = self.root(shard);
        RootRef { shard, version, root: root.to_hex() }
    }

    /// The shard whose tree holds `key` (0 for a key validation rejects
    /// anyway — those error out before touching shard state).
    pub(crate) fn shard_of(&self, key: &str) -> u32 {
        shard::shard_of_key(key, self.shards()).unwrap_or(0)
    }

    /// Every slot's current root (what cache expiry must keep).
    pub(crate) fn roots(&self) -> Vec<ObjectId> {
        self.slots.iter().map(|s| s.root).collect()
    }

    /// Adopts a newer root reference for `shard`; stale and duplicate
    /// versions are ignored, which (with the total event order) gives
    /// per-shard monotonic reads. Returns whether the root moved.
    pub(crate) fn apply_root(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        shard: u32,
        version: u64,
        root: ObjectId,
    ) -> bool {
        let Some(slot) = self.slots.get_mut(shard as usize) else { return false };
        if version <= slot.version {
            return false;
        }
        slot.version = version;
        slot.root = root;
        if !slot.waiters.is_empty() {
            // Causal consistency: wake wait_version callers on this slot.
            let (ready, rest): (Vec<_>, Vec<_>) =
                std::mem::take(&mut slot.waiters).into_iter().partition(|(v, _)| *v <= version);
            slot.waiters = rest;
            let reply = msg::version_reply(&self.root_ref(shard));
            for (_, req) in ready {
                ctx.respond(&req, reply.clone());
            }
        }
        self.moved.push(shard);
        true
    }

    /// Shards whose root moved since the last call.
    pub(crate) fn take_moved(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.moved)
    }

    /// Answers `req` with `shard`'s current `{shard, version, root}`.
    pub(crate) fn respond_version(
        &self,
        ctx: &mut ModuleCtx<'_>,
        shard: u32,
        req: &Message,
    ) -> Handled {
        ctx.respond(req, msg::version_reply(&self.root_ref(shard)))
    }

    /// Answers `req` once `shard` reaches version `target`.
    pub(crate) fn wait_version(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        shard: u32,
        target: u64,
        req: Message,
    ) -> Handled {
        match self.slots.get_mut(shard as usize) {
            Some(slot) if slot.version < target => {
                let (req, parked) = ctx.park(req);
                slot.waiters.push((target, req));
                parked
            }
            _ => self.respond_version(ctx, shard, &req),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::request;
    use flux_broker::testing::with_ctx;
    use flux_proto::KvsMethod;
    use flux_value::Value;

    #[test]
    fn stale_and_duplicate_versions_are_ignored() {
        let (slots, _) = with_ctx(1, 3, |ctx| {
            let mut slots = Slots::new(2);
            let (a, b) = (ObjectId::hash(b"a"), ObjectId::hash(b"b"));
            assert!(slots.apply_root(ctx, 1, 3, a));
            assert!(!slots.apply_root(ctx, 1, 3, b), "duplicate version");
            assert!(!slots.apply_root(ctx, 1, 2, b), "stale version");
            assert!(!slots.apply_root(ctx, 9, 1, b), "no such shard");
            assert_eq!(slots.root(1), (a, 3));
            assert_eq!(slots.version(0), 0);
            slots
        });
        let mut slots = slots;
        assert_eq!(slots.take_moved(), vec![1]);
        assert!(slots.take_moved().is_empty());
    }

    #[test]
    fn a_root_switch_wakes_only_the_waiters_it_satisfies() {
        let soon = request(KvsMethod::WaitVersion, Value::object());
        let later = request(KvsMethod::WaitVersion, Value::object());
        let (soon_id, later_id) = (soon.header.id, later.header.id);
        let (_, outs) = with_ctx(0, 1, move |ctx| {
            let mut slots = Slots::new(1);
            slots.wait_version(ctx, 0, 1, soon);
            slots.wait_version(ctx, 0, 5, later);
            assert!(slots.apply_root(ctx, 0, 1, ObjectId::hash(b"new")));
        });
        let answered: Vec<_> =
            outs.iter().filter_map(|o| o.message()).map(|m| m.header.id).collect();
        assert_eq!(answered, vec![soon_id]);
        assert!(!answered.contains(&later_id));
    }
}
