//! The watcher registry and change detection.
//!
//! A `kvs.watch` streams: one reply now, one per later change of the
//! key. Whenever the root of the key's shard moves, the read role walks
//! the key again and reports what it found to [`Watches::observe`],
//! which answers only if the value differs from the last one sent. A
//! watched directory changes whenever any key below it does, because
//! child hashes cascade upward — the paper's directory-watch semantics
//! for free.

use flux_broker::Requester;
use crate::msg;
use flux_broker::ModuleCtx;
use flux_value::Value;
use flux_wire::Message;
use std::collections::BTreeMap;

struct Watcher {
    req: Message,
    key: String,
    requester: Requester,
    last: Option<Value>,
    /// Shard owning the key: only that slot's root switches matter.
    shard: u32,
}

#[derive(Default)]
pub(crate) struct Watches {
    /// Deterministically ordered: root switches re-walk watchers in
    /// registration order, never HashMap order.
    watchers: BTreeMap<u64, Watcher>,
    next: u64,
}

impl Watches {
    /// Registers the parked `req` as a watch on `key`; returns the
    /// watcher id.
    pub(crate) fn add(&mut self, req: Message, key: &str, requester: Requester, shard: u32) -> u64 {
        self.next += 1;
        // The first observation always differs from this sentinel, so
        // the initial snapshot is sent even for a missing key (→ null).
        let last = Some(Value::from("\u{0}__kvs_unset__"));
        self.watchers
            .insert(self.next, Watcher { req, key: key.to_owned(), requester, last, shard });
        self.next
    }

    /// Cancels `requester`'s watches on `key`.
    pub(crate) fn remove(&mut self, key: &str, requester: Requester) {
        self.watchers.retain(|_, w| !(w.key == key && w.requester == requester));
    }

    /// `(id, key)` of every watcher on `shard`, in id order.
    pub(crate) fn on_shard(&self, shard: u32) -> Vec<(u64, String)> {
        self.watchers
            .iter()
            .filter(|(_, w)| w.shard == shard)
            .map(|(id, w)| (*id, w.key.clone()))
            .collect()
    }

    /// Watcher `id`'s key now resolves to `now` (`None`: missing). Only
    /// a change is copied.
    pub(crate) fn observe(&mut self, ctx: &mut ModuleCtx<'_>, id: u64, now: Option<&Value>) {
        let Some(w) = self.watchers.get_mut(&id) else { return };
        if w.last.as_ref() != now {
            w.last = now.cloned();
            ctx.respond(&w.req, msg::watch_reply(&w.key, now.cloned().unwrap_or(Value::Null)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{messages, request};
    use flux_broker::testing::with_ctx;
    use flux_wire::Rank;

    #[test]
    fn only_changes_are_reported_and_unwatch_stops_them() {
        let req = request(flux_proto::KvsMethod::Watch, Value::object());
        let (_, outs) = with_ctx(0, 1, move |ctx| {
            let mut w = Watches::default();
            let me = Requester(Some(Rank::client_hop(7)), None);
            let id = w.add(req, "a.b", me, 1);
            assert_eq!(w.on_shard(0), vec![]);
            assert_eq!(w.on_shard(1), vec![(id, "a.b".to_owned())]);
            w.observe(ctx, id, None); // initial snapshot: missing
            w.observe(ctx, id, None); // unchanged
            w.observe(ctx, id, Some(&Value::Int(1)));
            w.observe(ctx, id, Some(&Value::Int(1))); // unchanged
            w.remove("a.b", Requester(Some(Rank::client_hop(8)), None)); // someone else's
            w.observe(ctx, id, Some(&Value::Int(2)));
            w.remove("a.b", me);
            w.observe(ctx, id, Some(&Value::Int(3)));
        });
        let seen: Vec<_> = messages(&outs).iter().map(|m| m.payload.get("v").cloned()).collect();
        assert_eq!(seen, vec![Some(Value::Null), Some(Value::Int(1)), Some(Value::Int(2))]);
    }
}
