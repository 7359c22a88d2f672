//! The fence tree reduction.
//!
//! `kvs.fence` contributions merge upstream one window at a time:
//! value objects deduplicate at every hop while `(key, SHA1)` tuples
//! concatenate — the paper's Fig. 3 effect. This role owns only the
//! reduction (who contributed, what is merged, when to flush); once the
//! tree root has counted `nprocs` contributions the merged batch is
//! handed to the coordinator like any other commit.

use crate::master::Tuple;
use crate::module::Requester;
use crate::msg::{self, Objects};
use flux_broker::ModuleCtx;
use flux_proto::KvsMethod;
use flux_value::Value;
use flux_wire::{errnum, Message};
use std::collections::{HashMap, HashSet};

/// Fence accumulation state at one broker.
#[derive(Default)]
pub(crate) struct FenceAcc {
    nprocs: u64,
    /// Total contributions seen here (at the root: session-wide total).
    count: u64,
    /// Contributions not yet flushed upstream (non-root only).
    unflushed: u64,
    pub(crate) tuples: Vec<Tuple>,
    pub(crate) objects: Objects,
    /// Local client fence requests awaiting completion.
    pub(crate) waiters: Vec<Message>,
    /// Local requesters that already contributed: a process fencing the
    /// same name twice must not count as two of `nprocs` participants.
    contributors: HashSet<Requester>,
    /// `(source rank, batch id)` of child batches already merged here:
    /// a transport-duplicated `kvs.fence.up` frame must not double-count
    /// its contributions and complete the fence early.
    seen_batches: HashSet<(u32, u64)>,
    /// A flush window timer is pending.
    window_armed: bool,
}

#[derive(Default)]
pub(crate) struct FenceTree {
    fences: HashMap<String, FenceAcc>,
    /// Window timer tokens (counted from 1; 0 is the batch window's).
    tokens: HashMap<u64, String>,
    next_token: u64,
    /// Monotonic id stamped on every flushed batch, so parents can
    /// recognise (and discard) transport-duplicated batches.
    next_batch: u64,
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
        let acc = self.fences.entry(name.to_owned()).or_default();
        if acc.nprocs != 0 && acc.nprocs != nprocs {
            return Err(errnum::EINVAL);
        }
        // A duplicate contribution from the same process would complete
        // the fence one real participant early.
        if !acc.contributors.insert(requester) {
            return Err(errnum::EINVAL);
        }
        Ok(())
    }

    /// Records child batch `(src, batch)`; false if it was merged before.
    pub(crate) fn note_batch(&mut self, name: &str, src: u32, batch: u64) -> bool {
        self.fences.entry(name.to_owned()).or_default().seen_batches.insert((src, batch))
    }

    /// Merges `count` contributions into fence `name`. At the tree root
    /// this returns the whole accumulator once `nprocs` are in; anywhere
    /// else it arms the flush window (once) and returns `None`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn contribute(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        window_ns: u64,
        name: &str,
        nprocs: u64,
        count: u64,
        tuples: Vec<Tuple>,
        objects: Objects,
        waiter: Option<Message>,
    ) -> Option<FenceAcc> {
        let acc = self.fences.entry(name.to_owned()).or_default();
        if acc.nprocs == 0 {
            acc.nprocs = nprocs;
        }
        acc.count += count;
        acc.unflushed += count;
        acc.tuples.extend(tuples);
        // Objects dedup here: identical (redundant) values merge to one
        // entry at every hop of the tree.
        acc.objects.extend(objects);
        acc.waiters.extend(waiter);
        if ctx.is_root() {
            return if acc.count >= acc.nprocs { self.fences.remove(name) } else { None };
        }
        if !acc.window_armed {
            acc.window_armed = true;
            self.next_token += 1;
            self.tokens.insert(self.next_token, name.to_owned());
            ctx.set_timer(window_ns, self.next_token);
        }
        None
    }

    /// A window timer fired: send what accumulated one hop up.
    pub(crate) fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        let Some(name) = self.tokens.remove(&token) else { return };
        self.next_batch += 1;
        let Some(acc) = self.fences.get_mut(&name) else { return };
        acc.window_armed = false;
        if acc.unflushed == 0 {
            return;
        }
        let count = std::mem::take(&mut acc.unflushed);
        let tuples = std::mem::take(&mut acc.tuples);
        let objects = std::mem::take(&mut acc.objects);
        // `(src, batch)` lets the parent discard transport duplicates.
        let payload = Value::from_pairs([
            ("name", Value::from(name)),
            ("nprocs", Value::from(acc.nprocs as i64)),
            ("count", Value::from(count as i64)),
            ("src", Value::from(ctx.rank().0)),
            ("batch", Value::from(self.next_batch as i64)),
            ("tuples", msg::tuples_to_value(&tuples)),
            ("objects", msg::objects_to_value(&objects)),
        ]);
        let _ = ctx.notify_upstream(KvsMethod::FenceUp.topic(), payload);
    }

    /// The fence completed (or failed) session-wide: hands back the
    /// local waiters and forgets it.
    pub(crate) fn release(&mut self, name: &str) -> Vec<Message> {
        self.fences.remove(name).map(|acc| acc.waiters).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{messages, with_ctx};
    use flux_broker::Output;
    use flux_wire::Rank;

    fn put(key: &str) -> Vec<Tuple> {
        vec![(key.to_owned(), None)]
    }

    #[test]
    fn window_arms_once_and_one_flush_carries_everything() {
        let (_, outs) = with_ctx(2, 3, |ctx| {
            let mut tree = FenceTree::default();
            for key in ["a", "b", "c"] {
                assert!(tree
                    .contribute(ctx, 500, "f", 8, 1, put(key), Objects::new(), None)
                    .is_none());
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
        let _ = with_ctx(1, 2, move |ctx| {
            tree.contribute(ctx, 500, "f", 4, 1, Vec::new(), Objects::new(), None);
            assert_eq!(tree.enlist("f", 5, client(3, None)), Err(errnum::EINVAL));
        });
    }

    #[test]
    fn duplicate_child_batch_is_ignored() {
        let mut tree = FenceTree::default();
        assert!(tree.note_batch("f", 3, 1));
        assert!(!tree.note_batch("f", 3, 1), "same (src, batch) again");
        assert!(tree.note_batch("f", 3, 2));
        assert!(tree.note_batch("f", 4, 1));
    }

    #[test]
    fn root_completes_exactly_at_nprocs() {
        let _ = with_ctx(0, 1, |ctx| {
            let mut tree = FenceTree::default();
            assert!(tree.contribute(ctx, 500, "f", 5, 2, put("a"), Objects::new(), None).is_none());
            assert!(tree.contribute(ctx, 500, "f", 5, 2, put("b"), Objects::new(), None).is_none());
            let done = tree
                .contribute(ctx, 500, "f", 5, 1, put("c"), Objects::new(), None)
                .expect("5 of 5");
            assert_eq!(done.tuples.len(), 3);
            assert!(tree.release("f").is_empty(), "completion consumed the accumulator");
        });
    }
}
