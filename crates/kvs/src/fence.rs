//! The fence tree reduction.
//!
//! `kvs.fence` contributions merge upstream one window at a time:
//! value objects deduplicate at every hop while `(key, SHA1)` tuples
//! concatenate — the paper's Fig. 3 effect. This role owns only what is
//! the fence's own (who contributed here, what merges, when to flush);
//! the flow itself is a [`flux_broker::reduce::Reduction`]. Once the
//! tree root has counted `nprocs` contributions the merged batch is
//! handed to the coordinator like any other commit.

use crate::master::Tuple;
use crate::module::Requester;
use crate::msg::{self, Objects};
use flux_broker::reduce::{Partial, Reduction};
use flux_broker::ModuleCtx;
use flux_proto::KvsMethod;
use flux_value::Value;
use flux_wire::{errnum, Message};
use std::collections::{HashMap, HashSet};

/// Contributions to one fence: the partial that climbs the tree and,
/// at the root, the session-wide total.
pub(crate) struct FenceAcc {
    pub(crate) nprocs: u64,
    pub(crate) count: u64,
    pub(crate) tuples: Vec<Tuple>,
    pub(crate) objects: Objects,
}

impl Partial for FenceAcc {
    fn merge(&mut self, other: FenceAcc) {
        self.count += other.count;
        self.tuples.extend(other.tuples);
        // Objects dedup here: identical (redundant) values merge to one
        // entry at every hop of the tree.
        self.objects.extend(other.objects);
    }
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
                ("tuples", msg::tuples_to_value(&part.tuples)),
                ("objects", msg::objects_to_value(&part.objects)),
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
    use crate::testutil::messages;
    use flux_broker::testing::with_ctx;
    use flux_broker::Output;
    use flux_wire::Rank;

    /// `count` of `nprocs` contributions writing `key`.
    fn part(nprocs: u64, count: u64, key: &str) -> FenceAcc {
        FenceAcc { nprocs, count, tuples: vec![(key.to_owned(), None)], objects: Objects::new() }
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
}
