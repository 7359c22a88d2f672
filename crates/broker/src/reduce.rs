//! Tree reductions, and the collectives that count on one.
//!
//! The tree plane carries "RPCs, barriers, and reductions" (paper
//! §IV-A). A reduction is the flow behind `barrier.up`, `kvs.fence.up`,
//! `mon.up`, `log.batch` and `wexec.status.up`: every broker merges what
//! it and its subtree contribute under a key, now and then sends the
//! merged partial one hop up as a one-way request, and the root acts on
//! the total.
//!
//! A [`Reduction`] owns what those flows share: the partials waiting for
//! the next flush, the `(src, batch)` stamp on every flushed message, the
//! record of stamps already merged, so a frame the transport delivers
//! twice counts once. What to merge, when to flush (on the heartbeat,
//! or a collective's window) and what the root does with a total stay
//! with the caller: it calls in, nothing is registered here.
//!
//! The record is kept per *sender* and outlives every key. A copy of the
//! batch that completed a barrier may arrive after the barrier is
//! forgotten, and a per-key record forgotten with it would let that copy
//! open — and count toward — the next barrier of the same name.
//!
//! A [`Collective`] is the reduction of `barrier.enter` and `kvs.fence`,
//! which answer nobody before all `nprocs` have entered: it keeps each
//! broker's roster of entries, refuses those that would release anyone
//! early, flushes what arrives within `WINDOW_NS` as one message and
//! hands the root the total once its count reaches `nprocs`. The
//! barrier's tally carries nothing more (`Collective<()>`), the fence's
//! its write set. Entries at different brokers may still disagree on
//! `nprocs`: the tally where they meet is marked, the mark climbs with
//! it, and the root fails the collective instead of counting to either.

use crate::{requester_of, Handled, ModuleCtx, Requester};
use flux_value::{Map, Value};
use flux_wire::{errnum, IdMap, Message, Payload, Topic};
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The aggregation window of the collectives (`barrier.enter`,
/// `kvs.fence`): contributions arriving within it leave as one message.
const WINDOW_NS: u64 = 20_000;

/// Batches a sender may run ahead of an id that never arrives — a frame
/// lost for good, or the ids a child spent on the parent it had before
/// the tree healed around a dead broker — before that id is given up,
/// which bounds [`Seen::above`].
const MAX_AHEAD: usize = 1024;

/// What a reduction merges.
pub trait Partial {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: Self);
}

/// The part of a collective that carries nothing beside its count.
impl Partial for () {
    fn merge(&mut self, (): ()) {}
}

/// The batch ids of one sender merged so far: every id up to `floor`,
/// and those `above` it that overtook a missing one.
#[derive(Default)]
struct Seen {
    floor: u64,
    above: BTreeSet<u64>,
}

impl Seen {
    /// Records `batch`; false if it was recorded before.
    fn admit(&mut self, batch: u64) -> bool {
        if batch <= self.floor || !self.above.insert(batch) {
            return false;
        }
        if self.above.len() > MAX_AHEAD {
            // Stop waiting for the oldest missing ids.
            self.floor = self.above.pop_first().unwrap_or(self.floor);
        }
        while self.above.remove(&(self.floor + 1)) {
            self.floor += 1;
        }
        true
    }
}

/// One tree reduction at one broker, keyed by `K`, merging `P`s.
///
/// At the root nothing is flushed: what waits there is the session-wide
/// total, which the module takes out with [`Reduction::drain`] once its
/// own rule says the total is complete.
pub struct Reduction<K, P> {
    /// Key order, so a flush of many keys sends in one order every run.
    waiting: BTreeMap<K, P>,
    /// Taken only when a message is sent: a skipped id would hold the
    /// parent's floor down for the rest of the session.
    next_batch: u64,
    /// By sender rank, as stamped by that broker.
    seen: IdMap<u64, Seen>,
}

impl<K, P> Default for Reduction<K, P> {
    fn default() -> Self {
        Reduction { waiting: BTreeMap::new(), next_batch: 0, seen: IdMap::default() }
    }
}

impl<K: Ord, P: Partial> Reduction<K, P> {
    /// Merges `part` into what waits under `key`.
    pub fn contribute(&mut self, key: K, part: P) {
        match self.waiting.entry(key) {
            Entry::Occupied(mut waiting) => waiting.get_mut().merge(part),
            Entry::Vacant(slot) => {
                slot.insert(part);
            }
        }
    }

    /// Takes out every waiting partial that `ready` accepts.
    pub fn drain(&mut self, mut ready: impl FnMut(&K, &P) -> bool) -> Vec<(K, P)> {
        self.waiting.extract_if(.., |k, p| ready(k, p)).collect()
    }

    /// Sends what waits under `key`, if anything, one hop up on `topic`
    /// as the object `encode` returns plus the stamp.
    pub fn flush(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        topic: &Topic,
        key: &K,
        encode: impl FnOnce(K, P) -> Value,
    ) {
        if let Some((key, part)) = self.waiting.remove_entry(key) {
            self.send(ctx, topic, encode(key, part));
        }
    }

    /// [`Reduction::flush`] for every key `ready` accepts, in key order.
    pub fn flush_all(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        topic: &Topic,
        ready: impl FnMut(&K, &P) -> bool,
        mut encode: impl FnMut(K, P) -> Value,
    ) {
        for (key, part) in self.drain(ready) {
            self.send(ctx, topic, encode(key, part));
        }
    }

    fn send(&mut self, ctx: &mut ModuleCtx<'_>, topic: &Topic, mut payload: Value) {
        self.next_batch += 1;
        payload.insert("src", Value::from(ctx.rank().0));
        payload.insert("batch", Value::from(self.next_batch as i64));
        // The root has no upstream and never flushes.
        ctx.notify_upstream(topic.clone(), payload);
    }

    /// True the first time the `(src, batch)` stamp of `payload` is
    /// seen: merge it. False for a copy, and for a payload with no
    /// stamp — it cannot be told from its copy, and every sender stamps.
    pub fn admit(&mut self, payload: &Value) -> bool {
        let (Some(src), Some(batch)) = (
            payload.get("src").and_then(Value::as_uint),
            payload.get("batch").and_then(Value::as_uint),
        ) else {
            return false;
        };
        self.seen.entry(src).or_default().admit(batch)
    }
}

/// The field a flushed batch carries, as `true`, when the entries it
/// counts disagree on `nprocs`; absent otherwise.
const DISAGREE: &str = "nprocs_disagree";

/// Entries into one collective and the part they carry: what climbs
/// the tree and, at the root, the session-wide total.
struct Tally<P> {
    nprocs: u64,
    count: u64,
    /// Some of the entries counted here disagree on `nprocs`.
    disagree: bool,
    part: P,
}

impl<P: Partial> Partial for Tally<P> {
    fn merge(&mut self, other: Tally<P>) {
        self.disagree |= other.disagree || other.nprocs != self.nprocs;
        self.count += other.count;
        self.part.merge(other.part);
    }
}

/// This broker's own entries into one collective, parked until it
/// completes.
#[derive(Default)]
struct Roster {
    nprocs: u64,
    entered: HashSet<Requester>,
    waiters: Vec<Message>,
}

/// A collective the root counted complete, or failed.
pub struct Done<P> {
    /// Its name.
    pub name: String,
    /// What every entry carried, merged.
    pub part: P,
    /// The root's own entries, released: the caller answers them.
    pub waiters: Vec<Message>,
    /// `Some(EINVAL)` when its entries disagreed on `nprocs`: the
    /// collective failed, `part` is not to be acted on, and every waiter,
    /// here and at the other brokers, is refused with this code.
    pub failed: Option<u32>,
}

/// One counting collective at one broker: the local roster and a
/// [`Reduction`] of the tallies, both by name.
#[derive(Default)]
pub struct Collective<P> {
    tallies: Reduction<String, Tally<P>>,
    rosters: HashMap<String, Roster>,
    /// Armed window timers by token, counted from 1: a module's token 0
    /// stays free for a timer of its own.
    windows: IdMap<u64, String>,
    next_window: u64,
}

/// The `name` and `nprocs` of an entry or a batch; `nprocs` 0 is never
/// met.
fn named(v: &Value) -> Option<(&str, u64)> {
    Some((v.get("name")?.as_str()?, v.get("nprocs")?.as_uint().filter(|&n| n > 0)?))
}

impl<P: Partial> Collective<P> {
    /// A local `{name, nprocs}` entry, parked until the collective
    /// completes; `part` gives what its requester carries in. Refused
    /// with `EINVAL`: no name or `nprocs`, `nprocs` 0, a second entry by
    /// the same requester, and an `nprocs` other than an earlier entry's
    /// here — each would release everyone early, or never. At the root
    /// an entry may complete the collective.
    pub fn enter(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        msg: Message,
        part: impl FnOnce(Requester) -> P,
    ) -> (Handled, Option<Done<P>>) {
        let requester = requester_of(&msg);
        let Some((name, nprocs)) = named(&msg.payload) else {
            return (ctx.respond_err(&msg, errnum::EINVAL), None);
        };
        let name = name.to_owned();
        let roster = self.rosters.entry(name.clone()).or_default();
        if (roster.nprocs != 0 && roster.nprocs != nprocs) || !roster.entered.insert(requester) {
            return (ctx.respond_err(&msg, errnum::EINVAL), None);
        }
        roster.nprocs = nprocs;
        let (waiter, parked) = ctx.park(msg);
        roster.waiters.push(waiter);
        let tally = Tally { nprocs, count: 1, disagree: false, part: part(requester) };
        (parked, self.gather(ctx, name, tally))
    }

    /// A child's one-way batch, with its mark if it has one. It is
    /// dropped unless its `name`, `nprocs` (not 0) and `count` read and
    /// `sound` accepts the rest, and, with `dedup`, when it copies a
    /// batch merged before: a frame the transport delivers twice counts
    /// once. `take` moves the part
    /// out of a batch that merges. At the root a batch may complete the
    /// collective.
    pub fn arrive(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        msg: Message,
        dedup: bool,
        sound: impl FnOnce(&Value) -> bool,
        take: impl FnOnce(Payload) -> P,
    ) -> (Handled, Option<Done<P>>) {
        let handled = ctx.one_way(&msg);
        let batch = &msg.payload;
        let count = batch.get("count").and_then(Value::as_uint);
        let (Some((name, nprocs)), Some(count)) = (named(batch), count) else {
            return (handled, None);
        };
        if !sound(batch) || (dedup && !self.tallies.admit(batch)) {
            return (handled, None);
        }
        let name = name.to_owned();
        let disagree = batch.get(DISAGREE).and_then(Value::as_bool) == Some(true);
        let tally = Tally { nprocs, count, disagree, part: take(msg.payload) };
        (handled, self.gather(ctx, name, tally))
    }

    /// Off the root, the first tally under `name` arms a window; the root
    /// arms none, and drains a total once it is complete or marked.
    fn gather(&mut self, ctx: &mut ModuleCtx<'_>, name: String, t: Tally<P>) -> Option<Done<P>> {
        if !ctx.is_root() {
            if !self.tallies.waiting.contains_key(&name) {
                self.next_window += 1;
                self.windows.insert(self.next_window, name.clone());
                ctx.set_timer(WINDOW_NS, self.next_window);
            }
            self.tallies.contribute(name, t);
            return None;
        }
        self.tallies.contribute(name, t);
        // At most one is ready: whatever completed another drained it.
        let (name, total) =
            self.tallies.drain(|_, t| t.disagree || t.count >= t.nprocs).pop()?;
        let waiters = self.release(&name);
        let failed = total.disagree.then_some(errnum::EINVAL);
        Some(Done { name, part: total.part, waiters, failed })
    }

    /// A timer fired: if it is one of this collective's windows, sends
    /// what gathered under its name one hop up on `topic`, as `{name,
    /// nprocs, count}`, the mark if it is set, and the fields `spell`
    /// writes for the part.
    pub fn on_window(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        token: u64,
        topic: &Topic,
        spell: impl FnOnce(P, &mut Value),
    ) {
        let Some(name) = self.windows.remove(&token) else { return };
        self.tallies.flush(ctx, topic, &name, |name, tally| {
            // Sized once for every field: these, the mark, the part's
            // (a fence writes two) and the stamp.
            let mut batch = Value::Object(Map::with_capacity(8));
            batch.insert("name", Value::from(name));
            batch.insert("nprocs", Value::from(tally.nprocs as i64));
            batch.insert("count", Value::from(tally.count as i64));
            if tally.disagree {
                batch.insert(DISAGREE, Value::Bool(true));
            }
            spell(tally.part, &mut batch);
            batch
        });
    }

    /// The collective `name` completed, or failed, session-wide: forgets
    /// this broker's roster and hands back its waiters.
    pub fn release(&mut self, name: &str) -> Vec<Message> {
        self.rosters.remove(name).map(|roster| roster.waiters).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::with_ctx;
    use crate::Output;
    use flux_proto::BarrierMethod;
    use flux_wire::{MsgId, Rank};
    use proptest::prelude::*;

    #[derive(Default)]
    struct Sum(u64);

    impl Partial for Sum {
        fn merge(&mut self, other: Sum) {
            self.0 += other.0;
        }
    }

    fn topic() -> Topic {
        Topic::from_static("probe.up")
    }

    #[test]
    fn seen_admits_each_id_once_and_compacts() {
        let mut seen = Seen::default();
        assert!(seen.admit(1));
        assert!(!seen.admit(1), "at the floor");
        assert!(seen.admit(4) && seen.admit(3), "out of order, above a gap");
        assert!(!seen.admit(3) && !seen.admit(4), "copies above the floor");
        assert_eq!((seen.floor, seen.above.len()), (1, 2));
        assert!(seen.admit(2), "the gap fills");
        assert_eq!((seen.floor, seen.above.len()), (4, 0), "compacted: nothing kept above");
        assert!((1..=4).all(|b| !seen.admit(b)));
        assert!(!seen.admit(0), "ids count from 1");
    }

    #[test]
    fn seen_gives_a_lost_id_up_instead_of_growing_forever() {
        let mut seen = Seen::default();
        // Batch 1 is lost for good; its successors keep arriving.
        let last = MAX_AHEAD as u64 + 2;
        assert!((2..=last).all(|b| seen.admit(b)));
        assert_eq!((seen.floor, seen.above.len()), (last, 0));
        assert!(!seen.admit(1), "given up: were it a copy, it would count twice");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever the transport does to the order and multiplicity of
        /// several senders' batches, each is admitted exactly once: on
        /// its first delivery.
        #[test]
        fn every_delivered_batch_is_admitted_exactly_once(
            deliveries in prop::collection::vec((0u32..4, 1u64..40), 1..300),
        ) {
            let mut sink: Reduction<(), Sum> = Reduction::default();
            let mut first = std::collections::HashSet::new();
            for (src, batch) in deliveries {
                let stamped = Value::from_pairs([
                    ("src", Value::from(src)),
                    ("batch", Value::from(batch as i64)),
                ]);
                prop_assert_eq!(sink.admit(&stamped), first.insert((src, batch)));
            }
        }
    }

    /// What `outs` sent to rank 0, and the delays of the timers it set.
    fn sent_and_timers(outs: &[Output]) -> (Vec<Value>, Vec<u64>) {
        let sent = outs
            .iter()
            .filter(|o| matches!(o, Output::ToBroker { to: Rank(0), .. }))
            .filter_map(Output::message)
            .map(|m| m.payload.value().clone())
            .collect();
        let timers = outs
            .iter()
            .filter_map(|o| match o {
                Output::SetTimer { delay_ns, .. } => Some(*delay_ns),
                _ => None,
            })
            .collect();
        (sent, timers)
    }

    fn encode(key: &str, sum: Sum) -> Value {
        Value::from_pairs([("key", Value::from(key)), ("sum", Value::from(sum.0 as i64))])
    }

    #[test]
    fn flush_merges_stamps_and_takes_a_batch_id_only_when_it_sends() {
        let (_, outs) = with_ctx(2, 3, |ctx| {
            let mut up: Reduction<&str, Sum> = Reduction::default();
            up.contribute("b", Sum(1));
            up.contribute("b", Sum(2));
            up.contribute("a", Sum(5));
            // b alone, once.
            up.flush(ctx, &topic(), &"b", encode);
            up.flush(ctx, &topic(), &"b", encode);
            up.flush(ctx, &topic(), &"none", encode);
            up.contribute("c", Sum(7));
            up.flush_all(ctx, &topic(), |_, _| true, encode);
            assert!(up.drain(|_, _| true).is_empty());
        });
        let (sent, _) = sent_and_timers(&outs);
        let read = |v: &Value, k: &str| v.get(k).and_then(Value::as_uint).unwrap();
        let rows: Vec<_> = sent
            .iter()
            .map(|v| (v.get("key").and_then(Value::as_str).unwrap(), read(v, "sum")))
            .collect();
        assert_eq!(rows, [("b", 3), ("a", 5), ("c", 7)], "merged; then key order");
        assert!(sent.iter().all(|v| read(v, "src") == 2));
        let batches: Vec<_> = sent.iter().map(|v| read(v, "batch")).collect();
        assert_eq!(batches, [1, 2, 3], "the two mute flushes took no id: no gap");
        // The parent merges each once, whatever arrives again.
        let mut parent: Reduction<&str, Sum> = Reduction::default();
        let admitted = sent.iter().chain(&sent).filter(|v| parent.admit(v)).count();
        assert_eq!(admitted, 3);
    }

    /// Client `client`'s entry into collective `name` of `nprocs`.
    fn entry(name: &str, client: u32, nprocs: i64) -> Message {
        let payload =
            Value::from_pairs([("name", Value::from(name)), ("nprocs", Value::from(nprocs))]);
        let id = MsgId { origin: Rank(9), seq: client.into() };
        let mut msg = Message::request(BarrierMethod::Enter.topic(), id, Rank(9), payload);
        msg.header.hops.push(Rank::client_hop(client));
        msg
    }

    fn spell(sum: Sum, batch: &mut Value) {
        batch.insert("sum", Value::from(sum.0 as i64));
    }

    #[test]
    fn off_the_root_each_waiting_name_arms_one_window_that_flushes_it_once() {
        let (_, outs) = with_ctx(2, 3, |ctx| {
            let mut up: Collective<Sum> = Collective::default();
            up.enter(ctx, entry("b", 1, 8), |_| Sum(1));
            up.enter(ctx, entry("b", 2, 8), |_| Sum(2));
            up.enter(ctx, entry("a", 1, 8), |_| Sum(5));
            // Window 1 is b's: it flushes b alone, once.
            up.on_window(ctx, 1, &topic(), spell);
            up.on_window(ctx, 1, &topic(), spell);
            up.enter(ctx, entry("b", 3, 8), |_| Sum(7));
            up.on_window(ctx, 3, &topic(), spell);
            up.on_window(ctx, 2, &topic(), spell);
        });
        let (sent, timers) = sent_and_timers(&outs);
        assert_eq!(timers, [WINDOW_NS; 3], "one window per name that had nothing waiting");
        let read = |v: &Value, k: &str| v.get(k).and_then(Value::as_uint).unwrap();
        let name = |v: &Value| v.get("name").and_then(Value::as_str).unwrap().to_owned();
        let rows: Vec<_> =
            sent.iter().map(|v| (name(v), read(v, "count"), read(v, "sum"))).collect();
        assert_eq!(rows, [("b".into(), 2, 3), ("b".into(), 1, 7), ("a".into(), 1, 5)]);
        assert!(sent.iter().all(|v| read(v, "nprocs") == 8));
    }

    #[test]
    fn the_root_gathers_a_total_and_arms_no_window() {
        let (total, outs) = with_ctx(0, 3, |ctx| {
            let mut up: Collective<Sum> = Collective::default();
            assert!(up.enter(ctx, entry("b", 1, 2), |_| Sum(1)).1.is_none());
            up.on_window(ctx, 1, &topic(), spell);
            let done = up.enter(ctx, entry("b", 2, 2), |_| Sum(2)).1.expect("2 of 2");
            (done.name, done.part.0, done.waiters.len(), done.failed)
        });
        assert_eq!(total, ("b".to_owned(), 3, 2, None));
        assert_eq!(sent_and_timers(&outs), (vec![], vec![]));
    }

    /// Child `src`'s first batch for collective `name`: `count` entries
    /// of `nprocs`, marked when `disagree`.
    fn batch(src: u32, name: &str, nprocs: i64, count: i64, disagree: bool) -> Message {
        let mut payload = Value::from_pairs([
            ("name", Value::from(name)),
            ("nprocs", Value::from(nprocs)),
            ("count", Value::from(count)),
            ("src", Value::from(src)),
            ("batch", Value::from(1i64)),
        ]);
        if disagree {
            payload.insert(DISAGREE, Value::Bool(true));
        }
        let id = MsgId { origin: Rank(src), seq: 1 };
        Message::request(BarrierMethod::Up.topic(), id, Rank(src), payload)
    }

    #[test]
    fn entries_that_disagree_on_nprocs_are_marked_and_the_mark_climbs() {
        let (_, outs) = with_ctx(1, 7, |ctx| {
            let mut up: Collective<()> = Collective::default();
            // Agreeing tallies flush unmarked.
            up.enter(ctx, entry("a", 1, 4), |_| ());
            up.arrive(ctx, batch(3, "a", 4, 1, false), true, |_| true, |_| ());
            up.on_window(ctx, 1, &topic(), |(), _| {});
            // Two children that disagree, and a marked batch alone.
            up.arrive(ctx, batch(4, "b", 2, 1, false), true, |_| true, |_| ());
            up.arrive(ctx, batch(5, "b", 3, 1, false), true, |_| true, |_| ());
            up.on_window(ctx, 2, &topic(), |(), _| {});
            up.arrive(ctx, batch(6, "c", 5, 2, true), true, |_| true, |_| ());
            up.on_window(ctx, 3, &topic(), |(), _| {});
        });
        let (sent, _) = sent_and_timers(&outs);
        let marks: Vec<_> = sent
            .iter()
            .map(|v| {
                let name = v.get("name").and_then(Value::as_str).unwrap().to_owned();
                (name, v.get(DISAGREE).cloned())
            })
            .collect();
        let marked = Some(Value::Bool(true));
        assert_eq!(marks, [("a".into(), None), ("b".into(), marked.clone()), ("c".into(), marked)]);
    }

    #[test]
    fn the_root_fails_a_marked_collective_before_it_counts_to_either_nprocs() {
        let (done, _) = with_ctx(0, 7, |ctx| {
            let mut up: Collective<()> = Collective::default();
            assert!(up.enter(ctx, entry("m", 1, 3), |_| ()).1.is_none());
            let done = up.arrive(ctx, batch(1, "m", 3, 1, true), true, |_| true, |_| ()).1;
            let done = done.expect("a marked tally is drained at once");
            (done.name, done.waiters.len(), done.failed)
        });
        assert_eq!(done, ("m".to_owned(), 1, Some(errnum::EINVAL)));
    }

    #[test]
    fn drain_takes_what_is_ready_and_leaves_the_rest() {
        let mut totals: Reduction<u64, Sum> = Reduction::default();
        for (key, n) in [(1, 2), (2, 9), (3, 4), (2, 1)] {
            totals.contribute(key, Sum(n));
        }
        let done: Vec<_> =
            totals.drain(|_, s| s.0 >= 4).into_iter().map(|(k, s)| (k, s.0)).collect();
        assert_eq!(done, [(2, 10), (3, 4)]);
        totals.contribute(1, Sum(2));
        assert_eq!(totals.drain(|k, _| *k == 1)[0].1 .0, 4, "key 1 still waited");
    }
}
