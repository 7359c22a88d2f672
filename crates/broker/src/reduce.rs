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
//!
//! A batch is one-way: one lost for good — flushed to a broker that is
//! blacked out, say — would leave the root short forever. So the root
//! watches every collective it holds short of its count, and once that
//! count has not moved for [`RECOUNT_AFTER`] heartbeats it publishes an
//! ask, `{name, round}` on the caller's topic. Every broker with entries
//! in it answers with all of them (its roster keeps a copy of what they
//! carry) and its rank; the brokers on the way pass the answer on,
//! unmerged, to the root. The root keeps each broker's latest answer of
//! this collective's rounds, and the answers plus its own entries may
//! complete the collective as the tree's tally would: an answer stands
//! for everything its broker counted, so a lost, repeated or late one
//! never counts twice. A tree batch a recount no longer needed is
//! absorbed when it arrives instead of opening the name again.

use crate::{requester_of, Handled, ModuleCtx, Requester};
use flux_value::{Map, Value};
use flux_wire::{errnum, IdMap, Message, Payload, Topic};
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// The aggregation window of the collectives (`barrier.enter`,
/// `kvs.fence`): contributions arriving within it leave as one message.
const WINDOW_NS: u64 = 20_000;

/// Batches a sender may run ahead of an id that never arrives — a frame
/// lost for good, or the ids a child spent on the parent it had before
/// the tree healed around a dead broker — before that id is given up,
/// which bounds [`Seen::above`].
const MAX_AHEAD: usize = 1024;

/// Heartbeats the root lets a collective's count stand still before it
/// asks every broker to count its entries again.
const RECOUNT_AFTER: u32 = 2;

/// Each further ask waits twice as long as the one before, up to
/// `RECOUNT_AFTER << MAX_BACKOFF` heartbeats: a collective that is
/// merely slow costs little.
const MAX_BACKOFF: u32 = 5;

/// Collectives a recount completed that the root remembers, to absorb
/// the tree batches still owed to them.
const SETTLED_KEPT: usize = 64;

/// The field that marks a batch as a broker's answer to a recount, the
/// round it answers.
const ROUND: &str = "round";

/// The field of a parked roster's report: the newest event its broker
/// had delivered before the roster's first entry.
const SINCE: &str = "since";

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
    /// as an object of the fields `encode` returns plus the stamp. The
    /// fields' size hint sizes the object.
    pub fn flush<F: IntoIterator<Item = (&'static str, Value)>>(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        topic: &Topic,
        key: &K,
        encode: impl FnOnce(K, P) -> F,
    ) {
        if let Some((key, part)) = self.waiting.remove_entry(key) {
            self.send(ctx, topic, encode(key, part));
        }
    }

    /// [`Reduction::flush`] for every key `ready` accepts, in key order.
    pub fn flush_all<F: IntoIterator<Item = (&'static str, Value)>>(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        topic: &Topic,
        ready: impl FnMut(&K, &P) -> bool,
        mut encode: impl FnMut(K, P) -> F,
    ) {
        for (key, part) in self.drain(ready) {
            self.send(ctx, topic, encode(key, part));
        }
    }

    /// Builds the stamped object, allocated once for the fields and the
    /// stamp, and sends it.
    fn send<F>(&mut self, ctx: &mut ModuleCtx<'_>, topic: &Topic, fields: F)
    where
        F: IntoIterator<Item = (&'static str, Value)>,
    {
        self.next_batch += 1;
        let fields = fields.into_iter();
        let mut stamped = Map::with_capacity(fields.size_hint().0 + 2);
        let batch = Value::from(self.next_batch as i64);
        let stamp = [("src", Value::from(ctx.rank().0)), ("batch", batch)];
        stamped.extend(fields.chain(stamp).map(|(k, v)| (k.to_owned(), v)));
        // The root has no upstream and never flushes.
        ctx.notify_upstream(topic.clone(), Value::Object(stamped));
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
struct Roster<P> {
    nprocs: u64,
    entered: HashSet<Requester>,
    waiters: Vec<Message>,
    /// What the entries carry, merged: a copy, for a recount.
    kept: P,
    /// Heartbeats since an entry arrived or the roster was last reported.
    idle: u32,
    /// The newest event delivered here before the first entry: an end
    /// announced after it is this roster's to heed.
    since: u64,
}

/// The root's watch over one collective still short of its count.
#[derive(Default)]
struct Watch<P> {
    /// Entries counted at the last heartbeat, by the tree's tally and
    /// by the answers together.
    seen: u64,
    /// Heartbeats since `seen` last moved or the last ask.
    idle: u32,
    /// Asks published so far.
    asks: u32,
    /// The first round asked for this collective; 0 before any. An
    /// answer to an older round is of an earlier collective of the name.
    first: u64,
    /// Each broker's latest answer, by rank: all its entries.
    answers: BTreeMap<u32, Tally<P>>,
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
    rosters: HashMap<String, Roster<P>>,
    /// Armed window timers by token, counted from 1: a module's token 0
    /// stays free for a timer of its own.
    windows: IdMap<u64, String>,
    next_window: u64,
    /// At the root: a watch per collective short of its count.
    watches: BTreeMap<String, Watch<P>>,
    /// At the root: the last recount round asked, session-wide.
    round: u64,
    /// At the root: collectives a recount completed, each with the
    /// entries the tree's batches still owe it; oldest first.
    settled: VecDeque<(String, u64)>,
    /// At the root: the event that announced each collective's end,
    /// by name, oldest first; published again for a broker still parked.
    announced: VecDeque<(String, Message)>,
}

/// The `name` and `nprocs` of an entry or a batch; `nprocs` 0 is never
/// met.
fn named(v: &Value) -> Option<(&str, u64)> {
    Some((v.get("name")?.as_str()?, v.get("nprocs")?.as_uint().filter(|&n| n > 0)?))
}

impl<P: Partial + Clone + Default> Collective<P> {
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
        roster.idle = 0;
        if roster.entered.len() == 1 {
            roster.since = ctx.last_event_seq();
        }
        let (waiter, parked) = ctx.park(msg);
        roster.waiters.push(waiter);
        let part = part(requester);
        roster.kept.merge(part.clone());
        let tally = Tally { nprocs, count: 1, disagree: false, part };
        (parked, self.gather(ctx, name, tally))
    }

    /// A child's one-way batch, with its mark if it has one, or a
    /// broker's answer to a recount. It is dropped unless its `name`,
    /// `nprocs` (not 0) and `count` read and `sound` accepts the rest,
    /// and, with `dedup`, when it copies a batch merged before: a frame
    /// the transport delivers twice counts once. `take` moves the part
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
        if msg.payload.get(ROUND).is_some() {
            return self.answer(ctx, msg, sound, take);
        }
        let handled = ctx.one_way(&msg);
        let batch = &msg.payload;
        let count = batch.get("count").and_then(Value::as_uint);
        let (Some((name, nprocs)), Some(count)) = (named(batch), count) else {
            return (handled, None);
        };
        if !sound(batch) || (dedup && !self.tallies.admit(batch)) {
            return (handled, None);
        }
        if ctx.is_root() && self.owed(name, count) {
            return (handled, None);
        }
        let name = name.to_owned();
        let disagree = batch.get(DISAGREE).and_then(Value::as_bool) == Some(true);
        let tally = Tally { nprocs, count, disagree, part: take(msg.payload) };
        (handled, self.gather(ctx, name, tally))
    }

    /// Off the root, the first tally under `name` arms a window; the root
    /// arms none, and drains a total once it is complete or marked, or
    /// once a recount under way is.
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
        self.tallies.contribute(name.clone(), t);
        // At most one is ready: whatever completed another drained it.
        match self.tallies.drain(|_, t| t.disagree || t.count >= t.nprocs).pop() {
            Some((name, total)) => {
                self.watches.remove(&name);
                Some(self.done(name, total))
            }
            None => self.recounted(&name),
        }
    }

    /// At the root: the collective `name` ends with `total`.
    fn done(&mut self, name: String, total: Tally<P>) -> Done<P> {
        let waiters = self.release(&name);
        let failed = total.disagree.then_some(errnum::EINVAL);
        Done { name, part: total.part, waiters, failed }
    }

    /// On each heartbeat, at the root: publishes on `ask` a recount,
    /// `{name, round}`, of each collective whose count has stood still
    /// for [`RECOUNT_AFTER`] heartbeats, and asks again, backing off, as
    /// long as it does. Off the root: reports each roster parked that long one hop
    /// up on `up`, as `{name, nprocs, count, round: 0, src, since}`, so a
    /// root that announced the collective's end after event `since`
    /// announces it again.
    pub fn on_heartbeat(&mut self, ctx: &mut ModuleCtx<'_>, ask: &Topic, up: &Topic) {
        if !ctx.is_root() {
            // Name order: the reports leave in one order every run.
            let mut parked: Vec<_> = (self.rosters.iter_mut())
                .filter(|(_, r)| !r.entered.is_empty())
                .filter_map(|(name, r)| {
                    r.idle += 1;
                    (r.idle >= RECOUNT_AFTER).then(|| {
                        r.idle = 0;
                        (name.clone(), r.nprocs, r.entered.len(), r.since)
                    })
                })
                .collect();
            parked.sort_unstable();
            for (name, nprocs, count, since) in parked {
                let report = [
                    ("name", Value::from(name)),
                    ("nprocs", Value::from(nprocs as i64)),
                    ("count", Value::from(count as i64)),
                    (ROUND, Value::from(0i64)),
                    ("src", Value::from(ctx.rank().0)),
                    (SINCE, Value::from(since as i64)),
                ];
                ctx.notify_upstream(up.clone(), Value::from_pairs(report));
            }
            return;
        }
        let Collective { tallies, watches, round, .. } = self;
        for (name, tally) in &tallies.waiting {
            let watch = match watches.get_mut(name) {
                Some(watch) => watch,
                None => watches.entry(name.clone()).or_default(),
            };
            let seen = tally.count + watch.answers.values().map(|a| a.count).sum::<u64>();
            if seen != watch.seen {
                (watch.seen, watch.idle) = (seen, 0);
                continue;
            }
            watch.idle += 1;
            if watch.idle < RECOUNT_AFTER << watch.asks.min(MAX_BACKOFF) {
                continue;
            }
            (watch.idle, watch.asks) = (0, watch.asks + 1);
            *round += 1;
            if watch.first == 0 {
                watch.first = *round;
            }
            let pairs = [("name", Value::from(name.as_str())), (ROUND, Value::from(*round as i64))];
            ctx.publish(ask.clone(), Value::from_pairs(pairs));
        }
    }

    /// The root's ask to recount (`{name, round}`): off the root, a
    /// broker with entries in `name` sends all of them one hop up on
    /// `topic`, as `{name, nprocs, count, round, src}` and the fields
    /// `spell` returns for what they carry. The brokers on the way pass
    /// the answer on to the root unmerged.
    pub fn on_ask<F: IntoIterator<Item = (&'static str, Value)>>(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        ask: &Value,
        topic: &Topic,
        spell: impl FnOnce(P) -> F,
    ) {
        let name = ask.get("name").and_then(Value::as_str);
        let (Some(name), Some(round)) = (name, ask.get(ROUND).and_then(Value::as_uint)) else {
            return;
        };
        let Some(roster) = self.rosters.get(name).filter(|r| !r.entered.is_empty()) else {
            return;
        };
        if ctx.is_root() {
            return;
        }
        let counted = [
            ("name", Value::from(name)),
            ("nprocs", Value::from(roster.nprocs as i64)),
            ("count", Value::from(roster.entered.len() as i64)),
            (ROUND, Value::from(round as i64)),
            ("src", Value::from(ctx.rank().0)),
        ];
        let fields = counted.into_iter().chain(spell(roster.kept.clone()));
        let answer: Map = fields.map(|(k, v)| (k.to_owned(), v)).collect();
        ctx.notify_upstream(topic.clone(), Value::Object(answer));
    }

    /// At the root: the delivered `event` announced the end of the
    /// collective `name`. It is kept, the last [`SETTLED_KEPT`] of
    /// them, to be published again should a broker report a roster of
    /// that name parked since before it: the broker missed it.
    pub fn announced(&mut self, ctx: &ModuleCtx<'_>, name: &str, event: &Message) {
        if !ctx.is_root() {
            return;
        }
        self.announced.retain(|(n, _)| n != name);
        self.announced.push_back((name.to_owned(), event.clone()));
        if self.announced.len() > SETTLED_KEPT {
            self.announced.pop_front();
        }
    }

    /// A broker's answer to a recount, or its report of a parked roster
    /// (round 0): passed on off the root. At the root an answer replaces
    /// that broker's earlier one if it counts more, and only while a
    /// recount of the name is under way and the round is one of its own;
    /// it may complete the collective. A report of a collective whose
    /// end was announced has the announcement published again.
    fn answer(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        msg: Message,
        sound: impl FnOnce(&Value) -> bool,
        take: impl FnOnce(Payload) -> P,
    ) -> (Handled, Option<Done<P>>) {
        if !ctx.is_root() {
            return (ctx.forward_upstream(msg), None);
        }
        let handled = ctx.one_way(&msg);
        let a = &msg.payload;
        let uint = |field: &str| a.get(field).and_then(Value::as_uint);
        let (Some((name, nprocs)), Some(count), Some(round), Some(src)) =
            (named(a), uint("count"), uint(ROUND), uint("src"))
        else {
            return (handled, None);
        };
        if round == 0 {
            let since = uint(SINCE).unwrap_or(u64::MAX);
            let missed = self.announced.iter().find(|(n, _)| n == name);
            if let Some((_, event)) = missed.filter(|(_, e)| e.header.id.seq > since) {
                ctx.publish(event.header.topic.clone(), event.payload.clone());
            }
            return (handled, None);
        }
        let Some(watch) = self.watches.get(name).filter(|w| w.first > 0 && round >= w.first)
        else {
            return (handled, None);
        };
        let src = src as u32;
        if count == 0 || watch.answers.get(&src).is_some_and(|t| t.count >= count) || !sound(a) {
            return (handled, None);
        }
        let name = name.to_owned();
        let tally = Tally { nprocs, count, disagree: false, part: take(msg.payload) };
        if let Some(watch) = self.watches.get_mut(&name) {
            watch.answers.insert(src, tally);
        }
        (handled, self.recounted(&name))
    }

    /// At the root: `name` ended by its recount, if the answers and the
    /// root's own entries together complete it or disagree on `nprocs`.
    /// The tree's tally is dropped and what it still lacked is owed.
    fn recounted(&mut self, name: &str) -> Option<Done<P>> {
        let watch = self.watches.get(name).filter(|w| w.first > 0)?;
        let own = self.rosters.get(name).filter(|r| !r.entered.is_empty());
        let mut counts = (watch.answers.values().map(|a| (a.nprocs, a.count)))
            .chain(own.map(|r| (r.nprocs, r.entered.len() as u64)));
        let (nprocs, mut count) = counts.next()?;
        let mut disagree = false;
        for (n, c) in counts {
            disagree |= n != nprocs;
            count += c;
        }
        if !disagree && count < nprocs {
            return None;
        }
        let watch = self.watches.remove(name)?;
        let tree = self.tallies.waiting.remove(name).map_or(0, |t| t.count);
        if count > tree {
            self.settled.push_back((name.to_owned(), count - tree));
            if self.settled.len() > SETTLED_KEPT {
                self.settled.pop_front();
            }
        }
        let own = self.rosters.get_mut(name).filter(|r| !r.entered.is_empty()).map(|r| Tally {
            nprocs: r.nprocs,
            count: r.entered.len() as u64,
            disagree: false,
            part: std::mem::take(&mut r.kept),
        });
        let mut tallies = own.into_iter().chain(watch.answers.into_values());
        let mut total = tallies.next()?;
        tallies.for_each(|t| total.merge(t));
        Some(self.done(name.to_owned(), total))
    }

    /// At the root: true if a tree batch of `count` entries of `name` is
    /// owed to a collective its recount completed; it is absorbed.
    fn owed(&mut self, name: &str, count: u64) -> bool {
        let Some(at) = self.settled.iter().position(|(n, _)| n == name) else { return false };
        let owed = &mut self.settled[at].1;
        *owed = owed.saturating_sub(count);
        if *owed == 0 {
            self.settled.remove(at);
        }
        true
    }

    /// A timer fired: if it is one of this collective's windows, sends
    /// what gathered under its name one hop up on `topic`, as `{name,
    /// nprocs, count}`, the mark if it is set, and the fields `spell`
    /// returns for the part.
    pub fn on_window<F: IntoIterator<Item = (&'static str, Value)>>(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        token: u64,
        topic: &Topic,
        spell: impl FnOnce(P) -> F,
    ) {
        let Some(name) = self.windows.remove(&token) else { return };
        self.tallies.flush(ctx, topic, &name, |name, tally| {
            let counted = [
                ("name", Value::from(name)),
                ("nprocs", Value::from(tally.nprocs as i64)),
                ("count", Value::from(tally.count as i64)),
            ];
            let mark = tally.disagree.then_some((DISAGREE, Value::Bool(true)));
            counted.into_iter().chain(mark).chain(spell(tally.part))
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

    #[derive(Default, Clone)]
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

    fn encode(key: &str, sum: Sum) -> [(&'static str, Value); 2] {
        [("key", Value::from(key)), ("sum", Value::from(sum.0 as i64))]
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

    fn spell(sum: Sum) -> [(&'static str, Value); 1] {
        [("sum", Value::from(sum.0 as i64))]
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
            up.on_window(ctx, 1, &topic(), |()| []);
            // Two children that disagree, and a marked batch alone.
            up.arrive(ctx, batch(4, "b", 2, 1, false), true, |_| true, |_| ());
            up.arrive(ctx, batch(5, "b", 3, 1, false), true, |_| true, |_| ());
            up.on_window(ctx, 2, &topic(), |()| []);
            up.arrive(ctx, batch(6, "c", 5, 2, true), true, |_| true, |_| ());
            up.on_window(ctx, 3, &topic(), |()| []);
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

    fn ask() -> Topic {
        Topic::from_static("probe.recount")
    }

    /// Broker `src`'s answer to round `round` of a recount of `name`
    /// (round 0: its report of a parked roster): `count` entries of
    /// `nprocs` carrying `sum`.
    fn answer(src: u32, name: &str, nprocs: i64, count: i64, round: i64, sum: i64) -> Message {
        let payload = Value::from_pairs([
            ("name", Value::from(name)),
            ("nprocs", Value::from(nprocs)),
            ("count", Value::from(count)),
            (ROUND, Value::from(round)),
            ("src", Value::from(src)),
            ("sum", Value::from(sum)),
        ]);
        let id = MsgId { origin: Rank(src), seq: 7 };
        Message::request(topic(), id, Rank(src), payload)
    }

    fn take_sum(p: Payload) -> Sum {
        Sum(p.get("sum").and_then(Value::as_uint).unwrap_or(0))
    }

    /// The payloads `outs` sent on `topic` to rank `to`.
    fn sent_on(outs: &[Output], to: u32, topic: &Topic) -> Vec<Value> {
        outs.iter()
            .filter(|o| matches!(o, Output::ToBroker { to: t, .. } if *t == Rank(to)))
            .filter_map(Output::message)
            .filter(|m| m.header.topic == *topic)
            .map(|m| m.payload.value().clone())
            .collect()
    }

    #[test]
    fn a_count_that_stands_still_is_recounted_and_each_entry_counts_once() {
        let (done, outs) = with_ctx(0, 7, |ctx| {
            let mut up: Collective<Sum> = Collective::default();
            let hb = |up: &mut Collective<Sum>, ctx: &mut ModuleCtx<'_>| {
                (0..=RECOUNT_AFTER).for_each(|_| up.on_heartbeat(ctx, &ask(), &topic()));
            };
            // "e": broker 1's entry arrives, broker 2's batch of two is
            // lost; the root asks (round 1) and the answers complete it.
            let arrive = |up: &mut Collective<Sum>, ctx: &mut ModuleCtx<'_>, m| {
                up.arrive(ctx, m, true, |_| true, take_sum).1
            };
            assert!(arrive(&mut up, ctx, batch(1, "e", 3, 1, false)).is_none());
            hb(&mut up, ctx);
            assert!(arrive(&mut up, ctx, answer(1, "e", 3, 1, 1, 10)).is_none());
            assert!(arrive(&mut up, ctx, answer(1, "e", 3, 1, 1, 10)).is_none(), "a copy");
            let e = arrive(&mut up, ctx, answer(2, "e", 3, 2, 1, 20)).expect("3 of 3");
            // The lost batch turns up late: owed, absorbed, no name opens.
            let mut late = batch(2, "e", 3, 2, false);
            late.payload = Value::from_pairs([
                ("name", Value::from("e")),
                ("nprocs", Value::from(3i64)),
                ("count", Value::from(2i64)),
                ("src", Value::from(2u32)),
                ("batch", Value::from(2i64)),
            ])
            .into();
            assert!(arrive(&mut up, ctx, late).is_none());
            hb(&mut up, ctx);
            // "f" stands still too: round 2. An answer to round 1 is of an
            // earlier collective of the name, and is not counted.
            assert!(arrive(&mut up, ctx, batch(3, "f", 2, 1, false)).is_none());
            hb(&mut up, ctx);
            assert!(arrive(&mut up, ctx, answer(4, "f", 2, 1, 1, 5)).is_none(), "stale round");
            assert!(arrive(&mut up, ctx, answer(4, "f", 2, 1, 0, 5)).is_none(), "a report");
            assert!(arrive(&mut up, ctx, answer(3, "f", 2, 1, 2, 7)).is_none(), "1 of 2");
            let f = arrive(&mut up, ctx, answer(4, "f", 2, 1, 2, 8)).expect("2 of 2");
            ((e.name, e.part.0, e.failed), (f.name, f.part.0))
        });
        assert_eq!(done, (("e".to_owned(), 30, None), ("f".to_owned(), 15)));
        let rounds: Vec<_> = sent_on(&outs, 1, &ask())
            .iter()
            .map(|v| {
                let name = v.get("name").and_then(Value::as_str).unwrap().to_owned();
                (name, v.get(ROUND).and_then(Value::as_uint).unwrap())
            })
            .collect();
        assert_eq!(rounds, [("e".to_owned(), 1), ("f".to_owned(), 2)], "one ask each");
    }

    #[test]
    fn off_the_root_a_broker_answers_with_all_its_entries_and_reports_them_parked() {
        let (_, outs) = with_ctx(2, 7, |ctx| {
            let mut up: Collective<Sum> = Collective::default();
            up.enter(ctx, entry("f", 1, 5), |_| Sum(1));
            up.enter(ctx, entry("f", 2, 5), |_| Sum(2));
            up.on_window(ctx, 1, &topic(), spell);
            for name in ["f", "g"] {
                let asked = Value::from_pairs([("name", Value::from(name)), (ROUND, 4i64.into())]);
                up.on_ask(ctx, &asked, &topic(), spell);
            }
            // A child's answer passes on to the root as it came.
            up.arrive(ctx, answer(5, "f", 5, 1, 4, 9), true, |_| true, take_sum);
            (0..RECOUNT_AFTER).for_each(|_| up.on_heartbeat(ctx, &ask(), &topic()));
        });
        let read = |v: &Value, k: &str| v.get(k).and_then(Value::as_uint);
        let rows: Vec<_> = sent_on(&outs, 0, &topic())
            .iter()
            .map(|v| (read(v, "src"), read(v, "count"), read(v, ROUND), read(v, "sum")))
            .collect();
        assert_eq!(
            rows,
            [
                (Some(2), Some(2), None, Some(3)),    // the window's flush
                (Some(2), Some(2), Some(4), Some(3)), // the answer: both entries
                (Some(5), Some(1), Some(4), Some(9)), // the child's, unmerged
                (Some(2), Some(2), Some(0), None),    // parked: reported
            ]
        );
    }

    #[test]
    fn a_report_of_a_parked_roster_has_the_root_announce_the_end_again() {
        let (_, outs) = with_ctx(0, 7, |ctx| {
            let mut up: Collective<Sum> = Collective::default();
            let id = MsgId { origin: Rank(0), seq: 3 };
            let exit = Value::from_pairs([("name", Value::from("f"))]);
            let event = Message::event(Topic::from_static("probe.exit"), id, Rank(0), exit);
            up.announced(ctx, "f", &event);
            for (name, since) in [("f", 2), ("g", 2), ("f", 3)] {
                let mut report = answer(4, name, 2, 1, 0, 0);
                let mut fields = report.payload.value().clone();
                fields.insert(SINCE, Value::from(since));
                report.payload = fields.into();
                up.arrive(ctx, report, true, |_| true, take_sum);
            }
        });
        // Only the roster parked since before event 3 missed it.
        let again = sent_on(&outs, 1, &Topic::from_static("probe.exit"));
        assert_eq!(again, [Value::from_pairs([("name", Value::from("f"))])]);
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
