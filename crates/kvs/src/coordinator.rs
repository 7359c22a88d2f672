//! The commit / fence coordinator.
//!
//! A commit (at the committer's broker) and a completed fence (at the
//! tree root) are the same job: split the write set by shard, apply the
//! part this broker masters, send every other part toward its master,
//! collect the acknowledged roots into a frontier, and answer once it is
//! complete. One [`Join`] table serves both.
//!
//! How a remote part travels is this file's one selection
//! ([`Coordinator::route`]), keyed on the session's shard count; the
//! part is the same `kvs.push` either way. With one shard it climbs the
//! tree, forwarded by every broker on the way like any request no local
//! module serves, and its answer unwinds past them — the paper's
//! design, and on a ring overlay the only route that is not O(ranks)
//! hops. With N shards it goes rank-addressed to its master. Either way
//! the part is in the [`InFlight`] table here, at its one end, until it
//! is acknowledged: a part a master refuses fails the join, a part lost
//! on the way goes out again on the heartbeat under its own id, and the
//! master, at the other end, knows that id from any path
//! ([`Authority::accept_push`]). The brokers in between keep nothing.

use crate::authority::Authority;
use crate::inflight::{Answer, InFlight};
use crate::master::Tuple;
use crate::module::Replica;
use crate::msg::{self, Objects, RootRef};
use crate::shard;
use flux_broker::ModuleCtx;
use flux_hash::ObjectId;
use flux_proto::{Event, KvsMethod};
use flux_wire::{errnum, Message, Payload, Rank};
use std::collections::{BTreeMap, BTreeSet};

/// One part of a join on its way to a master.
struct Part {
    shard: u32,
    /// `Some(master)`: rank-addressed; `None`: up the tree.
    to: Option<Rank>,
    payload: Payload,
}

/// One commit or fence fan-out awaiting its masters' acknowledgements.
#[derive(Default)]
struct Join {
    waiters: Vec<Message>,
    /// The fence this join completes; `None` for a commit.
    fence: Option<String>,
    /// shard → root acknowledged so far.
    frontier: BTreeMap<u32, RootRef>,
    /// Shards whose part is not yet acknowledged.
    outstanding: BTreeSet<u32>,
}

#[derive(Default)]
pub(crate) struct Coordinator {
    joins: BTreeMap<u64, Join>,
    next_join: u64,
    /// Parts in flight, tagged `(join, shard)`.
    parts: InFlight<(u64, u32)>,
}

impl Coordinator {
    /// The one selection (module docs): where a part for `shard` goes.
    fn route(
        shards: u32,
        shard: u32,
        fence: Option<&str>,
        tuples: &[Tuple],
        objects: &Objects,
    ) -> Part {
        let to = shard::sharded(shards).then(|| shard::master_of(shard));
        Part { shard, to, payload: msg::push_payload(shard, fence, tuples, objects).into() }
    }

    /// Coordinates one write set: `waiters` are answered with the cut it
    /// produced. An all-empty set still bumps shard 0, so a no-op commit
    /// or fence advances the version whatever the shard count.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        rep: &mut Replica,
        authority: &mut Authority,
        waiters: Vec<Message>,
        tuples: Vec<Tuple>,
        objects: Objects,
        fence: Option<&str>,
    ) {
        let parts = shard::partition_tuples(tuples, rep.slots.shards());
        let any = parts.iter().any(|p| !p.is_empty());
        // Each part travels with exactly the value objects its tuples
        // name. The shared map is dropped before anything applies, so
        // the local part moves its objects into the cache, not copies.
        let parts: Vec<(u32, Vec<Tuple>, Objects)> = parts
            .into_iter()
            .enumerate()
            .filter(|(s, part)| !part.is_empty() || (!any && *s == 0))
            .map(|(s, part)| {
                let objs = part
                    .iter()
                    .filter_map(|(_, id)| {
                        id.and_then(|id| objects.get(&id).map(|obj| (id, obj.clone())))
                    })
                    .collect();
                (s as u32, part, objs)
            })
            .collect();
        drop(objects);
        let mut join = Join { waiters, fence: fence.map(str::to_owned), ..Join::default() };
        let mut remote = Vec::new();
        for (s, part, objs) in parts {
            if rep.slots.masters(s) {
                join.frontier.insert(s, authority.apply(ctx, rep, &part, objs, fence));
            } else {
                remote.push(Self::route(rep.slots.shards(), s, fence, &part, &objs));
            }
        }
        self.next_join += 1;
        let key = self.next_join;
        join.outstanding = remote.iter().map(|p| p.shard).collect();
        self.joins.insert(key, join);
        for Part { shard, to, payload } in remote {
            if self.parts.send(ctx, to, KvsMethod::Push, payload, (key, shard)).is_err() {
                // No parent: never in a well-formed session, where the
                // root masters a one-shard session's one shard. The
                // committer gets a refusal its method declares.
                return self.fail(ctx, key, errnum::EINVAL);
            }
        }
        self.finish_if_complete(ctx, rep, key);
    }

    /// Claims `msg` if it answers a part; returns whether it did.
    pub(crate) fn handle_response(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        rep: &mut Replica,
        msg: &Message,
    ) -> bool {
        let Some(((key, shard), answer)) = self.parts.claim(msg) else { return false };
        match answer {
            // The master refused the part (wrong master, malformed
            // batch), so the join fails as a whole. Parts already
            // applied stay applied (the client's history treats an
            // errored commit as staged-uncertain).
            Answer::Refused(code) => self.fail(ctx, key, code),
            // E.g. the master is blacked out. The join stays pending —
            // never answered with a missing shard — and the part goes
            // out again on the heartbeat.
            Answer::Lost => {}
            Answer::Ok => {
                let ack = msg::decode_root(&msg.payload);
                if let Ok(root) = ObjectId::from_hex(&ack.root) {
                    // Read-your-writes: adopt the new root before any
                    // waiter can be answered.
                    rep.slots.apply_root(ctx, shard, ack.version, root);
                }
                if let Some(join) = self.joins.get_mut(&key) {
                    join.outstanding.remove(&shard);
                    join.frontier.insert(shard, RootRef { shard, ..ack });
                }
                self.finish_if_complete(ctx, rep, key);
            }
        }
        true
    }

    /// Every part acknowledged: a fence is announced with one
    /// `kvs.setroot` carrying the whole cut (every broker adopts it,
    /// then releases its own waiters), and the local waiters get the cut.
    fn finish_if_complete(&mut self, ctx: &mut ModuleCtx<'_>, rep: &Replica, key: u64) {
        if self.joins.get(&key).is_some_and(|j| !j.outstanding.is_empty()) {
            return;
        }
        let Some(join) = self.joins.remove(&key) else { return };
        let cut: Vec<RootRef> = join.frontier.into_values().collect();
        if let Some(name) = &join.fence {
            ctx.publish(Event::KvsSetroot.topic(), msg::setroot_event(&cut, Some(name)));
        }
        let reply = Payload::from(msg::cut_reply(rep.slots.shards(), &cut));
        for req in &join.waiters {
            ctx.respond(req, reply.clone());
        }
    }

    /// Fails join `key` with `errnum`, and takes its other parts out of
    /// the table: nothing is sent again for a join that no longer waits.
    /// Waiters of a fence parked on other brokers are failed through the
    /// broadcast, mirroring the release path.
    fn fail(&mut self, ctx: &mut ModuleCtx<'_>, key: u64, errnum: u32) {
        let Some(join) = self.joins.remove(&key) else { return };
        self.parts.retain(|&(k, _)| k != key);
        for req in &join.waiters {
            ctx.respond_err(req, errnum);
        }
        if let Some(name) = &join.fence {
            ctx.publish(Event::KvsSetroot.topic(), msg::fence_failed_event(name, errnum));
        }
    }

    /// The heartbeat: parts whose answer was lost, or that were already
    /// in flight at the previous beat, go out again under their own ids.
    pub(crate) fn on_heartbeat(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.parts.sweep(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::KvsObject;
    use crate::shard::key_on_shard;
    use crate::testutil::{messages, request};
    use flux_broker::testing::with_ctx;
    use flux_value::Value;
    use flux_wire::MsgType;

    struct Fixture {
        co: Coordinator,
        auth: Authority,
        rep: Replica,
    }

    fn broker(shards: u32, mine: Option<u32>) -> Fixture {
        let mut rep = Replica::new(shards);
        rep.slots.start(shards, mine);
        Fixture { co: Coordinator::default(), auth: Authority::default(), rep }
    }

    /// One put per key, each with its own value object.
    fn writes(keys: &[String]) -> (Vec<Tuple>, Objects) {
        let mut objects = Objects::new();
        let tuples = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let obj = KvsObject::Val(Value::Int(i as i64));
                let id = obj.id();
                objects.insert(id, obj.encode().into());
                (k.clone(), Some(id))
            })
            .collect();
        (tuples, objects)
    }

    impl Fixture {
        fn start(
            &mut self,
            ctx: &mut ModuleCtx<'_>,
            req: &Message,
            keys: &[String],
            fence: Option<&str>,
        ) {
            let (tuples, objects) = writes(keys);
            self.co.start(
                ctx,
                &mut self.rep,
                &mut self.auth,
                vec![req.clone()],
                tuples,
                objects,
                fence,
            );
        }
    }

    fn ack(to: &Message, version: u64) -> Message {
        let root = KvsObject::Val(Value::Int(version as i64)).id().to_hex();
        Message::response_to(
            to,
            Value::from_pairs([
                ("version", Value::from(version as i64)),
                ("root", Value::from(root)),
            ]),
        )
    }

    #[test]
    fn one_shard_commit_is_one_push_up_the_tree() {
        let req = request(KvsMethod::Commit, Value::object());
        let keys = vec!["a.b".to_owned(), "c".to_owned()];
        let (f, outs) = with_ctx(2, 3, move |ctx| {
            let mut f = broker(1, None);
            f.start(ctx, &req, &keys, None);
            f
        });
        assert_eq!(f.co.joins.len(), 1, "parked until the master answers");
        let sent = messages(&outs);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].header.topic.as_str(), KvsMethod::Push.topic_str());
        assert_eq!(sent[0].header.dst, None, "tree-routed");
        assert_eq!(sent[0].payload.get("shard"), Some(&Value::Int(0)));
        assert_eq!(msg::tuples_from_value(sent[0].payload.get("tuples")).map(|t| t.len()), Some(2));
    }

    #[test]
    fn three_shard_commit_applies_its_own_part_and_addresses_the_rest() {
        let req = request(KvsMethod::Commit, Value::object());
        let keys: Vec<String> = (0..3).map(|s| key_on_shard("co.k", s, 3)).collect();
        let (f, outs) = with_ctx(1, 4, move |ctx| {
            let mut f = broker(3, Some(1));
            f.start(ctx, &req, &keys, None);
            f
        });
        assert_eq!(f.rep.slots.version(1), 1, "the locally mastered part applied inline");
        let pushes: Vec<_> = messages(&outs)
            .into_iter()
            .filter(|m| m.header.topic.as_str() == KvsMethod::Push.topic_str())
            .collect();
        let routed: Vec<_> = pushes
            .iter()
            .map(|m| (m.header.dst.map(|r| r.0), m.payload.get("shard").and_then(Value::as_uint)))
            .collect();
        assert_eq!(routed, vec![(Some(0), Some(0)), (Some(2), Some(2))]);
        for p in &pushes {
            assert_eq!(msg::tuples_from_value(p.payload.get("tuples")).map(|t| t.len()), Some(1));
            assert_eq!(msg::objects_from_value(p.payload.get("objects")).map(|o| o.len()), Some(1));
        }
    }

    #[test]
    fn frontier_assembles_in_shard_order_whatever_the_ack_order() {
        let req = request(KvsMethod::Commit, Value::object());
        let req_id = req.header.id;
        let keys: Vec<String> = (0..3).map(|s| key_on_shard("co.k", s, 3)).collect();
        let (_, outs) = with_ctx(3, 4, move |ctx| {
            let mut f = broker(3, None);
            f.start(ctx, &req, &keys, None);
            let ids: Vec<_> =
                f.co.parts.in_flight().into_iter().map(|(id, (_, s))| (s, id)).collect();
            assert!(ids.is_sorted(), "sent in shard order");
            for (shard, id) in ids.into_iter().rev() {
                let mut push = request(KvsMethod::Push, Value::object());
                push.header.id = id;
                assert!(f.co.handle_response(ctx, &mut f.rep, &ack(&push, u64::from(shard) + 10)));
            }
            assert!(f.co.joins.is_empty());
            assert_eq!(f.rep.slots.version(2), 12, "acknowledged roots are adopted");
        });
        let reply = messages(&outs)
            .into_iter()
            .find(|m| m.header.id == req_id)
            .expect("committer answered");
        let cut = msg::decode_cut(&reply.payload);
        assert_eq!(cut.shards, 3);
        let order: Vec<_> = cut.roots.iter().map(|r| (r.shard, r.version)).collect();
        assert_eq!(order, vec![(0, 10), (1, 11), (2, 12)]);
    }

    #[test]
    fn einval_fails_the_join_and_other_errors_mark_the_part_for_retry() {
        let (refused, retried) = (
            request(KvsMethod::Commit, Value::object()),
            request(KvsMethod::Commit, Value::object()),
        );
        let refused_id = refused.header.id;
        let keys: Vec<String> = (1..3).map(|s| key_on_shard("co.k", s, 3)).collect();
        let (lost, outs) = with_ctx(0, 4, move |ctx| {
            let mut f = broker(3, Some(0));
            let answer = |f: &mut Fixture, ctx: &mut ModuleCtx<'_>, id, code| {
                let mut push = request(KvsMethod::Push, Value::object());
                push.header.id = id;
                let reply = Message::error_response_to(&push, code);
                assert!(f.co.handle_response(ctx, &mut f.rep, &reply));
            };
            let in_flight = |f: &Fixture| -> Vec<_> {
                f.co.parts.in_flight().into_iter().map(|(id, _)| id).collect()
            };
            f.start(ctx, &retried, &keys[..1], None);
            let lost = in_flight(&f)[0];
            answer(&mut f, ctx, lost, errnum::EHOSTDOWN);
            assert_eq!(f.co.joins.len(), 1, "a lost part leaves its join waiting");
            assert_eq!(in_flight(&f), [lost], "and stays in the table");
            f.start(ctx, &refused, &keys, None);
            let parts = in_flight(&f);
            assert_eq!(parts.len(), 3);
            answer(&mut f, ctx, parts[2], errnum::EINVAL);
            assert_eq!(f.co.joins.len(), 1, "a refused part fails its join");
            assert_eq!(in_flight(&f), [lost], "and takes the join's other part out of the table");
            // The lost part goes out again at the next heartbeat, under
            // its own id; merely in flight after that, it waits a full
            // period before it goes out again.
            for _ in 0..3 {
                f.co.on_heartbeat(ctx);
            }
            lost
        });
        let msgs = messages(&outs);
        let sends_of = |id| {
            msgs.iter()
                .filter(|m| m.header.id == id && m.header.msg_type == MsgType::Request)
                .count()
        };
        assert_eq!(sends_of(lost), 3, "sent, re-sent at beats 1 and 3");
        let failed: Vec<_> =
            msgs.iter().filter(|m| m.is_error()).map(|m| (m.header.id, m.header.errnum)).collect();
        assert_eq!(failed, vec![(refused_id, errnum::EINVAL)]);
    }

    /// Not a state a session reaches (the parentless broker is the
    /// root, and the root masters shard 0); built by hand here: the
    /// committer must get a code `kvs.commit` declares, not
    /// `request_upstream`'s "no upstream" placeholder.
    #[test]
    fn a_tree_part_with_no_parent_to_climb_to_fails_the_join_with_a_declared_code() {
        let req = request(KvsMethod::Commit, Value::object());
        let (f, outs) = with_ctx(0, 3, move |ctx| {
            let mut f = broker(1, None);
            f.start(ctx, &req, &["a".to_owned()], None);
            f
        });
        assert!(f.co.joins.is_empty() && f.co.parts.in_flight().is_empty());
        let answers: Vec<_> = messages(&outs).into_iter().map(|m| m.header.errnum).collect();
        assert_eq!(answers, vec![errnum::EINVAL]);
        assert!(KvsMethod::Commit.declared_errors().contains(&answers[0]));
    }
}
