//! The table of this crate's own RPCs in flight.
//!
//! A request this module sends — a part of a commit or fence on its way
//! to a master, a `kvs.load` faulting an object in — can be refused by
//! the handler that gets it, bounce off a blacked-out rank, or vanish
//! with a dropped frame. One table keeps the three promises that make
//! each of those a delay or an error, never a hang. [`InFlight::send`]
//! and [`InFlight::sweep`] are this crate's only callers of
//! `ModuleCtx::request`, and neither sends a request the table has not
//! filed: `send` files it in the call that sends it, before any answer
//! can arrive, and `sweep` sends again only what is already filed.
//!
//! 1. **Registered as sent.** [`InFlight::send`] files the request, its
//!    route and its payload under the owner's tag in the same call that
//!    sends, so every answer can be claimed and every retry rebuilt.
//! 2. **Classified once.** [`InFlight::claim`] sorts an answer by the
//!    proto registry: an error the method *declares* is the handler's
//!    own rejection, which a retry would only repeat
//!    ([`Answer::Refused`]); any other error is the transport's
//!    ([`Answer::Lost`]).
//! 3. **Retried on the heartbeat.** [`InFlight::sweep`] sends again
//!    each request whose answer was lost and each one still unanswered
//!    a whole period after the previous beat saw it in flight; a
//!    request merely in flight is left alone for one more period, so a
//!    healthy one is sent once. A retry is the same request under its
//!    original id, so the handler tells it from a new one (the master
//!    applies a commit part once), and an answer to any copy is claimed.
//!
//! Owners keep only what a tag means; a request they no longer want
//! leaves the table through [`InFlight::retain`].

use flux_broker::ModuleCtx;
use flux_proto::KvsMethod;
use flux_wire::{Message, MsgId, Payload, Rank};
use std::collections::BTreeMap;

/// What became of a request, as its owner must treat it.
pub(crate) enum Answer {
    /// Answered; the payload is the result.
    Ok,
    /// The handler rejected it with a code its method declares: sending
    /// it again would be rejected again.
    Refused(u32),
    /// It, or its answer, was lost on the way (`EHOSTDOWN`, a timeout,
    /// …): the next [`InFlight::sweep`] sends it again.
    Lost,
}

struct Sent<T> {
    tag: T,
    method: KvsMethod,
    /// `Some(rank)`: rank-addressed; `None`: up the tree.
    to: Option<Rank>,
    payload: Payload,
    /// Due at the next heartbeat: its answer was lost, or it was already
    /// in flight at the previous beat.
    due: bool,
}

pub(crate) struct InFlight<T> {
    /// Ordered by request id: the order of the sweep's sends must not
    /// depend on hash order.
    sent: BTreeMap<MsgId, Sent<T>>,
}

impl<T> Default for InFlight<T> {
    fn default() -> Self {
        InFlight { sent: BTreeMap::new() }
    }
}

impl<T: Copy> InFlight<T> {
    /// Sends `method` up the tree (`to` = `None`) or rank-addressed to
    /// `to`, under a fresh id. `Err` upstream at the root, which has no
    /// parent.
    pub(crate) fn send(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        to: Option<Rank>,
        method: KvsMethod,
        payload: Payload,
        tag: T,
    ) -> Result<(), u32> {
        let id = ctx.request(None, to, method.topic(), payload.clone())?;
        self.sent.insert(id, Sent { tag, method, to, payload, due: false });
        Ok(())
    }

    /// Claims `msg` if it answers a request of this table. A lost one
    /// stays filed, due at the next heartbeat.
    pub(crate) fn claim(&mut self, msg: &Message) -> Option<(T, Answer)> {
        let sent = self.sent.get_mut(&msg.header.id)?;
        let (tag, code) = (sent.tag, msg.header.errnum);
        let answer = if !msg.is_error() {
            Answer::Ok
        } else if sent.method.declared_errors().contains(&code) {
            Answer::Refused(code)
        } else {
            sent.due = true;
            return Some((tag, Answer::Lost));
        };
        self.sent.remove(&msg.header.id);
        Some((tag, answer))
    }

    /// The heartbeat: sends every due request again, as itself, and
    /// marks the rest due for the next beat.
    pub(crate) fn sweep(&mut self, ctx: &mut ModuleCtx<'_>) {
        for (id, sent) in &mut self.sent {
            if sent.due {
                // The route was sendable when the request was first
                // sent, and a broker's rank never changes: this cannot
                // be refused.
                let _ = ctx.request(Some(*id), sent.to, sent.method.topic(), sent.payload.clone());
            }
            sent.due = !sent.due;
        }
    }

    /// Keeps only the requests whose tag `keep` accepts; an answer to
    /// one dropped here is no longer claimed.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.sent.retain(|_, sent| keep(&sent.tag));
    }

    /// `(request id, tag)` of everything in flight, in send order.
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> Vec<(MsgId, T)> {
        self.sent.iter().map(|(id, sent)| (*id, sent.tag)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{messages, request};
    use flux_broker::testing::with_ctx;
    use flux_value::Value;
    use flux_wire::errnum;

    /// The answer to the request `id` of `method`: an error with `code`,
    /// or a success for 0.
    fn answer(method: KvsMethod, id: MsgId, code: u32) -> Message {
        let mut req = request(method, Value::object());
        req.header.id = id;
        Message::error_response_to(&req, code)
    }

    #[test]
    fn every_declared_error_is_refused_and_every_transport_error_is_lost() {
        let _ = with_ctx(2, 4, |ctx| {
            let mut table = InFlight::default();
            let mut tag = 0u32;
            let mut round_trip = |ctx: &mut ModuleCtx<'_>, (method, to), code: u32| {
                tag += 1;
                table.send(ctx, to, method, Value::object().into(), tag).expect("has a parent");
                let (id, _) = table.in_flight()[0];
                let claimed = table.claim(&answer(method, id, code)).expect("registered");
                assert_eq!(claimed.0, tag);
                let kept = table.in_flight() == [(id, tag)];
                table.retain(|_| false);
                (claimed.1, kept)
            };
            let up_the_tree = (KvsMethod::Push, None);
            let addressed = |method| (method, Some(Rank(1)));
            for route in [up_the_tree, addressed(KvsMethod::Push), addressed(KvsMethod::Load)] {
                let method: KvsMethod = route.0;
                assert!(!method.declared_errors().is_empty());
                for &code in method.declared_errors() {
                    let (answer, kept) = round_trip(ctx, route, code);
                    assert!(matches!(answer, Answer::Refused(c) if c == code), "{method:?} {code}");
                    assert!(!kept, "a refused request is not retried");
                }
                for code in [errnum::EHOSTDOWN, errnum::ETIMEDOUT, errnum::EIO] {
                    let (answer, kept) = round_trip(ctx, route, code);
                    assert!(matches!(answer, Answer::Lost), "{method:?} {code}");
                    assert!(kept, "a lost request stays filed for the next beat");
                }
            }
        });
    }

    /// The requests of `outs`, as `(topic, id)`.
    fn sends(outs: &[flux_broker::Output]) -> Vec<(String, MsgId)> {
        messages(outs).iter().map(|m| (m.header.topic.as_str().to_owned(), m.header.id)).collect()
    }

    #[test]
    fn a_request_in_flight_for_a_whole_period_is_sent_again_under_its_own_id() {
        let (ids, outs) = with_ctx(2, 4, |ctx| {
            let mut table = InFlight::default();
            let to_root = Some(Rank(0));
            table.send(ctx, None, KvsMethod::Push, Value::object().into(), "push").unwrap();
            table.send(ctx, None, KvsMethod::Load, Value::object().into(), "load").unwrap();
            table.send(ctx, to_root, KvsMethod::Push, Value::object().into(), "part").unwrap();
            let ids: Vec<MsgId> = table.in_flight().into_iter().map(|(id, _)| id).collect();
            table.sweep(ctx);
            table.sweep(ctx);
            assert_eq!(table.in_flight().len(), 3, "nothing leaves the table unanswered");
            let reply = answer(KvsMethod::Load, ids[1], 0);
            assert!(
                matches!(table.claim(&reply), Some(("load", Answer::Ok))),
                "the old id answers"
            );
            ids
        });
        let mut expected: Vec<(String, MsgId)> =
            [KvsMethod::Push, KvsMethod::Load, KvsMethod::Push]
                .iter()
                .zip(&ids)
                .map(|(m, id)| (m.topic_str().to_owned(), *id))
                .collect();
        // First beat: merely in flight. Second beat: all three again, as
        // themselves, in send order.
        expected.extend(expected.clone());
        assert_eq!(sends(&outs), expected);
    }

    #[test]
    fn a_lost_answer_is_sent_again_at_the_next_beat_under_its_own_id() {
        let (id, outs) = with_ctx(2, 4, |ctx| {
            let mut table = InFlight::default();
            table.send(ctx, Some(Rank(0)), KvsMethod::Load, Value::object().into(), ()).unwrap();
            let id = table.in_flight()[0].0;
            let lost = answer(KvsMethod::Load, id, errnum::EHOSTDOWN);
            assert!(matches!(table.claim(&lost), Some(((), Answer::Lost))));
            table.sweep(ctx);
            id
        });
        let load = KvsMethod::Load.topic_str().to_owned();
        assert_eq!(sends(&outs), [(load.clone(), id), (load, id)]);
    }
}
