//! The table of this crate's own RPCs in flight.
//!
//! A request this module sends — a part of a commit or fence on its way
//! to a master, a `kvs.load` faulting an object in — can be refused by
//! the handler that gets it, bounce off a blacked-out rank, or vanish
//! with a dropped frame. One table keeps the three promises that make
//! each of those a delay or an error, never a hang; its two senders are
//! this crate's only callers of `request_upstream` and `request_to_rank`:
//!
//! 1. **Registered as sent.** [`InFlight::send_up`] and
//!    [`InFlight::send_to`] file the request id under the owner's tag in
//!    the same call that sends, so every answer can be claimed.
//! 2. **Classified once.** [`InFlight::claim`] sorts an answer by the
//!    proto registry: an error the method *declares* is the handler's
//!    own rejection, which a retry would only repeat
//!    ([`Answer::Refused`]); any other error is the transport's
//!    ([`Answer::Lost`]).
//! 3. **Retried on the heartbeat, within a budget.**
//!    [`InFlight::sweep`] hands back the tags whose answer was lost and
//!    those still unanswered a whole period after the previous beat saw
//!    them in flight; a request merely in flight is left alone for one
//!    more period, so a healthy one is sent once.
//!
//! Owners keep only what a tag means and how to rebuild its payload.

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
    /// …): the tag comes back from the next [`InFlight::sweep`].
    Lost,
}

struct Sent<T> {
    tag: T,
    method: KvsMethod,
    /// Already in flight at the previous heartbeat.
    stale: bool,
}

pub(crate) struct InFlight<T> {
    /// Ordered by request id, which is send order: the sweep's output
    /// must not depend on hash order.
    sent: BTreeMap<MsgId, Sent<T>>,
    /// Tags whose answer was [`Answer::Lost`], in the order it was.
    lost: Vec<T>,
}

impl<T> Default for InFlight<T> {
    fn default() -> Self {
        InFlight { sent: BTreeMap::new(), lost: Vec::new() }
    }
}

impl<T: Copy> InFlight<T> {
    /// Sends `method` one hop up the tree; `Err` at the root, which has
    /// no upstream.
    pub(crate) fn send_up(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        method: KvsMethod,
        payload: Payload,
        tag: T,
    ) -> Result<(), u32> {
        let id = ctx.request_upstream(method.topic(), payload)?;
        self.sent.insert(id, Sent { tag, method, stale: false });
        Ok(())
    }

    /// Sends `method` rank-addressed to `to`.
    pub(crate) fn send_to(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        to: Rank,
        method: KvsMethod,
        payload: Payload,
        tag: T,
    ) {
        let id = ctx.request_to_rank(to, method.topic(), payload);
        self.sent.insert(id, Sent { tag, method, stale: false });
    }

    /// Claims `msg` if it answers a request of this table.
    pub(crate) fn claim(&mut self, msg: &Message) -> Option<(T, Answer)> {
        let Sent { tag, method, .. } = self.sent.remove(&msg.header.id)?;
        let code = msg.header.errnum;
        let answer = if !msg.is_error() {
            Answer::Ok
        } else if method.declared_errors().contains(&code) {
            Answer::Refused(code)
        } else {
            self.lost.push(tag);
            Answer::Lost
        };
        Some((tag, answer))
    }

    /// The heartbeat: the tags to send again, if their owners still want
    /// them. A request swept as stale is forgotten first, so a late
    /// answer to the old copy is dropped by the broker. The exception is
    /// a `kvs.push`: it climbs hop by hop, every hop a sender with a
    /// table of its own, so a copy in flight belongs to the next hop and
    /// is never repeated from here.
    pub(crate) fn sweep(&mut self, ctx: &mut ModuleCtx<'_>) -> Vec<T> {
        let mut due = std::mem::take(&mut self.lost);
        self.sent.retain(|id, sent| {
            let swept = sent.stale;
            if swept {
                ctx.forget_request(*id);
                due.push(sent.tag);
            } else {
                sent.stale = sent.method != KvsMethod::Push;
            }
            !swept
        });
        due
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
    use crate::testutil::request;
    use flux_broker::testing::with_ctx;
    use flux_value::Value;
    use flux_wire::errnum;

    /// An error answer to the request `id` of `method`.
    fn refusal(method: KvsMethod, id: MsgId, code: u32) -> Message {
        let mut req = request(method, Value::object());
        req.header.id = id;
        Message::error_response_to(&req, code)
    }

    #[test]
    fn every_declared_error_is_refused_and_every_transport_error_is_lost() {
        let _ = with_ctx(2, 4, |ctx| {
            let mut table = InFlight::default();
            let mut tag = 0u32;
            let mut round_trip = |ctx: &mut ModuleCtx<'_>, method: KvsMethod, code: u32| {
                tag += 1;
                if method == KvsMethod::Push {
                    table.send_up(ctx, method, Value::object().into(), tag).expect("has a parent");
                } else {
                    table.send_to(ctx, Rank(1), method, Value::object().into(), tag);
                }
                let (id, _) = table.in_flight()[0];
                let claimed = table.claim(&refusal(method, id, code)).expect("registered");
                assert_eq!(claimed.0, tag);
                assert!(table.in_flight().is_empty(), "claimed once");
                (claimed.1, table.sweep(ctx) == [tag])
            };
            for method in [KvsMethod::Push, KvsMethod::ShardPush, KvsMethod::Load] {
                assert!(!method.declared_errors().is_empty());
                for &code in method.declared_errors() {
                    let (answer, due) = round_trip(ctx, method, code);
                    assert!(matches!(answer, Answer::Refused(c) if c == code), "{method:?} {code}");
                    assert!(!due, "a refused request is not retried");
                }
                for code in [errnum::EHOSTDOWN, errnum::ETIMEDOUT, errnum::EIO] {
                    let (answer, due) = round_trip(ctx, method, code);
                    assert!(matches!(answer, Answer::Lost), "{method:?} {code}");
                    assert!(due, "a lost request is due at the next beat");
                }
            }
        });
    }

    #[test]
    fn a_request_is_stale_after_a_whole_period_in_flight_except_a_tree_push() {
        let _ = with_ctx(2, 4, |ctx| {
            let mut table = InFlight::default();
            table.send_up(ctx, KvsMethod::Push, Value::object().into(), "push").expect("parent");
            table.send_up(ctx, KvsMethod::Load, Value::object().into(), "load").expect("parent");
            table.send_to(ctx, Rank(0), KvsMethod::ShardPush, Value::object().into(), "part");
            let load_id = table.in_flight()[1].0;
            assert!(table.sweep(ctx).is_empty(), "first beat: merely in flight");
            assert_eq!(table.sweep(ctx), ["load", "part"], "second beat: send order");
            assert_eq!(table.in_flight().len(), 1, "only the push stays registered");
            assert!(table.claim(&refusal(KvsMethod::Load, load_id, 0)).is_none(), "forgotten");
            assert!(table.sweep(ctx).is_empty());
        });
    }
}
