//! The broker's builtin `cmb` service.
//!
//! The prototype's `flux` utility exposes "about two dozen modular Flux
//! sub-commands"; the broker itself answers the session-introspection and
//! plumbing subset:
//!
//! * `cmb.ping` — echo, usable rank-addressed over the ring (the paper's
//!   debugging use case) or locally;
//! * `cmb.info` — rank, size, arity, tree depth, liveness count;
//! * `cmb.sub` / `cmb.unsub` — client event-subscription management.

use crate::broker::Broker;
use crate::module::Handled;
use flux_proto::CmbMethod;
use flux_value::Value;
use flux_wire::{errnum, Message};

pub(crate) fn handle(broker: &mut Broker, msg: Message) -> Handled {
    match CmbMethod::from_method(msg.header.topic.method()) {
        Some(CmbMethod::Ping) => {
            let rank = broker.core().rank();
            let mut payload = msg.payload.value().clone();
            if payload.is_null() {
                payload = Value::object();
            }
            if payload.as_object().is_some() {
                payload.insert("pong", Value::from(rank.0));
                payload.insert("now_ns", Value::from(broker.core().now_ns as i64));
            }
            broker.core_mut().respond(&msg, payload)
        }
        Some(CmbMethod::Info) => {
            let core = broker.core();
            let payload = Value::from_pairs([
                ("rank", Value::from(core.rank().0)),
                ("size", Value::from(core.size())),
                ("depth", Value::from(core.depth() as i64)),
                ("live", Value::from(core.live.live_count())),
                ("modules", Value::from(
                    broker
                        .module_names()
                        .into_iter()
                        .map(Value::from)
                        .collect::<Vec<_>>(),
                )),
            ]);
            broker.core_mut().respond(&msg, payload)
        }
        Some(method @ (CmbMethod::Sub | CmbMethod::Unsub)) => {
            // Only valid directly from a local client: the hop stack must
            // be exactly [client].
            let client = match (msg.header.hops.len(), msg.header.hops.last()) {
                (1, Some(h)) => h.as_client_hop(),
                _ => None,
            };
            let Some(client) = client else {
                return broker.core_mut().respond_err(&msg, errnum::EINVAL);
            };
            let Some(prefix) = msg.payload.get("prefix").and_then(Value::as_str) else {
                return broker.core_mut().respond_err(&msg, errnum::EINVAL);
            };
            let prefix = prefix.to_owned();
            if method == CmbMethod::Sub {
                broker.core_mut().subscribe_client(client, prefix);
            } else {
                broker.core_mut().unsubscribe_client(client, &prefix);
            }
            broker.core_mut().respond(&msg, Value::object())
        }
        None => broker.core_mut().respond_err(&msg, errnum::ENOSYS),
    }
}
