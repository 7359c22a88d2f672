//! The `barrier` module: collective synchronization.
//!
//! Clients enter with `barrier.enter {name, nprocs}`. Entry counts are
//! reduced up the tree ([`flux_broker::reduce`]) — each broker merges
//! the contributions of one short window into one `barrier.up {name,
//! nprocs, count, src, batch}` — and when the root's count reaches
//! `nprocs`, it publishes a `barrier.exit` event; every broker then
//! releases its local waiters. This is the same reduction/event shape as
//! `kvs.fence` minus the data, and the module the paper's KAP uses for
//! phase alignment.

use flux_broker::reduce::{Partial, Reduction};
use flux_broker::{CommsModule, Handled, ModuleCtx};
use flux_proto::{BarrierMethod, Event};
use flux_value::Value;
use flux_wire::{errnum, Message};
use std::collections::HashMap;

/// Entries into one barrier: the partial that climbs the tree and, at
/// the root, the session-wide total.
struct Count {
    nprocs: u64,
    count: u64,
}

impl Partial for Count {
    fn merge(&mut self, other: Count) {
        self.count += other.count;
    }
}

/// The barrier module.
#[derive(Default)]
pub struct BarrierModule {
    counts: Reduction<String, Count>,
    /// Parked `barrier.enter` requests by barrier name.
    waiters: HashMap<String, Vec<Message>>,
    /// Completed barriers (root only; for tests/tools).
    completed: u64,
}

impl BarrierModule {
    /// Creates the module.
    pub fn new() -> BarrierModule {
        BarrierModule::default()
    }

    fn contribute(&mut self, ctx: &mut ModuleCtx<'_>, name: &str, part: Count) {
        self.counts.gather(ctx, name.to_owned(), part);
        if !ctx.is_root() {
            return;
        }
        for (name, _) in self.counts.drain(|_, total| total.count >= total.nprocs) {
            self.completed += 1;
            ctx.publish(
                Event::BarrierExit.topic(),
                Value::from_pairs([("name", Value::from(name.as_str()))]),
            );
            self.release(ctx, &name);
        }
    }

    fn release(&mut self, ctx: &mut ModuleCtx<'_>, name: &str) {
        for req in self.waiters.remove(name).unwrap_or_default() {
            ctx.respond(&req, Value::from_pairs([("name", Value::from(name))]));
        }
    }
}

impl CommsModule for BarrierModule {
    fn name(&self) -> &'static str {
        "barrier"
    }

    fn subscriptions(&self) -> Vec<String> {
        vec![Event::BarrierExit.topic_str().to_owned()]
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        // A second handle on the payload, so `msg` can be parked.
        let payload = msg.payload.clone();
        let name = payload.get("name").and_then(Value::as_str);
        // `nprocs` 0 can never be met: refused at entry, dropped on the way up.
        let nprocs = payload.get("nprocs").and_then(Value::as_uint).filter(|&n| n > 0);
        match BarrierMethod::from_method(msg.header.topic.method()) {
            Some(BarrierMethod::Enter) => {
                let (Some(name), Some(nprocs)) = (name, nprocs) else {
                    return ctx.respond_err(&msg, errnum::EINVAL);
                };
                let (waiter, parked) = ctx.park(msg);
                self.waiters.entry(name.to_owned()).or_default().push(waiter);
                self.contribute(ctx, name, Count { nprocs, count: 1 });
                parked
            }
            Some(BarrierMethod::Up) => {
                let count = msg.payload.get("count").and_then(Value::as_uint);
                if let (Some(name), Some(nprocs), Some(count)) = (name, nprocs, count) {
                    // A frame delivered twice must not release the
                    // barrier one participant early.
                    if self.counts.admit(&msg.payload) {
                        self.contribute(ctx, name, Count { nprocs, count });
                    }
                }
                ctx.one_way(&msg)
            }
            None => ctx.respond_err(&msg, errnum::ENOSYS),
        }
    }

    fn handle_event(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if msg.header.topic.as_str() != Event::BarrierExit.topic_str() {
            return;
        }
        if let Some(name) = msg.payload.get("name").and_then(Value::as_str) {
            self.release(ctx, name);
        }
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        self.counts.on_window(ctx, token, &BarrierMethod::Up.topic(), |name, part| {
            Value::from_pairs([
                ("name", Value::from(name)),
                ("nprocs", Value::from(part.nprocs as i64)),
                ("count", Value::from(part.count as i64)),
            ])
        });
    }
}
