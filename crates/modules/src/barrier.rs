//! The `barrier` module: collective synchronization.
//!
//! Clients enter with `barrier.enter {name, nprocs}`; a process that
//! enters a barrier twice, or disagrees with an earlier entry at its
//! broker on `nprocs`, is refused with `EINVAL`. Entry counts are reduced
//! up the tree — each broker merges the entries of one short window into
//! one `barrier.up {name, nprocs, count, src, batch}` — and when the
//! root's count reaches `nprocs`, it publishes a `barrier.exit` event;
//! every broker then releases its local waiters. The barrier is a
//! [`flux_broker::reduce::Collective`] that carries nothing beside its
//! count: `kvs.fence` is the same collective carrying a write set. KAP
//! uses the barrier for phase alignment.

use flux_broker::reduce::{Collective, Done};
use flux_broker::{CommsModule, Handled, ModuleCtx};
use flux_proto::{BarrierMethod, Event};
use flux_value::Value;
use flux_wire::{errnum, Message};

/// The barrier module.
#[derive(Default)]
pub struct BarrierModule {
    barriers: Collective<()>,
}

impl BarrierModule {
    /// Creates the module.
    pub fn new() -> BarrierModule {
        BarrierModule::default()
    }
}

/// At the root, a complete barrier: announced to every broker, and its
/// waiters here released.
fn exit(ctx: &mut ModuleCtx<'_>, done: Option<Done<()>>) {
    if let Some(Done { name, waiters, .. }) = done {
        ctx.publish(Event::BarrierExit.topic(), named(&name));
        for req in waiters {
            ctx.respond(&req, named(&name));
        }
    }
}

/// `{name}`: the `barrier.exit` event and the answer to each entry.
fn named(name: &str) -> Value {
    Value::from_pairs([("name", Value::from(name))])
}

impl CommsModule for BarrierModule {
    fn name(&self) -> &'static str {
        "barrier"
    }

    fn subscriptions(&self) -> Vec<String> {
        vec![Event::BarrierExit.topic_str().to_owned()]
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        let (handled, done) = match BarrierMethod::from_method(msg.header.topic.method()) {
            Some(BarrierMethod::Enter) => self.barriers.enter(ctx, msg, |_| ()),
            Some(BarrierMethod::Up) => self.barriers.arrive(ctx, msg, true, |_| true, |_| ()),
            None => return ctx.respond_err(&msg, errnum::ENOSYS),
        };
        exit(ctx, done);
        handled
    }

    fn handle_event(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if msg.header.topic.as_str() != Event::BarrierExit.topic_str() {
            return;
        }
        if let Some(name) = msg.payload.get("name").and_then(Value::as_str) {
            for req in self.barriers.release(name) {
                ctx.respond(&req, named(name));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        self.barriers.on_window(ctx, token, &BarrierMethod::Up.topic(), |(), _| {});
    }
}
