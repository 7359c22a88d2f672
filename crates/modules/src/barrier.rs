//! The `barrier` module: collective synchronization.
//!
//! Clients enter with `barrier.enter {name, nprocs}`; a process that
//! enters a barrier twice, or disagrees with an earlier entry at its
//! broker on `nprocs`, is refused with `EINVAL`. Entry counts are reduced
//! up the tree — each broker merges the entries of one short window into
//! one `barrier.up {name, nprocs, count, src, batch}` — and when the
//! root's count reaches `nprocs`, it publishes a `barrier.exit` event;
//! every broker then releases its local waiters. Entries at different
//! brokers that disagree on `nprocs` fail the barrier instead: the
//! root's `barrier.exit` then carries `errnum` (`EINVAL`), and every
//! waiter is refused with it. The barrier is a
//! [`flux_broker::reduce::Collective`] that carries nothing beside its
//! count: `kvs.fence` is the same collective carrying a write set. KAP
//! uses the barrier for phase alignment.

use flux_broker::reduce::{Collective, Done};
use flux_broker::{CommsModule, Handled, ModuleCtx};
use flux_proto::{BarrierMethod, Event, BARRIER_EXIT_ERRNUM};
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

/// At the root, a complete or failed barrier: announced to every
/// broker, and its waiters here released.
fn exit(ctx: &mut ModuleCtx<'_>, done: Option<Done<()>>) {
    if let Some(Done { name, waiters, failed, .. }) = done {
        let mut event = named(&name);
        if let Some(code) = failed {
            event.insert(BARRIER_EXIT_ERRNUM, Value::from(code));
        }
        ctx.publish(Event::BarrierExit.topic(), event);
        answer(ctx, waiters, &name, failed);
    }
}

/// Answers each of `waiters`: `{name}`, or the code the barrier failed
/// with.
fn answer(ctx: &mut ModuleCtx<'_>, waiters: Vec<Message>, name: &str, failed: Option<u32>) {
    for req in waiters {
        match failed {
            Some(code) => ctx.respond_err(&req, code),
            None => ctx.respond(&req, named(name)),
        };
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
            let failed = msg.payload.get(BARRIER_EXIT_ERRNUM).and_then(Value::as_uint);
            let failed = failed.and_then(|code| u32::try_from(code).ok());
            answer(ctx, self.barriers.release(name), name, failed);
        }
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        self.barriers.on_window(ctx, token, &BarrierMethod::Up.topic(), |(), _| {});
    }
}
