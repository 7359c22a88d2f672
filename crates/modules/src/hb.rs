//! The `hb` module: the session heartbeat.
//!
//! The root broker's instance publishes an `hb` event every
//! `BrokerConfig::hb_period_ns`; the broker core delivers it to every
//! module's `on_heartbeat` hook session-wide. Synchronizing background
//! activity (liveness hellos, log flushes, monitoring samples, cache
//! expiry) to one pulse is the paper's jitter-reduction mechanism.

use flux_broker::{CommsModule, Handled, ModuleCtx};
use flux_proto::{Event, HbMethod};
use flux_value::Value;
use flux_wire::{errnum, Message};

/// The heartbeat module. Only the root instance is active; instances on
/// other ranks merely answer `hb.epoch` queries from the last event seen.
pub struct HbModule {
    epoch: u64,
}

impl HbModule {
    /// Creates the module.
    pub fn new() -> HbModule {
        HbModule { epoch: 0 }
    }
}

impl Default for HbModule {
    fn default() -> Self {
        Self::new()
    }
}

const TIMER_PULSE: u64 = 1;

impl CommsModule for HbModule {
    fn name(&self) -> &'static str {
        "hb"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        if ctx.is_root() {
            ctx.set_timer(ctx.config().hb_period_ns, TIMER_PULSE);
        }
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        if token != TIMER_PULSE || !ctx.is_root() {
            return;
        }
        self.epoch += 1;
        ctx.publish(
            Event::Hb.topic(),
            Value::from_pairs([("epoch", Value::from(self.epoch as i64))]),
        );
        ctx.set_timer(ctx.config().hb_period_ns, TIMER_PULSE);
    }

    fn on_heartbeat(&mut self, _ctx: &mut ModuleCtx<'_>, epoch: u64) {
        // Non-root instances track the epoch from the event itself.
        self.epoch = self.epoch.max(epoch);
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        match HbMethod::from_method(msg.header.topic.method()) {
            Some(HbMethod::Epoch) => ctx.respond(
                &msg,
                Value::from_pairs([("epoch", Value::from(self.epoch as i64))]),
            ),
            None => ctx.respond_err(&msg, errnum::ENOSYS),
        }
    }
}
