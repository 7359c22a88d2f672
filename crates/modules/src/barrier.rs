//! The `barrier` module: collective synchronization.
//!
//! Clients enter with `barrier.enter {name, nprocs}`. Entry counts are
//! aggregated up the tree — each broker batches contributions within a
//! short window before forwarding one merged `barrier.up` — and when the
//! root's count reaches `nprocs`, it publishes a `barrier.exit` event;
//! every broker then releases its local waiters. This is the same
//! reduction/event shape as `kvs.fence` minus the data, and the module
//! the paper's KAP uses for phase alignment.

use flux_broker::{CommsModule, Handled, ModuleCtx};
use flux_proto::{BarrierMethod, Event};
use flux_value::Value;
use flux_wire::{errnum, Message};
use std::collections::{HashMap, HashSet};

/// Per-barrier accumulation state.
#[derive(Default)]
struct BarrierAcc {
    nprocs: u64,
    count: u64,
    unflushed: u64,
    waiters: Vec<Message>,
    window_armed: bool,
    /// `(source rank, batch id)` of child batches already merged here: a
    /// transport-duplicated `barrier.up` frame must not double-count its
    /// contributions and release the barrier early (the same at-most-once
    /// hazard the KVS fence dedups — found by flux-mc duplicate-delivery
    /// exploration).
    seen_batches: HashSet<(u32, u64)>,
}

/// Tuning for the aggregation window.
#[derive(Clone, Copy, Debug)]
pub struct BarrierConfig {
    /// Contributions arriving within this window merge into one upstream
    /// message.
    pub window_ns: u64,
}

impl Default for BarrierConfig {
    fn default() -> Self {
        BarrierConfig { window_ns: 20_000 }
    }
}

/// The barrier module.
pub struct BarrierModule {
    cfg: BarrierConfig,
    barriers: HashMap<String, BarrierAcc>,
    tokens: HashMap<u64, String>,
    next_token: u64,
    /// Monotonic id stamped on every flushed batch, so parents can
    /// recognise (and discard) transport-duplicated batches.
    next_batch: u64,
    /// Completed barriers (root only; for tests/tools).
    completed: u64,
}

impl BarrierModule {
    /// Creates the module with default tuning.
    pub fn new() -> BarrierModule {
        Self::with_config(BarrierConfig::default())
    }

    /// Creates the module with explicit tuning.
    pub fn with_config(cfg: BarrierConfig) -> BarrierModule {
        BarrierModule {
            cfg,
            barriers: HashMap::new(),
            tokens: HashMap::new(),
            next_token: 0,
            next_batch: 0,
            completed: 0,
        }
    }

    fn contribute(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        name: &str,
        nprocs: u64,
        count: u64,
        waiter: Option<Message>,
    ) {
        let acc = self.barriers.entry(name.to_owned()).or_default();
        if acc.nprocs == 0 {
            acc.nprocs = nprocs;
        }
        acc.count += count;
        acc.unflushed += count;
        if let Some(w) = waiter {
            acc.waiters.push(w);
        }
        if ctx.is_root() {
            self.check_complete(ctx, name);
        } else if !self.barriers[name].window_armed {
            self.next_token += 1;
            self.tokens.insert(self.next_token, name.to_owned());
            ctx.set_timer(self.cfg.window_ns, self.next_token);
            self.barriers.get_mut(name).expect("just inserted").window_armed = true;
        }
    }

    fn check_complete(&mut self, ctx: &mut ModuleCtx<'_>, name: &str) {
        let Some(acc) = self.barriers.get(name) else { return };
        if acc.nprocs == 0 || acc.count < acc.nprocs {
            return;
        }
        let acc = self.barriers.remove(name).expect("checked");
        self.completed += 1;
        ctx.publish(
            Event::BarrierExit.topic(),
            Value::from_pairs([("name", Value::from(name))]),
        );
        for req in acc.waiters {
            ctx.respond(&req, Value::from_pairs([("name", Value::from(name))]));
        }
    }

    fn flush(&mut self, ctx: &mut ModuleCtx<'_>, name: &str) {
        self.next_batch += 1;
        let batch = self.next_batch;
        let src = ctx.rank().0;
        let Some(acc) = self.barriers.get_mut(name) else { return };
        acc.window_armed = false;
        if acc.unflushed == 0 {
            return;
        }
        let count = std::mem::take(&mut acc.unflushed);
        let payload = Value::from_pairs([
            ("name", Value::from(name)),
            ("nprocs", Value::from(acc.nprocs as i64)),
            ("count", Value::from(count as i64)),
            ("src", Value::from(src)),
            ("batch", Value::from(batch as i64)),
        ]);
        let _ = ctx.notify_upstream(BarrierMethod::Up.topic(), payload);
    }
}

impl Default for BarrierModule {
    fn default() -> Self {
        Self::new()
    }
}

impl CommsModule for BarrierModule {
    fn name(&self) -> &'static str {
        "barrier"
    }

    fn subscriptions(&self) -> Vec<String> {
        vec![Event::BarrierExit.topic_str().to_owned()]
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) -> Handled {
        match BarrierMethod::from_method(msg.header.topic.method()) {
            Some(BarrierMethod::Enter) => {
                let (Some(name), Some(nprocs)) = (
                    msg.payload.get("name").and_then(Value::as_str).map(str::to_owned),
                    msg.payload.get("nprocs").and_then(Value::as_uint),
                ) else {
                    return ctx.respond_err(msg, errnum::EINVAL);
                };
                if nprocs == 0 {
                    return ctx.respond_err(msg, errnum::EINVAL);
                }
                let (waiter, parked) = ctx.park(msg);
                self.contribute(ctx, &name, nprocs, 1, Some(waiter));
                parked
            }
            Some(BarrierMethod::Up) => {
                let (Some(name), Some(nprocs), Some(count)) = (
                    msg.payload.get("name").and_then(Value::as_str).map(str::to_owned),
                    msg.payload.get("nprocs").and_then(Value::as_uint),
                    msg.payload.get("count").and_then(Value::as_uint),
                ) else {
                    return ctx.one_way(msg);
                };
                // Idempotence under duplicated frames: merge any given
                // child batch at most once.
                if let (Some(src), Some(batch)) = (
                    msg.payload.get("src").and_then(Value::as_uint),
                    msg.payload.get("batch").and_then(Value::as_uint),
                ) {
                    let acc = self.barriers.entry(name.clone()).or_default();
                    if !acc.seen_batches.insert((src as u32, batch)) {
                        return ctx.one_way(msg); // already merged this batch
                    }
                }
                self.contribute(ctx, &name, nprocs, count, None);
                ctx.one_way(msg)
            }
            None => ctx.respond_err(msg, errnum::ENOSYS),
        }
    }

    fn handle_event(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if msg.header.topic.as_str() != Event::BarrierExit.topic_str() {
            return;
        }
        let Some(name) = msg.payload.get("name").and_then(Value::as_str) else { return };
        if let Some(acc) = self.barriers.remove(name) {
            for req in acc.waiters {
                ctx.respond(&req, Value::from_pairs([("name", Value::from(name))]));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        if let Some(name) = self.tokens.remove(&token) {
            self.flush(ctx, &name);
        }
    }
}
