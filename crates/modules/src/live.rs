//! The `live` module: hierarchical liveness detection.
//!
//! On every heartbeat each non-root broker sends a `live.hello` to its
//! effective tree parent. The parent tracks the epoch of each child's
//! last hello; once a child has missed [`MISS_LIMIT`] consecutive
//! heartbeats, a `live.down` event is published for it.
//! The broker core consumes `live.down`/`live.up` events to update its
//! liveness view, which re-parents the dead node's subtree — the planes'
//! self-healing. A hello from a rank previously declared dead produces a
//! `live.up` event (a replaced node re-joining).

use flux_broker::{CommsModule, Handled, ModuleCtx};
use flux_proto::{Event, LiveMethod};
use flux_value::Value;
use flux_wire::{errnum, Message, Rank};
use std::collections::HashMap;

/// Consecutive missed hellos after which a child is declared dead. The
/// paper calls this "a configurable number of missed messages"; nothing
/// here ever configured another, so it is the one number every session
/// runs with.
pub const MISS_LIMIT: u64 = 3;

/// Per-child tracking state at a parent.
struct ChildState {
    last_hello_epoch: u64,
    reported_down: bool,
}

/// The liveness module.
pub struct LiveModule {
    /// The current heartbeat epoch as seen by this broker.
    epoch: u64,
    /// Children this broker has heard from: rank → state.
    children: HashMap<Rank, ChildState>,
    /// The effective-children set as of the previous heartbeat, to spot
    /// newly adopted children (a dead child's orphans, or a subtree
    /// returned by a `live.up`) whose old tracking state is stale.
    prev_children: Vec<Rank>,
    /// Downs this instance has reported (for tests/tools).
    downs_reported: u64,
}

impl LiveModule {
    /// Creates the module.
    pub fn new() -> LiveModule {
        LiveModule {
            epoch: 0,
            children: HashMap::new(),
            prev_children: Vec::new(),
            downs_reported: 0,
        }
    }
}

impl Default for LiveModule {
    fn default() -> Self {
        Self::new()
    }
}

impl CommsModule for LiveModule {
    fn name(&self) -> &'static str {
        "live"
    }

    fn on_heartbeat(&mut self, ctx: &mut ModuleCtx<'_>, epoch: u64) {
        // Deaf guard: if the epoch jumped by more than one, *this* broker
        // was out of the loop (restarted after a crash, or cut off by a
        // partition) — its child bookkeeping is stale, not its children.
        // Refresh every live child's grace to the new epoch and judge
        // nobody this round; genuinely dead children will still miss the
        // next `MISS_LIMIT` consecutive heartbeats.
        let deaf = epoch > self.epoch.saturating_add(1);
        // Stale heartbeat (epoch at or behind what we've seen): events
        // can arrive duplicated or reordered under fault injection. Track
        // the max but never let an old epoch trigger judgements.
        let stale = epoch <= self.epoch && self.epoch != 0;
        self.epoch = self.epoch.max(epoch);
        if deaf {
            for state in self.children.values_mut() {
                if !state.reported_down {
                    state.last_hello_epoch = state.last_hello_epoch.max(epoch);
                }
            }
        }
        // Child side: hello to the (effective) parent.
        if !ctx.is_root() {
            let payload = Value::from_pairs([("rank", Value::from(ctx.rank().0))]);
            ctx.notify_upstream(LiveMethod::Hello.topic(), payload);
        }
        // Parent side: check for silent children.
        let current = ctx.children();
        // A child adopted since the last heartbeat (its old parent died,
        // or it returned here after a live.up elsewhere) may carry stale
        // tracking state from an earlier adoption episode — its hellos
        // went to another parent in between. Grant it fresh grace rather
        // than judging it on ancient history.
        for child in &current {
            if !self.prev_children.contains(child) {
                if let Some(state) = self.children.get_mut(child) {
                    if !state.reported_down {
                        state.last_hello_epoch = state.last_hello_epoch.max(epoch);
                    }
                }
            }
        }
        self.prev_children = current.clone();
        let mut to_report = Vec::new();
        for child in current {
            let state = self.children.entry(child).or_insert(ChildState {
                // Grace: an unseen child counts as heard-from now, so
                // session startup (and adoption after a re-parent) does
                // not trigger false positives.
                last_hello_epoch: epoch,
                reported_down: false,
            });
            if state.reported_down || deaf || stale {
                continue;
            }
            if epoch.saturating_sub(state.last_hello_epoch) > MISS_LIMIT {
                state.reported_down = true;
                to_report.push(child);
            }
        }
        for child in to_report {
            self.downs_reported += 1;
            ctx.publish(
                Event::LiveDown.topic(),
                Value::from_pairs([("rank", Value::from(child.0))]),
            );
        }
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        match LiveMethod::from_method(msg.header.topic.method()) {
            Some(LiveMethod::Hello) => {
                let Some(rank) = msg.payload.get("rank").and_then(Value::as_uint) else {
                    return ctx.one_way(&msg); // malformed hellos are dropped
                };
                if rank >= u64::from(ctx.size()) {
                    return ctx.one_way(&msg); // hello from a rank outside the session
                }
                let rank = Rank(rank as u32);
                let epoch = self.epoch;
                let state = self
                    .children
                    .entry(rank)
                    .or_insert(ChildState { last_hello_epoch: epoch, reported_down: false });
                state.last_hello_epoch = state.last_hello_epoch.max(epoch);
                // A hello from a declared-dead child: it is back.
                if state.reported_down {
                    state.reported_down = false;
                    ctx.publish(
                        Event::LiveUp.topic(),
                        Value::from_pairs([("rank", Value::from(rank.0))]),
                    );
                }
                ctx.one_way(&msg)
            }
            Some(LiveMethod::Status) => {
                // Local liveness view for tools.
                let size = ctx.size();
                let up: Vec<Value> = (0..size)
                    .filter(|&r| ctx.is_up(Rank(r)))
                    .map(Value::from)
                    .collect();
                ctx.respond(
                    &msg,
                    Value::from_pairs([
                        ("up", Value::Array(up)),
                        ("downs_reported", Value::from(self.downs_reported as i64)),
                    ]),
                )
            }
            None => ctx.respond_err(&msg, errnum::ENOSYS),
        }
    }
}
