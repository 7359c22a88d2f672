//! The discrete-event engine.

use crate::actor::{Action, Actor, ActorId, Ctx, NodeId};
use crate::arena::EventArena;
use crate::net::NetParams;
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use flux_wire::{Message, MsgId, MsgType, Topic};

/// Aggregate counters maintained by the engine.
///
/// Deliberately *virtual-only*: two runs of the same seeded simulation
/// must compare equal field for field (determinism tests rely on it), so
/// wall-clock measurements live in the separate [`Throughput`] report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events processed (delivery, handling, timers).
    pub events: u64,
    /// Messages handed to actor handlers.
    pub messages_delivered: u64,
    /// Sum of wire sizes of delivered messages.
    pub bytes_delivered: u64,
    /// Messages dropped because the receiver was dead.
    pub messages_dropped: u64,
}

/// Wall-clock self-report: how fast the engine is chewing through its
/// virtual workload. Backed by [`EngineStats::events`] and the real time
/// accumulated inside `run*` calls; kept out of [`EngineStats`] so stats
/// stay bit-comparable across identical runs.
#[derive(Clone, Copy, Debug)]
pub struct Throughput {
    /// Events processed so far (mirrors [`EngineStats::events`]).
    pub events: u64,
    /// Real time spent inside `run`/`run_until`/`run_budgeted`.
    pub wall: std::time::Duration,
    /// Events per wall-clock second (0 when no time has been measured).
    pub events_per_sec: f64,
}

/// Event payloads held in the arena. `seq` breaks time ties
/// deterministically in insertion order, which makes whole simulations
/// bit-reproducible.
enum EventKind {
    /// A message finished propagating and reached `to`'s receive queue.
    Arrive { to: ActorId, from: ActorId, msg: Message, bytes: usize },
    /// `to`'s receive processing of a message completed; run the handler.
    Handle { to: ActorId, from: ActorId, msg: Message, bytes: usize },
    /// A timer fires.
    Timer { actor: ActorId, token: u64 },
    /// Run `on_start` for a newly added actor.
    Start { actor: ActorId },
}

impl EventKind {
    /// The actor this event will act on when dispatched.
    fn target(&self) -> ActorId {
        match self {
            EventKind::Start { actor } | EventKind::Timer { actor, .. } => *actor,
            EventKind::Arrive { to, .. } | EventKind::Handle { to, .. } => *to,
        }
    }
}

struct Slot {
    actor: Box<dyn Actor>,
    node: NodeId,
    dead: bool,
    tx_free: SimTime,
    rx_free: SimTime,
}

/// What a pending heap entry will do when dispatched, summarized for
/// controlled-scheduling drivers (the flux-mc model checker). The
/// payload itself stays inside the engine; the summary carries enough to
/// classify the event and decide delivery order.
#[derive(Clone, Debug)]
pub enum PendingKind {
    /// An actor's `on_start` call.
    Start,
    /// A timer firing with this token.
    Timer {
        /// The token the actor armed the timer with.
        token: u64,
    },
    /// A message in flight. `handle == false` is the propagation leg
    /// (wire transfer completing); `handle == true` is the delivery leg
    /// (the receiver's handler will run).
    Message {
        /// Sending actor.
        from: ActorId,
        /// True for the delivery (handler) leg.
        handle: bool,
        /// Wire message type.
        msg_type: MsgType,
        /// Topic (shared; cloning it is a refcount bump, so summarizing
        /// the pending set allocates nothing per event).
        topic: Topic,
        /// Message id.
        id: MsgId,
    },
}

/// One pending heap entry, summarized for controlled scheduling.
#[derive(Clone, Debug)]
pub struct PendingEvent {
    /// Scheduled virtual dispatch time (the default order's primary key).
    pub at: SimTime,
    /// Insertion sequence number: the default order's tie-break, and the
    /// stable handle [`Engine::dispatch_pending`] accepts.
    pub seq: u64,
    /// Target actor.
    pub to: ActorId,
    /// Event classification.
    pub kind: PendingKind,
}

/// The discrete-event engine: owns actors, the clock, and the event queue
/// (a flat [`EventArena`] for payloads plus an [`EventQueue`] ordering
/// `(time, seq, index)` triples).
pub struct Engine {
    params: NetParams,
    slots: Vec<Slot>,
    node_count: usize,
    /// Pending event payloads, indexed by queue entries.
    arena: EventArena<EventKind>,
    /// Dispatch order over arena indices.
    queue: EventQueue,
    seq: u64,
    now: SimTime,
    stopped: bool,
    stats: EngineStats,
    /// Action buffer handed to actor contexts; kept on the engine so its
    /// allocation is reused across every handler invocation.
    actions: Vec<Action>,
    /// Real time accumulated inside `run*` calls (see [`Throughput`]);
    /// diagnostics only, it never feeds a simulated outcome.
    run_wall: std::time::Duration,
}

impl Engine {
    /// Creates an engine with the given cost model.
    pub fn new(params: NetParams) -> Engine {
        Engine {
            params,
            slots: Vec::new(),
            node_count: 0,
            arena: EventArena::new(),
            queue: EventQueue::default(),
            seq: 0,
            now: SimTime::ZERO,
            stopped: false,
            stats: EngineStats::default(),
            actions: Vec::new(),
            run_wall: std::time::Duration::ZERO,
        }
    }

    /// Adds a host. Actors placed on the same node use the IPC cost class.
    pub fn add_node(&mut self) -> NodeId {
        self.node_count += 1;
        self.node_count - 1
    }

    /// Places an actor on `node` and schedules its `on_start` at the
    /// current time.
    ///
    /// # Panics
    /// Panics if `node` was not created by [`Engine::add_node`].
    pub fn add_actor(&mut self, node: NodeId, actor: Box<dyn Actor>) -> ActorId {
        assert!(node < self.node_count, "unknown node {node}");
        let id = self.slots.len();
        self.slots.push(Slot {
            actor,
            node,
            dead: false,
            tx_free: self.now,
            rx_free: self.now,
        });
        self.push_event(self.now, EventKind::Start { actor: id });
        id
    }

    /// Counters so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Events-per-wall-second self-report across all `run*` calls so far.
    pub fn throughput(&self) -> Throughput {
        let secs = self.run_wall.as_secs_f64();
        Throughput {
            events: self.stats.events,
            wall: self.run_wall,
            events_per_sec: if secs > 0.0 { self.stats.events as f64 / secs } else { 0.0 },
        }
    }

    /// The node an actor is placed on.
    pub fn node_of(&self, a: ActorId) -> NodeId {
        self.slots[a].node
    }

    /// Kills an actor from outside the simulation (failure injection
    /// between runs).
    pub fn kill(&mut self, a: ActorId) {
        if !self.slots[a].dead {
            self.slots[a].dead = true;
            let now = self.now;
            self.slots[a].actor.on_kill(now);
        }
    }

    /// Runs until the event queue drains or an actor calls [`Ctx::stop`].
    /// Returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        self.run_inner(None)
    }

    /// Runs until `deadline` (inclusive), the queue drains, or an actor
    /// stops the simulation. Returns the current virtual time, which on a
    /// deadline-bounded run is clamped forward to the deadline whether
    /// the run hit a later event *or drained early* — either way the
    /// simulated interval up to the deadline has fully elapsed, and
    /// repeated bounded runs make forward progress.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.run_inner(Some(deadline))
    }

    fn run_inner(&mut self, deadline: Option<SimTime>) -> SimTime {
        let wall = std::time::Instant::now();
        while !self.stopped {
            if !self.pop_dispatch(deadline) {
                // Drained, or the next event lies past the deadline: a
                // bounded run still accounts for the idle tail up to its
                // deadline (an unbounded run keeps the time of the last
                // event).
                if let Some(d) = deadline {
                    self.now = self.now.max(d);
                }
                break;
            }
        }
        self.run_wall += wall.elapsed();
        self.now
    }

    /// Like [`Engine::run`], but processes at most `budget` further
    /// events. Returns the current virtual time and whether the run went
    /// quiescent (queue drained or an actor stopped the simulation) within
    /// the budget; `false` means events were still pending — a protocol
    /// livelock if the caller expected quiescence.
    pub fn run_budgeted(&mut self, budget: u64) -> (SimTime, bool) {
        let wall = std::time::Instant::now();
        let mut left = budget;
        let quiet = loop {
            if self.stopped || self.arena.live() == 0 {
                break true;
            }
            if left == 0 {
                break false;
            }
            left -= 1;
            self.pop_dispatch(None);
        };
        self.run_wall += wall.elapsed();
        (self.now, quiet)
    }

    /// Pops and dispatches the earliest pending event, with one queue
    /// lookup. Returns false, dispatching nothing, if the queue is empty
    /// or that event is due after `until`.
    fn pop_dispatch(&mut self, until: Option<SimTime>) -> bool {
        let Some((t, _, idx)) = self.queue.pop_min(until) else { return false };
        let Some(kind) = self.arena.take(idx) else { return true };
        self.now = t;
        self.stats.events += 1;
        self.dispatch(kind);
        true
    }

    // ----- controlled scheduling (model checking) --------------------------

    /// Summarizes every pending queue entry in default dispatch order
    /// (time, then insertion sequence). A controlled-scheduling driver
    /// picks one and dispatches it with [`Engine::dispatch_pending`]; the
    /// default schedule is always index 0.
    ///
    /// Events destined for dead actors are omitted: they can only be
    /// dropped, so they are not schedulable choices — listing them would
    /// multiply a model checker's state space by interleavings that all
    /// collapse to the same drop. (The default-order runner still
    /// processes and counts them as drops.)
    pub fn pending_events(&self) -> Vec<PendingEvent> {
        let mut entries: Vec<PendingEvent> = self
            .arena
            .iter_live()
            .filter_map(|(at, seq, _idx, kind)| {
                let to = kind.target();
                if self.slots[to].dead {
                    return None;
                }
                let kind = match kind {
                    EventKind::Start { .. } => PendingKind::Start,
                    EventKind::Timer { token, .. } => PendingKind::Timer { token: *token },
                    EventKind::Arrive { from, msg, .. } => PendingKind::Message {
                        from: *from,
                        handle: false,
                        msg_type: msg.header.msg_type,
                        topic: msg.header.topic.clone(),
                        id: msg.header.id,
                    },
                    EventKind::Handle { from, msg, .. } => PendingKind::Message {
                        from: *from,
                        handle: true,
                        msg_type: msg.header.msg_type,
                        topic: msg.header.topic.clone(),
                        id: msg.header.id,
                    },
                };
                Some(PendingEvent { at, seq, to, kind })
            })
            .collect();
        entries.sort_unstable_by_key(|e| (e.at, e.seq));
        entries
    }

    /// Dispatches the pending entry with insertion sequence `seq` (from
    /// [`Engine::pending_events`]) out of default order, clamping the
    /// clock forward monotonically (virtual time never runs backwards,
    /// so actor-visible timestamps stay sane under reordering). Returns
    /// false if no such entry exists.
    ///
    /// Counts in [`EngineStats::events`] exactly like default-order
    /// dispatch.
    pub fn dispatch_pending(&mut self, seq: u64) -> bool {
        let Some((t, idx)) = self.queue.remove_seq(seq) else { return false };
        let Some(kind) = self.arena.take(idx) else { return false };
        self.now = self.now.max(t);
        self.stats.events += 1;
        self.dispatch(kind);
        true
    }

    /// Duplicates a pending message entry (either leg), modelling a
    /// transport-duplicated frame: the copy is re-enqueued at the same
    /// time with a fresh sequence number, so the original still
    /// dispatches first under the default order. Returns false if `seq`
    /// is unknown or not a message event.
    pub fn duplicate_pending(&mut self, seq: u64) -> bool {
        let Some(idx) = self.arena.find_seq(seq) else { return false };
        let dup = match self.arena.get(idx) {
            Some(EventKind::Arrive { to, from, msg, bytes }) => {
                EventKind::Arrive { to: *to, from: *from, msg: msg.clone(), bytes: *bytes }
            }
            Some(EventKind::Handle { to, from, msg, bytes }) => {
                EventKind::Handle { to: *to, from: *from, msg: msg.clone(), bytes: *bytes }
            }
            _ => return false,
        };
        let t = self.arena.at(idx);
        self.push_event(t, dup);
        true
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start { actor } => {
                if self.slots[actor].dead {
                    return;
                }
                let mut actions = std::mem::take(&mut self.actions);
                {
                    let mut ctx = Ctx { now: self.now, self_id: actor, actions: &mut actions };
                    self.slots[actor].actor.on_start(&mut ctx);
                }
                self.actions = actions;
                self.drain_actions(actor);
            }
            EventKind::Timer { actor, token } => {
                if self.slots[actor].dead {
                    return;
                }
                let mut actions = std::mem::take(&mut self.actions);
                {
                    let mut ctx = Ctx { now: self.now, self_id: actor, actions: &mut actions };
                    self.slots[actor].actor.on_timer(&mut ctx, token);
                }
                self.actions = actions;
                self.drain_actions(actor);
            }
            EventKind::Arrive { to, from, msg, bytes } => {
                if self.slots[to].dead {
                    self.stats.messages_dropped += 1;
                    return;
                }
                // Serialize receive processing: the message occupies the
                // receiver from max(now, rx_free) for rx_time.
                let rx_start = self.now.max(self.slots[to].rx_free);
                let rx_end = rx_start + self.params.rx_time(bytes);
                self.slots[to].rx_free = rx_end;
                self.push_event(rx_end, EventKind::Handle { to, from, msg, bytes });
            }
            EventKind::Handle { to, from, msg, bytes } => {
                if self.slots[to].dead {
                    self.stats.messages_dropped += 1;
                    return;
                }
                self.stats.messages_delivered += 1;
                self.stats.bytes_delivered += bytes as u64;
                let mut actions = std::mem::take(&mut self.actions);
                {
                    let mut ctx = Ctx { now: self.now, self_id: to, actions: &mut actions };
                    self.slots[to].actor.on_message(&mut ctx, from, msg);
                }
                self.actions = actions;
                self.drain_actions(to);
            }
        }
    }

    fn drain_actions(&mut self, origin: ActorId) {
        // Actions may enqueue further actions only via events, so a single
        // pass suffices. The buffer is drained (not consumed) and handed
        // back, so one allocation serves every handler invocation.
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg, extra_delay } => {
                    self.do_send(origin, to, msg, extra_delay)
                }
                Action::SetTimer { delay, token } => {
                    self.push_event(self.now + delay, EventKind::Timer { actor: origin, token });
                }
                Action::Kill { victim } => {
                    assert!(victim < self.slots.len(), "kill of unknown actor {victim}");
                    if !self.slots[victim].dead {
                        self.slots[victim].dead = true;
                        let now = self.now;
                        self.slots[victim].actor.on_kill(now);
                    }
                }
                Action::Stop => self.stopped = true,
            }
        }
        debug_assert!(self.actions.is_empty(), "actions queued outside a handler");
        self.actions = actions;
    }

    fn do_send(&mut self, from: ActorId, to: ActorId, msg: Message, extra_delay: SimDuration) {
        assert!(to < self.slots.len(), "send to unknown actor {to}");
        if self.slots[to].dead {
            self.stats.messages_dropped += 1;
            return;
        }
        let bytes = msg.wire_size();
        let same_node = self.slots[from].node == self.slots[to].node;
        // Serialize the transmit path: store-and-forward.
        let tx_start = self.now.max(self.slots[from].tx_free);
        let tx_end = tx_start + self.params.tx_time(bytes, same_node);
        self.slots[from].tx_free = tx_end;
        let arrive = tx_end + self.params.latency(same_node) + extra_delay;
        self.push_event(arrive, EventKind::Arrive { to, from, msg, bytes });
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        self.seq += 1;
        let idx = self.arena.insert(at, self.seq, kind);
        self.queue.push(at, self.seq, idx);
        // Every queue entry has a live arena slot and vice versa: both
        // sides remove eagerly (no lazy tombstones).
        debug_assert_eq!(self.queue.len(), self.arena.live());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use flux_value::Value;
    use flux_wire::{MsgId, Rank, Topic};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn msg(seq: u64, size: usize) -> Message {
        Message::event(
            Topic::from_static("t"),
            MsgId { origin: Rank(0), seq },
            Rank(0),
            Value::from("x".repeat(size)),
        )
    }

    /// Shared arrival log: (seq, time) pairs.
    type DeliveryLog = Rc<RefCell<Vec<(u64, SimTime)>>>;

    /// Records arrival (seq, time) pairs.
    struct Recorder {
        log: DeliveryLog,
    }
    impl Actor for Recorder {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, m: Message) {
            self.log.borrow_mut().push((m.header.id.seq, ctx.now()));
        }
    }

    /// Sends a burst of messages at start.
    struct Burst {
        to: ActorId,
        sizes: Vec<usize>,
    }
    impl Actor for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, &s) in self.sizes.iter().enumerate() {
                ctx.send(self.to, msg(i as u64, s));
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: ActorId, _: Message) {}
    }

    fn two_node_setup(sizes: Vec<usize>) -> (Engine, DeliveryLog) {
        let mut eng = Engine::new(NetParams::default());
        let n0 = eng.add_node();
        let n1 = eng.add_node();
        let log = Rc::new(RefCell::new(Vec::new()));
        let rec = eng.add_actor(n1, Box::new(Recorder { log: Rc::clone(&log) }));
        eng.add_actor(n0, Box::new(Burst { to: rec, sizes }));
        (eng, log)
    }

    #[test]
    fn fifo_delivery_per_pair() {
        let (mut eng, log) = two_node_setup((0..20).map(|_| 64).collect());
        eng.run();
        let got: Vec<u64> = log.borrow().iter().map(|&(s, _)| s).collect();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn transfer_cost_scales_with_size() {
        let (mut eng1, log1) = two_node_setup(vec![8]);
        eng1.run();
        let (mut eng2, log2) = two_node_setup(vec![1 << 20]);
        eng2.run();
        let t_small = log1.borrow()[0].1;
        let t_big = log2.borrow()[0].1;
        assert!(t_big.as_nanos() > 10 * t_small.as_nanos(), "{t_small} vs {t_big}");
    }

    #[test]
    fn tx_serialization_queues_sends() {
        // 10 × 64 KiB back-to-back: the last arrival must be ~10 transfer
        // times out, not 1 (store-and-forward).
        let (mut eng, log) = two_node_setup(vec![64 << 10; 10]);
        eng.run();
        let log = log.borrow();
        let first = log.first().unwrap().1;
        let last = log.last().unwrap().1;
        assert!(
            last.as_nanos() - first.as_nanos() > 8 * (first.as_nanos() / 2),
            "first {first}, last {last}"
        );
    }

    #[test]
    fn determinism() {
        let run = || {
            let (mut eng, log) = two_node_setup(vec![100, 5000, 8, 64 << 10, 17]);
            eng.run();
            let v = log.borrow().clone();
            (v, eng.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn timers_fire_in_order() {
        struct T {
            log: Rc<RefCell<Vec<u64>>>,
        }
        impl Actor for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_micros(30), 3);
                ctx.set_timer(SimDuration::from_micros(10), 1);
                ctx.set_timer(SimDuration::from_micros(20), 2);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: ActorId, _: Message) {}
            fn on_timer(&mut self, _: &mut Ctx<'_>, token: u64) {
                self.log.borrow_mut().push(token);
            }
        }
        let mut eng = Engine::new(NetParams::default());
        let n = eng.add_node();
        let log = Rc::new(RefCell::new(Vec::new()));
        eng.add_actor(n, Box::new(T { log: Rc::clone(&log) }));
        eng.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn dead_actors_drop_messages() {
        let (mut eng, log) = two_node_setup(vec![64; 5]);
        // Kill the recorder (actor id 0) before running.
        eng.kill(0);
        eng.run();
        assert!(log.borrow().is_empty());
        assert_eq!(eng.stats().messages_dropped, 5);
    }

    #[test]
    fn stop_halts_simulation() {
        struct Stopper;
        impl Actor for Stopper {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_micros(1), 0);
                ctx.set_timer(SimDuration::from_secs(100), 1);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: ActorId, _: Message) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                assert_eq!(token, 0, "second timer must never fire");
                ctx.stop();
            }
        }
        let mut eng = Engine::new(NetParams::default());
        let n = eng.add_node();
        eng.add_actor(n, Box::new(Stopper));
        let end = eng.run();
        assert!(end < SimTime::from_nanos(1_000_000_000));
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut eng, log) = two_node_setup(vec![64; 3]);
        let deadline = SimTime::from_nanos(100);
        let t = eng.run_until(deadline);
        assert!(t <= deadline);
        let _ = log;
        // Remaining events still processed by a full run.
        eng.run();
        assert_eq!(eng.stats().messages_delivered, 3);
    }

    #[test]
    fn run_until_clamps_clock_on_both_paths() {
        // Path 1: the queue drains before the deadline. The clock must
        // still land on the deadline — the simulated interval elapsed —
        // instead of sticking at the last event.
        let (mut eng, log) = two_node_setup(vec![64; 2]);
        let deadline = SimTime::from_nanos(5_000_000_000);
        let t = eng.run_until(deadline);
        assert_eq!(log.borrow().len(), 2, "all traffic done well before 5s");
        assert_eq!(t, deadline, "drained run must account the idle tail");

        // Path 2: a pending event beyond the deadline also clamps to the
        // deadline (pre-existing behaviour, kept).
        struct FarTimer;
        impl Actor for FarTimer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(60), 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: ActorId, _: Message) {}
        }
        let mut eng2 = Engine::new(NetParams::default());
        let n = eng2.add_node();
        eng2.add_actor(n, Box::new(FarTimer));
        let d2 = SimTime::from_nanos(1_000_000_000);
        assert_eq!(eng2.run_until(d2), d2);
        // An unbounded run never clamps: it ends at the last event time.
        let end = eng2.run();
        assert_eq!(end, SimTime::from_nanos(60_000_000_000));
    }

    #[test]
    fn pending_events_excludes_dead_targets() {
        let (mut eng, _log) = two_node_setup(vec![64; 4]);
        // Let the burst get its sends in flight.
        let before = loop {
            let pend = eng.pending_events();
            if pend.iter().any(|e| matches!(e.kind, PendingKind::Message { .. })) {
                break pend.len();
            }
            let first = pend.first().cloned().expect("events pending");
            assert!(eng.dispatch_pending(first.seq));
        };
        assert!(before > 0);
        // Killing the recorder (actor 0) hides every event aimed at it:
        // they are not schedulable choices, only drops.
        eng.kill(0);
        let after = eng.pending_events();
        assert!(after.len() < before, "{before} -> {}", after.len());
        assert!(after.iter().all(|e| e.to != 0));
        // The default-order runner still processes the hidden events as
        // drops — accounting is unchanged.
        eng.run();
        assert_eq!(eng.stats().messages_dropped, 4);
    }

    #[test]
    fn throughput_reports_wall_rate() {
        let (mut eng, _log) = two_node_setup(vec![64; 8]);
        assert_eq!(eng.throughput().events, 0);
        assert_eq!(eng.throughput().events_per_sec, 0.0);
        eng.run();
        let tp = eng.throughput();
        assert_eq!(tp.events, eng.stats().events);
        assert!(tp.events > 0);
        assert!(tp.events_per_sec > 0.0);
        assert!(tp.wall > std::time::Duration::ZERO);
    }

    #[test]
    fn controlled_dispatch_reorders_and_duplicates() {
        let (mut eng, log) = two_node_setup(vec![64; 3]);
        // Drain Start and propagation legs in default order; stop when
        // only delivery (Handle) legs remain.
        loop {
            let pend = eng.pending_events();
            let Some(next) = pend
                .iter()
                .find(|e| !matches!(e.kind, PendingKind::Message { handle: true, .. }))
            else {
                break;
            };
            assert!(eng.dispatch_pending(next.seq));
        }
        let handles = eng.pending_events();
        assert_eq!(handles.len(), 3, "{handles:?}");
        // Duplicate the middle delivery, then dispatch everything in
        // reverse order: the recorder must see the reversed sequence
        // with the duplicate in place.
        assert!(eng.duplicate_pending(handles[1].seq));
        for e in eng.pending_events().iter().rev() {
            assert!(eng.dispatch_pending(e.seq));
        }
        let got: Vec<u64> = log.borrow().iter().map(|&(s, _)| s).collect();
        assert_eq!(got, vec![2, 1, 1, 0]);
        // Unknown seqs are rejected; timers/starts cannot be duplicated.
        assert!(!eng.dispatch_pending(u64::MAX));
        assert!(!eng.duplicate_pending(u64::MAX));
    }

    #[test]
    fn controlled_dispatch_keeps_time_monotonic() {
        let (mut eng, log) = two_node_setup(vec![64; 2]);
        // Dispatch the latest pending event first: the clock advances to
        // its time and must not rewind when earlier events follow, so the
        // recorder sees delivery times in order.
        while let Some(last) = eng.pending_events().last().cloned() {
            assert!(eng.dispatch_pending(last.seq));
        }
        let times: Vec<SimTime> = log.borrow().iter().map(|&(_, t)| t).collect();
        assert_eq!(times.len(), 2);
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    #[test]
    fn run_budgeted_reports_livelock() {
        struct PingPong {
            peer: ActorId,
        }
        impl Actor for PingPong {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(self.peer, msg(0, 8));
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, m: Message) {
                ctx.send(from, m);
            }
        }
        let mut eng = Engine::new(NetParams::default());
        let n = eng.add_node();
        let a = eng.add_actor(n, Box::new(PingPong { peer: 1 }));
        let _b = eng.add_actor(n, Box::new(PingPong { peer: a }));
        let (_, quiet) = eng.run_budgeted(500);
        assert!(!quiet, "ping-pong never quiesces");

        let (mut eng2, log) = two_node_setup(vec![64; 3]);
        let (_, quiet) = eng2.run_budgeted(10_000);
        assert!(quiet);
        assert_eq!(log.borrow().len(), 3);
    }

    #[test]
    fn ipc_faster_than_network() {
        // Same payload: co-located pair vs remote pair.
        let time_for = |colocate: bool| {
            let mut eng = Engine::new(NetParams::default());
            let n0 = eng.add_node();
            let n1 = if colocate { n0 } else { eng.add_node() };
            let log = Rc::new(RefCell::new(Vec::new()));
            let rec = eng.add_actor(n1, Box::new(Recorder { log: Rc::clone(&log) }));
            eng.add_actor(n0, Box::new(Burst { to: rec, sizes: vec![32 << 10] }));
            eng.run();
            let t = log.borrow()[0].1;
            t
        };
        assert!(time_for(true) < time_for(false));
    }
}
