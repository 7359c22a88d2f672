//! A zero-latency in-memory session harness for unit tests.
//!
//! [`TestNet`] wires `size` brokers into a comms session, shuttling
//! [`Output`]s back in as [`Input`]s with instantaneous delivery and a
//! logical timer queue. It exists so protocol logic (broker routing, the
//! comms modules, the KVS) can be tested exhaustively without either
//! runtime; the cost-model simulator and the live (socket) runtime live
//! in `flux-rt`. [`with_ctx`] is the one-broker case: it hands a closure
//! the [`ModuleCtx`] that code taking one needs.

use crate::{Broker, BrokerConfig, ClientId, CommsModule, Handled, Input, ModuleCtx, Output};
use flux_wire::{errnum, Message, Rank};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

/// Runs `f` as the only module of the broker at `rank` of a `size`-wide
/// session (default tree, no peers attached: sends surface as outputs),
/// and hands back what it returned plus everything the broker emitted
/// on its behalf.
pub fn with_ctx<R>(rank: u32, size: u32, f: impl FnOnce(&mut ModuleCtx<'_>) -> R) -> (R, Vec<Output>) {
    let mut broker = Broker::new(BrokerConfig::new(Rank(rank), size), vec![Box::new(Probe)]);
    broker.start(0);
    broker.run_as_module(0, f)
}

/// The module slot [`with_ctx`] runs in; it serves nothing itself.
struct Probe;

impl CommsModule for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        ctx.respond_err(&msg, errnum::ENOSYS)
    }
}

/// An in-memory comms session with instantaneous message delivery.
pub struct TestNet {
    brokers: Vec<Broker>,
    queue: VecDeque<(Rank, Input)>,
    timers: BinaryHeap<Reverse<(u64, u64, u32, u64)>>,
    timer_seq: u64,
    now_ns: u64,
    dead: HashSet<Rank>,
    client_inbox: HashMap<(Rank, ClientId), VecDeque<Message>>,
}

impl TestNet {
    /// Builds a session of `size` brokers with tree `arity`; each broker
    /// gets the modules produced by `factory` for its rank.
    pub fn new<F>(size: u32, arity: u32, factory: F) -> TestNet
    where
        F: Fn(Rank) -> Vec<Box<dyn CommsModule>>,
    {
        Self::with_config(size, |r| BrokerConfig::new(r, size).with_arity(arity), factory)
    }

    /// Like [`TestNet::new`] with full control over per-rank config.
    pub fn with_config<C, F>(size: u32, config: C, factory: F) -> TestNet
    where
        C: Fn(Rank) -> BrokerConfig,
        F: Fn(Rank) -> Vec<Box<dyn CommsModule>>,
    {
        let mut brokers = Vec::with_capacity(size as usize);
        for r in 0..size {
            let rank = Rank(r);
            brokers.push(Broker::new(config(rank), factory(rank)));
        }
        let mut net = TestNet {
            brokers,
            queue: VecDeque::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            now_ns: 0,
            dead: HashSet::new(),
            client_inbox: HashMap::new(),
        };
        for r in 0..size {
            let outs = net.brokers[r as usize].start(0);
            net.absorb(Rank(r), outs);
        }
        net.run();
        net
    }

    /// Current logical time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Access a broker (e.g. for module-name assertions).
    pub fn broker(&self, rank: Rank) -> &Broker {
        &self.brokers[rank.index()]
    }

    /// Injects a client request at `rank`'s broker and runs to quiescence
    /// (without firing timers).
    pub fn client_send(&mut self, rank: Rank, client: ClientId, msg: Message) {
        self.queue.push_back((rank, Input::FromClient { client, msg }));
        self.run();
    }

    /// Drains messages delivered to a client.
    pub fn take_client_msgs(&mut self, rank: Rank, client: ClientId) -> Vec<Message> {
        self.client_inbox
            .remove(&(rank, client))
            .map(|q| q.into_iter().collect())
            .unwrap_or_default()
    }

    /// Publishes a session event from the root broker (stands in for a
    /// module publication in tests).
    pub fn publish_from_root(&mut self, topic: flux_wire::Topic, payload: flux_value::Value) {
        let now = self.now_ns;
        let outs = self.brokers[0].publish(now, topic, payload);
        self.absorb(Rank(0), outs);
        self.run();
    }

    /// Marks a broker dead: messages to it vanish, its timers stop.
    pub fn kill(&mut self, rank: Rank) {
        assert!(!rank.is_root(), "root death ends the session");
        self.dead.insert(rank);
    }

    /// Revives a previously [`TestNet::kill`]ed broker with its state
    /// intact (the crash-restart model used by fault injection): it
    /// receives traffic again and can re-announce itself via the live
    /// module's hello path.
    pub fn revive(&mut self, rank: Rank) {
        self.dead.remove(&rank);
    }

    /// Processes queued deliveries until quiescent. Timers do not fire.
    pub fn run(&mut self) {
        let mut guard = 0u64;
        while let Some((rank, input)) = self.queue.pop_front() {
            guard += 1;
            assert!(guard < 10_000_000, "test network livelock");
            if self.dead.contains(&rank) {
                continue;
            }
            let outs = self.brokers[rank.index()].handle(self.now_ns, input);
            self.absorb(rank, outs);
        }
    }

    /// Fires the earliest pending timer (advancing logical time), then
    /// runs to quiescence. Returns false if no timer was pending.
    pub fn fire_next_timer(&mut self) -> bool {
        loop {
            let Some(Reverse((at, _, rank, token))) = self.timers.pop() else {
                return false;
            };
            let rank = Rank(rank);
            if self.dead.contains(&rank) {
                continue;
            }
            self.now_ns = self.now_ns.max(at);
            self.queue.push_back((rank, Input::Timer { token }));
            self.run();
            return true;
        }
    }

    /// Fires all timers due up to `deadline_ns`, delivering messages as
    /// they are produced.
    pub fn run_until(&mut self, deadline_ns: u64) {
        self.run();
        while let Some(&Reverse((at, _, _, _))) = self.timers.peek() {
            if at > deadline_ns {
                break;
            }
            self.fire_next_timer();
        }
        self.now_ns = self.now_ns.max(deadline_ns);
    }

    fn absorb(&mut self, from: Rank, outs: Vec<Output>) {
        for out in outs {
            match out {
                Output::ToBroker { to, msg } => {
                    if self.dead.contains(&to) {
                        continue;
                    }
                    self.queue.push_back((to, Input::FromBroker { plane: msg.plane(), from, msg }));
                }
                Output::ToClient { client, msg } => {
                    self.client_inbox.entry((from, client)).or_default().push_back(msg);
                }
                Output::SetTimer { delay_ns, token } => {
                    self.timer_seq += 1;
                    self.timers.push(Reverse((
                        self.now_ns + delay_ns,
                        self.timer_seq,
                        from.0,
                        token,
                    )));
                }
            }
        }
    }
}
