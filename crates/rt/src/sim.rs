//! Comms sessions on the discrete-event simulator.

use crate::faults::FaultPlan;
use crate::host::{Effect, Host};
use flux_broker::{Broker, BrokerConfig, ClientId, CommsModule};
use flux_sim::{Actor, ActorId, Ctx, Engine, NetParams, SimDuration, SimTime};
use flux_wire::{Message, Rank};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Who an actor id belongs to, from a broker's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PeerKind {
    Broker(Rank),
    Client(ClientId),
}

/// Shared address book mapping actor ids to session roles.
///
/// Routing is dense: actor ids and ranks are small consecutive integers
/// (engine slab indices / session ranks), so every per-delivery lookup is
/// a `Vec` index instead of a hash — at 8192-rank KAP scale the routing
/// table is consulted on every one of hundreds of thousands of hops.
#[derive(Default)]
struct AddressBook {
    /// Peer role, indexed by actor id. `None` = unknown or unregistered
    /// (e.g. a killed broker).
    by_actor: Vec<Option<PeerKind>>,
    /// Broker actor, indexed by rank. `None` after the rank was killed.
    broker_of_rank: Vec<Option<ActorId>>,
    /// Client actor, indexed by broker actor id then broker-local client
    /// id (clients per broker are few and consecutive).
    client_actor: Vec<Vec<Option<ActorId>>>,
}

impl AddressBook {
    fn slot<T>(v: &mut Vec<Option<T>>, i: usize) -> &mut Option<T> {
        if v.len() <= i {
            v.resize_with(i + 1, || None);
        }
        &mut v[i]
    }

    fn register_broker(&mut self, actor: ActorId, rank: Rank) {
        *Self::slot(&mut self.by_actor, actor) = Some(PeerKind::Broker(rank));
        *Self::slot(&mut self.broker_of_rank, rank.0 as usize) = Some(actor);
    }

    fn register_client(&mut self, broker_actor: ActorId, client: ClientId, actor: ActorId) {
        *Self::slot(&mut self.by_actor, actor) = Some(PeerKind::Client(client));
        if self.client_actor.len() <= broker_actor {
            self.client_actor.resize_with(broker_actor + 1, Vec::new);
        }
        *Self::slot(&mut self.client_actor[broker_actor], client as usize) = Some(actor);
    }

    /// Forgets a killed broker: it stops being a routable destination and
    /// a recognized sender.
    fn unregister_broker(&mut self, actor: ActorId, rank: Rank) {
        if let Some(s) = self.by_actor.get_mut(actor) {
            *s = None;
        }
        if let Some(s) = self.broker_of_rank.get_mut(rank.0 as usize) {
            *s = None;
        }
    }

    fn peer_of(&self, actor: ActorId) -> Option<PeerKind> {
        self.by_actor.get(actor).copied().flatten()
    }

    fn broker_of(&self, rank: Rank) -> Option<ActorId> {
        self.broker_of_rank.get(rank.0 as usize).copied().flatten()
    }

    fn client_of(&self, broker_actor: ActorId, client: ClientId) -> Option<ActorId> {
        self.client_actor
            .get(broker_actor)
            .and_then(|v| v.get(client as usize))
            .copied()
            .flatten()
    }
}

/// A bounded [`SimSession::run_until_quiet`] run exhausted its event
/// budget with events still pending: the schedule livelocked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Livelock {
    /// Virtual time when the budget ran out.
    pub at: SimTime,
    /// The budget that was exhausted.
    pub budget: u64,
}

impl std::fmt::Display for Livelock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event budget {} exhausted at t={} with events still pending", self.budget, self.at)
    }
}

impl std::error::Error for Livelock {}

/// The actor hosting one broker: a driver over its [`Host`].
struct BrokerActor {
    host: Host,
    book: Rc<RefCell<AddressBook>>,
}

/// Carries out one of the host's effects as an engine action. A send to
/// an unregistered (killed) rank is dropped.
fn perform(ctx: &mut Ctx<'_>, book: &AddressBook, effect: Effect) {
    match effect {
        Effect::Send { to, msg, delay_ns } => {
            if let Some(target) = book.broker_of(to) {
                ctx.send_delayed(target, msg, SimDuration::from_nanos(delay_ns));
            }
        }
        Effect::Reply { client, msg } => {
            if let Some(target) = book.client_of(ctx.self_id(), client) {
                ctx.send(target, msg);
            }
        }
        Effect::Timer { delay_ns, token } => {
            ctx.set_timer(SimDuration::from_nanos(delay_ns), token);
        }
    }
}

impl Actor for BrokerActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let book = self.book.borrow();
        self.host.start(ctx.now().as_nanos(), |e| perform(ctx, &book, e));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, msg: Message) {
        let now_ns = ctx.now().as_nanos();
        let book = self.book.borrow();
        let sink = |e| perform(ctx, &book, e);
        match book.peer_of(from) {
            Some(PeerKind::Broker(rank)) => self.host.on_broker(now_ns, rank, msg, sink),
            Some(PeerKind::Client(client)) => self.host.on_client(now_ns, client, msg, sink),
            None => {} // unknown sender (killed and unregistered)
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let book = self.book.borrow();
        self.host.timer(ctx.now().as_nanos(), token, |e| perform(ctx, &book, e));
    }
}

/// A full comms session on the simulator: one node and one broker per
/// rank, plus any client-process actors attached to brokers.
///
/// # Example
///
/// ```
/// use flux_rt::script::{Op, ScriptClient};
/// use flux_rt::sim::SimSession;
/// use flux_sim::NetParams;
/// use flux_wire::Rank;
///
/// let mut session = SimSession::new(8, 2, NetParams::default(), |_rank| {
///     vec![Box::new(flux_kvs::KvsModule::new()) as Box<dyn flux_broker::CommsModule>]
/// });
/// let outcome = ScriptClient::spawn(&mut session, Rank(5), vec![Op::GetVersion]);
/// session.run_until_quiet(None).expect("unbounded runs cannot livelock");
/// assert!(outcome.borrow().finished);
/// assert!(session.engine().stats().messages_delivered > 0);
/// ```
pub struct SimSession {
    engine: Engine,
    book: Rc<RefCell<AddressBook>>,
    size: u32,
    next_client: HashMap<Rank, ClientId>,
}

impl SimSession {
    /// Builds a session of `size` brokers (one node each) with tree
    /// `arity`; `factory` produces each rank's module set.
    pub fn new<F>(size: u32, arity: u32, params: NetParams, factory: F) -> SimSession
    where
        F: Fn(Rank) -> Vec<Box<dyn CommsModule>>,
    {
        Self::with_config(
            size,
            params,
            |r| BrokerConfig::new(r, size).with_arity(arity),
            factory,
            None,
        )
    }

    /// Like [`SimSession::new`] with full per-rank config control, and
    /// `faults` applied to every broker's links.
    pub fn with_config<C, F>(
        size: u32,
        params: NetParams,
        config: C,
        factory: F,
        faults: Option<&FaultPlan>,
    ) -> SimSession
    where
        C: Fn(Rank) -> BrokerConfig,
        F: Fn(Rank) -> Vec<Box<dyn CommsModule>>,
    {
        let mut engine = Engine::new(params);
        let book = Rc::new(RefCell::new(AddressBook::default()));
        for r in 0..size {
            let rank = Rank(r);
            let node = engine.add_node();
            let host = Host::new(Broker::new(config(rank), factory(rank)), faults);
            let actor =
                engine.add_actor(node, Box::new(BrokerActor { host, book: Rc::clone(&book) }));
            book.borrow_mut().register_broker(actor, rank);
        }
        SimSession { engine, book, size, next_client: HashMap::new() }
    }

    /// Session size in brokers.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// The underlying engine (stats, clock, failure injection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// The actor id of a rank's broker.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is outside the session or its broker was killed.
    pub fn broker_actor(&self, rank: Rank) -> ActorId {
        // flux-lint: allow(panic) — an out-of-session or killed rank is
        // caller error; drivers check `is_broker_actor` first.
        self.book.borrow().broker_of(rank).expect("no live broker for rank")
    }

    /// True if `actor` is one of the session's broker actors (as opposed
    /// to an attached client process). Controlled-scheduling drivers use
    /// this to restrict fault-style choices (e.g. frame duplication) to
    /// broker-to-broker links, matching the fault layer's model.
    pub fn is_broker_actor(&self, actor: ActorId) -> bool {
        matches!(self.book.borrow().peer_of(actor), Some(PeerKind::Broker(_)))
    }

    /// Attaches a client-process actor to `rank`'s broker, placed on the
    /// broker's node (IPC-class links). The factory receives
    /// `(broker_actor, client_id)`; the actor it returns talks to the
    /// broker by sending [`Message`]s to `broker_actor`.
    pub fn add_client<F>(&mut self, rank: Rank, make: F) -> ActorId
    where
        F: FnOnce(ActorId, ClientId) -> Box<dyn Actor>,
    {
        let broker_actor = self.broker_actor(rank);
        let node = self.engine.node_of(broker_actor);
        let client_id = {
            let slot = self.next_client.entry(rank).or_insert(0);
            let id = *slot;
            *slot += 1;
            id
        };
        let actor = self.engine.add_actor(node, make(broker_actor, client_id));
        self.book.borrow_mut().register_client(broker_actor, client_id, actor);
        actor
    }

    /// Kills a broker (failure injection): the actor dies and the address
    /// book forgets it so in-flight traffic is dropped, as on a real node
    /// failure. The `live` module will detect it via missed hellos.
    pub fn kill_broker(&mut self, rank: Rank) {
        assert!(!rank.is_root(), "root failure ends the session");
        let actor = self.broker_actor(rank);
        self.engine.kill(actor);
        // Forget the dead broker so survivors neither route to it nor
        // accept its in-flight traffic: a message already on the wire
        // from the victim now hits the unknown-sender path and is
        // ignored, as on a real node failure.
        self.book.borrow_mut().unregister_broker(actor, rank);
    }

    /// Runs until the event heap drains; returns the final virtual time.
    ///
    /// With `budget = Some(n)` at most `n` further events are processed;
    /// if the session still has pending events after that, the run is
    /// livelocked (a protocol ping-pong or a runaway schedule) and a
    /// [`Livelock`] error is returned instead of spinning forever. With
    /// `budget = None` the call cannot fail.
    pub fn run_until_quiet(&mut self, budget: Option<u64>) -> Result<SimTime, Livelock> {
        match budget {
            None => Ok(self.engine.run()),
            Some(n) => {
                let (at, quiet) = self.engine.run_budgeted(n);
                if quiet {
                    Ok(at)
                } else {
                    Err(Livelock { at, budget: n })
                }
            }
        }
    }

    /// Runs until the given virtual deadline.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.engine.run_until(deadline)
    }
}
