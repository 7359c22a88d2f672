//! The comms-module plugin interface.
//!
//! Paper §IV-A: *"The various service components of Flux have been
//! implemented as comms modules, plugins which are loaded into the CMB
//! address space and pass messages over shared memory."* A module owns a
//! service name (`kvs`, `barrier`, …); requests whose topic service
//! matches are dispatched to it at the first broker along the upstream
//! path where the module is loaded.

use crate::broker::Core;
use flux_proto::MethodKind;
use flux_wire::{errnum, Message, MsgId, Payload, Rank, Topic};

/// Proof that a request was disposed of: the return type of
/// [`CommsModule::handle_request`], so rustc checks on every path —
/// each early return, each `if` without `else`, the unknown-method arm —
/// that the handler answered, forwarded, parked or knowingly dropped
/// what it was given. Only [`ModuleCtx`] hands one out, through
/// [`respond`](ModuleCtx::respond), [`respond_err`](ModuleCtx::respond_err),
/// [`forward_upstream`](ModuleCtx::forward_upstream),
/// [`forward_to_rank`](ModuleCtx::forward_to_rank),
/// [`park`](ModuleCtx::park), [`one_way`](ModuleCtx::one_way) and
/// [`drop_duplicate`](ModuleCtx::drop_duplicate).
///
/// It is not `#[must_use]`: a reply sent later from a pending table
/// yields a proof nobody needs.
///
/// A handler with a branch that falls through does not compile:
///
/// ```compile_fail,E0308
/// use flux_broker::{CommsModule, Handled, ModuleCtx};
/// use flux_wire::{errnum, Message};
/// struct Gate(bool);
/// impl CommsModule for Gate {
///     fn name(&self) -> &'static str {
///         "gate"
///     }
///     fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
///         if self.0 {
///             return ctx.respond(&msg, flux_value::Value::object());
///         }
///     }
/// }
/// ```
///
/// Its twin, which answers on that branch too, does:
///
/// ```
/// use flux_broker::{CommsModule, Handled, ModuleCtx};
/// use flux_wire::{errnum, Message};
/// struct Gate(bool);
/// impl CommsModule for Gate {
///     fn name(&self) -> &'static str {
///         "gate"
///     }
///     fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
///         if self.0 {
///             return ctx.respond(&msg, flux_value::Value::object());
///         }
///         ctx.respond_err(&msg, errnum::EAGAIN)
///     }
/// }
/// ```
///
/// And no code outside this crate can forge one:
///
/// ```compile_fail,E0423
/// let forged = flux_broker::Handled(());
/// ```
pub struct Handled(pub(crate) ());

/// Who sent a request, unique wherever a module sits in the tree: the
/// client connection (absent for a module's own request) and the broker
/// it is attached to (absent when it is this one). A client id alone is
/// unique only among one broker's clients.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Requester(pub Option<Rank>, pub Option<Rank>);

/// The [`Requester`] of `msg`.
pub fn requester_of(msg: &Message) -> Requester {
    let mut hops = msg.header.hops.iter().copied();
    Requester(hops.next(), hops.next())
}

/// A service plugin loaded into a broker.
///
/// All handlers receive a [`ModuleCtx`] through which they reply, issue
/// their own upstream or rank-addressed RPCs, publish events, and set
/// timers. Handlers run to completion; long-running work is expressed as
/// state machines driven by responses, events, heartbeats, and timers.
///
/// `Send` is required so the threaded runtime can host brokers on their
/// own threads; module state is owned by exactly one broker at a time.
pub trait CommsModule: Send {
    /// The service name this module answers to (`kvs` handles `kvs.*`).
    fn name(&self) -> &'static str;

    /// Event-topic prefixes this module wants delivered to
    /// [`CommsModule::handle_event`].
    fn subscriptions(&self) -> Vec<String> {
        Vec::new()
    }

    /// The topics of the responses this module wants shown to
    /// [`CommsModule::handle_passing_response`]; any other response
    /// passes this broker without a look.
    fn passing_responses(&self) -> Vec<Topic> {
        Vec::new()
    }

    /// Called once when the broker starts.
    fn on_start(&mut self, _ctx: &mut ModuleCtx<'_>) {}

    /// A request addressed to this module, handed over: the module owns
    /// it, so parking or forwarding it is a move. The [`Handled`] it
    /// returns is the proof that `msg` was disposed of on the path taken.
    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled;

    /// The response to an RPC this module issued via
    /// [`ModuleCtx::request`], [`ModuleCtx::request_upstream`] or
    /// [`ModuleCtx::request_to_rank`].
    fn handle_response(&mut self, _ctx: &mut ModuleCtx<'_>, _msg: &Message) {}

    /// A response on one of the module's
    /// [`CommsModule::passing_responses`] topics, arriving from another
    /// broker on its way down a hop stack: the answer to a request this
    /// broker passed on ([`ModuleCtx::forward_upstream`],
    /// [`ModuleCtx::forward_to_rank`], or the routing of a topic no
    /// module here serves). The module may read it; the broker routes it
    /// on after the call.
    fn handle_passing_response(&mut self, _ctx: &mut ModuleCtx<'_>, _msg: &Message) {}

    /// An event matching one of this module's subscriptions.
    fn handle_event(&mut self, _ctx: &mut ModuleCtx<'_>, _msg: &Message) {}

    /// The session heartbeat (delivered on every broker when the `hb`
    /// event arrives). Modules synchronize background activity to this
    /// pulse to reduce scheduling jitter.
    fn on_heartbeat(&mut self, _ctx: &mut ModuleCtx<'_>, _epoch: u64) {}

    /// A timer set through [`ModuleCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut ModuleCtx<'_>, _token: u64) {}
}

/// Handler context handed to module callbacks.
///
/// Wraps the broker core with the identity of the module being dispatched
/// (used to namespace timers and route RPC responses back to the issuing
/// module).
pub struct ModuleCtx<'a> {
    pub(crate) core: &'a mut Core,
    pub(crate) module_idx: usize,
}

impl<'a> ModuleCtx<'a> {
    /// This broker's rank.
    pub fn rank(&self) -> Rank {
        self.core.rank()
    }

    /// Session size in brokers.
    pub fn size(&self) -> u32 {
        self.core.size()
    }

    /// True on the session root (rank 0).
    pub fn is_root(&self) -> bool {
        self.core.rank().is_root()
    }

    /// Current time in nanoseconds (virtual or real depending on runtime).
    pub fn now_ns(&self) -> u64 {
        self.core.now_ns
    }

    /// The sequence number of the newest event this broker delivered:
    /// events are numbered in one session-wide order at the root.
    pub fn last_event_seq(&self) -> u64 {
        self.core.last_event_seq
    }

    /// The effective (live) tree children.
    pub fn children(&self) -> Vec<Rank> {
        self.core.effective_children()
    }

    /// This broker's depth in the tree plane.
    pub fn depth(&self) -> u32 {
        self.core.depth()
    }

    /// The height of the session's tree plane (max depth over all ranks).
    pub fn tree_height(&self) -> u32 {
        self.core.tree_height()
    }

    /// True if `r` is currently believed alive.
    pub fn is_up(&self, r: Rank) -> bool {
        self.core.live.is_up(r)
    }

    /// Sends a successful response to `req` (routed back along its hops).
    ///
    /// May be called more than once for the same request — `kvs.watch`
    /// uses repeated responses to stream updates to a client.
    pub fn respond(&mut self, req: &Message, payload: impl Into<Payload>) -> Handled {
        self.core.respond(req, payload)
    }

    /// Sends an error response to `req`.
    pub fn respond_err(&mut self, req: &Message, errnum: u32) -> Handled {
        self.core.respond_err(req, errnum)
    }

    /// Sends an error response to `req` whose payload says more than its
    /// code: `payload` in place of `{errstr}`. The code is held to the
    /// contract [`ModuleCtx::respond_err`] keeps.
    pub fn respond_err_with(
        &mut self,
        req: &Message,
        errnum: u32,
        payload: impl Into<Payload>,
    ) -> Handled {
        self.core.refuse(Message::error_response_with(req, errnum, payload))
    }

    /// Passes `req` on to the effective parent, exactly as the broker
    /// does for a topic no local module serves: the same request climbs
    /// on, and the reply unwinds through its hop stack without coming
    /// back to this module. At the root the requester gets `ENOSYS`.
    pub fn forward_upstream(&mut self, mut req: Message) -> Handled {
        // A rank-addressed request has arrived; from here it climbs.
        req.header.dst = None;
        self.core.forward_upstream(req)
    }

    /// Passes `req` on rank-addressed to `to` over the ring plane, as the
    /// broker routes any request addressed there: its reply unwinds
    /// through the hop stack, past this module. A dead `to` answers
    /// `EHOSTDOWN`.
    pub fn forward_to_rank(&mut self, to: Rank, mut req: Message) -> Handled {
        req.header.dst = Some(to);
        self.core.route_ring(req);
        Handled(())
    }

    /// Keeps `req` for a later reply: the proof comes only together with
    /// the request, handed back to be stored.
    pub fn park(&self, req: Message) -> (Message, Handled) {
        (req, Handled(()))
    }

    /// Disposes of a request that is never answered: a one-way
    /// notification or an opened stream.
    pub fn one_way(&self, req: &Message) -> Handled {
        debug_assert!(
            flux_proto::kind_of(req.header.topic.as_str()) != Some(MethodKind::Rpc),
            "{} is an RPC: it must be answered",
            req.header.topic
        );
        Handled(())
    }

    /// Drops a transport duplicate of a request whose first copy still
    /// carries the reply obligation (parked, awaiting its answer).
    /// Answering the copy too would reply twice, or early.
    pub fn drop_duplicate(&self, _req: &Message) -> Handled {
        Handled(())
    }

    /// Issues an RPC, under a fresh id, to this module's counterpart on
    /// the upstream path: [`ModuleCtx::request`] with no `id` or `to`.
    pub fn request_upstream(&mut self, topic: Topic, payload: impl Into<Payload>) -> Result<MsgId, u32> {
        self.request(None, None, topic, payload)
    }

    /// Sends a one-way request upstream (no response expected, nothing
    /// registered). A duplicating transport may deliver it twice: a flow
    /// that is not idempotent goes through [`crate::reduce::Reduction`],
    /// which sends with this and lets the receiver tell a copy.
    ///
    /// At the root, where there is no upstream, nothing is sent.
    pub fn notify_upstream(&mut self, topic: Topic, payload: impl Into<Payload>) {
        let Some(parent) = self.core.effective_parent() else { return };
        let id = self.core.next_msg_id();
        let msg = Message::request(topic, id, self.core.rank(), payload);
        self.core.send_tree(parent, msg);
    }

    /// Issues a rank-addressed RPC over the ring plane, under a fresh id.
    pub fn request_to_rank(&mut self, to: Rank, topic: Topic, payload: impl Into<Payload>) -> MsgId {
        let id = self.core.next_msg_id();
        // Only an upstream send can be refused.
        let _ = self.request(Some(id), Some(to), topic, payload);
        id
    }

    /// Sends this module's RPC `id` (`None`: a fresh one) up the tree
    /// from the effective parent (`to` = `None`) or rank-addressed to
    /// `to`; the response comes to [`CommsModule::handle_response`]. A
    /// retry passes the id its request already has, so the handler can
    /// tell a repeat from a new request. Returns the id, or
    /// `Err(ENOENT)` upstream at the root.
    pub fn request(
        &mut self,
        id: Option<MsgId>,
        to: Option<Rank>,
        topic: Topic,
        payload: impl Into<Payload>,
    ) -> Result<MsgId, u32> {
        let parent = match to {
            Some(_) => None,
            None => Some(self.core.effective_parent().ok_or(errnum::ENOENT)?),
        };
        let id = id.unwrap_or_else(|| self.core.next_msg_id());
        let mut msg = Message::request(topic, id, self.core.rank(), payload);
        msg.header.dst = to;
        self.core.register_pending(id, self.module_idx);
        match parent {
            Some(parent) => self.core.send_tree(parent, msg),
            None => self.core.route_ring(msg),
        }
        Ok(id)
    }

    /// Publishes an event session-wide. Events are sequenced through the
    /// root, so all brokers observe all events in one total order.
    pub fn publish(&mut self, topic: Topic, payload: impl Into<Payload>) {
        self.core.publish(topic, payload);
    }

    /// Sets a module-private timer; `token` comes back in
    /// [`CommsModule::on_timer`].
    pub fn set_timer(&mut self, delay_ns: u64, token: u64) {
        self.core.set_module_timer(self.module_idx, delay_ns, token);
    }

    /// Broker configuration (tree shape, heartbeat period, overlay).
    pub fn config(&self) -> &crate::BrokerConfig {
        self.core.config()
    }

    /// Submits a locally originated request into this broker's routing
    /// (e.g. the `wexec` module storing output via `kvs.put`). Dispatched
    /// after the current handler returns; any response is routed to this
    /// module's [`CommsModule::handle_response`].
    pub fn local_request(&mut self, topic: Topic, payload: impl Into<Payload>) -> MsgId {
        let id = self.core.next_msg_id();
        let msg = Message::request(topic, id, self.core.rank(), payload);
        self.core.register_pending(id, self.module_idx);
        self.core.raise(msg);
        id
    }
}
