//! The broker core: routing, event sequencing, module dispatch.

use crate::builtin;
use crate::config::BrokerConfig;
use crate::io::{ClientId, Input, Output};
use crate::module::{CommsModule, Handled, ModuleCtx};
use flux_proto::{Event, Service};
use flux_topo::{LiveSet, Ring, Tree};
use flux_value::Value;
use flux_wire::{errnum, IdMap, Message, MsgId, MsgType, Payload, Rank, Topic};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Timer-token namespace: the top 16 bits identify the owner (0 = broker
/// core, `i + 1` = module index `i`); the low 48 bits are owner-private.
const TOKEN_OWNER_SHIFT: u32 = 48;

/// Shared broker state reachable from module contexts.
pub(crate) struct Core {
    config: BrokerConfig,
    tree: Tree,
    ring: Ring,
    /// Session liveness view, updated from `live.down` / `live.up` events.
    pub(crate) live: LiveSet,
    /// Per-broker RPC sequence counter.
    seq: u64,
    /// Current time, refreshed on every [`Broker::handle`] call.
    pub(crate) now_ns: u64,
    /// Outputs accumulated during the current handle() call.
    outputs: Vec<Output>,
    /// Module-originated RPCs awaiting responses: id → module index.
    /// A module relaying a request sends it on under the id it arrived
    /// with, so not every id here was minted by this broker.
    pending: IdMap<MsgId, usize>,
    /// Locally raised messages to process after the current dispatch.
    raised: VecDeque<Message>,
    /// Event-plane sequencing (root only).
    event_seq: u64,
    /// Last event sequence seen (all brokers; delivery-order check).
    last_event_seq: u64,
    /// Per-client event subscriptions: topic prefixes.
    // Ordered map: event fan-out to clients iterates this directly, so
    // delivery order must be deterministic (ascending client id).
    client_subs: BTreeMap<ClientId, Vec<String>>,
    /// Module indices matching responses queued in `raised`, FIFO.
    raised_response_module: VecDeque<usize>,
    /// Stamped events awaiting local delivery; `true` = also fan to
    /// children after local delivery (liveness updates carried by the
    /// event must apply before the child set is computed).
    deliver_queue: VecDeque<(Message, bool)>,
}

impl Core {
    pub(crate) fn rank(&self) -> Rank {
        self.config.rank
    }

    pub(crate) fn size(&self) -> u32 {
        self.config.size
    }

    pub(crate) fn config(&self) -> &BrokerConfig {
        &self.config
    }

    pub(crate) fn depth(&self) -> u32 {
        self.tree.depth(self.config.rank)
    }

    pub(crate) fn tree_height(&self) -> u32 {
        self.tree.height()
    }

    pub(crate) fn effective_parent(&self) -> Option<Rank> {
        self.live.effective_parent(&self.tree, self.config.rank)
    }

    pub(crate) fn effective_children(&self) -> Vec<Rank> {
        self.live.effective_children(&self.tree, self.config.rank)
    }

    pub(crate) fn next_msg_id(&mut self) -> MsgId {
        self.seq += 1;
        MsgId { origin: self.config.rank, seq: self.seq }
    }

    pub(crate) fn register_pending(&mut self, id: MsgId, module_idx: usize) {
        self.pending.insert(id, module_idx);
    }

    pub(crate) fn raise(&mut self, msg: Message) {
        self.raised.push_back(msg);
    }

    pub(crate) fn send_tree(&mut self, to: Rank, msg: Message) {
        self.outputs.push(Output::ToBroker { to, msg });
    }

    /// Answers `req`; with [`Core::respond_err`] and
    /// [`Core::forward_upstream`] the only ways this crate disposes of a
    /// request, for modules and the builtin service alike.
    pub(crate) fn respond(&mut self, req: &Message, payload: impl Into<Payload>) -> Handled {
        self.route_response(Message::response_to(req, payload));
        Handled(())
    }

    /// Every error response of this crate and of every module is built
    /// here, so here the error contract is held: a handler refuses with
    /// a code its method declares in `flux-proto`; what any RPC may
    /// answer — the transport's codes, `ENOSYS` — needs no declaration.
    pub(crate) fn respond_err(&mut self, req: &Message, errnum: u32) -> Handled {
        debug_assert!(
            errnum == errnum::ENOSYS
                || flux_proto::TRANSPORT_ERRORS.contains(&errnum)
                || flux_proto::spec_of(req.header.topic.as_str())
                    .is_some_and(|spec| spec.declared_errors.contains(&errnum)),
            "{} refused with errnum {errnum} ({}), which flux-proto does not declare for it",
            req.header.topic,
            errnum::strerror(errnum)
        );
        self.route_response(Message::error_response_to(req, errnum));
        Handled(())
    }

    /// Sends `msg` on to the effective parent; its hop stack unwinds the
    /// reply. At the root nothing upstream can serve it: `ENOSYS`.
    pub(crate) fn forward_upstream(&mut self, msg: Message) -> Handled {
        match self.effective_parent() {
            Some(parent) => {
                self.send_tree(parent, msg);
                Handled(())
            }
            None => self.respond_err(&msg, errnum::ENOSYS),
        }
    }

    /// Routes a response one step along its recorded hops (or completes a
    /// module-originated RPC if the hop stack is empty).
    pub(crate) fn route_response(&mut self, mut msg: Message) {
        match msg.header.hops.pop() {
            Some(hop) => match hop.as_client_hop() {
                Some(client) => self.outputs.push(Output::ToClient { client, msg }),
                None => self.outputs.push(Output::ToBroker { to: hop, msg }),
            },
            None => {
                // This broker originated the RPC from a module.
                if let Some(idx) = self.pending.remove(&msg.header.id) {
                    self.raised.push_back(msg);
                    self.raised_response_module.push_back(idx);
                }
                // else: stale response for a forgotten request; drop.
            }
        }
    }

    /// Forwards a rank-addressed request one hop toward its destination
    /// on the configured overlay (ring or fully connected), skipping dead
    /// ranks. A request addressed to a dead rank fails with EHOSTDOWN.
    pub(crate) fn route_ring(&mut self, msg: Message) {
        // Only rank-addressed messages reach here; one without a
        // destination is malformed and dropped rather than trusted.
        let Some(dst) = msg.header.dst else { return };
        if !self.live.is_up(dst) {
            if msg.header.msg_type == MsgType::Request {
                self.respond_err(&msg, errnum::EHOSTDOWN);
            }
            return;
        }
        let next = match self.config.rank_overlay {
            crate::RankOverlay::Ring => {
                let mut next = self.ring.next(self.config.rank);
                let mut guard = 0;
                while !self.live.is_up(next) && next != self.config.rank {
                    next = self.ring.next(next);
                    guard += 1;
                    assert!(guard <= self.config.size, "no live ranks on ring");
                }
                next
            }
            // Liveness was checked above; the destination is reachable
            // in one hop on the fully connected overlay.
            crate::RankOverlay::Full => dst,
        };
        self.outputs.push(Output::ToBroker { to: next, msg });
    }

    /// Publishes an event: root-sequenced, total-ordered session-wide.
    pub(crate) fn publish(&mut self, topic: Topic, payload: impl Into<Payload>) {
        let id = self.next_msg_id();
        let msg = Message::event(topic, id, self.config.rank, payload);
        if self.config.rank.is_root() {
            self.sequence_and_fan_out(msg);
        } else {
            // A non-root broker always has an effective parent; if the
            // healed tree momentarily disagrees, drop the publication
            // (events are retried by their publishers' protocols).
            let Some(parent) = self.effective_parent() else { return };
            self.outputs.push(Output::ToBroker { to: parent, msg });
        }
    }

    /// Root only: stamp the session sequence number and queue for local
    /// delivery followed by downward fan-out.
    fn sequence_and_fan_out(&mut self, mut msg: Message) {
        debug_assert!(self.config.rank.is_root());
        self.event_seq += 1;
        msg.header.id = MsgId { origin: Rank::ROOT, seq: self.event_seq };
        self.deliver_queue.push_back((msg, true));
    }

    /// Queues a stamped (downward-travelling) event: local delivery first,
    /// then fan-out to the (possibly updated) effective children.
    fn fan_down(&mut self, msg: Message) {
        self.deliver_queue.push_back((msg, true));
    }

    /// Emits the event to all effective children, plus any *down* direct
    /// tree children. Called after local delivery so liveness changes
    /// carried by the event are in force. Sending to down children costs
    /// nothing while they are truly dead (the transport drops it), but it
    /// is what lets a silently revived broker hear heartbeats again and
    /// announce itself — without it, a restart could never rejoin.
    pub(crate) fn fan_children(&mut self, msg: &Message) {
        let mut targets = self.effective_children();
        for child in self.tree.children(self.config.rank) {
            if !self.live.is_up(child) && !targets.contains(&child) {
                targets.push(child);
            }
        }
        for child in targets {
            // Message clones are header-shallow (Arc'd topic and
            // payload): the per-child fan-out copy is two refcount
            // bumps, not a payload copy.
            self.outputs.push(Output::ToBroker { to: child, msg: msg.clone() });
        }
    }

    pub(crate) fn set_module_timer(&mut self, module_idx: usize, delay_ns: u64, token: u64) {
        assert!(token < (1 << TOKEN_OWNER_SHIFT), "module timer token too large");
        let owner = (module_idx as u64 + 1) << TOKEN_OWNER_SHIFT;
        self.outputs.push(Output::SetTimer { delay_ns, token: owner | token });
    }
}

/// A comms session broker. See the crate docs for the model.
pub struct Broker {
    core: Core,
    /// Module slots; taken during dispatch to satisfy the borrow checker.
    modules: Vec<Option<Box<dyn CommsModule>>>,
    names: HashMap<&'static str, usize>,
    subs: Vec<(usize, String)>,
    started: bool,
}

impl Broker {
    /// Creates a broker with the given modules loaded.
    ///
    /// # Panics
    /// Panics on invalid config or duplicate module names.
    pub fn new(config: BrokerConfig, modules: Vec<Box<dyn CommsModule>>) -> Broker {
        config.validate();
        let tree = Tree::new(config.size, config.arity);
        let ring = Ring::new(config.size);
        let live = LiveSet::new(config.size);
        let mut names = HashMap::new();
        let mut subs = Vec::new();
        for (i, m) in modules.iter().enumerate() {
            let prev = names.insert(m.name(), i);
            assert!(prev.is_none(), "duplicate module {}", m.name());
            for s in m.subscriptions() {
                subs.push((i, s));
            }
        }
        Broker {
            core: Core {
                config,
                tree,
                ring,
                live,
                seq: 0,
                now_ns: 0,
                outputs: Vec::new(),
                pending: IdMap::default(),
                raised: VecDeque::new(),
                raised_response_module: VecDeque::new(),
                deliver_queue: VecDeque::new(),
                event_seq: 0,
                last_event_seq: 0,
                client_subs: BTreeMap::new(),
            },
            modules: modules.into_iter().map(Some).collect(),
            names,
            subs,
            started: false,
        }
    }

    /// This broker's rank.
    pub fn rank(&self) -> Rank {
        self.core.rank()
    }

    /// This broker's depth in the tree plane.
    pub fn depth(&self) -> u32 {
        self.core.depth()
    }

    /// Names of loaded modules, in load order.
    pub fn module_names(&self) -> Vec<&'static str> {
        let mut v: Vec<(usize, &'static str)> =
            self.names.iter().map(|(&n, &i)| (i, n)).collect();
        v.sort_unstable();
        v.into_iter().map(|(_, n)| n).collect()
    }

    /// Runs module `on_start` hooks. Must be called once before `handle`.
    pub fn start(&mut self, now_ns: u64) -> Vec<Output> {
        assert!(!self.started, "broker started twice");
        self.started = true;
        self.core.now_ns = now_ns;
        for i in 0..self.modules.len() {
            self.with_module(i, |m, ctx| m.on_start(ctx));
        }
        self.drain_raised();
        std::mem::take(&mut self.core.outputs)
    }

    /// Publishes an event as if a local module had: runtimes and tests use
    /// this to inject session events (e.g. administrative liveness
    /// updates) without going through a module.
    pub fn publish(&mut self, now_ns: u64, topic: Topic, payload: impl Into<Payload>) -> Vec<Output> {
        assert!(self.started, "broker not started");
        self.core.now_ns = now_ns;
        self.core.publish(topic, payload);
        self.drain_raised();
        std::mem::take(&mut self.core.outputs)
    }

    /// Hands back a `Vec` that [`Broker::handle`] (or `start`, or
    /// `publish`) returned, once the runtime has drained it. The next call
    /// fills it again, so a warm broker allocates no output buffer per
    /// input. Whatever the `Vec` still holds is dropped.
    pub fn recycle(&mut self, mut outputs: Vec<Output>) {
        // Between calls the broker's own buffer is the empty one every
        // call leaves behind.
        if self.core.outputs.is_empty() && self.core.outputs.capacity() < outputs.capacity() {
            outputs.clear();
            self.core.outputs = outputs;
        }
    }

    /// Processes one input and returns the effects to perform.
    pub fn handle(&mut self, now_ns: u64, input: Input) -> Vec<Output> {
        assert!(self.started, "broker not started");
        self.core.now_ns = now_ns;
        match input {
            Input::FromClient { client, msg } => {
                // Clients only send requests; anything else is a
                // protocol violation. Dropped, not panicked: over a
                // live transport a misbehaving client must not be able
                // to take its broker down.
                if msg.header.msg_type == MsgType::Request {
                    let mut msg = msg;
                    msg.header.hops.push(Rank::client_hop(client));
                    self.route_request(msg);
                }
            }
            Input::FromBroker { from, msg, .. } => match msg.header.msg_type {
                MsgType::Request => {
                    let mut msg = msg;
                    msg.header.hops.push(from);
                    self.route_request(msg);
                }
                MsgType::Response => self.core.route_response(msg),
                MsgType::Event => self.handle_event_arrival(from, msg),
            },
            Input::Timer { token } => {
                let owner = (token >> TOKEN_OWNER_SHIFT) as usize;
                let private = token & ((1 << TOKEN_OWNER_SHIFT) - 1);
                if owner == 0 {
                    // Broker-core timers (currently none).
                } else {
                    let idx = owner - 1;
                    if idx < self.modules.len() {
                        self.with_module(idx, |m, ctx| m.on_timer(ctx, private));
                    }
                }
            }
        }
        self.drain_raised();
        std::mem::take(&mut self.core.outputs)
    }

    /// Routes a request: ring-addressed requests travel the ring; others
    /// dispatch to the first matching local module or continue upstream.
    fn route_request(&mut self, msg: Message) {
        if let Some(dst) = msg.header.dst {
            if dst == self.core.rank() {
                self.dispatch_request(msg);
            } else {
                self.core.route_ring(msg);
            }
            return;
        }
        self.dispatch_request(msg);
    }

    /// Dispatches to a local module, the broker's builtin `cmb` service,
    /// or forwards upstream; at the root an unmatched request fails with
    /// ENOSYS.
    fn dispatch_request(&mut self, msg: Message) -> Handled {
        // Resolve the target while borrowing the topic, then release the
        // borrow before `msg` moves: no owned copy of the service name.
        enum Target {
            Builtin,
            Module(usize),
            Forward,
        }
        let target = {
            let service = msg.header.topic.service();
            if service == Service::Cmb.name() {
                Target::Builtin
            } else if let Some(&idx) = self.names.get(service) {
                Target::Module(idx)
            } else {
                Target::Forward
            }
        };
        match target {
            Target::Builtin => builtin::handle(self, msg),
            Target::Module(idx) => self.with_module(idx, |m, ctx| m.handle_request(ctx, msg)),
            // Rank-addressed request reached its target but nothing serves
            // the topic here.
            Target::Forward if msg.header.dst.is_some() => {
                self.core.respond_err(&msg, errnum::ENOSYS)
            }
            Target::Forward => self.core.forward_upstream(msg),
        }
    }

    /// Event-plane arrivals: upward-travelling publications head for the
    /// root; stamped events fan down, get delivered to subscribed modules
    /// and clients, and drive the heartbeat hook.
    fn handle_event_arrival(&mut self, from: Rank, msg: Message) {
        let from_upstream = self.core.tree.is_ancestor(from, self.core.rank());
        if from_upstream && from != self.core.rank() {
            // Stamped event travelling downward.
            debug_assert!(msg.header.id.origin.is_root(), "downward event must be stamped");
            self.core.fan_down(msg);
            self.drain_raised();
        } else if self.core.rank().is_root() {
            // Raw publication arriving from our subtree.
            self.core.sequence_and_fan_out(msg);
            self.drain_raised();
        } else {
            // Raw publication still climbing; relay toward the root. As
            // in `publish`, a missing parent during healing drops it.
            let Some(parent) = self.core.effective_parent() else { return };
            self.core.outputs.push(Output::ToBroker { to: parent, msg });
        }
    }

    /// Delivers one stamped event locally: liveness bookkeeping, module
    /// subscriptions, client subscriptions, heartbeat hook. Returns
    /// `false` for a stale or duplicate event (sequence at or below the
    /// newest already delivered) — routine under fault injection
    /// (duplicated frames, delayed copies overtaken by newer events) and
    /// during tree healing, when a broker can briefly hear two parents.
    /// Stale events are dropped without redelivery or re-fanning.
    fn deliver_event_locally(&mut self, msg: &Message) -> bool {
        let seq = msg.header.id.seq;
        if seq <= self.core.last_event_seq {
            return false;
        }
        self.core.last_event_seq = seq;

        let topic = &msg.header.topic;

        // Liveness view: the broker core itself tracks live.down/live.up
        // so routing self-heals no matter which modules are loaded.
        if topic.as_str() == Event::LiveDown.topic_str() {
            if let Some(r) = msg.payload.get("rank").and_then(Value::as_uint) {
                let r = Rank(r as u32);
                if !r.is_root() {
                    self.core.live.mark_down(r);
                }
            }
        } else if topic.as_str() == Event::LiveUp.topic_str() {
            if let Some(r) = msg.payload.get("rank").and_then(Value::as_uint) {
                self.core.live.mark_up(Rank(r as u32));
            }
        }

        // Module subscriptions.
        for i in 0..self.subs.len() {
            let (idx, ref prefix) = self.subs[i];
            if topic.matches_prefix(prefix) {
                self.with_module(idx, |m, ctx| m.handle_event(ctx, msg));
            }
        }

        // Heartbeat hook.
        if topic.as_str() == Event::Hb.topic_str() {
            let epoch = msg.payload.get("epoch").and_then(Value::as_uint).unwrap_or(0);
            for i in 0..self.modules.len() {
                self.with_module(i, |m, ctx| m.on_heartbeat(ctx, epoch));
            }
        }

        // Client subscriptions: `client_subs` is ordered by client id,
        // so iterating it directly gives deterministic delivery order
        // with no scratch list or sort on the event path.
        for (&client, prefixes) in &self.core.client_subs {
            if prefixes.iter().any(|p| topic.matches_prefix(p)) {
                // Header-shallow, as in `fan_children`.
                self.core.outputs.push(Output::ToClient { client, msg: msg.clone() });
            }
        }
        true
    }

    /// Runs `f` against module `idx` with a fresh context.
    fn with_module<R>(
        &mut self,
        idx: usize,
        f: impl FnOnce(&mut dyn CommsModule, &mut ModuleCtx<'_>) -> R,
    ) -> R {
        #[expect(
            clippy::expect_used,
            reason = "module re-entry is a broker bug, not an input condition; continuing \
                      with a vanished module would silently drop its traffic"
        )]
        let mut m = self.modules[idx].take().expect("module re-entered");
        let out = f(&mut *m, &mut ModuleCtx { core: &mut self.core, module_idx: idx });
        self.modules[idx] = Some(m);
        out
    }

    /// Runs `f` as module `idx` outside any input, then settles what it
    /// raised, as [`Broker::handle`] does after a handler.
    pub(crate) fn run_as_module<R>(
        &mut self,
        idx: usize,
        f: impl FnOnce(&mut ModuleCtx<'_>) -> R,
    ) -> (R, Vec<Output>) {
        let out = self.with_module(idx, |_, ctx| f(ctx));
        self.drain_raised();
        (out, std::mem::take(&mut self.core.outputs))
    }

    /// Processes locally raised messages (module-originated local requests
    /// and completed module RPC responses) and queued event deliveries
    /// until quiescent.
    fn drain_raised(&mut self) {
        loop {
            if let Some((msg, fan)) = self.core.deliver_queue.pop_front() {
                let fresh = self.deliver_event_locally(&msg);
                if fan && fresh {
                    self.core.fan_children(&msg);
                }
                continue;
            }
            let Some(msg) = self.core.raised.pop_front() else { break };
            match msg.header.msg_type {
                MsgType::Request => self.route_request(msg),
                MsgType::Response => {
                    #[expect(
                        clippy::expect_used,
                        reason = "raised and raised_response_module are pushed in lockstep by \
                                  Core::raise; divergence is memory corruption, not load"
                    )]
                    let idx = self
                        .core
                        .raised_response_module
                        .pop_front()
                        .expect("response raised with module idx");
                    self.with_module(idx, |m, ctx| m.handle_response(ctx, &msg));
                }
                #[expect(
                    clippy::unreachable,
                    reason = "Core::raise never queues events; this arm existing at all is a \
                              local logic bug"
                )]
                MsgType::Event => unreachable!("events are not raised"),
            }
        }
    }

    /// Client subscription management, exposed for the builtin service.
    pub(crate) fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// Shared core view for the builtin service.
    pub(crate) fn core(&self) -> &Core {
        &self.core
    }
}

impl Core {
    pub(crate) fn subscribe_client(&mut self, client: ClientId, prefix: String) {
        self.client_subs.entry(client).or_default().push(prefix);
    }

    pub(crate) fn unsubscribe_client(&mut self, client: ClientId, prefix: &str) {
        if let Some(v) = self.client_subs.get_mut(&client) {
            v.retain(|p| p != prefix);
            if v.is_empty() {
                self.client_subs.remove(&client);
            }
        }
    }
}
