//! The `kvs` comms module: one instance per broker, every instance the
//! same code.
//!
//! Protocol topics (all under the `kvs` service):
//!
//! | topic              | payload                               | behaviour |
//! |--------------------|---------------------------------------|-----------|
//! | `kvs.put`          | `{k, v}`                              | write-back: store value object locally, queue `(key, SHA1)` tuple |
//! | `kvs.unlink`       | `{k}`                                 | queue an unlink tuple |
//! | `kvs.commit`       | `{}`                                  | flush the caller's tuples+objects to the masters; response is the cut it observed, `{shards, frontier: [{shard, version, root}…]}`, applied locally before the caller is answered (read-your-writes) |
//! | `kvs.push`         | `{shard, tuples, objects[, fence]}`   | internal: a commit batch for one shard master, forwarded up the tree (one shard) or rank-addressed (N shards); answered `{shard, version, root}` |
//! | `kvs.fence`        | `{name, nprocs}`                      | collective commit: contributions merge upstream (objects dedup, tuples concatenate); completion is the `kvs.setroot` event `{frontier, fences}` naming the fence, and the caller gets `{shards, frontier}` |
//! | `kvs.fence.up`     | `{name, nprocs, count, tuples, objects, src, batch}` | internal: merged fence contributions travelling up, stamped by the reduction |
//! | `kvs.get`          | `{k}` / `{k, dir:true}`               | recursive lookup with fault-in through the cache chain |
//! | `kvs.load`         | `{id, shard}`                         | internal: fault one object of `shard`'s tree from the parent cache |
//! | `kvs.get_version`  | `{[shard]}`                           | that shard's `{shard, version, root}` (no `shard`: shard 0) |
//! | `kvs.wait_version` | `{version[, shard]}`                  | respond `{shard, version, root}` once the shard's version reaches the target (causal consistency) |
//! | `kvs.watch`        | `{k}`                                 | respond now and on every change of `k` (streaming) |
//! | `kvs.unwatch`      | `{k}`                                 | cancel this requester's watch |
//! | `kvs.stats`        | `{}`                                  | cache statistics and the session's `shards` (tooling) |
//!
//! The namespace is split by key hash across `shards` masters (ranks
//! `0..shards`, one hash-tree root / version stream / batching window
//! each; see [`crate::shard`]). The paper's single master is the
//! one-shard case — one slot, mastered by the tree root — and runs the
//! same code as N shards. This file only validates requests, read
//! through [`crate::msg`]'s borrowing readers, and routes them to the
//! role structs that own the state:
//!
//! | role | file | owns |
//! |------|------|------|
//! | slots | `slots.rs` | per-shard root, version, `wait_version` parking lot; the only root switch |
//! | master | `authority.rs` | push dedup, the batch window, the applied-fence memo; the one apply |
//! | coordinator | `coordinator.rs` | the join table of commits and fence fan-outs, part routing |
//! | fence | `fence.rs` | the write set a fence's `flux_broker::reduce::Collective` carries up the tree |
//! | reads | `reads.rs`, `watch.rs` | walks, fault-in, load-reply memo, watchers |
//! | in flight | `inflight.rs` | every RPC this module sends: registered, its answer classified, retried on the heartbeat |
//!
//! [`crate::msg`] is the only code that knows how any of it is spelled
//! on the wire, one shape per message kind whatever the shard count. The
//! shard count decides one thing: how a write part travels to a master
//! that is not this broker (`coordinator.rs`).

use crate::authority::{Authority, BATCH_TOKEN};
use crate::coordinator::Coordinator;
use crate::fence::{self, FenceAcc};
use crate::master::Tuple;
use crate::msg::{self, Objects};
use crate::object::KvsObject;
use crate::path::validate_key;
use crate::reads::{self, Reads};
use crate::slots::Slots;
use crate::store::ObjectCache;
use flux_broker::reduce::{Collective, Done};
use flux_broker::{requester_of, CommsModule, Handled, ModuleCtx, Requester};
use flux_hash::ObjectId;
use flux_proto::{Event, KvsMethod};
use flux_value::Value;
use flux_wire::{errnum, Message, Payload};
use std::collections::HashMap;
use std::sync::Arc;

/// KVS tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct KvsConfig {
    /// Slave-cache entries unused for this many heartbeat epochs expire.
    pub expiry_epochs: u64,
    /// At-most-once dedup of transport-duplicated `kvs.push` requests and
    /// `kvs.fence.up` batches. Always `true` in production configurations;
    /// the model checker's mutation smoke-test sets it to `false` to
    /// re-introduce the historical fence/push double-apply bug and prove
    /// the explorer still catches that bug class.
    pub dedup: bool,
    /// Master-side commit batching window: concurrent pushes arriving
    /// within this window coalesce into **one** hash-tree walk, one
    /// version bump, and one `kvs.setroot` broadcast (tuples concatenate
    /// in arrival order, so the result equals applying them
    /// sequentially; content-addressed objects dedup in the merge). `0`
    /// disables batching — every push applies immediately.
    pub batch_window_ns: u64,
    /// Pushes parked in the batch before it flushes without waiting for
    /// the window timer.
    pub batch_max: usize,
    /// Number of namespace shards: the namespace splits by key hash
    /// across masters on ranks `0..shards` (clamped to the session size
    /// on start). `1` (the default) is the paper's single master at the
    /// tree root — the one-shard case of the same code, not a separate
    /// path.
    pub shards: u32,
}

impl Default for KvsConfig {
    fn default() -> Self {
        KvsConfig {
            expiry_epochs: 16,
            dedup: true,
            batch_window_ns: 5_000,
            batch_max: 64,
            shards: 1,
        }
    }
}

/// Per-requester write-back state (puts not yet committed/fenced).
#[derive(Default)]
struct PendingWrites {
    tuples: Vec<Tuple>,
    objects: Objects,
}

/// This broker's copy of the store: the content-addressed objects it
/// holds and the per-shard roots it has adopted.
pub(crate) struct Replica {
    pub(crate) cache: ObjectCache,
    pub(crate) slots: Slots,
}

impl Replica {
    pub(crate) fn new(shards: u32) -> Replica {
        Replica { cache: ObjectCache::new(), slots: Slots::new(shards) }
    }
}

/// The KVS comms module. Instantiate one per broker; the instances on
/// ranks `0..shards` become the shard masters automatically.
pub struct KvsModule {
    cfg: KvsConfig,
    rep: Replica,
    authority: Authority,
    coordinator: Coordinator,
    fence: Collective<FenceAcc>,
    reads: Reads,
    pending: HashMap<Requester, PendingWrites>,
}

impl KvsModule {
    /// Creates a module with default tuning.
    pub fn new() -> KvsModule {
        Self::with_config(KvsConfig::default())
    }

    /// Creates a module with explicit tuning.
    pub fn with_config(cfg: KvsConfig) -> KvsModule {
        KvsModule {
            cfg,
            rep: Replica::new(cfg.shards),
            authority: Authority::default(),
            coordinator: Coordinator::default(),
            fence: Collective::default(),
            reads: Reads::default(),
            pending: HashMap::new(),
        }
    }

    /// Parses an optional `shard` request parameter (absent → 0).
    fn shard_param(&self, msg: &Message) -> Result<u32, ()> {
        match msg::shard_of(&msg.payload)? {
            None => Ok(0),
            Some(s) if s < u64::from(self.rep.slots.shards()) => Ok(s as u32),
            Some(_) => Err(()),
        }
    }

    // ----- writes ----------------------------------------------------------

    fn handle_put(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message, unlink: bool) -> Handled {
        let Some(key) = msg::key_of(&msg.payload) else {
            return ctx.respond_err(msg, errnum::EINVAL);
        };
        if let Err(e) = validate_key(key) {
            // Registry-aligned rejection: size/depth violations are
            // ENAMETOOLONG, shape violations EINVAL.
            return ctx.respond_err(msg, e.errnum());
        }
        let pend = self.pending.entry(requester_of(msg)).or_default();
        if unlink {
            pend.tuples.push((key.to_owned(), None));
        } else {
            let val = msg::value(&msg.payload).cloned().unwrap_or(Value::Null);
            let obj = KvsObject::Val(val);
            let id = obj.id();
            pend.objects.insert(id, Arc::new(obj));
            pend.tuples.push((key.to_owned(), Some(id)));
        }
        ctx.respond(msg, Value::object())
    }

    /// Hands a write set to the coordinator; `waiters` get the cut.
    fn coordinate(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        waiters: Vec<Message>,
        tuples: Vec<Tuple>,
        objects: Objects,
        fence: Option<&str>,
    ) {
        self.coordinator.start(
            ctx,
            &mut self.rep,
            &mut self.authority,
            waiters,
            tuples,
            objects,
            fence,
        );
    }

    fn handle_commit(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        let pend = self.pending.remove(&requester_of(&msg)).unwrap_or_default();
        let (waiter, parked) = ctx.park(msg);
        self.coordinate(ctx, vec![waiter], pend.tuples, pend.objects, None);
        parked
    }

    /// `kvs.push`, a batch for one shard: applied at that shard's
    /// master. Below the root, a broker that is not the master passes a
    /// push climbing the tree one hop further up, and its answer unwinds
    /// past this module. Anything else — at the root, or at a rank it
    /// was addressed to — is refused, not applied to the wrong tree.
    fn handle_push(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        let shard = msg::shard_of(&msg.payload).ok().flatten();
        if shard.is_some() && shard == self.rep.slots.mine().map(u64::from) {
            // A second handle on the payload, so `msg` can move on.
            let payload = msg.payload.clone();
            let fence = msg::push_fence(&payload);
            return self.authority.accept_push(ctx, &self.cfg, &mut self.rep, msg, fence);
        }
        if msg.header.dst.is_none() && !ctx.is_root() {
            return ctx.forward_upstream(msg);
        }
        ctx.respond_err(&msg, errnum::EINVAL)
    }

    // ----- fence -----------------------------------------------------------

    /// At the tree root a complete fence becomes one coordinated write
    /// set, answered to the root's own waiters. A failed one is refused
    /// to them and announced as failed, as the coordinator fails a fence
    /// a master refused.
    fn fence_done(&mut self, ctx: &mut ModuleCtx<'_>, done: Option<Done<FenceAcc>>) {
        match done {
            Some(Done { name, waiters, failed: Some(code), .. }) => {
                for req in &waiters {
                    ctx.respond_err(req, code);
                }
                ctx.publish(Event::KvsSetroot.topic(), msg::fence_failed_event(&name, code));
            }
            Some(Done { name, part, waiters, failed: None }) => {
                let (tuples, objects) = part.decode();
                self.coordinate(ctx, waiters, tuples, objects, Some(&name));
            }
            None => {}
        }
    }

    fn handle_fence(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        let pending = &mut self.pending;
        let (handled, done) = self.fence.enter(ctx, msg, |requester| {
            let pend = pending.remove(&requester).unwrap_or_default();
            FenceAcc::local(&pend.tuples, &pend.objects)
        });
        self.fence_done(ctx, done);
        handled
    }

    fn handle_fence_up(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        let (handled, done) =
            self.fence.arrive(ctx, msg, self.cfg.dedup, fence::sound, fence::take);
        self.fence_done(ctx, done);
        handled
    }

    // ----- reads -----------------------------------------------------------

    fn handle_get(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        // A second handle on the payload, so `msg` can be parked.
        let payload = msg.payload.clone();
        let Some(key) = msg::key_of(&payload) else {
            return ctx.respond_err(&msg, errnum::EINVAL);
        };
        let want_dir = msg::wants_dir(&payload);
        self.reads.lookup(ctx, &mut self.rep, msg, key, want_dir)
    }

    fn handle_load(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        let (Some(id), Ok(shard)) = (reads::load_id(&msg.payload), self.shard_param(&msg)) else {
            return ctx.respond_err(&msg, errnum::EINVAL);
        };
        self.reads.serve_load(ctx, &mut self.rep, msg, id, shard)
    }

    fn handle_wait_version(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        let (Some(target), Ok(shard)) =
            (msg::target_version(&msg.payload), self.shard_param(&msg))
        else {
            return ctx.respond_err(&msg, errnum::EINVAL);
        };
        self.rep.slots.wait_version(ctx, shard, target, msg)
    }

    fn handle_watch(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        // A second handle on the payload, so `msg` can be parked.
        let payload = msg.payload.clone();
        let Some(key) = msg::key_of(&payload) else {
            return ctx.respond_err(&msg, errnum::EINVAL);
        };
        let requester = requester_of(&msg);
        self.reads.watch(ctx, &mut self.rep, msg, key, requester)
    }

    fn handle_unwatch(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) -> Handled {
        let Some(key) = msg::key_of(&msg.payload) else {
            return ctx.respond_err(msg, errnum::EINVAL);
        };
        self.reads.watch.remove(key, requester_of(msg));
        ctx.respond(msg, Value::object())
    }

    // ----- introspection ---------------------------------------------------

    /// Current root version of shard 0 (for tests and tools).
    pub fn version(&self) -> u64 {
        self.rep.slots.version(0)
    }

    /// Number of namespace shards this module is configured for.
    pub fn shards(&self) -> u32 {
        self.rep.slots.shards()
    }
}

impl Default for KvsModule {
    fn default() -> Self {
        Self::new()
    }
}

impl CommsModule for KvsModule {
    fn name(&self) -> &'static str {
        "kvs"
    }

    fn subscriptions(&self) -> Vec<String> {
        vec![Event::KvsSetroot.topic_str().to_owned()]
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        // A session narrower than the shard count degrades gracefully:
        // clamp, so every shard master actually exists.
        self.cfg.shards = self.cfg.shards.max(1).min(ctx.size());
        let rank = ctx.rank().0;
        self.rep.slots.start(self.cfg.shards, (rank < self.cfg.shards).then_some(rank));
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        let handled = match KvsMethod::from_method(msg.header.topic.method()) {
            Some(KvsMethod::Put) => self.handle_put(ctx, &msg, false),
            Some(KvsMethod::Unlink) => self.handle_put(ctx, &msg, true),
            Some(KvsMethod::Commit) => self.handle_commit(ctx, msg),
            Some(KvsMethod::Push) => self.handle_push(ctx, msg),
            Some(KvsMethod::Fence) => self.handle_fence(ctx, msg),
            Some(KvsMethod::FenceUp) => self.handle_fence_up(ctx, msg),
            Some(KvsMethod::Get) => self.handle_get(ctx, msg),
            Some(KvsMethod::Load) => self.handle_load(ctx, msg),
            Some(KvsMethod::GetVersion) => match self.shard_param(&msg) {
                Ok(shard) => self.rep.slots.respond_version(ctx, shard, &msg),
                Err(()) => ctx.respond_err(&msg, errnum::EINVAL),
            },
            Some(KvsMethod::WaitVersion) => self.handle_wait_version(ctx, msg),
            Some(KvsMethod::Watch) => self.handle_watch(ctx, msg),
            Some(KvsMethod::Unwatch) => self.handle_unwatch(ctx, &msg),
            Some(KvsMethod::Stats) => {
                let stats = msg::stats_reply(
                    &self.rep.cache.stats(),
                    self.rep.slots.version(0),
                    self.authority.commits_applied,
                    self.authority.pushes_batched,
                    self.rep.slots.shards(),
                );
                ctx.respond(&msg, stats)
            }
            None => ctx.respond_err(&msg, errnum::ENOSYS),
        };
        self.reads.recheck(ctx, &mut self.rep);
        handled
    }

    fn handle_response(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if !self.reads.handle_response(ctx, &mut self.rep, msg) {
            self.coordinator.handle_response(ctx, &mut self.rep, msg);
        }
        self.reads.recheck(ctx, &mut self.rep);
    }

    fn handle_event(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        if msg.header.topic.as_str() != Event::KvsSetroot.topic_str() {
            return;
        }
        let ev = msg::decode_setroot(&msg.payload);
        if let Some(code) = ev.failed {
            // The coordinator gave the fence up (a master refused its
            // part): fail the local waiters with its code instead of
            // leaving them parked forever.
            for req in ev.fences.iter().flat_map(|name| self.fence.release(name)) {
                ctx.respond_err(&req, code);
            }
            return;
        }
        // Adopt every root first, then release fence waiters with the
        // cut the event carries — waiters always read an applied cut.
        for r in &ev.roots {
            if let Ok(root) = ObjectId::from_hex(&r.root) {
                self.rep.slots.apply_root(ctx, r.shard, r.version, root);
            }
        }
        if !ev.fences.is_empty() {
            let reply = Payload::from(msg::cut_reply(self.rep.slots.shards(), &ev.roots));
            for req in ev.fences.iter().flat_map(|name| self.fence.release(name)) {
                ctx.respond(&req, reply.clone());
            }
        }
        self.reads.recheck(ctx, &mut self.rep);
    }

    fn on_heartbeat(&mut self, ctx: &mut ModuleCtx<'_>, epoch: u64) {
        self.rep.cache.set_epoch(epoch);
        // A master is authoritative for its slot's whole tree: it never
        // expires. Everyone else pins the current roots.
        if self.rep.slots.mine().is_none() {
            self.rep.cache.expire(self.cfg.expiry_epochs, &self.rep.slots.roots());
        }
        self.reads.on_heartbeat(ctx);
        self.coordinator.on_heartbeat(ctx);
        self.reads.recheck(ctx, &mut self.rep);
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        if token == BATCH_TOKEN {
            self.authority.flush_batch(ctx, &mut self.rep);
        } else {
            self.fence.on_window(ctx, token, &KvsMethod::FenceUp.topic(), fence::spell);
        }
        self.reads.recheck(ctx, &mut self.rep);
    }
}
