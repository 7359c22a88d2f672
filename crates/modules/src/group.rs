//! The `group` module: named process groups.
//!
//! Membership is recorded in the KVS under `groups.<name>.<member>`, so
//! group state is globally visible, versioned, and survives the usual
//! consistency reasoning. Members are identified by their broker rank and
//! local client id. Collective operations across a group use the group's
//! size with the `barrier` module (`group.info` reports the size).

use flux_broker::{CommsModule, Handled, ModuleCtx};
use flux_kvs::{msg, shard};
use flux_proto::{keys, GroupMethod, KvsMethod};
use flux_value::Value;
use flux_wire::{errnum, Message, MsgId};
use std::collections::HashMap;

/// What an outstanding internal KVS request was for.
enum PendingKind {
    /// Join/leave commit of the member key: answer the original request.
    Commit(Message, String),
    /// Listing fetch for `group.info`: answer with the member set.
    Listing(Message),
}

/// The group module.
pub struct GroupModule {
    pending: HashMap<MsgId, PendingKind>,
}

impl GroupModule {
    /// Creates the module.
    pub fn new() -> GroupModule {
        GroupModule { pending: HashMap::new() }
    }

    /// The KVS key for one member of a group.
    fn member_key(name: &str, msg: &Message) -> String {
        // The requester identity: its broker rank plus the local client
        // hop (or "m" for module-originated joins).
        let rank = msg.header.src;
        let client = msg
            .header
            .hops
            .first()
            .and_then(|h| h.as_client_hop())
            .map(|c| format!("c{c}"))
            .unwrap_or_else(|| "m".to_owned());
        keys::group::member_key(name, &format!("r{}-{client}", rank.0))
    }

    fn kvs(&mut self, ctx: &mut ModuleCtx<'_>, method: KvsMethod, payload: Value) -> MsgId {
        ctx.local_request(method.topic(), payload)
    }
}

impl Default for GroupModule {
    fn default() -> Self {
        Self::new()
    }
}

impl CommsModule for GroupModule {
    fn name(&self) -> &'static str {
        "group"
    }

    fn handle_request(&mut self, ctx: &mut ModuleCtx<'_>, msg: Message) -> Handled {
        let Some(method) = GroupMethod::from_method(msg.header.topic.method()) else {
            return ctx.respond_err(&msg, errnum::ENOSYS);
        };
        let name = msg.payload.get("name").and_then(Value::as_str).unwrap_or_default();
        if name.is_empty() || name.contains('.') {
            return ctx.respond_err(&msg, errnum::EINVAL);
        }
        let key = match method {
            GroupMethod::Join | GroupMethod::Leave => Self::member_key(name, &msg),
            GroupMethod::Info => keys::group::dir(name),
        };
        let key = match crate::checked_key(key) {
            Ok(key) => key,
            Err(code) => return ctx.respond_err(&msg, code),
        };
        let id = match method {
            GroupMethod::Join => {
                let member = Value::from_pairs([
                    ("rank", Value::from(msg.header.src.0)),
                    ("joined_ns", Value::from(ctx.now_ns() as i64)),
                ]);
                let _ = self.kvs(ctx, KvsMethod::Put, msg::put(&key, member));
                self.kvs(ctx, KvsMethod::Commit, Value::object())
            }
            GroupMethod::Leave => {
                let _ = self.kvs(ctx, KvsMethod::Unlink, msg::key(&key));
                self.kvs(ctx, KvsMethod::Commit, Value::object())
            }
            GroupMethod::Info => self.kvs(ctx, KvsMethod::Get, msg::dir(&key)),
        };
        let (original, parked) = ctx.park(msg);
        let kind = match method {
            GroupMethod::Join | GroupMethod::Leave => PendingKind::Commit(original, key),
            GroupMethod::Info => PendingKind::Listing(original),
        };
        self.pending.insert(id, kind);
        parked
    }

    fn handle_response(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Message) {
        let Some(kind) = self.pending.remove(&msg.header.id) else { return };
        match kind {
            PendingKind::Commit(original, key) => {
                if msg.is_error() {
                    ctx.respond_err(&original, msg.header.errnum);
                } else {
                    // The commit's cut holds the root of the shard that
                    // holds the member key, at the version it reached.
                    let cut = msg::decode_cut(&msg.payload);
                    let shard = shard::shard_of_key(&key, cut.shards).unwrap_or(0);
                    let at = cut.roots.iter().find(|r| r.shard == shard);
                    let version = at.map_or(Value::Null, |r| Value::from(r.version as i64));
                    ctx.respond(&original, Value::from_pairs([("version", version)]));
                }
            }
            PendingKind::Listing(original) => {
                if msg.is_error() {
                    match msg.header.errnum {
                        // Unknown group = empty group.
                        errnum::ENOENT => ctx.respond(
                            &original,
                            Value::from_pairs([
                                ("size", Value::Int(0)),
                                ("members", Value::array()),
                            ]),
                        ),
                        // The store's own refusal (`ENOTDIR`: something
                        // other than a membership directory sits at the
                        // name) is `kvs.get`'s to declare, not ours: to
                        // this requester the name is not a group's.
                        code if KvsMethod::Get.declared_errors().contains(&code) => {
                            ctx.respond_err(&original, errnum::EINVAL)
                        }
                        // Anything else is what any RPC can answer.
                        code => ctx.respond_err(&original, code),
                    };
                    return;
                }
                let members: Vec<Value> = msg::listing(&msg.payload)
                    .and_then(Value::as_object)
                    .map(|m| m.keys().map(|k| Value::from(k.as_str())).collect())
                    .unwrap_or_default();
                ctx.respond(
                    &original,
                    Value::from_pairs([
                        ("size", Value::from(members.len())),
                        ("members", Value::Array(members)),
                    ]),
                );
            }
        }
    }
}
