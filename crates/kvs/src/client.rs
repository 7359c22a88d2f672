//! Client-side KVS operations, in two forms.
//!
//! [`KvsClient`] wraps a [`flux_broker::client::ClientCore`] with typed
//! request builders and response decoding for every KVS operation the
//! paper's API lists: `kvs_put`, `kvs_commit`, `kvs_fence`, `kvs_get`,
//! `kvs_get_version`, `kvs_wait_version`, `kvs_watch` (plus `unlink`,
//! `dir` and `stats`). It is sans-io like everything else: builders
//! return [`Message`]s for the runtime to transmit; incoming messages are
//! classified with [`KvsClient::deliver`].
//!
//! [`Op`] is one step of a scripted client (`flux_rt::script` runs a
//! `Vec<Op>`; the KAP benchmark, the PMI bootstrap and the examples are
//! written as such scripts). Both build their payloads through
//! [`crate::msg`].

use crate::msg::{self, RootRef};
use flux_broker::client::{ClientCore, Delivery};
use flux_broker::ClientId;
use flux_proto::{BarrierMethod, KvsMethod};
use flux_value::Value;
use flux_wire::{Message, MsgId, Rank, Topic};

/// One scripted operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// `kvs.put key = val`.
    Put {
        /// Key.
        key: String,
        /// Value.
        val: Value,
    },
    /// `kvs.commit`.
    Commit,
    /// `kvs.fence name nprocs`.
    Fence {
        /// Fence name.
        name: String,
        /// Participant count.
        nprocs: u64,
    },
    /// `kvs.get key`.
    Get {
        /// Key.
        key: String,
    },
    /// `kvs.get_version`.
    GetVersion,
    /// `kvs.wait_version v`.
    WaitVersion(u64),
    /// `barrier.enter name nprocs`.
    Barrier {
        /// Barrier name.
        name: String,
        /// Participant count.
        nprocs: u64,
    },
    /// An arbitrary request.
    Request {
        /// Topic.
        topic: Topic,
        /// Payload.
        payload: Value,
    },
    /// Wait this many nanoseconds before the next op (virtual time on
    /// the simulator, wall time on live transports). Lets a workload
    /// span heartbeat epochs, so scheduled faults (blackouts,
    /// partitions) genuinely interleave with its traffic.
    Pause(u64),
}

impl Op {
    /// Builds the request message for this op (tagged `tag`), using
    /// `core` for id allocation; the op is left as it was.
    pub fn to_request(&self, core: &mut ClientCore, tag: u64) -> Message {
        self.clone().into_request(core, tag)
    }

    /// Builds the request message for this op, consuming it: its key or
    /// name, a put's value and an arbitrary request's payload move into
    /// the message instead of being copied.
    pub fn into_request(self, core: &mut ClientCore, tag: u64) -> Message {
        let (topic, payload) = match self {
            Op::Put { key, val } => (KvsMethod::Put.topic(), msg::put(key, val)),
            Op::Commit => (KvsMethod::Commit.topic(), Value::object()),
            Op::Fence { name, nprocs } => (KvsMethod::Fence.topic(), msg::fence(name, nprocs)),
            Op::Get { key } => (KvsMethod::Get.topic(), msg::key(key)),
            Op::GetVersion => (KvsMethod::GetVersion.topic(), msg::version(None, None)),
            Op::WaitVersion(v) => (KvsMethod::WaitVersion.topic(), msg::version(Some(v), None)),
            Op::Barrier { name, nprocs } => {
                (BarrierMethod::Enter.topic(), msg::fence(name, nprocs))
            }
            Op::Request { topic, payload } => (topic, payload),
            #[expect(
                clippy::panic,
                reason = "an API misuse (a script driver turns a Pause into a timer), \
                          not a runtime input"
            )]
            Op::Pause(_) => panic!("Op::Pause has no wire request; script drivers handle it"),
        };
        core.request(topic, payload, tag)
    }
}

/// A decoded KVS reply.
#[derive(Debug, Clone, PartialEq)]
pub enum KvsReply {
    /// `put`/`unlink`/`unwatch` acknowledgement.
    Ack,
    /// `get_version`/`wait_version`: one shard's root reference.
    Version(RootRef),
    /// `get`: the value bound at the key.
    Value(Value),
    /// `get` with `dir`: a name → SHA1-hex listing.
    Dir(Value),
    /// A `watch` update (also the initial snapshot): key and new value
    /// (`Null` once the key disappears).
    WatchUpdate {
        /// Watched key.
        key: String,
        /// Current value.
        value: Value,
    },
    /// `stats` payload, raw.
    Stats(Value),
    /// `commit`/`fence`: the consistent per-shard frontier the
    /// operation observed.
    Frontier {
        /// Total shard count of the session.
        shards: u32,
        /// The root of each shard the operation touched, in shard order.
        frontier: Vec<RootRef>,
    },
    /// The operation failed with this error number.
    Err(u32),
}

/// What a message delivered to the client means, KVS-typed.
#[derive(Debug, Clone, PartialEq)]
pub enum KvsDelivery {
    /// Reply to the request issued under `tag`.
    Reply {
        /// Caller-chosen correlation tag.
        tag: u64,
        /// The decoded reply.
        reply: KvsReply,
    },
    /// A subscribed event (e.g. `kvs.setroot` if the client subscribed).
    Event(Message),
    /// Response matching nothing outstanding.
    Unmatched(Message),
}

/// Typed client for the `kvs` service.
pub struct KvsClient {
    core: ClientCore,
}

impl KvsClient {
    /// Creates a client attached to the broker at `broker_rank` with the
    /// broker-local connection id `client_id`.
    pub fn new(broker_rank: Rank, client_id: ClientId) -> KvsClient {
        KvsClient { core: ClientCore::new(broker_rank, client_id) }
    }

    /// `kvs_put(key, val)` — asynchronous write-back; the ack returns as
    /// soon as the local broker has cached the object.
    pub fn put(&mut self, key: &str, val: Value, tag: u64) -> Message {
        self.core.request(KvsMethod::Put.topic(), msg::put(key, val), tag)
    }

    /// Queues an unlink of `key`.
    pub fn unlink(&mut self, key: &str, tag: u64) -> Message {
        self.core.request(KvsMethod::Unlink.topic(), msg::key(key), tag)
    }

    /// `kvs_commit()` — synchronously flush this client's puts; the reply
    /// carries the new root version.
    pub fn commit(&mut self, tag: u64) -> Message {
        self.core.request(KvsMethod::Commit.topic(), Value::object(), tag)
    }

    /// `kvs_fence(name, nprocs)` — collective commit across `nprocs`
    /// participants.
    pub fn fence(&mut self, name: &str, nprocs: u64, tag: u64) -> Message {
        self.core.request(KvsMethod::Fence.topic(), msg::fence(name, nprocs), tag)
    }

    /// `kvs_get(key)`.
    pub fn get(&mut self, key: &str, tag: u64) -> Message {
        self.core.request(KvsMethod::Get.topic(), msg::key(key), tag)
    }

    /// Directory listing of `key`.
    pub fn get_dir(&mut self, key: &str, tag: u64) -> Message {
        self.core.request(KvsMethod::Get.topic(), msg::dir(key), tag)
    }

    /// `kvs_get_version()`.
    pub fn get_version(&mut self, tag: u64) -> Message {
        self.core.request(KvsMethod::GetVersion.topic(), msg::version(None, None), tag)
    }

    /// `kvs_get_version` against one shard's version stream.
    pub fn get_version_shard(&mut self, shard: u32, tag: u64) -> Message {
        self.core.request(KvsMethod::GetVersion.topic(), msg::version(None, Some(shard)), tag)
    }

    /// `kvs_wait_version(v)` — replies once the store reaches version `v`.
    pub fn wait_version(&mut self, version: u64, tag: u64) -> Message {
        let payload = msg::version(Some(version), None);
        self.core.request(KvsMethod::WaitVersion.topic(), payload, tag)
    }

    /// `kvs_wait_version(v)` against one shard's version stream.
    pub fn wait_version_shard(&mut self, version: u64, shard: u32, tag: u64) -> Message {
        let payload = msg::version(Some(version), Some(shard));
        self.core.request(KvsMethod::WaitVersion.topic(), payload, tag)
    }

    /// `kvs_watch(key, callback)` — the reply streams: an initial snapshot
    /// then one update per change. Returns the message and its id (pass
    /// the id to [`KvsClient::unwatch`] bookkeeping if needed).
    pub fn watch(&mut self, key: &str, tag: u64) -> (Message, MsgId) {
        let msg = self.core.request(KvsMethod::Watch.topic(), msg::key(key), tag);
        let id = msg.header.id;
        self.core.expect_stream(id);
        (msg, id)
    }

    /// Cancels this client's watch on `key` (also deregister the stream
    /// locally by passing the watch id).
    pub fn unwatch(&mut self, key: &str, watch_id: MsgId, tag: u64) -> Message {
        self.core.cancel(watch_id);
        self.core.request(KvsMethod::Unwatch.topic(), msg::key(key), tag)
    }

    /// KVS cache statistics from the local broker.
    pub fn stats(&mut self, tag: u64) -> Message {
        self.core.request(KvsMethod::Stats.topic(), Value::object(), tag)
    }

    /// Classifies and decodes an incoming message.
    pub fn deliver(&mut self, msg: Message) -> KvsDelivery {
        match self.core.deliver(msg) {
            Delivery::Response { tag, msg } => {
                KvsDelivery::Reply { tag, reply: decode_reply(&msg) }
            }
            Delivery::Event(m) => KvsDelivery::Event(m),
            Delivery::Unmatched(m) => KvsDelivery::Unmatched(m),
        }
    }
}

/// Decodes a KVS response message into a [`KvsReply`] based on its
/// topic. The match over [`KvsMethod`] is exhaustive: adding a method to
/// the registry forces a decoding decision here.
fn decode_reply(msg: &Message) -> KvsReply {
    if msg.is_error() {
        return KvsReply::Err(msg.header.errnum);
    }
    match KvsMethod::from_method(msg.header.topic.method()) {
        Some(KvsMethod::Put | KvsMethod::Unlink | KvsMethod::Unwatch) => KvsReply::Ack,
        Some(KvsMethod::Commit | KvsMethod::Fence) => {
            let cut = msg::decode_cut(&msg.payload);
            KvsReply::Frontier { shards: cut.shards, frontier: cut.roots }
        }
        Some(KvsMethod::GetVersion | KvsMethod::WaitVersion | KvsMethod::Push) => {
            KvsReply::Version(msg::decode_root(&msg.payload))
        }
        Some(KvsMethod::Get) => match msg::listing(&msg.payload) {
            Some(dir) => KvsReply::Dir(dir.clone()),
            None => KvsReply::Value(msg::value(&msg.payload).cloned().unwrap_or(Value::Null)),
        },
        Some(KvsMethod::Watch) => {
            let (key, value) = msg::watch_update(&msg.payload);
            KvsReply::WatchUpdate { key: key.to_owned(), value: value.clone() }
        }
        // Internal transfers carry their payload through raw.
        Some(KvsMethod::Stats | KvsMethod::Load | KvsMethod::FenceUp) => {
            KvsReply::Stats(msg.payload.value().clone())
        }
        // Not a declared KVS method: nothing this client could have sent.
        None => KvsReply::Err(flux_wire::errnum::ENOSYS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every client request, however it is built — by [`KvsClient`], by
    /// an [`Op`] where one exists, or by the bare [`msg`] builder — is
    /// one literal, and the first two encode to the same wire bytes.
    #[test]
    fn every_request_is_one_literal_however_it_is_built() {
        type Build = fn(&mut KvsClient) -> Message;
        let seven = || Value::Int(7);
        let rows: Vec<(KvsMethod, &str, Value, Build, Option<Op>)> = vec![
            (
                KvsMethod::Put,
                r#"{"k":"a.b","v":7}"#,
                msg::put("a.b", seven()),
                |c| c.put("a.b", Value::Int(7), 0),
                Some(Op::Put { key: "a.b".into(), val: seven() }),
            ),
            (KvsMethod::Unlink, r#"{"k":"a.b"}"#, msg::key("a.b"), |c| c.unlink("a.b", 0), None),
            (KvsMethod::Commit, "{}", Value::object(), |c| c.commit(0), Some(Op::Commit)),
            (
                KvsMethod::Fence,
                r#"{"name":"f","nprocs":4}"#,
                msg::fence("f", 4),
                |c| c.fence("f", 4, 0),
                Some(Op::Fence { name: "f".into(), nprocs: 4 }),
            ),
            (
                KvsMethod::Get,
                r#"{"k":"a.b"}"#,
                msg::key("a.b"),
                |c| c.get("a.b", 0),
                Some(Op::Get { key: "a.b".into() }),
            ),
            (KvsMethod::Get, r#"{"dir":true,"k":"a"}"#, msg::dir("a"), |c| c.get_dir("a", 0), None),
            (
                KvsMethod::GetVersion,
                "{}",
                msg::version(None, None),
                |c| c.get_version(0),
                Some(Op::GetVersion),
            ),
            (
                KvsMethod::GetVersion,
                r#"{"shard":2}"#,
                msg::version(None, Some(2)),
                |c| c.get_version_shard(2, 0),
                None,
            ),
            (
                KvsMethod::WaitVersion,
                r#"{"version":3}"#,
                msg::version(Some(3), None),
                |c| c.wait_version(3, 0),
                Some(Op::WaitVersion(3)),
            ),
            (
                KvsMethod::WaitVersion,
                r#"{"shard":2,"version":3}"#,
                msg::version(Some(3), Some(2)),
                |c| c.wait_version_shard(3, 2, 0),
                None,
            ),
            (KvsMethod::Watch, r#"{"k":"a.b"}"#, msg::key("a.b"), |c| c.watch("a.b", 0).0, None),
            (
                KvsMethod::Unwatch,
                r#"{"k":"a.b"}"#,
                msg::key("a.b"),
                |c| c.unwatch("a.b", MsgId { origin: Rank(3), seq: 1 }, 0),
                None,
            ),
            (KvsMethod::Stats, "{}", Value::object(), |c| c.stats(0), None),
        ];
        for (method, literal, built, build, op) in rows {
            assert_eq!(built.to_json(), literal, "{method:?}: msg");
            let sent = build(&mut KvsClient::new(Rank(3), 1));
            assert_eq!(sent.header.topic, method.topic(), "{method:?}: KvsClient topic");
            assert_eq!(sent.payload.to_json(), literal, "{method:?}: KvsClient");
            if let Some(op) = op {
                let scripted = op.to_request(&mut ClientCore::new(Rank(3), 1), 0);
                assert_eq!(scripted.encode(), sent.encode(), "{method:?}: Op");
            }
        }
    }

    /// The method picks the decoder: the same root reference is a
    /// `Version` as a `get_version` reply and one entry of a commit's
    /// `Frontier`.
    #[test]
    fn decode_version_reply() {
        let mut c = KvsClient::new(Rank(0), 0);
        let at = RootRef { shard: 2, version: 4, root: "abcd".into() };
        let probe = c.get_version_shard(2, 8);
        let resp = Message::response_to(&probe, msg::version_reply(&at));
        assert_eq!(
            c.deliver(resp),
            KvsDelivery::Reply { tag: 8, reply: KvsReply::Version(at.clone()) }
        );
        let commit = c.commit(9);
        let resp = Message::response_to(&commit, msg::cut_reply(4, std::slice::from_ref(&at)));
        let frontier = KvsReply::Frontier { shards: 4, frontier: vec![at] };
        assert_eq!(c.deliver(resp), KvsDelivery::Reply { tag: 9, reply: frontier });
    }

    #[test]
    fn decode_error_reply() {
        let mut c = KvsClient::new(Rank(0), 0);
        let req = c.get("missing", 1);
        let resp = Message::error_response_to(&req, flux_wire::errnum::ENOENT);
        match c.deliver(resp) {
            KvsDelivery::Reply { reply: KvsReply::Err(e), .. } => {
                assert_eq!(e, flux_wire::errnum::ENOENT);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn watch_stream_stays_registered() {
        let mut c = KvsClient::new(Rank(0), 0);
        let (req, id) = c.watch("k", 2);
        let upd = Message::response_to(
            &req,
            Value::from_pairs([("k", Value::from("k")), ("v", Value::Int(1))]),
        );
        for _ in 0..3 {
            assert!(matches!(
                c.deliver(upd.clone()),
                KvsDelivery::Reply { tag: 2, reply: KvsReply::WatchUpdate { .. } }
            ));
        }
        let un = c.unwatch("k", id, 3);
        assert_eq!(un.header.topic.as_str(), KvsMethod::Unwatch.topic_str());
        assert!(matches!(c.deliver(upd), KvsDelivery::Unmatched(_)));
    }
}
