//! Client-side KVS operations.
//!
//! [`KvsClient`] wraps a [`flux_broker::client::ClientCore`] with typed
//! request builders and response decoding for every KVS operation the
//! paper's API lists: `kvs_put`, `kvs_commit`, `kvs_fence`, `kvs_get`,
//! `kvs_get_version`, `kvs_wait_version`, `kvs_watch` (plus `unlink`,
//! `dir` and `stats`). It is sans-io like everything else: builders
//! return [`Message`]s for the runtime to transmit; incoming messages are
//! classified with [`KvsClient::deliver`].

use flux_broker::client::{ClientCore, Delivery};
use flux_broker::ClientId;
use flux_value::Value;
use flux_proto::KvsMethod;
use flux_wire::{Message, MsgId, Rank};

/// A decoded KVS reply.
#[derive(Debug, Clone, PartialEq)]
pub enum KvsReply {
    /// `put`/`unlink`/`unwatch` acknowledgement.
    Ack,
    /// `commit`/`fence`/`get_version`/`wait_version`: the root version.
    Version {
        /// Monotonic store version.
        version: u64,
        /// Root reference (hex) at that version.
        root: String,
    },
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
    /// Sharded `commit`/`fence`: the consistent per-shard frontier the
    /// operation observed.
    Frontier {
        /// Total shard count of the session.
        shards: u32,
        /// `(shard, version, root hex)` per shard the operation touched,
        /// in shard order.
        entries: Vec<(u32, u64, String)>,
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
        let payload = Value::from_pairs([("k", Value::from(key)), ("v", val)]);
        self.core.request(KvsMethod::Put.topic(), payload, tag)
    }

    /// Queues an unlink of `key`.
    pub fn unlink(&mut self, key: &str, tag: u64) -> Message {
        let payload = Value::from_pairs([("k", Value::from(key))]);
        self.core.request(KvsMethod::Unlink.topic(), payload, tag)
    }

    /// `kvs_commit()` — synchronously flush this client's puts; the reply
    /// carries the new root version.
    pub fn commit(&mut self, tag: u64) -> Message {
        self.core.request(KvsMethod::Commit.topic(), Value::object(), tag)
    }

    /// `kvs_fence(name, nprocs)` — collective commit across `nprocs`
    /// participants.
    pub fn fence(&mut self, name: &str, nprocs: u64, tag: u64) -> Message {
        let payload = Value::from_pairs([
            ("name", Value::from(name)),
            ("nprocs", Value::from(nprocs as i64)),
        ]);
        self.core.request(KvsMethod::Fence.topic(), payload, tag)
    }

    /// `kvs_get(key)`.
    pub fn get(&mut self, key: &str, tag: u64) -> Message {
        let payload = Value::from_pairs([("k", Value::from(key))]);
        self.core.request(KvsMethod::Get.topic(), payload, tag)
    }

    /// Directory listing of `key`.
    pub fn get_dir(&mut self, key: &str, tag: u64) -> Message {
        let payload =
            Value::from_pairs([("k", Value::from(key)), ("dir", Value::Bool(true))]);
        self.core.request(KvsMethod::Get.topic(), payload, tag)
    }

    /// `kvs_get_version()`.
    pub fn get_version(&mut self, tag: u64) -> Message {
        self.core.request(KvsMethod::GetVersion.topic(), Value::object(), tag)
    }

    /// `kvs_get_version` against one shard's version stream.
    pub fn get_version_shard(&mut self, shard: u32, tag: u64) -> Message {
        let payload = Value::from_pairs([("shard", Value::from(shard as i64))]);
        self.core.request(KvsMethod::GetVersion.topic(), payload, tag)
    }

    /// `kvs_wait_version(v)` — replies once the store reaches version `v`.
    pub fn wait_version(&mut self, version: u64, tag: u64) -> Message {
        let payload = Value::from_pairs([("version", Value::from(version as i64))]);
        self.core.request(KvsMethod::WaitVersion.topic(), payload, tag)
    }

    /// `kvs_wait_version(v)` against one shard's version stream.
    pub fn wait_version_shard(&mut self, version: u64, shard: u32, tag: u64) -> Message {
        let payload = Value::from_pairs([
            ("version", Value::from(version as i64)),
            ("shard", Value::from(shard as i64)),
        ]);
        self.core.request(KvsMethod::WaitVersion.topic(), payload, tag)
    }

    /// `kvs_watch(key, callback)` — the reply streams: an initial snapshot
    /// then one update per change. Returns the message and its id (pass
    /// the id to [`KvsClient::unwatch`] bookkeeping if needed).
    pub fn watch(&mut self, key: &str, tag: u64) -> (Message, MsgId) {
        let payload = Value::from_pairs([("k", Value::from(key))]);
        let msg = self.core.request(KvsMethod::Watch.topic(), payload, tag);
        let id = msg.header.id;
        self.core.expect_stream(id);
        (msg, id)
    }

    /// Cancels this client's watch on `key` (also deregister the stream
    /// locally by passing the watch id).
    pub fn unwatch(&mut self, key: &str, watch_id: MsgId, tag: u64) -> Message {
        self.core.cancel(watch_id);
        let payload = Value::from_pairs([("k", Value::from(key))]);
        self.core.request(KvsMethod::Unwatch.topic(), payload, tag)
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
        Some(
            KvsMethod::Commit
            | KvsMethod::Fence
            | KvsMethod::GetVersion
            | KvsMethod::WaitVersion
            | KvsMethod::Push
            | KvsMethod::ShardPush,
        ) => {
            // N-shard commits and fences answer with a per-shard
            // frontier instead of one version.
            let cut = crate::msg::decode_cut(&msg.payload);
            if let Some(shards) = cut.shards {
                let entries = cut.roots.into_iter().map(|r| (r.shard, r.version, r.root)).collect();
                return KvsReply::Frontier { shards, entries };
            }
            let only = cut.roots.into_iter().next().unwrap_or_default();
            KvsReply::Version { version: only.version, root: only.root }
        }
        Some(KvsMethod::Get) => {
            if let Some(dir) = msg.payload.get("dir") {
                KvsReply::Dir(dir.clone())
            } else {
                KvsReply::Value(msg.payload.get("v").cloned().unwrap_or(Value::Null))
            }
        }
        Some(KvsMethod::Watch) => KvsReply::WatchUpdate {
            key: msg.payload.get("k").and_then(Value::as_str).unwrap_or_default().to_owned(),
            value: msg.payload.get("v").cloned().unwrap_or(Value::Null),
        },
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

    #[test]
    fn builders_emit_expected_topics() {
        let mut c = KvsClient::new(Rank(3), 1);
        let topic_of = |m: KvsMethod| m.topic_str();
        assert_eq!(c.put("a.b", Value::Int(1), 0).header.topic.as_str(), topic_of(KvsMethod::Put));
        assert_eq!(c.unlink("a.b", 0).header.topic.as_str(), topic_of(KvsMethod::Unlink));
        assert_eq!(c.commit(0).header.topic.as_str(), topic_of(KvsMethod::Commit));
        assert_eq!(c.fence("f", 4, 0).header.topic.as_str(), topic_of(KvsMethod::Fence));
        assert_eq!(c.get("a.b", 0).header.topic.as_str(), topic_of(KvsMethod::Get));
        assert_eq!(c.get_version(0).header.topic.as_str(), topic_of(KvsMethod::GetVersion));
        assert_eq!(c.wait_version(3, 0).header.topic.as_str(), topic_of(KvsMethod::WaitVersion));
        let (w, _) = c.watch("a.b", 0);
        assert_eq!(w.header.topic.as_str(), topic_of(KvsMethod::Watch));
    }

    #[test]
    fn decode_version_reply() {
        let mut c = KvsClient::new(Rank(0), 0);
        let req = c.commit(9);
        let resp = Message::response_to(
            &req,
            Value::from_pairs([
                ("version", Value::Int(4)),
                ("root", Value::from("abcd")),
            ]),
        );
        match c.deliver(resp) {
            KvsDelivery::Reply { tag: 9, reply: KvsReply::Version { version, root } } => {
                assert_eq!(version, 4);
                assert_eq!(root, "abcd");
            }
            other => panic!("unexpected {other:?}"),
        }
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
