//! Client-side protocol support.
//!
//! External programs (the `flux` utility, PMI libraries, KAP testers)
//! attach to their node's broker over a local connection and speak the
//! same wire protocol. [`ClientCore`] is the sans-io client half: it mints
//! request ids, tracks outstanding requests, and classifies incoming
//! messages. Runtimes embed it in whatever concurrency shape they use
//! (a sim actor, a thread).

use flux_value::Value;
use flux_wire::{IdMap, Message, MsgId, Rank, Topic};

/// How an incoming message relates to this client's state.
#[derive(Debug, Clone, PartialEq)]
pub enum Delivery {
    /// The response to the outstanding request registered with this tag.
    Response {
        /// Caller-chosen correlation tag.
        tag: u64,
        /// The response message.
        msg: Message,
    },
    /// A subscribed event.
    Event(Message),
    /// A response with no matching outstanding request (stale, or a
    /// streaming follow-up after the caller deregistered).
    Unmatched(Message),
}

/// Sans-io client state: id minting and response matching.
///
/// Request-id uniqueness: every broker and every client mints
/// `MsgId { origin, seq }` ids. Brokers use their own rank and a bare
/// counter; clients share their broker's rank as `origin`, so their
/// sequence numbers are namespaced by the local client id in the upper
/// bits to keep the id space collision-free session-wide.
pub struct ClientCore {
    origin: Rank,
    seq_base: u64,
    seq: u64,
    /// Keyed by ids this client minted, as is `streaming`.
    outstanding: IdMap<MsgId, u64>,
    /// Tags whose requests expect multiple responses (`kvs.watch`).
    streaming: IdMap<MsgId, u64>,
}

impl ClientCore {
    /// Creates a client attached to the broker at `broker_rank`, with the
    /// broker-local connection id `client_id`.
    pub fn new(broker_rank: Rank, client_id: u32) -> ClientCore {
        ClientCore {
            origin: broker_rank,
            // 2^24 clients per broker, 2^40 requests per client: plenty.
            seq_base: u64::from(client_id) << 40,
            seq: 0,
            outstanding: IdMap::default(),
            streaming: IdMap::default(),
        }
    }

    /// The broker rank this client is attached to.
    pub fn origin(&self) -> Rank {
        self.origin
    }

    /// Number of outstanding (unanswered) requests.
    pub fn outstanding_len(&self) -> usize {
        self.outstanding.len()
    }

    /// Builds a request and registers it under `tag` for response
    /// matching. The returned message is ready to send to the local
    /// broker.
    pub fn request(&mut self, topic: Topic, payload: Value, tag: u64) -> Message {
        let id = self.next_id();
        self.outstanding.insert(id, tag);
        Message::request(topic, id, self.origin, payload)
    }

    /// Like [`ClientCore::request`] but rank-addressed (ring plane).
    pub fn request_to(&mut self, to: Rank, topic: Topic, payload: Value, tag: u64) -> Message {
        let id = self.next_id();
        self.outstanding.insert(id, tag);
        Message::request_to(topic, id, self.origin, to, payload)
    }

    /// Marks the request with this id as expecting multiple responses;
    /// each will be delivered as [`Delivery::Response`] until
    /// [`ClientCore::cancel`] is called.
    pub fn expect_stream(&mut self, id: MsgId) {
        if let Some(&tag) = self.outstanding.get(&id) {
            self.streaming.insert(id, tag);
        }
    }

    /// Deregisters an outstanding or streaming request.
    pub fn cancel(&mut self, id: MsgId) {
        self.outstanding.remove(&id);
        self.streaming.remove(&id);
    }

    /// Classifies an incoming message from the broker.
    pub fn deliver(&mut self, msg: Message) -> Delivery {
        match msg.header.msg_type {
            flux_wire::MsgType::Event => Delivery::Event(msg),
            flux_wire::MsgType::Response => {
                let id = msg.header.id;
                if let Some(&tag) = self.outstanding.get(&id) {
                    if !self.streaming.contains_key(&id) {
                        self.outstanding.remove(&id);
                    }
                    Delivery::Response { tag, msg }
                } else {
                    Delivery::Unmatched(msg)
                }
            }
            flux_wire::MsgType::Request => Delivery::Unmatched(msg),
        }
    }

    fn next_id(&mut self) -> MsgId {
        self.seq += 1;
        assert!(self.seq < (1 << 40), "client request counter exhausted");
        MsgId { origin: self.origin, seq: self.seq_base | self.seq }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic(s: &str) -> Topic {
        Topic::new(s).unwrap()
    }

    #[test]
    fn request_response_matching() {
        let mut c = ClientCore::new(Rank(3), 0);
        let req = c.request(topic("svc.get"), Value::from("k"), 42);
        assert_eq!(c.outstanding_len(), 1);
        let resp = Message::response_to(&req, Value::Int(1));
        match c.deliver(resp) {
            Delivery::Response { tag, msg } => {
                assert_eq!(tag, 42);
                assert_eq!(msg.payload, Value::Int(1));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.outstanding_len(), 0);
    }

    #[test]
    fn duplicate_response_unmatched() {
        let mut c = ClientCore::new(Rank(0), 0);
        let req = c.request(topic("a"), Value::Null, 1);
        let resp = Message::response_to(&req, Value::Null);
        assert!(matches!(c.deliver(resp.clone()), Delivery::Response { .. }));
        assert!(matches!(c.deliver(resp), Delivery::Unmatched(_)));
    }

    #[test]
    fn streaming_responses_persist() {
        let mut c = ClientCore::new(Rank(0), 0);
        let req = c.request(topic("svc.watch"), Value::from("k"), 7);
        c.expect_stream(req.header.id);
        let resp = Message::response_to(&req, Value::Int(1));
        for _ in 0..3 {
            assert!(matches!(c.deliver(resp.clone()), Delivery::Response { tag: 7, .. }));
        }
        c.cancel(req.header.id);
        assert!(matches!(c.deliver(resp), Delivery::Unmatched(_)));
    }

    #[test]
    fn events_classified() {
        let mut c = ClientCore::new(Rank(0), 0);
        let ev = Message::event(topic("hb"), MsgId { origin: Rank(0), seq: 1 }, Rank(0), Value::Null);
        assert!(matches!(c.deliver(ev), Delivery::Event(_)));
    }

    #[test]
    fn ids_distinct_across_clients() {
        let mut a = ClientCore::new(Rank(5), 0);
        let mut b = ClientCore::new(Rank(5), 1);
        let ra = a.request(topic("x"), Value::Null, 0);
        let rb = b.request(topic("x"), Value::Null, 0);
        assert_ne!(ra.header.id, rb.header.id);
    }

    #[test]
    fn rank_addressed_request_sets_dst() {
        let mut c = ClientCore::new(Rank(2), 0);
        let req = c.request_to(Rank(6), topic("bld.ping"), Value::Null, 9);
        assert_eq!(req.header.dst, Some(Rank(6)));
    }
}
