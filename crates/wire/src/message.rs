//! [`Message`]: the uniform multi-part CMB message.

use crate::errnum;
use crate::{Rank, Topic};
use flux_value::Value;
use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Which overlay plane carries a message (paper §IV-A, Fig. 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Plane {
    /// Publish/subscribe event bus (paper: PGM multicast) — events and
    /// heartbeats, delivered reliably and in order session-wide.
    Event,
    /// Request/response tree (paper: TCP) — RPCs, barriers, reductions.
    Tree,
    /// Secondary rank-addressed overlay (paper: ring topology).
    Ring,
}

/// Message kind.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MsgType {
    /// An RPC request, routed upstream (or by rank on the ring plane).
    Request,
    /// The reply to a request, retracing the request's hops.
    Response,
    /// A published event, fanned out on the event plane.
    Event,
}

impl MsgType {
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            MsgType::Request => 1,
            MsgType::Response => 2,
            MsgType::Event => 3,
        }
    }

    pub(crate) fn from_byte(b: u8) -> Option<MsgType> {
        match b {
            1 => Some(MsgType::Request),
            2 => Some(MsgType::Response),
            3 => Some(MsgType::Event),
            _ => None,
        }
    }
}

/// A session-unique message identifier: originating rank plus a sequence
/// number drawn from that rank's counter. Responses carry the id of the
/// request they answer, which is how clients match replies.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MsgId {
    /// Rank whose counter issued this id.
    pub origin: Rank,
    /// Per-origin sequence number.
    pub seq: u64,
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// The header frame.
///
/// `hops` is the response-routing stack: every broker that forwards a
/// request upstream pushes its rank, and the response pops ranks to retrace
/// the path — the paper's *"RPC responses are routed back through the same
/// set of hops, in reverse."*
#[derive(Clone, PartialEq, Debug)]
pub struct Header {
    /// Request / response / event.
    pub msg_type: MsgType,
    /// Hierarchical recipient name, e.g. `kvs.put`.
    pub topic: Topic,
    /// Unique id; responses reuse the request's id.
    pub id: MsgId,
    /// Rank of the original sender (not the last forwarder).
    pub src: Rank,
    /// Explicit destination for rank-addressed (ring-plane) requests.
    pub dst: Option<Rank>,
    /// Error number for responses; `0` means success.
    pub errnum: u32,
    /// Response-routing stack (see type-level docs).
    pub hops: Vec<Rank>,
}

/// A message's JSON payload frame, shared by reference.
///
/// Payloads are immutable once attached to a message. Sharing them lets a
/// broker fan a large event out to many children — and the simulator
/// duplicate in-flight frames — without deep-copying the value tree at
/// every hop, and lets the cost model read the payload's wire size once
/// instead of re-traversing it per send. Reads go through `Deref`, so a
/// `Payload` is used exactly like a [`Value`]; to mutate, clone the inner
/// value out ([`Payload::into_value`] or `value().clone()`) and build a
/// fresh payload.
///
/// Beside the value a payload has one write-once **memo slot**
/// ([`Payload::memo`]): a receiver's decoded view of the value, shared by
/// every clone of this payload. It is a pure function of the value, so it
/// is no part of the payload's identity — `==`, `Debug`, encoding and
/// [`Payload::encoded_len`] ignore it — and it never crosses a socket: a
/// decoded frame is a fresh `Payload` with an empty slot. Only in-process
/// links (the simulator, the channel link) hand the same payload, and so
/// the same memo, to more than one broker.
#[derive(Clone)]
pub struct Payload {
    inner: Arc<PayloadInner>,
}

struct PayloadInner {
    value: Value,
    encoded_len: OnceLock<usize>,
    /// `dyn Any` only because this crate cannot name its users' types.
    memo: OnceLock<Arc<dyn Any + Send + Sync>>,
}

impl Payload {
    /// The payload value.
    pub fn value(&self) -> &Value {
        &self.inner.value
    }

    /// Unwraps into the inner [`Value`], cloning only if the payload is
    /// still shared with another message.
    pub fn into_value(self) -> Value {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.value,
            Err(shared) => shared.value.clone(),
        }
    }

    /// The length of the payload's canonical encoding, computed once per
    /// payload and cached — every hop of a fan-out reads the same number.
    pub fn encoded_len(&self) -> usize {
        *self.inner.encoded_len.get_or_init(|| self.inner.value.encoded_len())
    }

    /// The memo slot's `T`, built from the value by `build` on first use.
    ///
    /// The first type stored wins the slot for the payload's lifetime; a
    /// caller asking for another type gets its own `build` result,
    /// un-memoized. `build` must depend on the value alone: whichever
    /// holder of the payload calls first decides what all of them read.
    pub fn memo<T: Any + Send + Sync>(&self, build: impl FnOnce(&Value) -> T) -> Arc<T> {
        let value = &self.inner.value;
        if let Some(held) = self.inner.memo.get() {
            return Arc::clone(held).downcast().unwrap_or_else(|_| Arc::new(build(value)));
        }
        let built = Arc::new(build(value));
        // A holder on another thread may have stored meanwhile: what the
        // slot holds wins, so every holder reads one view.
        let held = self.inner.memo.get_or_init(|| Arc::clone(&built) as _);
        Arc::clone(held).downcast().unwrap_or(built)
    }

    /// The memo slot's `T` if a holder stored one, without building it:
    /// for a reader that would rather decode for itself than allocate a
    /// memo nobody else may read.
    pub fn memoized<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        Arc::clone(self.inner.memo.get()?).downcast().ok()
    }
}

impl From<Value> for Payload {
    fn from(value: Value) -> Payload {
        let (encoded_len, memo) = (OnceLock::new(), OnceLock::new());
        Payload { inner: Arc::new(PayloadInner { value, encoded_len, memo }) }
    }
}

impl Deref for Payload {
    type Target = Value;
    fn deref(&self) -> &Value {
        &self.inner.value
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner.value == other.inner.value
    }
}

impl PartialEq<Value> for Payload {
    fn eq(&self, other: &Value) -> bool {
        self.inner.value == *other
    }
}

impl PartialEq<Payload> for Value {
    fn eq(&self, other: &Payload) -> bool {
        *self == other.inner.value
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.value.fmt(f)
    }
}

/// A complete message: header frame + JSON payload frame.
#[derive(Clone, PartialEq, Debug)]
pub struct Message {
    /// The header frame.
    pub header: Header,
    /// The JSON payload frame, shared by reference across clones.
    pub payload: Payload,
}

impl Message {
    /// Builds an RPC request.
    pub fn request(topic: Topic, id: MsgId, src: Rank, payload: impl Into<Payload>) -> Message {
        Message {
            header: Header {
                msg_type: MsgType::Request,
                topic,
                id,
                src,
                dst: None,
                errnum: 0,
                hops: Vec::new(),
            },
            payload: payload.into(),
        }
    }

    /// Builds a rank-addressed request (carried on the ring plane).
    pub fn request_to(
        topic: Topic,
        id: MsgId,
        src: Rank,
        dst: Rank,
        payload: impl Into<Payload>,
    ) -> Message {
        let mut m = Message::request(topic, id, src, payload);
        m.header.dst = Some(dst);
        m
    }

    /// Builds the successful response to `req`, preserving its id, topic
    /// and hop stack (ready for reverse routing).
    pub fn response_to(req: &Message, payload: impl Into<Payload>) -> Message {
        Message {
            header: Header {
                msg_type: MsgType::Response,
                topic: req.header.topic.clone(),
                id: req.header.id,
                src: req.header.src,
                dst: req.header.dst,
                errnum: 0,
                hops: req.header.hops.clone(),
            },
            payload: payload.into(),
        }
    }

    /// Builds an error response to `req` with the given error number.
    pub fn error_response_to(req: &Message, errnum: u32) -> Message {
        let mut m = Message::response_to(
            req,
            Value::from_pairs([("errstr", Value::from(errnum::strerror(errnum)))]),
        );
        m.header.errnum = errnum;
        m
    }

    /// Builds a published event.
    pub fn event(topic: Topic, id: MsgId, src: Rank, payload: impl Into<Payload>) -> Message {
        Message {
            header: Header {
                msg_type: MsgType::Event,
                topic,
                id,
                src,
                dst: None,
                errnum: 0,
                hops: Vec::new(),
            },
            payload: payload.into(),
        }
    }

    /// The plane this message travels on, read from its shape: events
    /// use the event plane, rank-addressed requests and their responses
    /// the ring, the rest the tree.
    pub fn plane(&self) -> Plane {
        match (self.header.msg_type, self.header.dst) {
            (MsgType::Event, _) => Plane::Event,
            (MsgType::Request | MsgType::Response, Some(_)) => Plane::Ring,
            (MsgType::Request | MsgType::Response, None) => Plane::Tree,
        }
    }

    /// True if this is a response carrying an error.
    pub fn is_error(&self) -> bool {
        self.header.msg_type == MsgType::Response && self.header.errnum != 0
    }

    /// The length of [`Message::encode`]'s output, in bytes: what the
    /// simulator's transfer-cost model charges for a send. Computed
    /// without allocating: the header length is summed arithmetically and
    /// the payload's is cached inside the shared [`Payload`].
    pub fn wire_size(&self) -> usize {
        crate::codec::header_wire_len(&self.header) + self.payload.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic(s: &str) -> Topic {
        Topic::new(s).unwrap()
    }

    fn id(o: u32, s: u64) -> MsgId {
        MsgId { origin: Rank(o), seq: s }
    }

    #[test]
    fn request_constructor_defaults() {
        let m = Message::request(topic("svc.get"), id(2, 9), Rank(2), Value::Null);
        assert_eq!(m.header.msg_type, MsgType::Request);
        assert_eq!(m.header.errnum, 0);
        assert!(m.header.dst.is_none());
        assert!(m.header.hops.is_empty());
        assert!(!m.is_error());
    }

    #[test]
    fn response_preserves_identity_and_hops() {
        let mut req = Message::request(topic("svc.get"), id(2, 9), Rank(2), Value::Null);
        req.header.hops = vec![Rank(2), Rank(1)];
        let resp = Message::response_to(&req, Value::Int(1));
        assert_eq!(resp.header.id, req.header.id);
        assert_eq!(resp.header.topic, req.header.topic);
        assert_eq!(resp.header.hops, req.header.hops);
        assert_eq!(resp.header.msg_type, MsgType::Response);
    }

    #[test]
    fn error_response_carries_errnum_and_string() {
        let req = Message::request(topic("nosuch.thing"), id(0, 1), Rank(0), Value::Null);
        let resp = Message::error_response_to(&req, errnum::ENOSYS);
        assert!(resp.is_error());
        assert_eq!(resp.header.errnum, errnum::ENOSYS);
        assert!(resp.payload.get("errstr").unwrap().as_str().unwrap().contains("implement"));
    }

    #[test]
    fn rank_addressed_request() {
        let m = Message::request_to(topic("ping"), id(1, 1), Rank(1), Rank(5), Value::Null);
        assert_eq!(m.header.dst, Some(Rank(5)));
    }

    #[test]
    fn the_plane_is_rebuilt_from_the_message_shape() {
        let t = || topic("probe.ask");
        let ring = Message::request_to(t(), id(0, 1), Rank(0), Rank(2), Value::Null);
        assert_eq!(Message::event(t(), id(0, 1), Rank(0), Value::Null).plane(), Plane::Event);
        assert_eq!(Message::request(t(), id(0, 1), Rank(0), Value::Null).plane(), Plane::Tree);
        assert_eq!(ring.plane(), Plane::Ring);
        assert_eq!(Message::response_to(&ring, Value::Null).plane(), Plane::Ring);
    }

    #[test]
    fn msg_type_byte_roundtrip() {
        for t in [MsgType::Request, MsgType::Response, MsgType::Event] {
            assert_eq!(MsgType::from_byte(t.to_byte()), Some(t));
        }
        assert_eq!(MsgType::from_byte(0), None);
        assert_eq!(MsgType::from_byte(9), None);
    }

    #[test]
    fn memo_is_built_once_shared_by_clones_and_never_crosses_the_codec() {
        let m = Message::event(topic("hb"), id(0, 1), Rank(0), Value::Int(7));
        let bare = m.clone();
        let (bare_debug, bare_size) = (format!("{bare:?}"), bare.wire_size());
        assert!(m.payload.memoized::<Option<i64>>().is_none(), "nothing stored yet");
        let first = m.payload.memo(|v| v.as_int().map(|n| n * 2));
        assert_eq!(*first, Some(14));
        // A clone shares the slot: its build never runs.
        let again = m.clone().payload.memo(|_| -> Option<i64> { panic!("built twice") });
        assert!(Arc::ptr_eq(&first, &again));
        // The first type stored wins; another type builds un-memoized.
        assert_eq!(*m.payload.memo(|_| "other"), "other");
        assert!(Arc::ptr_eq(&first, &m.payload.memo(|_| None::<i64>)));
        assert!(Arc::ptr_eq(&first, &m.payload.memoized::<Option<i64>>().expect("stored")));
        assert!(m.payload.memoized::<&str>().is_none(), "another type reads nothing");
        // Identity ignores the slot.
        let fresh = Message::event(topic("hb"), id(0, 1), Rank(0), Value::Int(7));
        assert_eq!(m, fresh);
        assert_eq!((format!("{m:?}"), m.wire_size()), (bare_debug, bare_size));
        assert_eq!(m.encode(), fresh.encode());
        // A decoded frame is a fresh payload with an empty slot.
        let (decoded, _) = Message::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(*decoded.payload.memo(|_| None::<i64>), None);
    }
}
