//! # flux-wire
//!
//! The CMB message format and wire codec.
//!
//! Per the ICPP'14 Flux paper (§IV-A): *"All CMB messages have a uniform,
//! multi-part message format consisting of at least a header frame and a
//! JSON frame. The header frame identifies the message recipient using a
//! hierarchical name space."* This crate defines:
//!
//! * [`Rank`] — a node's position in a comms session,
//! * [`Topic`] — the hierarchical service name space (`kvs.put` routes to
//!   the `kvs` comms module, handler `put`),
//! * [`Header`] and [`Message`] — the multi-part message (header frame +
//!   [`flux_value::Value`] JSON frame),
//! * [`Plane`] — which of the three overlay planes carries a message
//!   (event bus, request/response tree, rank-addressed ring),
//! * a binary codec ([`Message::encode`] / [`Message::decode`]) with framed,
//!   self-delimiting messages, used by both runtimes,
//! * [`errnum`] — POSIX-flavoured error numbers carried by responses,
//! * [`IdMap`] / [`IdSet`] — hash tables for computed or broker-minted ids.
//!
//! Requests are routed *upstream* in the tree to the first comms module
//! matching the topic; responses retrace the recorded hops in reverse
//! (the header carries the hop stack). Rank-addressed requests travel the
//! ring plane instead.
//!
//! # Example
//!
//! ```
//! use flux_wire::{Message, MsgId, Rank, Topic};
//! use flux_value::Value;
//!
//! let req = Message::request(
//!     Topic::new("store.put").unwrap(),
//!     MsgId { origin: Rank(3), seq: 1 },
//!     Rank(3),
//!     Value::from_pairs([("key", Value::from("a.b.c")), ("val", Value::Int(42))]),
//! );
//! let bytes = req.encode();
//! let (back, used) = Message::decode(&bytes).unwrap();
//! assert_eq!(used, bytes.len());
//! assert_eq!(back, req);
//! assert_eq!(back.header.topic.service(), "store");
//! ```


#![forbid(unsafe_code)]
#![deny(missing_docs)]
mod codec;
pub mod errnum;
pub mod frame;
mod idmap;
mod message;
mod rank;
mod topic;

pub use codec::WireError;
pub use idmap::{IdHasher, IdMap, IdSet};
pub use message::{Header, Message, MsgId, MsgType, Payload, Plane};
pub use rank::Rank;
pub use topic::{Topic, TopicError};

#[cfg(test)]
mod proptests;
