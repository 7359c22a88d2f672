//! # flux-broker
//!
//! The Comms Message Broker (CMB): the per-node daemon at the heart of a
//! Flux comms session (paper §IV-A).
//!
//! A comms session interconnects one broker per node with three overlay
//! planes (Fig. 1 of the paper):
//!
//! * an **event plane** — publish/subscribe with session-wide, in-order,
//!   guaranteed delivery: publications travel up the tree to rank 0, which
//!   stamps a session-wide sequence number and fans them back down;
//! * a **tree plane** — the request/response k-ary tree used for RPCs,
//!   barriers, and reductions: requests route *upstream* to the first
//!   loaded comms module whose name matches the topic's service, and
//!   responses retrace the recorded hops in reverse; every reduction is
//!   one [`reduce::Reduction`];
//! * a **ring plane** — rank-addressed RPC without routing tables, used by
//!   debugging tools (`cmb.ping` and friends).
//!
//! Services are **comms modules** ([`CommsModule`]) loaded into the broker,
//! exchanging messages over shared memory in the prototype; here they are
//! plain trait objects dispatched in-process. External programs attach as
//! **clients** over a local connection and speak the same wire protocol.
//!
//! The broker is written *sans-io*: [`Broker::handle`] consumes one
//! [`Input`] and appends [`Output`]s describing what the runtime should
//! transmit or schedule. The same broker code therefore runs unmodified on
//! the deterministic simulator (`flux-sim`, virtual time, 8192 ranks) and
//! on the live runtime (`flux-rt`, loopback TCP sockets and wall clocks).
//!
//! ## Self-healing
//!
//! The broker tracks session liveness (fed by `live.down`/`live.up`
//! events, produced by the `live` module). Tree routing always uses the
//! *effective* parent/children — dead interior nodes are skipped, which is
//! how the planes "self-heal when interior nodes fail". Root failure ends
//! the session, as in the paper's prototype.


#![forbid(unsafe_code)]
#![deny(missing_docs)]
mod broker;
pub mod testing;
mod builtin;
pub mod client;
mod config;
mod io;
mod module;
pub mod reduce;

pub use broker::Broker;
pub use config::{BrokerConfig, RankOverlay};
pub use io::{ClientId, Input, Output};
pub use module::{requester_of, CommsModule, Handled, ModuleCtx, Requester};
