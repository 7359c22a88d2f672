//! # flux-rt
//!
//! Runtimes that host the sans-io CMB brokers:
//!
//! * [`sim::SimSession`] — a comms session on the deterministic
//!   discrete-event simulator (`flux-sim`). One actor per broker, one
//!   actor per attached client process, the paper's cost model on every
//!   link. This is where paper-scale runs (512 nodes × 16 processes)
//!   happen, measured in virtual time.
//! * [`threads::ThreadSession`] — the same brokers on real OS threads
//!   connected by std mpsc channels, measured in wall-clock time. Used
//!   by integration tests and small live demos; it demonstrates that the
//!   protocol stack is runtime-agnostic (nothing in broker/module/KVS
//!   code knows which runtime it is on).
//! * [`tcp::TcpSession`] — the brokers wired over real loopback TCP
//!   sockets carrying length-prefixed `flux-wire` frames, every socket
//!   nonblocking (the `reactor` module behind [`tcp`]): pooled
//!   broker→broker links, pipelined socket clients, jittered nonblocking
//!   connect retry. The closest analogue of the prototype's ØMQ TCP
//!   overlay.
//!
//! The two live runtimes are one: one thread per broker running the one
//! host loop, one [`Session`] / [`SessionBuilder`] pair, and a link
//! (channel | nonblocking socket) that is the only thing they differ in.
//! The [`transport`] module selects among them at runtime:
//! [`transport::LiveTransport`] is a live runtime as a value (link, fault
//! plan, op timeout), and [`transport::ScriptTransport`] runs scripted
//! client workloads on any of the three runtimes, including the
//! simulator.
//!
//! All runtimes load arbitrary [`flux_broker::CommsModule`] sets, attach
//! any number of clients per broker, and reconstruct message planes from
//! message shape (events → event plane, rank-addressed → ring, otherwise
//! tree), so the wire behaviour matches the paper's three-plane wire-up.
//!
//! Fault injection ([`faults::FaultPlan`]) rides below all of this: the
//! simulator applies a plan natively in virtual time, and the live
//! runtimes apply the same plan per broker host, so one seeded fault
//! schedule drives chaos tests on every backend (see [`chaos`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
pub mod chaos;
pub mod faults;
pub(crate) mod live;
pub(crate) mod reactor;
pub mod script;
pub mod sim;
pub mod tcp;
pub mod threads;
pub mod transport;

pub use faults::FaultPlan;
pub use live::{LiveClient, Session, SessionBuilder};

use flux_wire::{Message, MsgType, Plane};

/// Infers the plane a message travelled on from its shape: events use the
/// event plane, rank-addressed requests/responses the ring, the rest the
/// tree. (The sans-io broker only branches on message type and direction,
/// so this reconstruction is exact.)
pub(crate) fn plane_of(msg: &Message) -> Plane {
    match msg.header.msg_type {
        MsgType::Event => Plane::Event,
        _ if msg.header.dst.is_some() => Plane::Ring,
        _ => Plane::Tree,
    }
}
