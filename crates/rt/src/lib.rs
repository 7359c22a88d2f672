//! # flux-rt
//!
//! Runtimes that host the sans-io CMB brokers:
//!
//! * [`sim::SimSession`] — a comms session on the deterministic
//!   discrete-event simulator (`flux-sim`). One actor per broker, one
//!   actor per attached client process, the paper's cost model on every
//!   link. This is where paper-scale runs (512 nodes × 16 processes)
//!   happen, measured in virtual time.
//! * [`tcp::TcpSession`] — the same brokers on real OS threads, one per
//!   broker, wired over real loopback TCP sockets carrying
//!   length-prefixed `flux-wire` frames, every socket nonblocking (the
//!   `reactor` module behind [`tcp`]): pooled broker→broker links,
//!   pipelined socket clients, jittered nonblocking connect retry. The
//!   closest analogue of the prototype's ØMQ TCP overlay, measured in
//!   wall-clock time; it shows that the protocol stack is
//!   runtime-agnostic (nothing in broker/module/KVS code knows which
//!   runtime it is on).
//!
//! The live runtime is one host loop and one [`Session`] /
//! [`SessionBuilder`] pair over one socket link. The [`transport`]
//! module selects between the runtimes: [`transport::LiveTransport`] is
//! the live runtime as a value (fault plan, op timeout), and
//! [`transport::ScriptTransport`] runs scripted client workloads on
//! either, the simulator included.
//!
//! All runtimes load arbitrary [`flux_broker::CommsModule`] sets, attach
//! any number of clients per broker, and reconstruct message planes from
//! message shape (events → event plane, rank-addressed → ring, otherwise
//! tree), so the wire behaviour matches the paper's three-plane wire-up.
//!
//! Fault injection ([`faults::FaultPlan`]) rides below all of this: the
//! simulator applies a plan natively in virtual time, and the live
//! runtime applies the same plan per broker host, so one seeded fault
//! schedule drives chaos tests on both backends (see [`chaos`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
pub mod chaos;
pub mod faults;
pub(crate) mod live;
pub(crate) mod reactor;
pub mod script;
pub mod sim;
pub mod tcp;
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
