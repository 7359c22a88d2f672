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
//!   length-prefixed `flux-wire` frames, every socket nonblocking: one
//!   connection per ordered broker pair, pipelined socket clients,
//!   jittered connect retry. The link's protocol state is the sans-io
//!   `link` module, which the `reactor` module behind [`tcp`] drives
//!   over the sockets. The closest analogue of the prototype's ØMQ TCP
//!   overlay, measured in wall-clock time; it shows that the protocol
//!   stack is runtime-agnostic (nothing in broker/module/KVS code knows
//!   which runtime it is on).
//!
//! Both runtimes host each broker through one sans-io `host::Host`: it
//! applies the fault plan's broker-side rules and turns the broker's
//! outputs into effects (send, reply, timer), and the simulator's actor
//! and the live runtime's thread only carry them out. The live runtime
//! is one host loop and one [`Session`] / [`SessionBuilder`] pair over
//! one socket link. The [`transport`] module selects between the
//! runtimes: [`transport::LiveTransport`] is the live runtime as a value
//! (fault plan, op timeout), and [`transport::ScriptTransport`] runs
//! scripted client workloads on either, the simulator included. Every script, on either runtime, runs
//! on the one sans-io interpreter [`script::Script`]; the simulator's
//! actor and the live runtime's thread only move its messages and keep
//! its clock.
//!
//! Both runtimes load arbitrary [`flux_broker::CommsModule`] sets, attach
//! any number of clients per broker, and (in the host) reconstruct
//! message planes from message shape (events → event plane, rank-addressed → ring, otherwise
//! tree), so the wire behaviour matches the paper's three-plane wire-up.
//!
//! Fault injection ([`faults::FaultPlan`]) rides below all of this: the
//! one broker host applies a plan on both runtimes, in virtual time on
//! the simulator and in wall time on the live runtime, so one seeded
//! fault schedule drives chaos tests on both backends (see [`chaos`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
pub mod chaos;
pub mod faults;
pub(crate) mod host;
pub(crate) mod link;
pub(crate) mod live;
pub(crate) mod reactor;
pub mod script;
pub mod sim;
pub mod tcp;
pub mod transport;

pub use faults::FaultPlan;
pub use live::{LiveClient, Session, SessionBuilder};
