//! # flux-sim
//!
//! A deterministic discrete-event simulator (DES) standing in for the
//! paper's test clusters (Zin/Cab: 64–512 nodes × 16 cores, QDR
//! Infiniband).
//!
//! ## Why a simulator
//!
//! The ICPP'14 evaluation ran the CMB/KVS prototype on up to 512 real
//! nodes. We reproduce the *protocol* exactly (the same sans-io broker,
//! module, and KVS state machines run here and on the threaded runtime)
//! and replace the hardware with a cost model, so the paper's full scale
//! (8192 ranks) fits in one process and results are bit-reproducible.
//! The paper's findings are shape claims — linear vs logarithmic scaling
//! of fence and get, the effect of value redundancy and directory layout —
//! and those shapes are produced by what the protocol concatenates,
//! reduces, and faults through cache chains, which the DES models
//! faithfully:
//!
//! * every message transfer costs `latency + size/bandwidth`,
//! * each actor's transmit side is serialized (store-and-forward: a big
//!   reduction payload delays the next send),
//! * each actor's receive side is serialized with a per-message +
//!   per-byte processing cost (a hot KVS master or interior cache node
//!   queues, which is where the paper's contention effects come from).
//!
//! ## Model
//!
//! A simulation is a set of [`Actor`]s placed on *nodes*. Actors exchange
//! [`flux_wire::Message`]s; the engine computes arrival times from the
//! [`NetParams`] cost model, using the IPC cost class for same-node
//! traffic (the paper's 16 client processes per node talk to their local
//! broker over a UNIX domain socket) and the network class otherwise.
//! Virtual time is [`SimTime`] nanoseconds. Failure injection kills
//! actors; messages to or from dead actors vanish, as on a real network.
//!
//! # Example
//!
//! ```
//! use flux_sim::{Actor, Ctx, Engine, NetParams, SimTime};
//! use flux_wire::{Message, MsgId, Rank, Topic};
//! use flux_value::Value;
//!
//! struct Echo;
//! impl Actor for Echo {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, from: flux_sim::ActorId, msg: Message) {
//!         ctx.send(from, Message::response_to(&msg, Value::from("pong")));
//!     }
//! }
//!
//! struct Pinger { peer: flux_sim::ActorId, got: bool }
//! impl Actor for Pinger {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         let m = Message::request(Topic::from_static("ping"),
//!             MsgId { origin: Rank(0), seq: 1 }, Rank(0), Value::Null);
//!         ctx.send(self.peer, m);
//!     }
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: flux_sim::ActorId, msg: Message) {
//!         assert_eq!(msg.payload.as_str(), Some("pong"));
//!         self.got = true;
//!     }
//! }
//!
//! let mut eng = Engine::new(NetParams::default());
//! let n0 = eng.add_node();
//! let n1 = eng.add_node();
//! let echo = eng.add_actor(n1, Box::new(Echo));
//! eng.add_actor(n0, Box::new(Pinger { peer: echo, got: false }));
//! let end: SimTime = eng.run();
//! assert!(end.as_nanos() > 0);
//! ```


#![forbid(unsafe_code)]
#![deny(missing_docs)]
mod actor;
mod arena;
mod engine;
mod net;
mod queue;
pub mod rng;
mod time;

pub use actor::{Actor, ActorId, Ctx, NodeId};
pub use engine::{Engine, EngineStats, PendingEvent, PendingKind, Throughput};
pub use net::NetParams;
pub use time::{SimDuration, SimTime};
