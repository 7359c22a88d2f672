//! # flux-kvs
//!
//! The Flux distributed key-value store (paper §IV-B).
//!
//! JSON values live in a content-addressable object store, hashed by the
//! SHA1 of their canonical encoding — the hash-tree design borrowed from
//! ZFS and git. Hierarchical key names (`a.b.c`) resolve through
//! directory objects; every update produces a new root reference, which
//! the **master** (the KVS module instance on rank 0) publishes as a
//! versioned `kvs.setroot` event. **Slave** instances on every other
//! broker cache objects, switch roots in version order, and fault missing
//! objects from their tree parent, recursively up to the master.
//!
//! The store provides exactly the paper's weak-consistency contract
//! (Vogels' taxonomy):
//!
//! * **causal consistency** — `kvs.get_version` / `kvs.wait_version`
//!   let process B wait for the store version process A told it about;
//! * **read-your-writes** — a commit response carries the new root
//!   reference, applied at the caller's broker before the caller is
//!   answered;
//! * **monotonic reads** — root references are versioned and never
//!   applied out of order.
//!
//! ## API (client-side, see [`client::KvsClient`] and [`client::Op`])
//!
//! `put` (asynchronous write-back), `commit` (synchronous flush +
//! root switch), `fence` (collective commit: contributions are merged
//! upstream through the tree — duplicate value objects deduplicate at
//! every hop while `(key, SHA1)` tuples concatenate, reproducing the
//! paper's Fig. 3 redundancy behaviour), `get` (recursive lookup with
//! fault-in through the slave-cache chain — whole objects only, which is
//! the Fig. 4 single-directory effect), `get_version`, `wait_version`,
//! `watch`, `unlink`, and `dir`. A scripted client is a `Vec<client::Op>`
//! (`flux_rt::script` runs one on either runtime).
//!
//! ## Layout
//!
//! The namespace can be split by key hash across several masters
//! ([`shard`]; [`KvsConfig::shards`]); the paper's single master is the
//! one-shard case of the same code. [`KvsModule`] is a dispatcher over
//! role structs that each own one piece of state — `slots` (per-shard
//! roots), `authority` (the master's apply), `coordinator` (commit and
//! fence fan-out), `fence` (the write set a fence carries up the tree),
//! `reads` and `watch` (lookups, fault-in, watchers) — and [`msg`] is
//! the only code that knows the wire shapes, the client protocol's as
//! well as the internal ones: every client builds its requests and reads
//! its replies there, and the module parses requests there, save the
//! fence's `{name, nprocs, count}`, which the broker's collective spells
//! for the barrier too. The module's own docs hold the role map.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod authority;
pub mod client;
mod coordinator;
mod fence;
pub mod history;
mod inflight;
mod master;
mod module;
pub mod msg;
mod object;
mod path;
mod reads;
pub mod shard;
mod slots;
mod store;
mod watch;

pub use master::{apply_tuples, resolve};
pub use module::{KvsConfig, KvsModule};
pub use object::{KvsObject, ObjectError};
pub use path::{validate_key, KeyError, MAX_KEY_DEPTH, MAX_KEY_LEN};
pub use store::{CacheStats, ObjectCache};

#[cfg(test)]
mod proptests;
/// Unit-test scaffolding beside `flux_broker::testing::with_ctx`, which
/// hosts a role under test in one stand-alone broker.
#[cfg(test)]
pub(crate) mod testutil {
    use flux_broker::Output;
    use flux_proto::KvsMethod;
    use flux_value::Value;
    use flux_wire::{Message, MsgId, Rank};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A request as a local client would have sent it: unique id, one
    /// client hop, so `ctx.respond` surfaces as [`Output::ToClient`].
    pub(crate) fn request(method: KvsMethod, payload: Value) -> Message {
        static SEQ: AtomicU64 = AtomicU64::new(1);
        let id = MsgId { origin: Rank(9_999), seq: SEQ.fetch_add(1, Ordering::Relaxed) };
        let mut msg = Message::request(method.topic(), id, Rank(9_999), payload);
        msg.header.hops.push(Rank::client_hop(7));
        msg
    }

    /// The messages among `outs` (responses, sends, events), in order.
    pub(crate) fn messages(outs: &[Output]) -> Vec<&Message> {
        outs.iter().filter_map(Output::message).collect()
    }
}
