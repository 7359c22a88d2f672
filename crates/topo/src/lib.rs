//! # flux-topo
//!
//! Overlay network topologies for the CMB's three message planes.
//!
//! The paper (§IV-A) interconnects the per-node CMB daemons with a
//! request/response **tree** whose shape is configurable ("Although a
//! binary RPC/reduction tree is pictured, the tree shape is configurable"),
//! plus a **ring** overlay "which allows ranks to be trivially reached
//! without routing tables", and an event bus. This crate provides the
//! topology math those planes are built on:
//!
//! * [`Tree`] — a complete k-ary tree over ranks `0..size`, rank 0 at the
//!   root; parent/children/depth/ancestor queries and upstream routing.
//! * [`Ring`] — the rank-addressed overlay; next-hop and hop-count math.
//! * [`LiveSet`] — tracked node liveness with self-heal reparenting: when
//!   an interior node dies, its children re-attach to the nearest live
//!   ancestor, which is how the planes "self-heal when interior nodes
//!   fail".
//!
//! # Example
//!
//! ```
//! use flux_topo::Tree;
//! use flux_wire::Rank;
//!
//! let t = Tree::new(7, 2); // 7 ranks, binary
//! assert_eq!(t.parent(Rank(5)), Some(Rank(2)));
//! assert_eq!(t.children(Rank(1)), vec![Rank(3), Rank(4)]);
//! assert_eq!(t.depth(Rank(6)), 2);
//! ```

mod live;
mod ring;
mod tree;

pub use live::LiveSet;
pub use ring::Ring;
pub use tree::Tree;

#[cfg(test)]
mod proptests;
