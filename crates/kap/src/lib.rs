//! # flux-kap
//!
//! KAP — *KVS Access Patterns* — the dedicated test the paper uses to
//! evaluate the CMB and KVS prototypes (§V): *"KAP allows a configurable
//! number of producers to write key-value objects into our KVS and a
//! configurable number of consumers to read these objects after ensuring
//! the consistent KVS state."*
//!
//! A run has the paper's four phases:
//!
//! 1. **setup** — one tester process per core (16 per node, consecutive
//!    ranks on consecutive nodes) joins a collective barrier;
//! 2. **producer** — each producer issues `nputs` `kvs_put`s of
//!    `value_size`-byte values under unique keys;
//! 3. **synchronization** — everyone enters `kvs_fence`;
//! 4. **consumer** — each consumer issues `kvs_get`s for its slice of the
//!    objects.
//!
//! The metric is the paper's: **maximum phase latency** across processes
//! — the critical path of bootstrap-style coordinated KVS use.
//!
//! Parameters mirror §V: value size (8 B – 32 KiB), producer/consumer
//! counts, per-consumer access counts and striding, unique vs *redundant*
//! values (Fig. 3), and single- vs multi-directory key layouts of at most
//! 128 objects per directory (Fig. 4).

pub mod ablate;
pub mod bench;
pub mod layout;
pub mod model;
pub mod report;
mod runner;

pub use runner::{
    run_kap, run_kap_full, KapParams, KapResult, KapRun, ProcPhases, ProducerMode, SyncMode,
};
