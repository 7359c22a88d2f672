//! # flux-core
//!
//! The Flux framework layer: the conceptual design of §II–III of the
//! ICPP'14 paper, as an executable library.
//!
//! * **Generalized resource model** ([`resource`]) — an extensible typed
//!   resource graph (center → cluster → rack → node → socket → core,
//!   plus power, filesystems, bandwidth, licenses) instead of the
//!   traditional flat node list.
//! * **Unified job model** ([`instance`]) — a job *is* a full Flux
//!   instance: it owns a resource grant, runs its own scheduler, and can
//!   recursively host sub-jobs (which may themselves be instances). The
//!   three hierarchy rules are enforced as invariants:
//!   *parent bounding* (a child's allocation never exceeds its grant),
//!   *child empowerment* (the child schedules its grant alone), and
//!   *parental consent* (grow/shrink requests are granted or denied by
//!   the parent).
//! * **Schedulers** ([`sched`]) — pluggable per instance: FCFS and
//!   EASY backfill, both power-aware. Hierarchical scheduling — a parent
//!   leasing coarse resource blocks to child instances that schedule
//!   their own workloads — is what the paper's "scheduler parallelism"
//!   argument is about; ablation A2 (EXPERIMENTS.md) measures it.
//! * **Multilevel elasticity** ([`instance::Instance::request_grow`]) —
//!   allocations can grow and shrink at run time, with different
//!   elasticity for different resource types (power reshapes instantly;
//!   nodes only when free).
//!
//! The framework layer deliberately runs on its own virtual clock (it is
//! a scheduling engine, not a message system); the run-time substrate —
//! brokers, KVS, wexec — lives in the sibling crates, and the
//! `hierarchical_jobs` example shows the two composed.


#![forbid(unsafe_code)]
#![deny(missing_docs)]
pub mod instance;
pub mod jobspec;
pub mod resource;
pub mod sched;
pub mod spec;
pub mod workload;

/// The seeded PRNG, re-exported from its home in `flux-sim`.
pub use flux_sim::rng;

pub use instance::{GrowError, Instance, InstanceConfig, JobEvent, JobId, JobState};
pub use jobspec::{Elasticity, JobSpec};
pub use resource::{Resource, ResourceId, ResourceKind, ResourcePool};
pub use sched::{EasyBackfill, Fcfs, RunningView, Scheduler};
pub use spec::SpecError;
pub use workload::Workload;
