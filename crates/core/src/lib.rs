//! # flux-core
//!
//! The Flux framework layer: the job model of §II–III of the ICPP'14
//! paper, as an executable library.
//!
//! * **Unified job model** ([`instance`]) — a job *is* a full Flux
//!   instance: it owns a resource grant, runs its own scheduler, and can
//!   recursively host sub-jobs (which may themselves be instances). The
//!   three hierarchy rules are enforced as invariants:
//!   *parent bounding* (a child's allocation never exceeds its grant),
//!   *child empowerment* (the child schedules its grant alone), and
//!   *parental consent* (grow requests are granted only from the
//!   parent's free capacity).
//! * **Schedulers** ([`sched`]) — pluggable per instance: FCFS and
//!   EASY backfill, both power-aware. Hierarchical scheduling — a parent
//!   leasing coarse resource blocks to child instances that schedule
//!   their own workloads — is what the paper's "scheduler parallelism"
//!   argument is about; ablation A2 (EXPERIMENTS.md) measures it.
//! * **Multilevel elasticity** ([`instance::Instance::request_grow`]) —
//!   a child instance's grant can grow and shrink at run time, with
//!   different elasticity for different resource types (power reshapes
//!   instantly; nodes only when free). Jobs are rigid or moldable.
//!
//! A grant is a node count and a power budget. The framework layer runs
//! on its own virtual clock (it is a scheduling engine, not a message
//! system) and drives none of the run-time substrate — brokers, KVS,
//! `resvc`, `wexec` — in the sibling crates.

pub mod instance;
pub mod jobspec;
pub mod sched;
pub mod workload;

/// The seeded PRNG, re-exported from its home in `flux-sim`.
pub use flux_sim::rng;

pub use instance::{GrowError, Instance, InstanceConfig, JobEvent, JobId, JobState};
pub use jobspec::{Elasticity, JobSpec};
pub use sched::{EasyBackfill, Fcfs, RunningView, Scheduler};
pub use workload::Workload;
