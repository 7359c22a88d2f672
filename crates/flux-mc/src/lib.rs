//! flux-mc: a stateless model checker for the flux broker tree.
//!
//! The deterministic simulator (`flux-sim`) already makes every run
//! bit-reproducible; this crate adds *controlled* scheduling on top:
//! it drives a [`SimSession`](flux_rt::sim::SimSession) one event at a
//! time, systematically explores message-delivery interleavings and
//! duplications, and checks protocol invariants on every schedule:
//!
//! * per-client KVS history consistency (`flux_kvs::history`),
//! * at-most-once application of fence and push batches (version
//!   overrun detection),
//! * exactly one reply per decoded RPC-kind request,
//! * fence/barrier completion (post-fence reads observe every
//!   participant's write-back set; no script stalls at quiescence).
//!
//! A violation is reported as a minimal replayable trace
//! (`flux-mc:v1:<scenario>:<deviations>`); feed it back through
//! [`replay_trace`] — or set `FLUX_MC_TRACE` when running the test
//! suite — to re-execute exactly the failing schedule under a debugger.
//!
//! See `DESIGN.md` §13 for the exploration algorithm and its reduction
//! rules.

mod explore;
mod run;
mod scenario;
mod trace;

pub use explore::{
    explore, replay_trace, ExploreConfig, ExploreReport, ExploreStats, FoundViolation,
};
pub use run::{RunOutcome, StepInfo, Violation, ViolationKind};
pub use scenario::{ModuleSet, Scenario};
pub use trace::{Choice, Schedule};
