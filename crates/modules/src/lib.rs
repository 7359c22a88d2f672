//! # flux-modules
//!
//! The comms modules of Table I of the ICPP'14 Flux paper, minus `kvs`
//! (which lives in its own crate, `flux-kvs`):
//!
//! | module | paper description |
//! |--------|-------------------|
//! | [`HbModule`] | "A periodic heartbeat event multicast across the comms session synchronizes background activity to reduce scheduling jitter." |
//! | [`LiveModule`] | "Each tree node receives heartbeat-synchronized hello messages from its children. After a configurable number of missed messages, a liveliness event is issued for a dead child." |
//! | [`LogModule`] | "Log messages are reduced and filtered before being placed in a log file at the session root. A circular debug buffer provides log context in response to a fault event." |
//! | [`MonModule`] | "Scripts stored in the KVS activate heartbeat-synchronized sampling. Samples are reduced and stored in the KVS." |
//! | [`GroupModule`] | "Flux groups define and manage collections of processes that can participate in collective operations." |
//! | [`BarrierModule`] | "Collective barriers provide synchronization across Flux groups." |
//! | [`WexecModule`] | "Remote processes can be launched in bulk, monitored, receive signals, and have standard I/O captured in the KVS." |
//! | [`ResvcModule`] | "Resources are enumerated in the KVS and allocated when the scheduler runs an application." |
//!
//! Four of them (and the KVS fence) reduce something up the tree —
//! `log.batch`, `mon.up`, `barrier.up`, `wexec.status.up` — and all do it
//! through the broker's one [`flux_broker::reduce::Reduction`], which
//! stamps every flushed batch `{src, batch}` and merges each at most
//! once; the modules own only what they merge, when they flush and what
//! the root does with the total. The barrier owns less: it is the
//! broker's [`flux_broker::reduce::Collective`], as `kvs.fence` is, with
//! nothing to merge beside the count.
//!
//! [`standard_modules`] builds the full Table I set (including the KVS)
//! for one broker — what a production session loads on every node.


#![forbid(unsafe_code)]
#![deny(missing_docs)]
mod barrier;
mod group;
mod hb;
pub mod live;
mod log;
mod mon;
mod resvc;
mod wexec;

pub use barrier::BarrierModule;
pub use group::GroupModule;
pub use hb::HbModule;
pub use live::LiveModule;
pub use log::LogModule;
pub use mon::MonModule;
pub use resvc::ResvcModule;
pub use wexec::WexecModule;

use flux_broker::CommsModule;

/// A KVS key built from a requester's name, checked by the store's own
/// rule before anything is parked or sent. `Err` is the code `kvs.put`
/// would have answered: a module that stages the write anyway never
/// reads that refusal, and the empty commit behind it succeeds.
pub(crate) fn checked_key(key: String) -> Result<String, u32> {
    match flux_kvs::validate_key(&key) {
        Ok(()) => Ok(key),
        Err(e) => Err(e.errnum()),
    }
}

/// The full Table I module set for one broker, in load order.
pub fn standard_modules() -> Vec<Box<dyn CommsModule>> {
    standard_modules_with_kvs(flux_kvs::KvsConfig::default())
}

/// The standard module set with an explicit KVS configuration — the
/// chaos suites use this to sweep batching settings under faults
/// without forking the rest of the stack.
pub fn standard_modules_with_kvs(kvs: flux_kvs::KvsConfig) -> Vec<Box<dyn CommsModule>> {
    vec![
        Box::new(HbModule::new()),
        Box::new(LiveModule::new()),
        Box::new(log::LogModule::new()),
        Box::new(MonModule::new()),
        Box::new(GroupModule::new()),
        Box::new(BarrierModule::new()),
        Box::new(flux_kvs::KvsModule::with_config(kvs)),
        Box::new(WexecModule::new()),
        Box::new(ResvcModule::new()),
    ]
}
