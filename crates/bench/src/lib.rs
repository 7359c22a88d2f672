//! # flux-bench
//!
//! The evaluation harness crate: Criterion benches (one per paper table
//! and figure, plus the ablations listed in DESIGN.md), the runnable
//! examples in the repository's `examples/`, and the cross-crate
//! integration tests in `tests/`.
//!
//! DES-based benches report **virtual time** through Criterion's
//! `iter_custom`: the measured quantity is the simulated phase latency at
//! a fixed (reduced) scale, so `cargo bench` regenerates the figures'
//! shapes quickly; the `kap` binary (flux-kap) runs the full paper-scale
//! sweeps.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod rpc;

use flux_kap::{run_kap, KapParams};
use std::time::Duration;

/// Runs a KAP configuration and reports the chosen phase as a wall-like
/// `Duration` (virtual nanoseconds), for `iter_custom`.
pub fn virtual_phase(params: &KapParams, phase: Phase) -> Duration {
    let r = run_kap(params);
    let ns = match phase {
        Phase::Producer => r.producer_ns,
        Phase::Sync => r.sync_ns,
        Phase::Consumer => r.consumer_ns,
        Phase::Makespan => r.makespan_ns,
    };
    Duration::from_nanos(ns)
}

/// Which KAP phase a bench measures.
#[derive(Clone, Copy, Debug)]
pub enum Phase {
    /// kvs_put phase (Fig. 2).
    Producer,
    /// kvs_fence phase (Fig. 3).
    Sync,
    /// kvs_get phase (Fig. 4).
    Consumer,
    /// Whole run.
    Makespan,
}

/// The reduced node scales benches sweep (full scales live in the `kap`
/// binary; these keep `cargo bench` minutes-fast on one core).
pub const BENCH_SCALES: [u32; 3] = [8, 16, 32];

/// Reduced processes per node for benches.
pub const BENCH_PPN: u32 = 4;

/// A bench-sized KAP parameter set at `nodes` nodes.
pub fn bench_params(nodes: u32) -> KapParams {
    let mut p = KapParams::fully_populated(nodes);
    p.procs_per_node = BENCH_PPN;
    p.producers = p.total_procs();
    p.consumers = p.total_procs();
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_phase_reports_positive_durations() {
        let p = bench_params(4);
        assert!(virtual_phase(&p, Phase::Sync) > Duration::ZERO);
        assert!(virtual_phase(&p, Phase::Makespan) >= virtual_phase(&p, Phase::Consumer));
    }
}
